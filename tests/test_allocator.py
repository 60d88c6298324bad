import math
import random
import sys
from typing import Dict, List, Mapping, Sequence, Tuple

import pytest

from oneguard import harness
from oneguard.allocator import ADDITIVE, ActuatorGroup, ActuatorCommand, GroupTable, allocate, merge_commands
from oneguard.model import NO_GRANTS, Allocation, ResourceRequest

from conftest import DUAL_NTM
from test_config import aim_at_own_group, diagnose, repeat_task, set_at
from test_harness import run_schedule, wide_schedule

UNIT = 0.05  # grant grid used by the brute-force oracle


def group(gid, capacity, semantics="additive", command_range=None):
    return ActuatorGroup(
        id=gid, capacity=capacity, command_range=command_range or (0.0, capacity), semantics=semantics
    )


def req(task, gid, amount, minimum=0.0):
    return ResourceRequest(task_id=task, group_id=gid, amount=amount, min_acceptable=minimum)


def grant_of(allocation, task_id, group_id):
    return allocation.grants.get(task_id, {}).get(group_id, 0.0)


def by_priority(requests, priorities):
    """``requests`` as the loop hands them to ``allocate``: stably sorted by their task's priority."""
    return sorted(requests, key=lambda r: priorities[r.task_id])


class TestAllocate:
    def test_single_request_fully_granted(self):
        alloc = allocate([req("ff", "nbi", 0.65)], GroupTable({"nbi": group("nbi", 1.3)}))
        assert grant_of(alloc, "ff", "nbi") == 0.65

    def test_feedforward_plus_maximum_pins_at_capacity(self):
        # Constant heating has priority; the avoidance task asks for the
        # maximum and receives whatever is left, pinning the group total.
        alloc = allocate(
            [req("ff_power_rec", "nbi", 0.65), req("da_power_rec", "nbi", 1.3)], GroupTable({"nbi": group("nbi", 1.3)})
        )
        assert grant_of(alloc, "ff_power_rec", "nbi") == pytest.approx(0.65)
        assert grant_of(alloc, "da_power_rec", "nbi") == pytest.approx(0.65)
        assert alloc.totals["nbi"] == pytest.approx(1.3)

    def test_minimum_acceptable_starves_second_task(self):
        alloc = allocate(
            [req("a", "g", 1.3, minimum=0.8), req("b", "g", 1.3, minimum=0.8)], GroupTable({"g": group("g", 1.3)})
        )
        assert grant_of(alloc, "a", "g") == pytest.approx(1.3)
        assert grant_of(alloc, "b", "g") == 0.0
        assert ("b", "g") in alloc.starved

    def test_nan_request_is_starved_and_leaves_the_capacity(self):
        requests = [req("a", "g", math.nan), req("b", "g", 1.0, minimum=1.0)]
        alloc = allocate(requests, GroupTable({"g": group("g", 1.0)}))
        assert alloc.starved == (("a", "g"),)
        assert alloc.grants == {"b": {"g": 1.0}}
        assert alloc.totals == {"g": 1.0}

    # The request checks below live in validate and in the loop, not in
    # allocate: these tests pin the diagnostics and the loop behaviour.
    def test_duplicate_task_group_request_rejected(self):
        # One request per task and group: task ids are unique in a scenario,
        # and an ntm task's aiming group differs from its own.
        assert "error: scenarios[0].tasks[1]: duplicate task id 'heat'" in diagnose(repeat_task)
        assert "error: scenarios[0].tasks[1]: ntm task group must differ from aim_group" in diagnose(aim_at_own_group)

    def test_unknown_group_rejected(self):
        expected = "error: scenarios[0].tasks[0]: unknown actuator group 'nope'"
        assert expected in diagnose(set_at("scenarios.0.tasks.0.group", "nope"))

    def test_inactive_task_rejected(self, density_limit_compiled, monkeypatch):
        # allocate relies on the loop and does not check it: on every tick,
        # across scenario switches, the requests come from the tasks active
        # in the current decision only, one per task and group, in
        # non-decreasing priority.
        active, calls = {}, []
        real_step = harness.supervisor_step

        def step(*args):
            result = real_step(*args)
            active.clear()
            active.update((t.id, t.priority) for t in result[1])
            return result

        def spy(requests, table):
            priorities = [active.get(r.task_id) for r in requests]
            keys = {(r.task_id, r.group_id) for r in requests}
            calls.append(None not in priorities and priorities == sorted(priorities) and len(keys) == len(requests))
            return allocate(requests, table)

        monkeypatch.setattr(harness, "supervisor_step", step)
        monkeypatch.setattr(harness, "allocate", spy)
        assert harness.run(density_limit_compiled).final_scenario == "recovery"
        _, result = run_schedule(DUAL_NTM, lambda doc: doc["run"].update(duration=30.0))
        assert result.rows == 3000
        assert harness.run(wide_schedule(0)).rows == 2000
        assert len(calls) == 61 + 3000 + 2000 and all(calls)


class TestMergeCommands:
    GROUPS = {"nbi": group("nbi", 1.3)}

    def merged(self, outputs, alloc, groups=None):
        return merge_commands(outputs, alloc, GroupTable(groups or self.GROUPS))

    def test_constant_plus_extra_sums_to_maximum(self):
        alloc = allocate([req("ff", "nbi", 0.65), req("da", "nbi", 1.3)], GroupTable(self.GROUPS))
        commands, violations = self.merged(
            [("ff", ActuatorCommand("nbi", 0.65)), ("da", ActuatorCommand("nbi", 0.65))], alloc
        )
        assert commands["nbi"] == pytest.approx(1.3)
        assert violations == []

    def test_single_contributor_passthrough(self):
        alloc = allocate([req("ff", "nbi", 0.5)], GroupTable(self.GROUPS))
        commands, _ = self.merged([("ff", ActuatorCommand("nbi", 0.5))], alloc)
        assert commands["nbi"] == pytest.approx(0.5)

    def test_sum_clamped_to_capacity(self):
        # The greedy allocator never over-grants, so build the allocation
        # by hand to exercise the saturation boundary of the merge itself.
        alloc = Allocation(grants={"ff": {"nbi": 0.9}, "da": {"nbi": 0.6}})
        commands, violations = self.merged(
            [("ff", ActuatorCommand("nbi", 0.9)), ("da", ActuatorCommand("nbi", 0.6))], alloc
        )
        assert commands["nbi"] == pytest.approx(1.3)
        assert violations == []

    def test_command_without_grant_dropped_and_reported(self):
        alloc = allocate([req("ff", "nbi", 0.65)], GroupTable(self.GROUPS))
        commands, violations = self.merged(
            [("ff", ActuatorCommand("nbi", 0.65)), ("da", ActuatorCommand("nbi", 0.3))], alloc
        )
        assert commands["nbi"] == pytest.approx(0.65)
        assert violations == [("da", "nbi", "no grant")]

    def test_command_exceeding_grant_dropped(self):
        alloc = allocate([req("ff", "nbi", 0.2)], GroupTable(self.GROUPS))
        commands, violations = self.merged([("ff", ActuatorCommand("nbi", 0.8))], alloc)
        assert commands["nbi"] == 0.0
        assert violations == [("ff", "nbi", "command exceeds grant")]

    def test_exclusive_group_takes_highest_priority_holder(self):
        # Both hold a grant; b (priority 1) comes first, as the loop orders tasks.
        groups = {"aim": group("aim", 2.0, semantics="exclusive")}
        alloc = allocate([req("b", "aim", 1.0, minimum=1.0), req("a", "aim", 1.0, minimum=1.0)], GroupTable(groups))
        assert grant_of(alloc, "a", "aim") == grant_of(alloc, "b", "aim") == 1.0
        commands, _ = self.merged([("b", ActuatorCommand("aim", 0.7)), ("a", ActuatorCommand("aim", 0.4))], alloc, groups)
        assert commands["aim"] == pytest.approx(0.7)

    def test_exclusive_group_clamps_to_a_zero_command_range(self):
        groups = {"aim": group("aim", 1.0, semantics="exclusive", command_range=(0.0, 0.0))}
        alloc = allocate([req("a", "aim", 1.0, minimum=1.0)], GroupTable(groups))
        commands, violations = self.merged([("a", ActuatorCommand("aim", 0.6))], alloc, groups)
        assert commands["aim"] == 0.0
        assert violations == []

    @pytest.mark.parametrize("semantics", ["additive", "exclusive"])
    def test_nan_command_dropped_and_reported(self, semantics):
        # Both tasks hold a grant; the NaN comes first, as from the higher priority.
        groups = {"g": group("g", 2.0, semantics=semantics)}
        alloc = allocate([req("a", "g", 1.0), req("b", "g", 1.0)], GroupTable(groups))
        outputs = [("a", ActuatorCommand("g", math.nan)), ("b", ActuatorCommand("g", 0.5))]
        commands, violations = self.merged(outputs, alloc, groups)
        assert commands == {"g": 0.5}
        assert violations == [("a", "g", "command is NaN")]

    def test_uncommanded_group_reads_zero(self):
        alloc = allocate([], GroupTable(self.GROUPS))
        commands, _ = self.merged([], alloc)
        assert commands == {"nbi": 0.0}


# ---------------------------------------------------------------------------
# Brute-force oracle: maximize the grant vector ordered by (priority,
# group), lexicographically, over the 0.05-unit grid. Independent of the
# greedy code path.
# ---------------------------------------------------------------------------

def brute_force_best(requests_units, capacities_units, order):
    """Exhaustively search grant vectors (in integer grid units).

    ``requests_units``: {(task, group): (amount, minimum)};
    ``order``: request keys sorted worst-priority-last. Returns the
    lexicographically largest feasible grant vector along ``order``.
    """
    best = None

    def feasible(prefix):
        used = {}
        for key, grant in zip(order, prefix):
            used[key[1]] = used.get(key[1], 0) + grant
        return all(used.get(g, 0) <= cap for g, cap in capacities_units.items())

    def recurse(prefix):
        nonlocal best
        if len(prefix) == len(order):
            vec = tuple(prefix)
            if best is None or vec > best:
                best = vec
            return
        amount, minimum = requests_units[order[len(prefix)]]
        choices = sorted({0, *range(minimum, amount + 1)}, reverse=True)
        for grant in choices:
            candidate = prefix + [grant]
            if feasible(candidate):
                recurse(candidate)

    recurse([])
    return best


def random_instance(rng, max_tasks=3, max_groups=2, multi_group=False):
    n_groups = rng.randint(1, max_groups)
    groups = {}
    for g in range(n_groups):
        gid = f"g{g}"
        groups[gid] = group(gid, rng.randint(1, 20) * UNIT)
    n_tasks = rng.randint(1, max_tasks)
    priorities = {f"t{i}": p for i, p in enumerate(rng.sample(range(1, n_tasks + 1), n_tasks))}
    requests = []
    for i in range(n_tasks):
        gids = list(groups)
        if multi_group and len(gids) > 1 and rng.random() < 0.5:
            chosen = gids
        else:
            chosen = [rng.choice(gids)]
        for gid in chosen:
            amount = rng.randint(0, 12)
            minimum = rng.randint(0, amount) if amount else 0
            requests.append(
                ResourceRequest(
                    task_id=f"t{i}",
                    group_id=gid,
                    amount=amount * UNIT,
                    min_acceptable=minimum * UNIT,
                )
            )
    return requests, groups, priorities


def assert_matches_oracle(requests, groups, priorities):
    alloc = allocate(by_priority(requests, priorities), GroupTable(groups))
    order = sorted(
        ((r.task_id, r.group_id) for r in requests),
        key=lambda key: (priorities[key[0]], key[1]),
    )
    requests_units = {
        (r.task_id, r.group_id): (round(r.amount / UNIT), round(r.min_acceptable / UNIT))
        for r in requests
    }
    capacities_units = {gid: round(g.capacity / UNIT) for gid, g in groups.items()}
    best = brute_force_best(requests_units, capacities_units, order)
    for key, grant_units in zip(order, best):
        got = grant_of(alloc, *key)
        assert got == pytest.approx(grant_units * UNIT, abs=1e-9), (key, best)


class TestOracleEquivalence:
    def test_greedy_matches_brute_force(self):
        rng = random.Random(20250810)
        for _ in range(150):
            requests, groups, priorities = random_instance(rng)
            assert_matches_oracle(requests, groups, priorities)

    def test_greedy_matches_brute_force_multi_group_tasks(self):
        rng = random.Random(31337)
        for _ in range(60):
            requests, groups, priorities = random_instance(rng, max_tasks=2, multi_group=True)
            assert_matches_oracle(requests, groups, priorities)

    def test_worked_starvation_instance(self):
        # Two hungry tasks on one 1.3 pool: the brute force confirms that
        # awarding everything to the better priority dominates any split.
        requests = [req("a", "g", 1.3, minimum=0.8), req("b", "g", 1.3, minimum=0.8)]
        groups = {"g": group("g", 1.3)}
        priorities = {"a": 1, "b": 2}
        assert_matches_oracle(requests, groups, priorities)


class TestFeasibilityAndDominance:
    def test_grants_never_exceed_availability(self):
        rng = random.Random(5150)
        for _ in range(3000):
            requests, groups, priorities = random_instance(rng, multi_group=True)
            alloc = allocate(by_priority(requests, priorities), GroupTable(groups))
            for gid, g in groups.items():
                assert alloc.totals[gid] <= g.capacity + 1e-9
            for r in requests:
                got = grant_of(alloc, r.task_id, r.group_id)
                assert got == 0.0 or got >= r.min_acceptable - 1e-12
                assert got <= r.amount + 1e-12

    def test_improving_priority_never_reduces_grant(self):
        rng = random.Random(777)
        for _ in range(400):
            requests, groups, priorities = random_instance(rng)
            tasks = sorted(priorities, key=priorities.get)
            if len(tasks) < 2:
                continue
            worse = rng.choice(tasks[1:])
            better = tasks[tasks.index(worse) - 1]
            before = allocate(by_priority(requests, priorities), GroupTable(groups))
            swapped = dict(priorities)
            swapped[worse], swapped[better] = priorities[better], priorities[worse]
            after = allocate(by_priority(requests, swapped), GroupTable(groups))
            for r in requests:
                if r.task_id != worse:
                    continue
                assert grant_of(after, worse, r.group_id) >= grant_of(before, worse, r.group_id) - 1e-12


# ---------------------------------------------------------------------------
# Bit-exact references for the actuator round: the merge as it was before
# it became one pass, and the loop's per-group grant sums as they were
# before allocate returned its totals. Kept verbatim, but for reading a
# grant through ``grant_of``; compared by repr so that -0.0 against 0.0
# counts as a difference. From Python 3.12 on, `sum` adds floats with
# compensation, so there the references no longer make the plain
# left-to-right additions that the pinned traces were made with.
# ---------------------------------------------------------------------------

def reference_merge_commands(outputs, allocation, groups, priorities):
    contributions = {gid: [] for gid in groups}
    violations = []

    for task_id, cmd in outputs:
        group = groups[cmd.group_id]
        grant = grant_of(allocation, task_id, cmd.group_id)
        if grant <= 0.0:
            if cmd.value != 0.0:
                violations.append((task_id, cmd.group_id, "no grant"))
            continue
        if group.semantics == "additive" and abs(cmd.value) > grant + 1e-12:
            violations.append((task_id, cmd.group_id, "command exceeds grant"))
            continue
        contributions[cmd.group_id].append((priorities[task_id], task_id, cmd.value))

    commands = {}
    for gid, group in groups.items():
        contribs = contributions[gid]
        if not contribs:
            commands[gid] = 0.0
            continue
        if group.semantics == "additive":
            total = sum(v for _, _, v in contribs)
            commands[gid] = min(max(total, 0.0), group.capacity)
        else:
            contribs.sort(key=lambda c: (c[0], c[1]))
            lo, hi = group.command_range
            commands[gid] = min(max(contribs[0][2], lo), hi)
    return commands, violations


def reference_group_totals(allocation, groups):
    granted = {gid: [] for gid in groups}
    for task_grants in allocation.grants.values():
        for gid, amount in task_grants.items():
            granted[gid].append(amount)
    return {gid: sum(amounts, 0.0) for gid, amounts in granted.items()}


# ---------------------------------------------------------------------------
# The actuator round as it was while it sorted: allocate ordered the
# requests by (priority, group) and merge_commands ranked exclusive holders
# by (priority, task id), both from a priorities map. Kept verbatim, as the
# reference the round in grant order must match on every input the loop
# can hand over.
# ---------------------------------------------------------------------------

def sorting_allocate(
    requests: Sequence[ResourceRequest],
    groups: Mapping[str, ActuatorGroup],
    priorities: Mapping[str, int],
) -> Allocation:
    """Grant resources to requests in task-priority order.

    ``priorities`` maps each requesting task's id to its priority in the
    current scenario. Tasks whose request cannot reach its minimum
    acceptable amount are granted zero and listed in
    ``Allocation.starved``. The minimum comparison
    carries a 1e-9 slack so accumulated float error in the remaining
    capacity cannot starve an exactly-satisfiable request. Each group's
    total adds its grants from 0.0 in the same priority order.
    """
    remaining = {gid: g.capacity for gid, g in groups.items()}
    totals = dict.fromkeys(groups, 0.0)
    # Stable order: priority first, then group id so multi-group tasks
    # allocate deterministically.
    ordered = sorted(requests, key=lambda r: (priorities[r[0]], r[1]))

    grants: Dict[str, Dict[str, float]] = {}
    starved: List[Tuple[str, str]] = []
    for task_id, gid, amount, minimum in ordered:
        granted = min(amount, remaining[gid])
        if granted + 1e-9 < minimum or (amount > 0.0 and granted <= 0.0):
            starved.append((task_id, gid))
            continue
        remaining[gid] -= granted
        totals[gid] += granted
        grants.setdefault(task_id, {})[gid] = granted
    return Allocation(grants, tuple(starved), totals)


def sorting_merge_commands(
    outputs: Sequence[Tuple[str, ActuatorCommand]],
    allocation: Allocation,
    groups: Mapping[str, ActuatorGroup],
    priorities: Mapping[str, int],
) -> Tuple[Dict[str, float], List[Tuple[str, str, str]]]:
    """Combine per-task commands into one final value per group, in one pass.

    Returns ``(commands, violations)`` where ``commands`` maps group id to
    the merged value (0 for groups nobody commands) and ``violations``
    lists dropped contributions as ``(task, group, reason)``. An additive
    sum starts from the int 0, so a lone ``-0.0`` command merges to
    ``0.0``, not ``-0.0``.
    """
    grants = allocation.grants
    sums: Dict[str, float] = {}
    holders: Dict[str, Tuple[Tuple[int, str], float]] = {}
    violations: List[Tuple[str, str, str]] = []

    for task_id, (gid, value) in outputs:
        grant = grants.get(task_id, NO_GRANTS).get(gid, 0.0)
        if grant <= 0.0:
            if value != 0.0:
                violations.append((task_id, gid, "no grant"))
            continue
        if groups[gid].semantics == ADDITIVE:
            if abs(value) > grant + 1e-12:
                violations.append((task_id, gid, "command exceeds grant"))
                continue
            sums[gid] = sums.get(gid, 0) + value
        else:
            rank = (priorities[task_id], task_id)
            held = holders.get(gid)
            if held is None or rank < held[0]:
                holders[gid] = (rank, value)

    commands: Dict[str, float] = {}
    for gid, group in groups.items():
        if gid in sums:
            commands[gid] = min(max(sums[gid], 0.0), group.capacity)
        elif gid in holders:
            lo, hi = group.command_range
            commands[gid] = min(max(holders[gid][1], lo), hi)
        else:
            commands[gid] = 0.0
    return commands, violations


def round_instance(rng):
    """A random allocation round with the commands its tasks might send.

    On top of ``random_instance``: the requests come shuffled, one group
    may be exclusive, one group is never requested or commanded, zero
    amounts may be ``-0.0``, and every task may command any group, with no
    grant, within its grant, over it, or with ``0.0`` or ``-0.0``. The
    allocation is the grant-order one, and the commands come in priority
    order, as the loop hands them over.
    """
    requests, groups, priorities = random_instance(rng, max_tasks=4, max_groups=3, multi_group=True)
    if rng.random() < 0.5:
        gid = rng.choice(sorted(groups))
        lo = rng.choice([0.0, 0.2])
        groups[gid] = group(gid, groups[gid].capacity, "exclusive", (lo, lo + rng.choice([0.0, 0.5])))
    groups["idle"] = group("idle", 1.0)
    requests = [r._replace(amount=-0.0) if r.amount == 0.0 and rng.random() < 0.5 else r for r in requests]
    rng.shuffle(requests)
    alloc = allocate(by_priority(requests, priorities), GroupTable(groups))
    outputs = []
    for task_id in sorted(priorities, key=priorities.get):
        for gid in sorted(groups):
            if gid == "idle" or rng.random() < 0.3:
                continue
            grant = grant_of(alloc, task_id, gid)
            value = rng.choice([0.0, -0.0, grant, grant * rng.random(), grant + UNIT, -grant, rng.uniform(-1.0, 2.0)])
            outputs.append((task_id, ActuatorCommand(gid, value)))
    return requests, groups, priorities, alloc, outputs


#: What ``round_features`` finds over enough random rounds.
ROUND_FEATURES = {
    "no grant",
    "command exceeds grant",
    "starved",
    "multi-group task",
    "exclusive holder",
    "0.0 merged",
    "-0.0 merged",
}


def round_features(groups, alloc, outputs, violations):
    """The cases of ``ROUND_FEATURES`` that one round exercises."""
    seen = {reason for _, _, reason in violations}
    if alloc.starved:
        seen.add("starved")
    if any(len(g) > 1 for g in alloc.grants.values()):
        seen.add("multi-group task")
    for task_id, (gid, value) in outputs:
        if grant_of(alloc, task_id, gid) > 0.0:
            if groups[gid].semantics == "exclusive":
                seen.add("exclusive holder")
            if value == 0.0:
                seen.add("-0.0 merged" if math.copysign(1.0, value) < 0 else "0.0 merged")
    return seen


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum() compensates float additions from Python 3.12 on")
def test_round_matches_its_bit_exact_references():
    rng = random.Random(0xA110C)
    seen = set()
    for _ in range(1500):
        requests, groups, priorities, alloc, outputs = round_instance(rng)
        commands, violations = merge_commands(outputs, alloc, GroupTable(groups))
        expected_commands, expected_violations = reference_merge_commands(outputs, alloc, groups, priorities)
        assert repr(commands) == repr(expected_commands)
        assert violations == expected_violations
        assert repr(alloc.totals) == repr(reference_group_totals(alloc, groups))
        seen |= round_features(groups, alloc, outputs, violations)
    assert seen == ROUND_FEATURES


def test_round_in_grant_order_matches_the_sorting_round():
    # The sorting pair gets the shuffled requests and the priorities; the
    # grant-order pair gets the same requests stably sorted by priority.
    # Only len() reads `starved`, whose order is now the request order.
    rng = random.Random(0x50B7)
    seen = set()
    for _ in range(1500):
        requests, groups, priorities, alloc, outputs = round_instance(rng)
        expected = sorting_allocate(requests, groups, priorities)
        assert repr(sorted((t, sorted(g.items())) for t, g in alloc.grants.items())) == repr(
            sorted((t, sorted(g.items())) for t, g in expected.grants.items())
        )
        assert repr(alloc.totals) == repr(expected.totals)
        assert tuple(sorted(alloc.starved)) == tuple(sorted(expected.starved))
        commands, violations = merge_commands(outputs, alloc, GroupTable(groups))
        expected_commands, expected_violations = sorting_merge_commands(outputs, expected, groups, priorities)
        assert repr(commands) == repr(expected_commands)
        assert repr(violations) == repr(expected_violations)
        seen |= round_features(groups, alloc, outputs, violations)
    assert seen == ROUND_FEATURES
