import random

import pytest

from oneguard import harness
from oneguard.allocator import ActuatorGroup, ActuatorCommand, allocate, merge_commands
from oneguard.model import Allocation, ResourceRequest

from test_config import aim_at_own_group, diagnose, repeat_task, set_at

UNIT = 0.05  # grant grid used by the brute-force oracle


def group(gid, capacity, semantics="additive", command_range=None):
    return ActuatorGroup(
        id=gid, capacity=capacity, command_range=command_range or (0.0, capacity), semantics=semantics
    )


def req(task, gid, amount, minimum=0.0):
    return ResourceRequest(task_id=task, group_id=gid, amount=amount, min_acceptable=minimum)


class TestAllocate:
    def test_single_request_fully_granted(self):
        alloc = allocate([req("ff", "nbi", 0.65)], {"nbi": group("nbi", 1.3)}, {"ff": 1})
        assert alloc.grant("ff", "nbi") == 0.65

    def test_feedforward_plus_maximum_pins_at_capacity(self):
        # Constant heating has priority; the avoidance task asks for the
        # maximum and receives whatever is left, pinning the group total.
        alloc = allocate(
            [req("ff_power_rec", "nbi", 0.65), req("da_power_rec", "nbi", 1.3)],
            {"nbi": group("nbi", 1.3)},
            {"ff_power_rec": 1, "da_power_rec": 2},
        )
        assert alloc.grant("ff_power_rec", "nbi") == pytest.approx(0.65)
        assert alloc.grant("da_power_rec", "nbi") == pytest.approx(0.65)
        assert alloc.group_total("nbi") == pytest.approx(1.3)

    def test_minimum_acceptable_starves_second_task(self):
        alloc = allocate(
            [req("a", "g", 1.3, minimum=0.8), req("b", "g", 1.3, minimum=0.8)],
            {"g": group("g", 1.3)},
            {"a": 1, "b": 2},
        )
        assert alloc.grant("a", "g") == pytest.approx(1.3)
        assert alloc.grant("b", "g") == 0.0
        assert ("b", "g") in alloc.starved

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
        # The loop asks allocate only for the tasks it prioritizes this tick,
        # including across the normal -> recovery switch.
        calls = []

        def spy(requests, groups, priorities):
            calls.append(all(r.task_id in priorities for r in requests))
            return allocate(requests, groups, priorities)

        monkeypatch.setattr(harness, "allocate", spy)
        assert harness.run(density_limit_compiled).final_scenario == "recovery"
        assert len(calls) == 61 and all(calls)


class TestMergeCommands:
    GROUPS = {"nbi": group("nbi", 1.3)}

    def merged(self, outputs, alloc, groups=None, priorities=None):
        return merge_commands(outputs, alloc, groups or self.GROUPS, priorities or {"ff": 1, "da": 2})

    def test_constant_plus_extra_sums_to_maximum(self):
        alloc = allocate(
            [req("ff", "nbi", 0.65), req("da", "nbi", 1.3)], self.GROUPS, {"ff": 1, "da": 2}
        )
        commands, violations = self.merged(
            [("ff", ActuatorCommand("nbi", 0.65)), ("da", ActuatorCommand("nbi", 0.65))], alloc
        )
        assert commands["nbi"] == pytest.approx(1.3)
        assert violations == []

    def test_single_contributor_passthrough(self):
        alloc = allocate([req("ff", "nbi", 0.5)], self.GROUPS, {"ff": 1})
        commands, _ = self.merged([("ff", ActuatorCommand("nbi", 0.5))], alloc, priorities={"ff": 1})
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
        alloc = allocate([req("ff", "nbi", 0.65)], self.GROUPS, {"ff": 1, "da": 2})
        commands, violations = self.merged(
            [("ff", ActuatorCommand("nbi", 0.65)), ("da", ActuatorCommand("nbi", 0.3))], alloc
        )
        assert commands["nbi"] == pytest.approx(0.65)
        assert violations == [("da", "nbi", "no grant")]

    def test_command_exceeding_grant_dropped(self):
        alloc = allocate([req("ff", "nbi", 0.2)], self.GROUPS, {"ff": 1})
        commands, violations = self.merged(
            [("ff", ActuatorCommand("nbi", 0.8))], alloc, priorities={"ff": 1}
        )
        assert commands["nbi"] == 0.0
        assert violations == [("ff", "nbi", "command exceeds grant")]

    def test_exclusive_group_takes_highest_priority_holder(self):
        groups = {"aim": group("aim", 2.0, semantics="exclusive")}
        alloc = allocate(
            [req("a", "aim", 1.0, minimum=1.0), req("b", "aim", 1.0, minimum=1.0)],
            groups,
            {"a": 2, "b": 1},
        )
        commands, _ = merge_commands(
            [("a", ActuatorCommand("aim", 0.4)), ("b", ActuatorCommand("aim", 0.7))],
            alloc,
            groups,
            {"a": 2, "b": 1},
        )
        assert commands["aim"] == pytest.approx(0.7)

    def test_exclusive_group_clamps_to_a_zero_command_range(self):
        groups = {"aim": group("aim", 1.0, semantics="exclusive", command_range=(0.0, 0.0))}
        alloc = allocate([req("a", "aim", 1.0, minimum=1.0)], groups, {"a": 1})
        commands, violations = merge_commands([("a", ActuatorCommand("aim", 0.6))], alloc, groups, {"a": 1})
        assert commands["aim"] == 0.0
        assert violations == []

    def test_uncommanded_group_reads_zero(self):
        alloc = allocate([], self.GROUPS, {})
        commands, _ = merge_commands([], alloc, self.GROUPS, {})
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
    alloc = allocate(requests, groups, priorities)
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
        got = alloc.grant(*key)
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
            alloc = allocate(requests, groups, priorities)
            for gid, g in groups.items():
                assert alloc.group_total(gid) <= g.capacity + 1e-9
            for r in requests:
                got = alloc.grant(r.task_id, r.group_id)
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
            before = allocate(requests, groups, priorities)
            swapped = dict(priorities)
            swapped[worse], swapped[better] = priorities[better], priorities[worse]
            after = allocate(requests, groups, swapped)
            for r in requests:
                if r.task_id != worse:
                    continue
                assert after.grant(worse, r.group_id) >= before.grant(worse, r.group_id) - 1e-12
