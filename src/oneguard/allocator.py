"""Actuator manager: resource allocation and command merging.

Allocation is greedy in task-priority order (priority 1 first): each
request gets ``min(requested, remaining capacity)`` if that clears its
minimum acceptable amount, otherwise nothing. This is exactly the
priority-lexicographic optimum (verified against a brute-force oracle in
the tests) and is deterministic and cheap enough for a real-time tick.

Merging distinguishes two group semantics: *additive* groups (powers,
fluxes) sum their contributors and clamp to [0, capacity]; *exclusive*
groups (e.g. beam-aiming) take only the highest-priority holder's command.
A command from a task without a grant on the group is dropped and reported
as a violation rather than silently applied.

Requests and commands come from the active tasks of a schedule that
``validate`` accepted: each task's groups exist, and no task asks twice
for one group, so neither function re-checks them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .model import NO_GRANTS, Allocation, Record, ResourceRequest

ADDITIVE = "additive"
EXCLUSIVE = "exclusive"


class ActuatorGroup(Record):
    """One shared actuator resource pool.

    Every allocation round may grant up to ``capacity``. ``command_range``
    clamps the merged command of an exclusive group.
    """

    __slots__ = ("id", "capacity", "command_range", "semantics", "unit")

    def __init__(
        self, id: str, capacity: float, command_range: Tuple[float, float], semantics: str = ADDITIVE, unit: str = ""
    ) -> None:
        self.id, self.capacity, self.command_range = id, capacity, command_range
        self.semantics, self.unit = semantics, unit


class ActuatorCommand(NamedTuple):
    """A value commanded on one group."""

    group_id: str
    value: float


def allocate(
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


def merge_commands(
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
