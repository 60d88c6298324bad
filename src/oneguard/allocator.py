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

Both run in grant order. The loop hands them the requests and commands
of its active tasks in priority order, and a schedule that ``validate``
accepted names existing groups and no group twice within a task, so the
group order inside a task changes no grant, total or command. Neither
function sorts, reads a priority or re-checks these conditions.
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

    __slots__ = ("id", "capacity", "command_range", "semantics")

    def __init__(self, id: str, capacity: float, command_range: Tuple[float, float], semantics: str = ADDITIVE) -> None:
        self.id, self.capacity, self.command_range, self.semantics = id, capacity, command_range, semantics


class GroupTable:
    """What the actuator round reads of a schedule's groups, built once per schedule.

    ``capacity`` maps each group id to its capacity, in schedule order.
    ``exclusive`` holds the ids of the exclusive groups. ``ranges`` holds
    ``(id, lo, hi)`` per group, in schedule order: the range its merged
    command is clamped to, ``[0, capacity]`` for an additive group and
    ``command_range`` for an exclusive one.
    """

    __slots__ = ("capacity", "exclusive", "ranges")

    def __init__(self, groups: Mapping[str, ActuatorGroup]) -> None:
        self.capacity = {gid: g.capacity for gid, g in groups.items()}
        self.exclusive = frozenset(gid for gid, g in groups.items() if g.semantics == EXCLUSIVE)
        self.ranges = tuple(
            (gid, *(g.command_range if gid in self.exclusive else (0.0, g.capacity))) for gid, g in groups.items()
        )


class ActuatorCommand(NamedTuple):
    """A value commanded on one group."""

    group_id: str
    value: float


def allocate(requests: Sequence[ResourceRequest], table: GroupTable) -> Allocation:
    """Grant resources to ``requests``, in the order given.

    The requests come in non-decreasing priority of their tasks, as the
    loop walks its active tasks. Tasks whose request cannot reach its
    minimum acceptable amount are granted zero and listed in
    ``Allocation.starved``, in request order. So is a request whose amount
    is NaN, which would otherwise poison the remaining capacity. The
    minimum comparison carries a 1e-9 slack so accumulated float error in
    the remaining capacity cannot starve an exactly-satisfiable request.
    Each group's total adds its grants from 0.0 in the same priority order.
    """
    remaining = dict(table.capacity)
    totals = dict.fromkeys(remaining, 0.0)
    grants: Dict[str, Dict[str, float]] = {}
    starved: List[Tuple[str, str]] = []
    for task_id, gid, amount, minimum in requests:
        granted = min(amount, remaining[gid])
        if not (granted + 1e-9 >= minimum and (granted > 0.0 or amount <= 0.0)):  # a NaN amount fails too
            starved.append((task_id, gid))
            continue
        remaining[gid] -= granted
        totals[gid] += granted
        grants.setdefault(task_id, {})[gid] = granted
    return Allocation(grants, tuple(starved), totals)


def merge_commands(
    outputs: Sequence[Tuple[str, ActuatorCommand]], allocation: Allocation, table: GroupTable
) -> Tuple[Dict[str, float], List[Tuple[str, str, str]]]:
    """Combine per-task commands, in task-priority order, into one final value per group, in one pass.

    Returns ``(commands, violations)`` where ``commands`` maps group id to
    the merged value (0 for groups nobody commands) and ``violations``
    lists dropped contributions as ``(task, group, reason)``; a NaN command
    is always dropped, so no merged command is NaN. An additive
    sum starts from the int 0, so a lone ``-0.0`` command merges to
    ``0.0``, not ``-0.0``.
    """
    grants = allocation.grants
    exclusive = table.exclusive
    merged: Dict[str, float] = {}
    violations: List[Tuple[str, str, str]] = []

    for task_id, (gid, value) in outputs:
        grant = grants.get(task_id, NO_GRANTS).get(gid, 0.0)
        if grant <= 0.0:
            if value != 0.0:
                violations.append((task_id, gid, "no grant"))
        elif gid in exclusive and value == value:
            merged.setdefault(gid, value)
        elif not abs(value) <= grant + 1e-12:  # a NaN command, exclusive or additive, fails too
            violations.append((task_id, gid, "command exceeds grant" if value == value else "command is NaN"))
        else:
            merged[gid] = merged.get(gid, 0) + value

    commands: Dict[str, float] = {}
    for gid, lo, hi in table.ranges:
        value = merged.get(gid)
        commands[gid] = 0.0 if value is None else min(max(value, lo), hi)
    return commands, violations
