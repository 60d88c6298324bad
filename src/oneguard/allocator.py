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

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .model import Allocation, ResourceRequest

ADDITIVE = "additive"
EXCLUSIVE = "exclusive"


@dataclass(frozen=True)
class ActuatorGroup:
    """One shared actuator resource pool.

    Every allocation round may grant up to ``capacity``. ``command_range``
    clamps the merged command of an exclusive group.
    """

    id: str
    capacity: float
    command_range: Tuple[float, float]
    semantics: str = ADDITIVE
    unit: str = ""


@dataclass(frozen=True)
class ActuatorCommand:
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
    capacity cannot starve an exactly-satisfiable request.
    """
    remaining = {gid: g.capacity for gid, g in groups.items()}
    # Stable order: priority first, then group id so multi-group tasks
    # allocate deterministically.
    ordered = sorted(requests, key=lambda r: (priorities[r.task_id], r.group_id))

    grants: Dict[str, Dict[str, float]] = {}
    starved: List[Tuple[str, str]] = []
    for req in ordered:
        granted = min(req.amount, remaining[req.group_id])
        if granted + 1e-9 < req.min_acceptable or (req.amount > 0.0 and granted <= 0.0):
            starved.append((req.task_id, req.group_id))
            continue
        remaining[req.group_id] -= granted
        grants.setdefault(req.task_id, {})[req.group_id] = granted
    return Allocation(grants=grants, starved=tuple(starved))


def merge_commands(
    outputs: Sequence[Tuple[str, ActuatorCommand]],
    allocation: Allocation,
    groups: Mapping[str, ActuatorGroup],
    priorities: Mapping[str, int],
) -> Tuple[Dict[str, float], List[Tuple[str, str, str]]]:
    """Combine per-task commands into one final value per group.

    Returns ``(commands, violations)`` where ``commands`` maps group id to
    the merged value (0 for groups nobody commands) and ``violations``
    lists dropped contributions as ``(task, group, reason)``.
    """
    contributions: Dict[str, List[Tuple[int, str, float]]] = {gid: [] for gid in groups}
    violations: List[Tuple[str, str, str]] = []

    for task_id, cmd in outputs:
        group = groups[cmd.group_id]
        grant = allocation.grant(task_id, cmd.group_id)
        if grant <= 0.0:
            if cmd.value != 0.0:
                violations.append((task_id, cmd.group_id, "no grant"))
            continue
        if group.semantics == ADDITIVE and abs(cmd.value) > grant + 1e-12:
            violations.append((task_id, cmd.group_id, "command exceeds grant"))
            continue
        contributions[cmd.group_id].append((priorities[task_id], task_id, cmd.value))

    commands: Dict[str, float] = {}
    for gid, group in groups.items():
        contribs = contributions[gid]
        if not contribs:
            commands[gid] = 0.0
            continue
        if group.semantics == ADDITIVE:
            total = sum(v for _, _, v in contribs)
            commands[gid] = min(max(total, 0.0), group.capacity)
        else:
            contribs.sort(key=lambda c: (c[0], c[1]))
            lo, hi = group.command_range
            commands[gid] = min(max(contribs[0][2], lo), hi)
    return commands, violations
