"""Supervisory decision chain.

Per tick, each off-normal event's discrete level goes through its one
compiled ``OneEvaluation``: a danger lookup by level, a reaction lookup by
danger level and the irreversibility latch. The combination of all
reaction levels picks the control scenario, whose task list is then
filtered by activation conditions. All steps are pure: the caller owns
``SupervisorState`` and threads it through. Every table here is total for
a schedule that ``validate`` accepts, so nothing is re-checked per tick,
and a decision is re-derived only when its inputs moved.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .model import (
    ControlTask,
    DangerLevel,
    REACTION_MAX,
    Record,
    SCENARIO_TYPE_FOR_REACTION,
    ScenarioType,
)


class OneEvaluation(Record):
    """The whole decision table of one off-normal event.

    ``danger[level]`` classifies an event level, ``reaction[danger]`` maps
    a danger level to a reaction level, and a previous reaction at or
    above the lowest level in ``irreversible`` latches: the reaction can
    then only stay or rise, so escalation past an irreversible level stays
    possible while de-escalation is forbidden. Memoryless otherwise: any
    debouncing lives in the monitor's hysteresis bands. Idempotent: a
    level evaluated against its own result gives that result again.
    """

    _fields = ("danger", "reaction", "irreversible")
    __slots__ = _fields + ("latch_from",)

    def __init__(
        self, danger: Tuple[DangerLevel, ...], reaction: Tuple[int, ...], irreversible: FrozenSet[int]
    ) -> None:
        self.danger, self.reaction, self.irreversible = danger, reaction, irreversible
        self.latch_from = min(irreversible, default=REACTION_MAX + 1)

    def evaluate(self, level: int, previous: int) -> Tuple[DangerLevel, int]:
        danger = self.danger[level]
        reaction = self.reaction[danger]
        if previous >= self.latch_from and previous > reaction:
            reaction = previous
        return danger, reaction


class Scenario(Record):
    """A named, typed, prioritized task list.

    ``tasks`` are in priority order (1 first), with unique priorities.
    ``boundaries`` holds the sorted times at which one of their activation
    windows opens or closes, between -inf and inf.
    """

    _fields = ("id", "type", "tasks")
    __slots__ = _fields + ("boundaries",)

    def __init__(self, id: str, type: ScenarioType, tasks: Tuple[ControlTask, ...] = ()) -> None:
        self.id, self.type, self.tasks = id, type, tasks
        times = {-math.inf, math.inf}
        for t in tasks:
            times.add(t.activation.t_start)
            times.add(math.inf if t.activation.t_end is None else t.activation.t_end)
        self.boundaries = tuple(sorted(times))


class OsMapping(Record):
    """Reaction-combination to scenario lookup.

    ``rows`` maps tuples of reaction levels (one entry per configured
    event, in configuration order) to scenario ids. A combination without
    a row falls back on its maximum reaction level k alone:
    ``fallback[k]``, built once, holds ``default`` for k = 0 and otherwise
    the lexicographically smallest scenario id of the type matching k
    (None if there is none: ``validate`` makes such a k unreachable).
    """

    _fields = ("rows", "scenarios", "default")
    __slots__ = _fields + ("fallback",)

    def __init__(self, rows: Mapping[Tuple[int, ...], str], scenarios: Mapping[str, Scenario], default: str) -> None:
        self.rows, self.scenarios, self.default = rows, scenarios, default
        first_of_type: Dict[ScenarioType, str] = {}
        for scenario in sorted(scenarios.values(), key=lambda s: s.id):
            first_of_type.setdefault(scenario.type, scenario.id)
        table = [default]
        table += [first_of_type.get(SCENARIO_TYPE_FOR_REACTION[k]) for k in range(1, REACTION_MAX + 1)]
        self.fallback = tuple(table)

    def select(self, reactions: Tuple[int, ...]) -> str:
        hit = self.rows.get(reactions)
        if hit is not None:
            return hit
        return self.fallback[max(reactions, default=0)]


class SupervisorConfig(Record):
    """Everything the supervisor needs for one schedule."""

    __slots__ = ("one_ids", "evaluations", "os_mapping")

    def __init__(
        self, one_ids: Tuple[str, ...], evaluations: Mapping[str, OneEvaluation], os_mapping: OsMapping
    ) -> None:
        self.one_ids, self.evaluations, self.os_mapping = one_ids, evaluations, os_mapping

    @property
    def scenarios(self) -> Mapping[str, Scenario]:
        return self.os_mapping.scenarios


class SupervisorState(Record):
    """The last decision, and the carry-over between ticks.

    ``scenario_id``, ``tasks`` (active, in priority order), ``dangers`` and
    ``reactions`` were derived from the event levels ``levels`` and hold
    for them at any time in ``[since, until)``; the reactions are also the
    latch's memory. The initial state has decided on no levels yet.
    """

    __slots__ = ("scenario_id", "tasks", "dangers", "reactions", "levels", "since", "until")

    def __init__(
        self, scenario_id: str, tasks: Tuple[ControlTask, ...], dangers: Mapping[str, DangerLevel],
        reactions: Mapping[str, int], levels: Optional[Tuple[int, ...]] = None, since: float = 0.0, until: float = 0.0,
    ) -> None:
        self.scenario_id, self.tasks, self.dangers, self.reactions = scenario_id, tasks, dangers, reactions
        self.levels, self.since, self.until = levels, since, until

    @classmethod
    def initial(cls, config: SupervisorConfig) -> "SupervisorState":
        return cls(config.os_mapping.default, (), {}, dict.fromkeys(config.one_ids, 0))


def activate_tasks(scenario: Scenario, time: float, levels: Mapping[str, int]) -> List[ControlTask]:
    """Tasks of ``scenario`` active at ``time`` for ``levels`` (by event id), priority order."""
    return [t for t in scenario.tasks if t.activation.holds(time, levels)]


def supervisor_step(
    levels: Tuple[int, ...],
    state: SupervisorState,
    config: SupervisorConfig,
    time: float,
) -> Tuple[str, Tuple[ControlTask, ...], Dict[str, DangerLevel], Dict[str, int], SupervisorState]:
    """One decision pass.

    Returns ``(scenario_id, active_tasks, dangers, reactions, new_state)``.
    Pure: identical ``(levels, state, time)`` always produce identical
    output. ``levels`` holds the level of every configured event, in
    ``config.one_ids`` order. When it equals the vector ``state`` decided
    on and ``time`` lies in its ``[since, until)``, the carried decision
    and ``state`` itself come back: the latch gives the same reactions
    again, so the same scenario, and no activation window opened or closed.
    """
    if levels == state.levels and state.since <= time < state.until:
        return state.scenario_id, state.tasks, state.dangers, state.reactions, state

    dangers: Dict[str, DangerLevel] = {}
    reactions: Dict[str, int] = {}
    for one_id, level in zip(config.one_ids, levels):
        dangers[one_id], reactions[one_id] = config.evaluations[one_id].evaluate(
            level, state.reactions[one_id]
        )

    scenario_id = config.os_mapping.select(tuple(reactions.values()))
    scenario = config.scenarios[scenario_id]
    tasks = tuple(activate_tasks(scenario, time, dict(zip(config.one_ids, levels))))
    i = bisect_right(scenario.boundaries, time)
    since, until = scenario.boundaries[i - 1 : i + 1]
    state = SupervisorState(scenario_id, tasks, dangers, reactions, levels, since, until)
    return scenario_id, tasks, dangers, reactions, state
