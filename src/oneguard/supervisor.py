"""Supervisory decision chain.

Per tick, each off-normal event's discrete level is classified into a
danger level, each danger level into a reaction level (with an
irreversibility latch), and the combination of all reaction levels picks
the control scenario whose task list is then filtered by activation
conditions. All steps are pure: the caller owns ``SupervisorState`` and
threads it through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .errors import ConfigError
from .model import (
    ControlTask,
    DangerLevel,
    DEFAULT_IRREVERSIBLE,
    EventState,
    SCENARIO_TYPE_FOR_REACTION,
    ScenarioType,
)


@dataclass(frozen=True)
class DangerFsm:
    """Event-level to danger-level lookup for one off-normal event.

    Memoryless: any debouncing lives in the monitor's hysteresis bands.
    ``mapping`` must be total over the event's level range [0, k].
    """

    one_id: str
    mapping: Mapping[int, DangerLevel]

    def classify(self, level: int) -> DangerLevel:
        try:
            return self.mapping[level]
        except KeyError:
            raise ConfigError(
                f"event {self.one_id!r}: level {level} has no danger mapping"
            ) from None


@dataclass(frozen=True)
class ReactionFsm:
    """Danger-level to reaction-level lookup with an irreversibility latch.

    Once the reaction enters the ``irreversible`` set it can only move up:
    the step returns ``max(previous, mapped)``, so escalation past an
    irreversible level stays possible while de-escalation is forbidden.
    """

    one_id: str
    mapping: Mapping[DangerLevel, int]
    irreversible: FrozenSet[int] = DEFAULT_IRREVERSIBLE

    def react(self, danger: DangerLevel, previous: int) -> int:
        try:
            candidate = self.mapping[danger]
        except KeyError:
            raise ConfigError(
                f"event {self.one_id!r}: danger {danger.label!r} has no reaction mapping"
            ) from None
        if previous in self.irreversible:
            return max(previous, candidate)
        return candidate


@dataclass(frozen=True)
class Scenario:
    """A named, typed, prioritized task list.

    ``tasks`` are in priority order (1 first), with unique priorities.
    """

    id: str
    type: ScenarioType
    tasks: Tuple[ControlTask, ...] = ()


@dataclass(frozen=True)
class OsMapping:
    """Reaction-combination to scenario lookup.

    ``rows`` maps tuples of reaction levels (one entry per configured
    event, in configuration order) to scenario ids. Combinations without
    an explicit row fall back to the scenario whose type matches the
    maximum reaction level in the tuple, tie-broken to the
    lexicographically smallest scenario id of that type.
    """

    one_ids: Tuple[str, ...]
    rows: Mapping[Tuple[int, ...], str]
    scenarios: Mapping[str, Scenario]
    default: str

    def select(self, reactions: Tuple[int, ...]) -> str:
        if len(reactions) != len(self.one_ids):
            raise ConfigError(
                f"reaction tuple arity {len(reactions)} does not match "
                f"{len(self.one_ids)} configured events"
            )
        hit = self.rows.get(reactions)
        if hit is not None:
            return hit
        if all(r == 0 for r in reactions):
            return self.default
        return self.fallback(reactions)

    def fallback(self, reactions: Tuple[int, ...]) -> str:
        worst = max(reactions)
        wanted = SCENARIO_TYPE_FOR_REACTION[worst]
        candidates = sorted(s.id for s in self.scenarios.values() if s.type is wanted)
        if not candidates:
            raise ConfigError(
                f"no scenario of type {wanted.value!r} for reaction combination {reactions}"
            )
        return candidates[0]


@dataclass(frozen=True)
class SupervisorConfig:
    """Everything the supervisor needs for one schedule."""

    one_ids: Tuple[str, ...]
    danger_fsms: Mapping[str, DangerFsm]
    reaction_fsms: Mapping[str, ReactionFsm]
    os_mapping: OsMapping

    @property
    def scenarios(self) -> Mapping[str, Scenario]:
        return self.os_mapping.scenarios


@dataclass(frozen=True)
class SupervisorState:
    """Carry-over between ticks: previous reaction levels and scenario."""

    reactions: Mapping[str, int]
    scenario_id: str

    @classmethod
    def initial(cls, config: SupervisorConfig) -> "SupervisorState":
        return cls(
            reactions={one_id: 0 for one_id in config.one_ids},
            scenario_id=config.os_mapping.default,
        )


def activate_tasks(
    scenario: Scenario,
    time: float,
    events: Mapping[str, EventState],
) -> List[ControlTask]:
    """Tasks of ``scenario`` whose activation condition holds, priority order."""
    levels = {one_id: e.level for one_id, e in events.items()}
    return [t for t in scenario.tasks if t.activation.holds(time, levels)]


def supervisor_step(
    events: Mapping[str, EventState],
    state: SupervisorState,
    config: SupervisorConfig,
    time: Optional[float] = None,
) -> Tuple[str, List[ControlTask], Dict[str, DangerLevel], Dict[str, int], SupervisorState]:
    """One full decision pass.

    Returns ``(scenario_id, active_tasks, dangers, reactions, new_state)``.
    Pure: identical ``(events, state, time)`` always produce identical
    output. ``time`` defaults to the newest event timestamp.
    """
    dangers: Dict[str, DangerLevel] = {}
    reactions: Dict[str, int] = {}
    for one_id in config.one_ids:
        if one_id not in events:
            raise ConfigError(f"no event state for configured event {one_id!r}")
        danger = config.danger_fsms[one_id].classify(events[one_id].level)
        dangers[one_id] = danger
        reactions[one_id] = config.reaction_fsms[one_id].react(danger, state.reactions.get(one_id, 0))

    combo = tuple(reactions[one_id] for one_id in config.one_ids)
    scenario_id = config.os_mapping.select(combo)
    scenario = config.scenarios[scenario_id]
    if time is None:
        time = max((e.time for e in events.values()), default=0.0)
    tasks = activate_tasks(scenario, time, events)
    new_state = SupervisorState(reactions=reactions, scenario_id=scenario_id)
    return scenario_id, tasks, dangers, reactions, new_state
