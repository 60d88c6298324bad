"""Shared domain vocabulary for the supervisory control chain.

Plain values passed between the event monitor, the supervisor, the
actuator manager and the controllers. Everything here is safe to copy
across execution contexts; nothing mutates after construction. The values
built on every tick (``EventState``, ``ResourceRequest``, ``Allocation``)
are named tuples. The records read on every tick are ``Record`` classes:
slots and a written-out ``__init__``, so that defining them costs no code
generation at import and reading a field costs no tuple indexing.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Optional


class DangerLevel(IntEnum):
    """Per-event severity classification, ordered from harmless to worst."""

    NO = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    VERY_HIGH = 4

    @property
    def label(self) -> str:
        return self.name.lower()


#: Required-response classification attached to each off-normal event.
#: Plain integers 0..4; by default 3 and 4 are treated as irreversible.
REACTION_MIN = 0
REACTION_MAX = 4


class ScenarioType(Enum):
    """The five kinds of control scenario a supervisor can select."""

    NORMAL = "normal"
    RECOVERY = "recovery"
    BACKUP = "backup"
    SOFT_SHUTDOWN = "soft_shutdown"
    DISRUPTION_MITIGATION = "disruption_mitigation"


#: Reaction level k escalates to a scenario of this type when the
#: scenario mapping has no explicit row for the observed combination.
SCENARIO_TYPE_FOR_REACTION = {
    0: ScenarioType.NORMAL,
    1: ScenarioType.RECOVERY,
    2: ScenarioType.BACKUP,
    3: ScenarioType.SOFT_SHUTDOWN,
    4: ScenarioType.DISRUPTION_MITIGATION,
}


#: The one shared empty mapping: no grants, no totals.
NO_GRANTS: Mapping[str, Any] = MappingProxyType({})


class EventState(NamedTuple):
    """Discrete level (>= 0) of one off-normal event."""

    one_id: str
    level: int


class Record:
    """Base of the records a schedule compiles into and the tick reads.

    A subclass names its fields in ``__slots__`` and assigns them in its
    own ``__init__``. A class that also keeps values derived in ``__init__``
    names its declared fields in ``_fields``, and only those take part in
    equality, hash, repr and ``_replace``, as in a dataclass: two records
    are equal when they are of the same class and their field tuples are.
    Records are immutable by convention only: enforcing it would take the
    ``__setattr__`` override that makes frozen dataclasses slow to build.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes: Any) -> Any:
        """A copy with ``changes`` to some fields, built through ``__init__``."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class EventTrigger(Record):
    """Event condition gating a task: level of ``one_id`` within bounds."""

    __slots__ = ("one_id", "min_level", "max_level")

    def __init__(self, one_id: str, min_level: int = 0, max_level: Optional[int] = None) -> None:
        self.one_id, self.min_level, self.max_level = one_id, min_level, max_level

    def holds(self, level: int) -> bool:
        if level < self.min_level:
            return False
        return self.max_level is None or level <= self.max_level


class Activation(Record):
    """When a control task is live: a time window and/or an event trigger.

    Bounds default to the whole run; ``t_end`` is exclusive so adjacent
    windows do not overlap.
    """

    __slots__ = ("t_start", "t_end", "trigger")

    def __init__(
        self, t_start: float = 0.0, t_end: Optional[float] = None, trigger: Optional[EventTrigger] = None
    ) -> None:
        self.t_start, self.t_end, self.trigger = t_start, t_end, trigger

    def holds(self, time: float, events: Mapping[str, int]) -> bool:
        if time < self.t_start:
            return False
        if self.t_end is not None and time >= self.t_end:
            return False
        if self.trigger is not None:
            return self.trigger.holds(events.get(self.trigger.one_id, 0))
        return True


class ControlTask(Record):
    """One control objective inside a scenario's prioritized task list.

    ``priority`` 1 is the most important; priorities are unique within a
    scenario. ``reference`` is the scenario-specific setpoint waveform
    handed to the bound controller (None for controllers that need none).
    A task without an activation shares one always-live ``Activation()``.
    """

    __slots__ = ("id", "priority", "controller", "group", "reference", "activation")

    def __init__(
        self, id: str, priority: int, controller: str, group: str, reference: Any = None,
        activation: Activation = Activation(),
    ) -> None:
        self.id, self.priority, self.controller, self.group = id, priority, controller, group
        self.reference, self.activation = reference, activation


class ResourceRequest(NamedTuple):
    """A task asking one actuator group for an amount of resource.

    ``min_acceptable`` is the smallest grant worth having; anything less
    and the task prefers to be starved outright. The controllers keep
    ``0 <= min_acceptable <= amount`` for every validated schedule.
    """

    task_id: str
    group_id: str
    amount: float
    min_acceptable: float = 0.0


class Allocation(NamedTuple):
    """Result of one allocation round.

    ``grants`` maps task id -> group id -> granted amount. A task may hold
    grants on several groups (one per group). ``starved`` lists the
    (task, group) requests that received nothing, in request order.
    ``totals`` maps each group id to the sum of its grants, added in
    priority order.
    """

    grants: Mapping[str, Mapping[str, float]]
    starved: tuple = ()
    totals: Mapping[str, float] = NO_GRANTS
