"""Event monitor: continuous signals in, discrete per-event levels out.

Each configured off-normal event watches one signal through a table of
ordered thresholds with per-threshold hysteresis bands. Crossing threshold
``i`` in the worse direction raises the level to ``i`` immediately;
recovering below level ``i`` requires re-crossing ``t_i`` by more than the
band ``h_i``, which kills level chatter right at a threshold. With all
bands at zero the output is the plain stateless bucket index. While every
signal stays inside the band that keeps its event's level, the monitor
hands back its previous states; most ticks do.

Virtual events combine the discrete levels of several base events through
an explicit lookup table, one layer deep (no virtuals of virtuals).

The wiring comes from a schedule that ``validate`` accepted: every
combiner table is total and every virtual input is a base event, so
nothing is re-checked per tick.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Tuple

from .model import EventState, Record

RISING = "rising"
FALLING = "falling"


class ThresholdTable(Record):
    """Discretization table for one monitored signal.

    ``thresholds`` are strictly increasing for ``direction == "rising"``
    (higher is worse) and strictly decreasing for ``"falling"`` (lower is
    worse). The threshold value itself belongs to the worse bucket: a
    rising table escalates at ``value >= t_i``, a falling one at
    ``value <= t_i``. ``hysteresis`` holds one non-negative band per
    threshold (all zero when left empty), and the bands must not make
    neighbouring thresholds overlap. A falling table is the rising table
    of the negated signal: ``sign`` is -1.0 for it (1.0 for a rising one),
    ``rising`` holds the thresholds times ``sign``, in rising order, and
    ``release[i]`` is ``rising[i]`` minus its band: the signed value below
    which level ``i + 1`` is left. ``next_level`` keeps level ``L`` exactly
    for the signed values in ``bands[L] = [lo, hi)``: from its release (at 0
    the least finite float, so -inf faults) to the next threshold or +inf.
    """

    _fields = ("signal", "thresholds", "direction", "hysteresis")
    __slots__ = _fields + ("sign", "rising", "release", "bands")

    def __init__(
        self, signal: str, thresholds: Tuple[float, ...], direction: str = RISING, hysteresis: Tuple[float, ...] = ()
    ) -> None:
        self.signal, self.thresholds, self.direction = signal, thresholds, direction
        self.hysteresis = hysteresis or tuple(0.0 for _ in thresholds)
        self.sign = 1.0 if direction == RISING else -1.0
        self.rising = tuple(self.sign * t for t in thresholds)
        self.release = tuple(r - h for r, h in zip(self.rising, self.hysteresis))
        self.bands = tuple(zip((math.nextafter(-math.inf, 0.0), *self.release), (*self.rising, math.inf)))

    def next_level(self, value: float, previous_level: int) -> int:
        """Event level after sample ``value``, given the previous level.

        Inside the previous level's band the level holds. Above it, the
        level is the stateless bucket of the thresholds; below it, the
        number of releases at or under the value.
        """
        signed = self.sign * value
        lo, hi = self.bands[previous_level]
        if signed < lo:
            return bisect_right(self.release, signed)
        if signed >= hi:
            return bisect_right(self.rising, signed)
        return previous_level


class VirtualOneRule(Record):
    """Combine the levels of several base events into one virtual event.

    ``table`` maps tuples of input levels to the output level and must be
    total over the declared input ranges (validated from the schedule).
    """

    __slots__ = ("id", "inputs", "table")

    def __init__(self, id: str, inputs: Tuple[str, ...], table: Mapping[Tuple[int, ...], int]) -> None:
        self.id, self.inputs, self.table = id, inputs, table


def compose_virtual(events: Mapping[str, EventState], rule: VirtualOneRule) -> EventState:
    """Evaluate a virtual event from its base events' current states, keyed by event id."""
    return EventState(rule.id, rule.table[tuple([events[one_id].level for one_id in rule.inputs])])


class MonitorConfig(Record):
    """Monitor wiring for one schedule.

    ``tables`` is keyed by base event id, in configuration order; each
    table's ``signal`` field names the continuous signal that event
    watches. Virtual rules are evaluated after all base events, in
    configuration order. ``plant_failure``, if set, is the state an event
    is forced to on any fault: its maximum level.
    """

    _fields = ("tables", "virtual_rules", "plant_failure")
    __slots__ = _fields + ("watch",)

    def __init__(
        self, tables: Mapping[str, ThresholdTable], virtual_rules: Tuple[VirtualOneRule, ...] = (),
        plant_failure: Optional[EventState] = None,
    ) -> None:
        self.tables, self.virtual_rules, self.plant_failure = tables, virtual_rules, plant_failure
        self.watch = tuple((one_id, t.signal, t.sign, t.bands) for one_id, t in tables.items())


def monitor_step(
    signals: Mapping[str, float],
    config: MonitorConfig,
    previous: Mapping[str, EventState],
) -> Tuple[Dict[str, EventState], List[Tuple[str, str]]]:
    """Produce one event-level vector from one signal snapshot.

    Returns ``(events, faults)``. A non-finite or missing signal does not
    abort the other events: the affected event keeps its previous level
    and is reported in ``faults``. If ``plant_failure`` is configured,
    any fault also puts its event in that state. A base event whose level
    did not move keeps its previous ``EventState`` object. ``previous`` (the
    last output) comes back itself while every signal stays inside its
    level's band, unless a fault forced an event in it.
    """
    forced = config.plant_failure
    if forced is None or previous.get(forced.one_id) is not forced:
        try:
            for one_id, signal, sign, bands in config.watch:
                lo, hi = bands[previous[one_id].level]
                if not lo <= sign * signals[signal] < hi:
                    break
            else:
                return previous, []
        except KeyError:  # an event without a previous state, or a missing signal: the full path reports it
            pass

    events: Dict[str, EventState] = {}
    faults: List[Tuple[str, str]] = []

    for one_id, table in config.tables.items():
        prev = previous.get(one_id)
        prev_level = 0 if prev is None else prev.level
        value = signals.get(table.signal)
        if value is None or not math.isfinite(value):
            faults.append((one_id, f"signal {table.signal!r} unavailable or non-finite"))
            level = prev_level
        else:
            level = table.next_level(value, prev_level)
        events[one_id] = prev if prev is not None and level == prev_level else EventState(one_id, level)

    for rule in config.virtual_rules:
        events[rule.id] = compose_virtual(events, rule)

    if faults and config.plant_failure is not None:
        events[config.plant_failure.one_id] = config.plant_failure

    return events, faults
