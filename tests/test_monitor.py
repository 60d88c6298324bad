import itertools
import math
import random
import sys
from typing import Dict, List, Mapping, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from oneguard import config as cfg
from oneguard.model import EventState
from oneguard.monitor import (
    MonitorConfig,
    ThresholdTable,
    VirtualOneRule,
    compose_virtual,
    monitor_step,
)

from test_config import diagnose, rising, set_at, virtual


class HysteresisAutomaton:
    """Independent simulator of the two-branch hysteresis rule.

    Tracks, per threshold, whether the signal currently sits on the worse
    side of it: crossed at the threshold itself, released only past the
    band. The level is the count of engaged thresholds, which for
    non-overlapping bands equals the table semantics.
    """

    def __init__(self, thresholds, hysteresis, rising=True):
        self.t = list(thresholds)
        self.h = list(hysteresis)
        self.rising = rising
        self.engaged = [False] * len(thresholds)

    def update(self, value):
        for i, (t, h) in enumerate(zip(self.t, self.h)):
            if self.rising:
                if value >= t:
                    self.engaged[i] = True
                elif value < t - h:
                    self.engaged[i] = False
            else:
                if value <= t:
                    self.engaged[i] = True
                elif value > t + h:
                    self.engaged[i] = False
        level = 0
        for i, on in enumerate(self.engaged, start=1):
            if on:
                level = i
        return level


class TestDiscretize:
    def test_below_all_thresholds_stays_zero(self):
        table = ThresholdTable(signal="x", thresholds=(1.0, 2.0), hysteresis=(0.1, 0.1))
        assert table.next_level(0.5, 0) == 0

    def test_falling_distance_between_first_two_criticals(self):
        # Distance signal dropping below the first critical value only.
        table = ThresholdTable(
            signal="d_ne_edge",
            thresholds=(0.45, 0.25, 0.04),
            direction="falling",
        )
        assert table.next_level(0.3, 0) == 1

    def test_hand_traced_hysteresis_sequence(self):
        table = ThresholdTable(signal="x", thresholds=(10.0,), hysteresis=(2.0,))
        levels = []
        prev = 0
        for value in (9.0, 11.0, 9.5, 7.9):
            prev = table.next_level(value, prev)
            levels.append(prev)
        assert levels == [0, 1, 1, 0]

    def test_threshold_value_belongs_to_worse_bucket(self):
        rising = ThresholdTable(signal="x", thresholds=(0.95,))
        assert rising.next_level(0.95, 0) == 1
        falling = ThresholdTable(signal="d", thresholds=(0.45,), direction="falling")
        assert falling.next_level(0.45, 0) == 1

    def test_name_mismatch_rejected(self):
        # validate refuses an event watching an unknown signal, and the
        # monitor feeds each table the signal the table names.
        assert "error: ones[0].signal: unknown signal 'nope'" in diagnose(set_at("ones.0.signal", "nope"))
        config = MonitorConfig(tables={"e": ThresholdTable(signal="x", thresholds=(1.0,))})
        events, _ = monitor_step({"x": 0.0, "y": 5.0}, config, {})
        assert events["e"].level == 0

    def test_prev_level_out_of_range_rejected(self):
        # The previous level is the monitor's own output, which never leaves
        # [0, max_level] when it starts there, so it is not re-checked.
        table = ThresholdTable(signal="x", thresholds=(1.0, 2.0), hysteresis=(0.3, 0.3))
        rng = random.Random(3)
        top = len(table.thresholds)
        for prev in range(top + 1):
            for _ in range(200):
                assert 0 <= table.next_level(rng.uniform(-1.0, 4.0), prev) <= top

    def test_matches_brute_force_automaton(self):
        rng = random.Random(20240811)
        for case in range(50):
            k = rng.randint(1, 4)
            rising = rng.random() < 0.5
            base = sorted(rng.uniform(0.0, 10.0) for _ in range(k))
            if not rising:
                base = base[::-1]
            # Shrink bands until they respect the non-overlap invariant.
            gaps = [abs(b - a) for a, b in zip(base, base[1:])] or [1.0]
            hmax = min(gaps) / 2.1
            hyst = tuple(rng.uniform(0.0, hmax) for _ in base)
            table = ThresholdTable(
                signal="x",
                thresholds=tuple(base),
                direction="rising" if rising else "falling",
                hysteresis=hyst,
            )
            oracle = HysteresisAutomaton(base, hyst, rising)
            prev = 0
            for _ in range(200):
                value = rng.uniform(-2.0, 12.0)
                got = table.next_level(value, prev)
                assert got == oracle.update(value), (case, value, prev)
                prev = got

    def test_bucket_equals_a_linear_scan(self):
        # From level 0 the level is the stateless bucket. Its search counts
        # crossed thresholds like a scan from the worst one down, in both
        # directions and exactly on a threshold.
        def scan(thresholds, rising, value):
            for level in range(len(thresholds), 0, -1):
                t = thresholds[level - 1]
                if (value >= t) if rising else (value <= t):
                    return level
            return 0

        rng = random.Random(5)
        for _ in range(300):
            rising = rng.random() < 0.5
            cuts = sorted(rng.sample(range(-6, 7), rng.randint(1, 5)), reverse=not rising)
            thresholds = tuple(c / 2 for c in cuts)
            table = ThresholdTable(signal="x", thresholds=thresholds, direction="rising" if rising else "falling")
            values = [math.inf, -math.inf, -0.0, rng.uniform(-4.0, 4.0)]
            for t in thresholds:
                values += [t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)]
            for value in values:
                assert table.next_level(value, 0) == scan(thresholds, rising, value), (thresholds, value)

    def test_zero_hysteresis_equals_stateless_bucket(self):
        table = ThresholdTable(signal="x", thresholds=(1.0, 2.0, 3.0))
        for prev in range(4):
            value = -0.5
            while value < 4.0:
                expected = table.next_level(value, 0)
                assert table.next_level(value, prev) == expected
                value += 0.01

    def test_monotone_step_in_value_for_fixed_prev(self):
        table = ThresholdTable(signal="x", thresholds=(1.0, 2.0), hysteresis=(0.2, 0.2))
        for prev in range(3):
            last = -1
            value = -1.0
            while value < 3.5:
                level = table.next_level(value, prev)
                assert level >= last
                last = level
                value += 0.005


class TestTableValidation:
    # Checked by validate; ThresholdTable itself assumes a validated schedule.
    def test_non_monotone_thresholds_rejected(self):
        assert "error: ones[0].thresholds: must be strictly increasing" in diagnose(rising([2.0, 1.0], [0.0, 0.0]))

    def test_overlapping_bands_rejected(self):
        assert "error: ones[0].hysteresis: bands overlap neighbouring thresholds" in diagnose(
            rising([1.0, 2.0], [0.6, 0.6])
        )

    def test_bad_direction_rejected(self):
        assert "error: ones[0].direction: must be 'rising' or 'falling'" in diagnose(
            set_at("ones.0.direction", "sideways")
        )


class TestComposeVirtual:
    RULE = VirtualOneRule(
        id="lm_rad",
        inputs=("locked_mode", "rad_power"),
        table={(a, b): out for (a, b), out in {
            (0, 0): 0, (0, 1): 0, (0, 2): 1,
            (1, 0): 1, (1, 1): 2, (1, 2): 3,
        }.items()},
    )

    def events(self, lm, rp):
        return {
            "locked_mode": EventState(one_id="locked_mode", level=lm),
            "rad_power": EventState(one_id="rad_power", level=rp),
        }

    def test_passthrough_row(self):
        assert compose_virtual(self.events(1, 0), self.RULE).level == 1

    def test_escalating_combination(self):
        # A mild locked mode plus rising radiated power is its own, more
        # severe event.
        assert compose_virtual(self.events(1, 2), self.RULE).level == 3

    def test_quiescent(self):
        assert compose_virtual(self.events(0, 0), self.RULE).level == 0

    def test_output_is_the_level_alone(self):
        assert compose_virtual(self.events(1, 1), self.RULE) == EventState("lm_rad", 2)

    # validate refuses a virtual input that is not a base event and a table
    # that is not total, so every lookup here finds its inputs and its row.
    def test_missing_input_rejected(self):
        expected = (
            "error: virtual_ones[0].inputs[0]: input 'ghost' is not a base event "
            "(virtuals combine base events only)"
        )
        assert expected in diagnose(virtual(inputs=["ghost"], rows=[{"levels": [0], "level": 0}]))

    def test_missing_row_rejected(self):
        expected = "error: virtual_ones[0].rows: combiner not total: 1 missing combinations (e.g. [1])"
        assert expected in diagnose(virtual(rows=[{"levels": [0], "level": 0}]))


def density_limit_monitor():
    return MonitorConfig(
        tables={
            "d_ne_edge": ThresholdTable(
                signal="d_ne_edge",
                thresholds=(0.45, 0.25, 0.02),
                direction="falling",
                hysteresis=(0.02, 0.01, 0.0),
            ),
            "actuator_lim": ThresholdTable(signal="nbi_energy_frac", thresholds=(0.95,)),
        }
    )


class TestMonitorStep:
    def test_empty_config_empty_vector(self):
        events, faults = monitor_step({}, MonitorConfig(tables={}), {})
        assert events == {} and faults == []

    def test_quiet_plasma_all_zero(self):
        # Half the energy budget spent and distance above the first
        # critical value: both events stay at level 0.
        events, faults = monitor_step(
            {"d_ne_edge": 0.6, "nbi_energy_frac": 0.5}, density_limit_monitor(), {}
        )
        assert [e.level for e in events.values()] == [0, 0]
        assert faults == []

    def test_energy_fraction_above_limit_flags_actuator(self):
        events, _ = monitor_step(
            {"d_ne_edge": 0.6, "nbi_energy_frac": 0.99 * 1.3 / 1.3},
            density_limit_monitor(),
            {},
        )
        assert events["actuator_lim"].level == 1
        assert events["d_ne_edge"].level == 0

    def test_fault_pins_previous_level_and_spares_others(self):
        config = density_limit_monitor()
        previous = {
            "d_ne_edge": EventState("d_ne_edge", 2),
            "actuator_lim": EventState("actuator_lim", 0),
        }
        events, faults = monitor_step(
            {"d_ne_edge": math.nan, "nbi_energy_frac": 0.99}, config, previous
        )
        assert events["d_ne_edge"].level == 2
        assert events["actuator_lim"].level == 1
        assert len(faults) == 1 and faults[0][0] == "d_ne_edge"

    def test_fault_raises_plant_failure_event(self):
        base = density_limit_monitor()
        config = MonitorConfig(
            tables=base.tables, plant_failure=EventState("actuator_lim", 1)
        )
        events, faults = monitor_step({"nbi_energy_frac": 0.0}, config, {})
        assert faults and events["actuator_lim"].level == 1

    def test_compiled_plant_failure_is_the_event_top_level(self, density_limit_schedule):
        run = density_limit_schedule.run._replace(plant_failure_one="d_ne_edge")
        compiled = cfg.compile_schedule(density_limit_schedule._replace(run=run))
        assert compiled.monitor.plant_failure == EventState("d_ne_edge", 3)
        assert cfg.compile_schedule(density_limit_schedule).monitor.plant_failure is None

    def test_deterministic(self):
        config = density_limit_monitor()
        signals = {"d_ne_edge": 0.3, "nbi_energy_frac": 0.2}
        first = monitor_step(signals, config, {})
        second = monitor_step(signals, config, {})
        assert first == second

    def test_virtual_output_independent_of_base_declaration_order(self):
        rule = VirtualOneRule(
            id="combo",
            inputs=("a", "b"),
            table={(i, j): max(i, j) for i in range(2) for j in range(2)},
        )
        t_a = ThresholdTable(signal="sa", thresholds=(1.0,))
        t_b = ThresholdTable(signal="sb", thresholds=(1.0,))
        fwd = MonitorConfig(tables={"a": t_a, "b": t_b}, virtual_rules=(rule,))
        rev = MonitorConfig(tables={"b": t_b, "a": t_a}, virtual_rules=(rule,))
        signals = {"sa": 1.5, "sb": 0.0}
        ev_fwd, _ = monitor_step(signals, fwd, {})
        ev_rev, _ = monitor_step(signals, rev, {})
        assert ev_fwd["combo"] == ev_rev["combo"]

    def test_levels_follow_discretize_over_a_random_walk(self):
        config = density_limit_monitor()
        rng = random.Random(8)
        events, levels = {}, {one_id: 0 for one_id in config.tables}
        for k in range(2000):
            signals = {"d_ne_edge": rng.uniform(-0.1, 0.6), "nbi_energy_frac": rng.uniform(0.8, 1.1)}
            events, _ = monitor_step(signals, config, events)
            for one_id, table in config.tables.items():
                levels[one_id] = table.next_level(signals[table.signal], levels[one_id])
                assert events[one_id].level == levels[one_id]

    def test_carried_call_returns_previous_itself(self):
        config = density_limit_monitor()
        signals = {"d_ne_edge": 0.3, "nbi_energy_frac": 0.2}
        previous, _ = monitor_step(signals, config, {})
        # 0.3 lies inside level 1's band of d_ne_edge, 0.96 inside level 1 of actuator_lim.
        moved, _ = monitor_step({"d_ne_edge": 0.3, "nbi_energy_frac": 0.96}, config, previous)
        assert moved is not previous
        events, faults = monitor_step({"d_ne_edge": 0.46, "nbi_energy_frac": 0.95}, config, moved)
        assert events is moved and faults == []

    def test_forced_virtual_event_is_recomposed_on_the_next_clean_tick(self):
        rule = VirtualOneRule("v", ("a",), {(0,): 0, (1,): 2})
        config = MonitorConfig({"a": ThresholdTable("x", (1.0,))}, (rule,), plant_failure=EventState("v", 2))
        events, _ = monitor_step({"x": 0.0}, config, {})
        events, faults = monitor_step({}, config, events)
        assert faults and events["v"] is config.plant_failure
        # x = 0.0 keeps event a inside its level-0 band, but v must leave the forced state.
        events, faults = monitor_step({"x": 0.0}, config, events)
        assert faults == [] and events["v"] == EventState("v", 0)


# ---------------------------------------------------------------------------
# monitor_step as it was before the band check, which re-derives every
# event on every call. Kept verbatim, as the reference that monitor_step
# must match: the same levels and faults, and the same EventState objects
# for the base events.
# ---------------------------------------------------------------------------

def reference_monitor_step(
    signals: Mapping[str, float],
    config: MonitorConfig,
    previous: Mapping[str, EventState],
) -> Tuple[Dict[str, EventState], List[Tuple[str, str]]]:
    """Produce one event-level vector from one signal snapshot.

    Returns ``(events, faults)``. A non-finite or missing signal does not
    abort the other events: the affected event keeps its previous level
    and is reported in ``faults``. If ``plant_failure`` is configured,
    any fault also puts its event in that state. A base event whose level
    did not move keeps its previous ``EventState`` object.
    """
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


class TestBands:
    def test_a_level_holds_exactly_inside_its_band(self):
        rng = random.Random(25)
        for _ in range(200):
            rising = rng.random() < 0.5
            cuts = sorted(rng.sample(range(-8, 9), rng.randint(1, 4)), reverse=not rising)
            hysteresis = tuple(rng.choice([0.0, 0.125, 0.25]) for _ in cuts)
            table = ThresholdTable("x", tuple(c / 2 for c in cuts), "rising" if rising else "falling", hysteresis)
            values = [math.nan, math.inf, -math.inf, sys.float_info.max, -sys.float_info.max, rng.uniform(-5.0, 5.0)]
            for edge in table.rising + table.release:
                values += [table.sign * v for v in (edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf))]
            for level, (lo, hi) in enumerate(table.bands):
                for value in values:
                    inside = lo <= table.sign * value < hi
                    assert inside == (math.isfinite(value) and table.next_level(value, level) == level), (
                        table, level, value)


@st.composite
def band_cases(draw):
    """A monitor with rising and falling tables, maybe a virtual rule and a plant failure, and signal snapshots.

    Every value is exact in binary, so the snapshots hit thresholds and
    release points exactly, besides NaN, +-inf and missing signals. A third
    of the snapshots repeat the last one that had every signal, so that
    levels hold, also right after a fault.
    """
    tables, edges = {}, [0.0]
    for i in range(draw(st.integers(1, 3))):
        cuts = sorted(draw(st.sets(st.integers(-8, 8), min_size=1, max_size=3)))
        rising = draw(st.booleans())
        thresholds = tuple(c / 2 for c in (cuts if rising else cuts[::-1]))
        hysteresis = tuple(draw(st.sampled_from([0.0, 0.125, 0.25])) for _ in cuts) if draw(st.booleans()) else ()
        table = ThresholdTable(draw(st.sampled_from(["a", "b", "c"])), thresholds, "rising" if rising else "falling",
                               hysteresis)
        tables[f"e{i}"] = table
        edges += [table.sign * v for v in table.rising + table.release]
    rules = ()
    if draw(st.booleans()):
        inputs = tuple(draw(st.lists(st.sampled_from(sorted(tables)), min_size=1, max_size=2, unique=True)))
        ranges = [range(len(tables[one_id].thresholds) + 1) for one_id in inputs]
        rules = (VirtualOneRule("v", inputs, {key: draw(st.integers(0, 3)) for key in itertools.product(*ranges)}),)
    forced = draw(st.sampled_from([None, *tables, *[rule.id for rule in rules]]))
    top = len(tables[forced].thresholds) if forced in tables else 3
    config = MonitorConfig(tables, rules, None if forced is None else EventState(forced, top))
    names = sorted({table.signal for table in tables.values()})
    value = st.sampled_from(edges + [math.nan, math.inf, -math.inf]) | st.floats(-5.0, 5.0)
    complete = st.fixed_dictionaries({name: value for name in names})
    drawn = draw(st.lists(complete | st.dictionaries(st.sampled_from(names), value) | st.none(), min_size=1, max_size=30))
    snapshots, last = [], {}
    for snapshot in drawn:
        if snapshot is None:
            snapshot = last
        elif len(snapshot) == len(names):
            last = snapshot
        snapshots.append(snapshot)
    return config, snapshots


@settings(max_examples=200, deadline=None)
@given(band_cases())
def test_monitor_step_matches_its_reference(case):
    config, snapshots = case
    events, expected = {}, {}
    for signals in snapshots:
        new, faults = monitor_step(signals, config, events)
        old, expected_faults = reference_monitor_step(signals, config, expected)
        assert {k: e.level for k, e in new.items()} == {k: e.level for k, e in old.items()}
        assert list(new) == list(old) and faults == expected_faults
        for one_id in config.tables:
            assert (new[one_id] is events.get(one_id)) == (old[one_id] is expected.get(one_id))
            forced = faults and config.plant_failure is not None and config.plant_failure.one_id == one_id
            if one_id in events and events[one_id].level == new[one_id].level and not forced:
                assert new[one_id] is events[one_id]
        events, expected = new, old
