import math

from oneguard import config as cfg
from oneguard.controllers import Waveform
from oneguard.model import (
    Activation,
    ControlTask,
    DangerLevel,
    EventTrigger,
    SCENARIO_TYPE_FOR_REACTION,
    ScenarioType,
)
from oneguard.monitor import MonitorConfig, ThresholdTable, monitor_step

from test_config import diagnose, minimal_doc, parse_doc, second_task, set_at


def compile_doc(doc):
    return cfg.compile_schedule(parse_doc(doc))


class TestEnums:
    def test_five_danger_levels_ordered(self):
        assert [d.value for d in DangerLevel] == [0, 1, 2, 3, 4]
        assert DangerLevel.NO < DangerLevel.LOW < DangerLevel.MEDIUM
        assert DangerLevel.HIGH < DangerLevel.VERY_HIGH

    def test_danger_order_agrees_with_integers(self):
        for a in DangerLevel:
            for b in DangerLevel:
                assert (a < b) == (int(a) < int(b))

    def test_danger_names_round_trip(self):
        # A danger map naming every level compiles to the levels in order;
        # the reaction map is read by name, whatever order it is written in.
        doc = minimal_doc()
        one = doc["ones"][0]
        one.update(thresholds=[0.5, 0.4, 0.3, 0.2], danger={d.value: d.label for d in DangerLevel})
        one["reaction"] = dict(reversed(one["reaction"].items()))
        evaluation = compile_doc(doc).supervisor.evaluations["watch"]
        assert evaluation.danger == tuple(DangerLevel)
        assert evaluation.reaction == (0, 0, 1, 3, 3)

    def test_five_scenario_types(self):
        assert len(ScenarioType) == 5
        for kind in ScenarioType:
            doc = minimal_doc()
            doc["scenarios"][1]["type"] = kind.value
            assert compile_doc(doc).supervisor.os_mapping.scenarios["recovery"].type is kind

    def test_reaction_levels_map_onto_scenario_types(self):
        assert SCENARIO_TYPE_FOR_REACTION[0] is ScenarioType.NORMAL
        assert SCENARIO_TYPE_FOR_REACTION[4] is ScenarioType.DISRUPTION_MITIGATION


class TestValues:
    def test_signal_rejects_non_finite(self):
        # The monitor refuses a non-finite sample: its event keeps its
        # previous level and the sample is reported as a fault.
        config = MonitorConfig(tables={"e": ThresholdTable(signal="x", thresholds=(1.0,))})
        for bad in (math.nan, math.inf, -math.inf):
            events, faults = monitor_step({"x": bad}, config, {})
            assert events["e"].level == 0
            assert faults == [("e", "signal 'x' unavailable or non-finite")]

    def test_request_invariants(self):
        # Requests are built by the controllers, whose settings validate bounds.
        assert "error: controllers.ff: field 'min_request' must be >= 0" in diagnose(
            set_at("controllers.ff.min_request", -0.1)
        )

    def test_task_priority_must_be_positive(self):
        assert "error: scenarios[0].tasks[0]: priority must be >= 1" in diagnose(
            set_at("scenarios.0.tasks.0.priority", 0)
        )
        assert "error: scenarios[0].tasks[1]: priority 1 already used by task 'heat'" in diagnose(second_task)

    def test_activation_window_and_trigger(self):
        act = Activation(t_start=1.0, t_end=2.0, trigger=EventTrigger("x", min_level=1))
        assert not act.holds(0.5, {"x": 2})
        assert act.holds(1.5, {"x": 2})
        assert not act.holds(1.5, {"x": 0})
        assert not act.holds(2.0, {"x": 2})

    def test_trigger_max_level(self):
        trigger = EventTrigger("x", min_level=0, max_level=0)
        assert trigger.holds(0)
        assert not trigger.holds(1)


class TestRecords:
    """Records compare, hash and print by their declared fields only, of one class."""

    def test_threshold_table_leaves_derived_values_out(self):
        table = ThresholdTable("x", (1.0, 2.0))
        assert repr(table) == (
            "ThresholdTable(signal='x', thresholds=(1.0, 2.0), direction='rising', hysteresis=(0.0, 0.0))"
        )
        explicit = ThresholdTable("x", (1.0, 2.0), "rising", (0.0, 0.0))
        assert table == explicit and hash(table) == hash(explicit)
        assert table != ThresholdTable("x", (1.0, 2.0), "falling")

    def test_equal_waveforms(self):
        # One shared NaN object compares equal inside the field tuple.
        points = ((0.0, 1.0), (1.0, math.nan))
        a, b = Waveform(points, "hold"), Waveform(points, "hold")
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Waveform(points=((0.0, 1.0), (1.0, nan)), interpolation='hold')"
        assert a != Waveform(points) and a != (points, "hold")

    def test_control_task_has_the_default_activation(self):
        task = ControlTask("a", 1, "c", "g")
        assert repr(task) == (
            "ControlTask(id='a', priority=1, controller='c', group='g', reference=None, "
            "activation=Activation(t_start=0.0, t_end=None, trigger=None))"
        )
        same = ControlTask("a", 1, "c", "g", None, Activation())
        assert task == same and hash(task) == hash(same)
        assert task != ControlTask("a", 2, "c", "g")
