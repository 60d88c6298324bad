import ast
import itertools
import re
import sys
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oneguard import cli
from oneguard import config as cfg
from oneguard.controllers import RUNTIMES, Waveform
from oneguard.errors import ConfigError
from oneguard.model import SCENARIO_TYPES
from oneguard.supervisor import OsMapping, Scenario

from conftest import DENSITY_LIMIT, DUAL_NTM

MINIMAL = """
run: {dt: 0.01 s, duration: 0.1 s}
plant:
  tau_e: 0.02 s
  tau_98: 0.02 s
  tau_n: 0.25 s
  k_gas: 0.02
  p_ohmic: 0.3 MW
  nbi_energy_limit: 1.3 MJ
  ne_init: 0.2
  nbi_group: nbi
  gas_group: gas
  degradation: [[0.0, 1.0], [2.0, 1.0]]
  boundary: [[1.5, 0.1], [2.5, 0.2]]
ones:
  - id: watch
    signal: h98y2
    direction: falling
    thresholds: [0.5]
    danger: {0: "no", 1: medium}
    reaction: {"no": 0, low: 0, medium: 1, high: 3, very_high: 3}
os_mapping:
  default: normal
  rows:
    - {reactions: [0], scenario: normal}
    - {reactions: [1], scenario: recovery}
    - {reactions: [3], scenario: shutdown}
scenarios:
  - id: normal
    type: normal
    tasks:
      - {id: heat, priority: 1, controller: ff, group: nbi, reference: 0.4}
  - id: recovery
    type: recovery
    tasks: []
  - id: shutdown
    type: soft_shutdown
    tasks: []
controllers:
  ff: {type: feedforward}
actuator_groups:
  - {id: nbi, capacity: 1.3, unit: MW}
  - {id: gas, capacity: 10.0}
"""


def minimal_doc():
    return yaml.safe_load(MINIMAL)


def parse_doc(doc):
    return cfg.parse(yaml.safe_dump(doc, sort_keys=False))


def validate_doc(doc):
    return cfg.validate(parse_doc(doc))


def error_messages(diagnostics):
    return [str(d) for d in cfg.errors_of(diagnostics)]


class TestParse:
    def test_shipped_density_limit_document(self, density_limit_schedule):
        ps = density_limit_schedule
        assert [o.id for o in ps.ones] == ["d_ne_edge", "actuator_lim"]
        assert [s.id for s in ps.scenarios] == ["normal", "recovery", "soft_shutdown"]
        assert ps.run.dt == 0.01

    def test_shipped_dual_ntm_document(self, dual_ntm_schedule):
        ps = dual_ntm_schedule
        assert [o.id for o in ps.ones] == ["ntm21", "ntm43"]
        ids = {s.id for s in ps.scenarios}
        assert {"backup1", "mitigation", "recovery_1", "recovery_2", "recovery_3"} <= ids
        types = {s.id: s.type for s in ps.scenarios}
        assert types["mitigation"] == "disruption_mitigation"

    def test_empty_document_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            cfg.parse("")

    def test_missing_section_rejected(self):
        doc = minimal_doc()
        del doc["ones"]
        with pytest.raises(ConfigError, match="ones"):
            parse_doc(doc)

    def test_unknown_top_level_key_rejected(self):
        doc = minimal_doc()
        doc["extra_section"] = {}
        with pytest.raises(ConfigError, match="extra_section"):
            parse_doc(doc)

    def test_unknown_nested_key_rejected(self):
        doc = minimal_doc()
        doc["ones"][0]["typo_field"] = 1
        with pytest.raises(ConfigError, match="typo_field"):
            parse_doc(doc)

    def test_int_past_float_range_rejected(self):
        doc = minimal_doc()
        doc["plant"]["tau_e"] = 10**400
        with pytest.raises(ConfigError, match="plant.tau_e: number must be finite, got inf"):
            parse_doc(doc)

    def test_yaml_syntax_error_carries_location(self):
        with pytest.raises(ConfigError, match="line"):
            cfg.parse("run: {dt: 0.01\nplant: []")

    def test_unit_suffix_must_match_declared_unit(self):
        doc = minimal_doc()
        doc["run"]["dt"] = "0.01 ms"
        with pytest.raises(ConfigError, match="ms"):
            parse_doc(doc)

    def test_unit_suffix_on_unitless_field_rejected(self):
        doc = minimal_doc()
        doc["plant"]["k_gas"] = "0.02 MW"
        with pytest.raises(ConfigError):
            parse_doc(doc)

    def test_group_unit_applies_to_capacity(self):
        doc = minimal_doc()
        doc["actuator_groups"][0]["capacity"] = "1.3 MW"
        assert parse_doc(doc).groups[0].capacity == 1.3

    def test_non_finite_number_rejected(self):
        doc = minimal_doc()
        doc["plant"]["k_gas"] = float("nan")
        with pytest.raises(ConfigError, match="finite"):
            parse_doc(doc)

    def test_bare_no_reads_as_danger_name(self):
        # YAML 1.1 turns an unquoted `no` into a boolean; the parser maps
        # it back so danger tables stay writable without quoting.
        text = MINIMAL.replace('danger: {0: "no", 1: medium}', "danger: {0: no, 1: medium}")
        ps = cfg.parse(text)
        assert dict(ps.ones[0].danger)[0] == "no"

    def test_null_optional_key_reads_as_its_default(self):
        doc = minimal_doc()
        doc["run"]["post_roll"] = None
        doc["ones"][0].update(irreversible=None, hysteresis=None)
        ps = parse_doc(doc)
        assert (ps.run.post_roll, ps.ones[0].irreversible, ps.ones[0].hysteresis) == (0.0, (3, 4), (0.0,))

    def test_parse_is_load_then_parse_document(self):
        assert cfg.parse_document(cfg.load_document(MINIMAL)) == cfg.parse(MINIMAL)

    @pytest.mark.parametrize(
        "text, message", [("", "empty"), ("- 1\n", "mapping"), ("run: [1\n", "not valid YAML")]
    )
    def test_load_document_rejects_non_mappings(self, text, message):
        with pytest.raises(ConfigError, match=message):
            cfg.load_document(text)

    def test_bad_yaml_error_carries_line_and_column(self):
        with pytest.raises(ConfigError, match=r"^schedule is not valid YAML: (.|\n)*line 2, column 4"):
            cfg.load_document("a: b\n  c: d: e\n")

    def test_nesting_limit_is_exact(self):
        limit = cfg.MAX_NESTING
        value = cfg.load_yaml("[" * limit + "]" * limit, "value")
        for _ in range(limit - 1):
            (value,) = value
        assert value == []
        with pytest.raises(ConfigError, match=f"^value nests collections more than {limit} deep$"):
            cfg.load_yaml("[" * (limit + 1) + "]" * (limit + 1), "value")

    @pytest.mark.parametrize("path", [DENSITY_LIMIT, DUAL_NTM])
    def test_shipped_schedules_skip_the_nesting_walk(self, path, monkeypatch):
        # Their indicator count bounds their depth well inside the limit.
        monkeypatch.setattr(cfg, "_nests_deeper", lambda text, limit: pytest.fail("walked"))
        cfg.load_document(path.read_text())

    def test_pure_python_loader_recursion_is_a_config_error(self, monkeypatch):
        monkeypatch.setattr(cfg, "_LOADER", yaml.SafeLoader)
        with pytest.raises(ConfigError, match="^value is not valid YAML: maximum recursion depth"):
            cfg.load_yaml("[" * 3000 + "]" * 3000, "value")

    @pytest.mark.parametrize("path", [DENSITY_LIMIT, DUAL_NTM])
    def test_load_document_equals_the_pure_python_loader(self, path):
        text = path.read_text()
        assert cfg.load_document(text) == yaml.load(text, Loader=yaml.SafeLoader)


class TestValidate:
    def test_shipped_documents_are_clean(self, density_limit_schedule, dual_ntm_schedule):
        assert cfg.validate(density_limit_schedule) == []
        assert cfg.validate(dual_ntm_schedule) == []

    def test_minimal_document_is_clean(self):
        assert validate_doc(minimal_doc()) == []

    def test_non_total_reaction_map(self):
        doc = minimal_doc()
        del doc["ones"][0]["reaction"]["medium"]
        messages = error_messages(validate_doc(doc))
        assert any("non-total" in m and "medium" in m for m in messages)

    def test_non_total_danger_map(self):
        doc = minimal_doc()
        del doc["ones"][0]["danger"][1]
        messages = error_messages(validate_doc(doc))
        assert any("non-total" in m for m in messages)

    def test_threshold_monotonicity(self):
        doc = minimal_doc()
        doc["ones"][0]["direction"] = "rising"
        doc["ones"][0]["thresholds"] = [0.5, 0.4]
        doc["ones"][0]["danger"] = {0: "no", 1: "low", 2: "medium"}
        messages = error_messages(validate_doc(doc))
        assert any("strictly increasing" in m for m in messages)

    def test_hysteresis_overlap(self):
        doc = minimal_doc()
        doc["ones"][0]["direction"] = "rising"
        doc["ones"][0]["thresholds"] = [0.4, 0.5]
        doc["ones"][0]["hysteresis"] = [0.2, 0.2]
        doc["ones"][0]["danger"] = {0: "no", 1: "low", 2: "medium"}
        messages = error_messages(validate_doc(doc))
        assert any("overlap" in m for m in messages)

    def test_row_referencing_unknown_scenario(self):
        doc = minimal_doc()
        doc["os_mapping"]["rows"][1]["scenario"] = "ghost"
        messages = error_messages(validate_doc(doc))
        assert any("ghost" in m for m in messages)

    def test_duplicate_task_priorities(self):
        doc = minimal_doc()
        doc["scenarios"][0]["tasks"].append(
            {"id": "heat2", "priority": 1, "controller": "ff", "group": "nbi", "reference": 0.1}
        )
        messages = error_messages(validate_doc(doc))
        assert any("priority 1" in m for m in messages)

    def test_unknown_controller_and_group(self):
        doc = minimal_doc()
        doc["scenarios"][0]["tasks"][0]["controller"] = "nope"
        doc["scenarios"][0]["tasks"][0]["group"] = "nowhere"
        messages = error_messages(validate_doc(doc))
        assert any("nope" in m for m in messages)
        assert any("nowhere" in m for m in messages)

    def test_virtual_rule_missing_combiner_rows(self):
        doc = minimal_doc()
        doc["virtual_ones"] = [
            {
                "id": "combo",
                "inputs": ["watch"],
                "rows": [{"levels": [0], "level": 0}],
                "danger": {0: "no"},
                "reaction": {"no": 0, "low": 0, "medium": 0, "high": 3, "very_high": 3},
            }
        ]
        doc["os_mapping"]["rows"] = []
        messages = error_messages(validate_doc(doc))
        assert any("not total" in m for m in messages)

    def test_missing_zero_row_warns_about_fallback(self):
        doc = minimal_doc()
        doc["os_mapping"]["rows"] = doc["os_mapping"]["rows"][1:]
        diagnostics = validate_doc(doc)
        assert error_messages(diagnostics) == []
        warnings = [str(d) for d in diagnostics if d.severity == "warning"]
        assert any("fallback" in w for w in warnings)

    def test_reachable_combination_without_fallback_scenario_is_error(self):
        doc = minimal_doc()
        doc["ones"][0]["reaction"]["medium"] = 3
        doc["os_mapping"]["rows"] = doc["os_mapping"]["rows"][:2]
        doc["scenarios"] = doc["scenarios"][:2]
        messages = error_messages(validate_doc(doc))
        assert any("no row and no" in m for m in messages)

    def test_default_scenario_must_be_normal(self):
        doc = minimal_doc()
        doc["os_mapping"]["default"] = "recovery"
        messages = error_messages(validate_doc(doc))
        assert any("normal" in m for m in messages)

    def test_irreversible_set_without_terminal_levels_warns(self):
        doc = minimal_doc()
        doc["ones"][0]["irreversible"] = [4]
        diagnostics = validate_doc(doc)
        assert error_messages(diagnostics) == []
        assert any(d.severity == "warning" and "irreversible" in d.path for d in diagnostics)

    @pytest.mark.parametrize(
        "irreversible, warns",
        [([3], False), ([2], False), ([1, 3], False), ([4], True), ([], True)],
        ids=["3", "2", "1-3", "4", "none"],
    )
    def test_irreversible_warning_follows_the_latch(self, irreversible, warns):
        # The latch holds from the set's lowest level up, so [2] latches 3 and 4 too.
        doc = minimal_doc()
        doc["ones"][0]["irreversible"] = irreversible
        warning = "warning: ones[0].irreversible: set does not cover the conventional irreversible levels {3, 4}"
        assert (warning in [str(d) for d in validate_doc(doc)]) is warns

    def test_feedforward_task_requires_reference(self):
        doc = minimal_doc()
        del doc["scenarios"][0]["tasks"][0]["reference"]
        messages = error_messages(validate_doc(doc))
        assert any("reference" in m for m in messages)

    def test_compile_rejects_invalid_schedule(self):
        doc = minimal_doc()
        del doc["ones"][0]["reaction"]["medium"]
        with pytest.raises(ConfigError, match="failed validation"):
            cfg.compile_schedule(parse_doc(doc))

    def test_reused_task_id_with_another_binding_warns(self):
        def reuse_heat(reference, group="nbi"):
            def mutate(doc):
                doc["scenarios"][1]["tasks"] = [dict(doc["scenarios"][0]["tasks"][0], reference=reference, group=group)]

            return mutate

        assert diagnose(reuse_heat(0.4)) == []
        assert diagnose(reuse_heat(0.1)) == [
            "warning: scenarios[1].tasks[0]: task id 'heat' is also used at scenarios[0].tasks[0] with a "
            "different reference; a task that stays active across a switch between them keeps the binding "
            "it was activated with"
        ]
        assert "different group, reference;" in diagnose(reuse_heat(0.1, group="gas"))[0]

    def test_pid_measurement_signal_must_exist(self):
        doc = minimal_doc()
        doc["controllers"]["beta"] = {
            "type": "pid", "kp": 1.0, "hi": 1.0, "measurement": "no_such_signal",
        }
        messages = error_messages(validate_doc(doc))
        assert any("no_such_signal" in m for m in messages)

    def test_ntm_aim_group_must_be_exclusive(self):
        doc = minimal_doc()
        doc["controllers"]["ntm"] = {"type": "ntm", "position_signal": "h98y2", "aim_group": "gas"}
        messages = error_messages(validate_doc(doc))
        assert any("exclusive" in m for m in messages)


def _parent(doc, path):
    """The node holding the last key of the dotted ``path``, and that key (list indices as numbers)."""
    *parents, leaf = path.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node, int(leaf) if isinstance(node, list) else leaf


def set_at(path, value):
    """A mutation that sets the dotted ``path`` of a document."""

    def mutate(doc):
        node, key = _parent(doc, path)
        node[key] = value

    return mutate


def diagnose(mutate):
    """Every diagnostic of ``minimal_doc()`` after ``mutate``, as printed."""
    doc = minimal_doc()
    mutate(doc)
    return [str(d) for d in validate_doc(doc)]


def rising(thresholds, hysteresis):
    def mutate(doc):
        doc["ones"][0].update(direction="rising", thresholds=thresholds, hysteresis=hysteresis)
        doc["ones"][0]["danger"] = {level: "low" for level in range(len(thresholds) + 1)}

    return mutate


def virtual(**fields):
    def mutate(doc):
        rule = {"id": "combo", "inputs": ["watch"], "rows": [{"levels": [0], "level": 0}, {"levels": [1], "level": 0}]}
        rule.update(fields, danger={0: "no"}, reaction=doc["ones"][0]["reaction"])
        doc["virtual_ones"] = [rule]

    return mutate


def second_task(doc):
    doc["scenarios"][0]["tasks"].append(
        {"id": "heat2", "priority": 1, "controller": "ff", "group": "nbi", "reference": 0.1}
    )


def controller(**settings):
    return set_at("controllers.probe", settings)


def drop(path):
    """A mutation that deletes the entry at the dotted ``path``."""

    def mutate(doc):
        node, key = _parent(doc, path)
        # Danger maps are keyed by level numbers.
        del node[int(key) if isinstance(key, str) and key.isdigit() else key]

    return mutate


def repeat_task(doc):
    doc["scenarios"][0]["tasks"].append(dict(doc["scenarios"][0]["tasks"][0], priority=2))


def aim_at_own_group(doc):
    doc["actuator_groups"].append({"id": "aim", "capacity": 1.0, "semantics": "exclusive"})
    doc["controllers"]["ntm"] = {"type": "ntm", "position_signal": "h98y2", "aim_group": "aim"}
    doc["scenarios"][0]["tasks"].append({"id": "stabilize", "priority": 2, "controller": "ntm", "group": "aim"})


def drop_recovery(doc):
    doc["os_mapping"]["rows"] = [doc["os_mapping"]["rows"][0], doc["os_mapping"]["rows"][2]]
    doc["scenarios"] = [doc["scenarios"][0], doc["scenarios"][2]]


DA_POWER = {"type": "da_power", "mode": "normal", "d_critical1": 0.45, "p_max": 1.3, "signal": "d_ne_edge"}

#: Each schedule rule that only ``validate`` checks: a mutation of
#: ``minimal_doc()`` that breaks it, and the diagnostic that reports it.
CHECK_HOMES = [
    # Threshold tables.
    ("direction", set_at("ones.0.direction", "sideways"), "error: ones[0].direction: must be 'rising' or 'falling'"),
    ("no_thresholds", set_at("ones.0.thresholds", []), "error: ones[0].thresholds: needs at least one threshold"),
    ("band_count", set_at("ones.0.hysteresis", [0.1, 0.1]), "error: ones[0].hysteresis: 2 bands for 1 thresholds"),
    ("negative_band", set_at("ones.0.hysteresis", [-0.1]), "error: ones[0].hysteresis: bands must be >= 0"),
    ("rising_order", rising([0.5, 0.4], [0.0, 0.0]), "error: ones[0].thresholds: must be strictly increasing"),
    (
        "falling_order",
        set_at("ones.0.thresholds", [0.4, 0.5]),
        "error: ones[0].thresholds: must be strictly decreasing",
    ),
    ("band_overlap", rising([0.4, 0.5], [0.06, 0.05]), "error: ones[0].hysteresis: bands overlap neighbouring thresholds"),
    # Plant parameters and disruption boundary.
    ("tau_e", set_at("plant.tau_e", 0.0), "error: plant.tau_e: must be positive"),
    ("tau_98", set_at("plant.tau_98", -0.02), "error: plant.tau_98: must be positive"),
    ("tau_n", set_at("plant.tau_n", 0.0), "error: plant.tau_n: must be positive"),
    ("energy_limit", set_at("plant.nbi_energy_limit", 0.0), "error: plant.nbi_energy_limit: must be positive"),
    ("degradation_points", set_at("plant.degradation", [[0.0, 1.0]]), "error: plant.degradation: needs at least two points"),
    (
        "degradation_order",
        set_at("plant.degradation", [[1.0, 1.0], [1.0, 0.5]]),
        "error: plant.degradation: densities must be strictly increasing",
    ),
    ("boundary_points", set_at("plant.boundary", [[1.5, 0.1]]), "error: plant.boundary: needs at least two points"),
    (
        "boundary_order",
        set_at("plant.boundary", [[2.5, 0.1], [1.5, 0.2]]),
        "error: plant.boundary: densities must be strictly increasing",
    ),
    (
        # Parsing builds the boundary; its segments would divide by the zero density step.
        "boundary_repeated_density",
        set_at("plant.boundary", [[1.0, 0.1], [1.0, 0.2]]),
        "error: plant.boundary: densities must be strictly increasing",
    ),
    (
        # Points so close together, or so far apart, that a squared segment length underflows or overflows.
        "boundary_segment",
        set_at("plant.boundary", [[0.0, 0.14], [1.0e-200, 0.14]]),
        "error: plant.boundary: a segment's squared length, extended ends included, is not positive and finite",
    ),
    # Actuator groups.
    ("capacity", set_at("actuator_groups.1.capacity", -1.0), "error: actuator_groups[1]: capacity must be >= 0"),
    ("semantics", set_at("actuator_groups.1.semantics", "bogus"), "error: actuator_groups[1]: unknown semantics 'bogus'"),
    ("range", set_at("actuator_groups.1.command_range", [5.0, 1.0]), "error: actuator_groups[1]: command_range inverted"),
    # Scenarios and tasks.
    ("shared_priority", second_task, "error: scenarios[0].tasks[1]: priority 1 already used by task 'heat'"),
    ("priority", set_at("scenarios.0.tasks.0.priority", 0), "error: scenarios[0].tasks[0]: priority must be >= 1"),
    ("task_id", repeat_task, "error: scenarios[0].tasks[1]: duplicate task id 'heat'"),
    ("aim_group", aim_at_own_group, "error: scenarios[0].tasks[1]: ntm task group must differ from aim_group"),
    ("task_group", set_at("scenarios.0.tasks.0.group", "nope"), "error: scenarios[0].tasks[0]: unknown actuator group 'nope'"),
    ("task_controller", set_at("scenarios.0.tasks.0.controller", "nope"), "error: scenarios[0].tasks[0]: unknown controller 'nope'"),
    (
        "task_reference",
        drop("scenarios.0.tasks.0.reference"),
        "error: scenarios[0].tasks[0]: controller type 'feedforward' requires a task reference",
    ),
    # Waveforms.
    ("no_breakpoints", set_at("signals", {"amp": {"points": []}}), "error: signals.amp: waveform has no breakpoints"),
    (
        "breakpoint_order",
        set_at("scenarios.0.tasks.0.reference", {"points": [[0.2, 0.4], [0.1, 0.3]]}),
        "error: scenarios[0].tasks[0].reference: breakpoint times must be strictly increasing",
    ),
    (
        "interpolation",
        set_at("signals", {"amp": {"points": [[0.0, 1.0]], "interpolation": "cubic"}}),
        "error: signals.amp: unknown interpolation 'cubic'",
    ),
    # Danger and reaction tables, and the scenario they select.
    ("danger_total", drop("ones.0.danger.1"), "error: ones[0].danger: non-total mapping: missing levels [1]"),
    (
        "reaction_total",
        drop("ones.0.reaction.medium"),
        "error: ones[0].reaction: non-total mapping: missing danger levels ['medium']",
    ),
    ("row_arity", set_at("os_mapping.rows.1.reactions", [1, 0]), "error: os_mapping.rows[1]: row arity 2 does not match 1 events"),
    (
        "fallback_scenario",
        drop_recovery,
        "error: os_mapping.rows: 1 reachable combination(s) have no row and no 'recovery' scenario to fall back to: [1]",
    ),
    ("plant_failure_one", set_at("run.plant_failure_one", "ghost"), "error: run.plant_failure_one: unknown event 'ghost'"),
    # The run counts its ticks as int(round(value / dt)), which an infinite quotient cannot give.
    ("duration_ticks", set_at("run.duration", 1.0e308), "error: run.duration: tick count duration / dt must be finite"),
    ("post_roll_ticks", set_at("run.post_roll", 1.0e308), "error: run.post_roll: tick count post_roll / dt must be finite"),
    ("subnormal_dt", set_at("run.dt", 1.0e-320), "error: run.duration: tick count duration / dt must be finite"),
    # Virtual events.
    ("virtual_inputs", virtual(inputs=[]), "error: virtual_ones[0].inputs: needs at least one input"),
    (
        "virtual_base_input",
        virtual(inputs=["ghost"], rows=[{"levels": [0], "level": 0}]),
        "error: virtual_ones[0].inputs[0]: input 'ghost' is not a base event (virtuals combine base events only)",
    ),
    (
        "combiner_total",
        virtual(rows=[{"levels": [0], "level": 0}]),
        "error: virtual_ones[0].rows: combiner not total: 1 missing combinations (e.g. [1])",
    ),
    (
        "virtual_level",
        virtual(rows=[{"levels": [0], "level": 0}, {"levels": [1], "level": -1}]),
        "error: virtual_ones[0].rows: output level -1 must be >= 0",
    ),
    (
        # With every output level negative, no level of the danger map can be missing.
        "virtual_levels_negative",
        virtual(rows=[{"levels": [0], "level": -2}, {"levels": [1], "level": -3}]),
        "error: virtual_ones[0].rows: output level -2 must be >= 0",
    ),
    (
        # The gaps below a huge output level are counted, not listed.
        "virtual_danger_gaps",
        virtual(rows=[{"levels": [0], "level": 0}, {"levels": [1], "level": 10**12}]),
        "error: virtual_ones[0].danger: non-total mapping: 1000000000000 missing levels (e.g. [1, 2, 3, 4])",
    ),
    # Controllers.
    ("controller_type", controller(type="magic"), "error: controllers.probe: unknown controller type 'magic'"),
    # A list cannot key the table of types.
    ("controller_type_list", controller(type=["pid"]), "error: controllers.probe: unknown controller type ['pid']"),
    ("controller_key", controller(type="feedforward", gian=1.0), "error: controllers.probe: unknown key 'gian'"),
    ("pid_hi", controller(type="pid", measurement="h98y2"), "error: controllers.probe: missing required field 'hi'"),
    (
        "finite_setting",
        controller(**dict(DA_POWER, d_critical1=float("nan"))),
        "error: controllers.probe: field 'd_critical1' must be a finite number",
    ),
    (
        # An int past the float range is no finite number either.
        "huge_setting",
        controller(**dict(DA_POWER, gain=10**400)),
        "error: controllers.probe: field 'gain' must be a finite number",
    ),
    (
        "pid_measurement",
        controller(type="pid", hi=1.0),
        "error: controllers.probe: missing required signal name 'measurement'",
    ),
    (
        "pid_measurement_signal",
        controller(type="pid", hi=1.0, measurement="ghost"),
        "error: controllers.probe: 'measurement' references unknown signal 'ghost'",
    ),
    (
        "anti_windup",
        controller(type="pid", hi=1.0, measurement="h98y2", anti_windup="yes"),
        "error: controllers.probe: anti_windup must be a boolean",
    ),
    (
        "factor",
        controller(type="gas_shaper", mode="freeze", factor=1.5),
        "error: controllers.probe: field 'factor' must lie in [0, 1]",
    ),
    (
        "ramp_down",
        controller(type="gas_shaper", mode="cutoff", ramp_down=-0.1),
        "error: controllers.probe: field 'ramp_down' must be >= 0",
    ),
    (
        "ntm_aim_group",
        controller(type="ntm", position_signal="h98y2", aim_group="ghost"),
        "error: controllers.probe: aim_group references unknown group 'ghost'",
    ),
    (
        "pid_limits",
        controller(type="pid", lo=1.0, hi=0.5, measurement="h98y2"),
        "error: controllers.probe: output limits inverted (lo > hi)",
    ),
    ("p_max", controller(**dict(DA_POWER, p_max=0.0)), "error: controllers.probe: field 'p_max' must be positive"),
    (
        "da_power_mode",
        controller(**dict(DA_POWER, mode="panic")),
        "error: controllers.probe: mode must be one of 'normal', 'recovery'",
    ),
    (
        "gas_shaper_mode",
        controller(type="gas_shaper", mode="panic"),
        "error: controllers.probe: mode must be one of 'slow_ramp', 'freeze', 'cutoff'",
    ),
    ("gain", controller(**dict(DA_POWER, gain=-4.0)), "error: controllers.probe: field 'gain' must be >= 0"),
    (
        "min_request",
        set_at("controllers.ff.min_request", -0.1),
        "error: controllers.ff: field 'min_request' must be >= 0",
    ),
]


@pytest.mark.parametrize(
    "mutate, expected", [row[1:] for row in CHECK_HOMES], ids=[row[0] for row in CHECK_HOMES]
)
def test_validate_is_the_home_of_each_schedule_rule(mutate, expected):
    assert expected in diagnose(mutate)
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(cfg.ValidationFailed):
        cfg.compile_schedule(parse_doc(doc))


def many_faults(doc):
    doc["actuator_groups"].append({"id": "nbi", "capacity": -1.0, "semantics": "bogus"})
    doc["ones"].append(dict(doc["ones"][0], thresholds=[0.4, 0.5]))
    rows = [{"levels": [0], "level": 0}, {"levels": [1], "level": 1}]
    danger, reaction = {0: "no", 1: "low"}, doc["ones"][0]["reaction"]
    doc["virtual_ones"] = [{"id": "watch", "inputs": ["watch"], "rows": rows, "danger": danger, "reaction": reaction}]
    doc["scenarios"][0]["tasks"].append(dict(doc["scenarios"][0]["tasks"][0], priority=0))
    doc["scenarios"].append(dict(doc["scenarios"][1]))


def test_diagnostics_come_section_by_section_in_document_order():
    # The virtual input names the first 'watch' (one threshold), so its two rows are total.
    assert diagnose(many_faults) == [
        "error: actuator_groups[2]: duplicate group id 'nbi'",
        "error: actuator_groups[2]: capacity must be >= 0",
        "error: actuator_groups[2]: unknown semantics 'bogus'",
        "error: actuator_groups[2]: command_range inverted",
        "error: ones[1]: duplicate event id 'watch'",
        "error: ones[1].thresholds: must be strictly decreasing",
        "error: ones[1].danger: non-total mapping: missing levels [2]",
        "error: virtual_ones[0]: duplicate event id 'watch'",
        "error: scenarios[0].tasks[1]: duplicate task id 'heat'",
        "error: scenarios[0].tasks[1]: priority must be >= 1",
        "error: scenarios[3]: duplicate scenario id 'recovery'",
        "error: os_mapping.rows[0]: row arity 1 does not match 3 events",
        "error: os_mapping.rows[1]: row arity 1 does not match 3 events",
        "error: os_mapping.rows[2]: row arity 1 does not match 3 events",
    ]


def shape_errors(mutate):
    """The lines of the shape error ``minimal_doc()`` raises after ``mutate``, in order; [] if it parses."""
    doc = minimal_doc()
    mutate(doc)
    try:
        parse_doc(doc)
    except ConfigError as exc:
        head, *lines = str(exc).split("\n  ")
        assert head == "schedule has shape errors:"
        return lines
    return []


NO_NUMBER = "expected a number, got NoneType"

#: Each reader and rule of the shape pass: a mutation of ``minimal_doc()``
#: that breaks it, and every line of the error it raises.
SHAPE_ERRORS = [
    ("unknown_top_key", set_at("extra", {}), ["schedule: unknown key 'extra'"]),
    ("unknown_key", set_at("ones.0.typo", 1), ["ones[0]: unknown key 'typo'"]),
    ("missing_key", drop("run.dt"), ["run: missing required key 'dt'", f"run.dt: {NO_NUMBER}"]),
    ("missing_section", drop("plant"), [
        "schedule: missing required key 'plant'",
        *(f"plant: missing required key {key!r}" for key in (
            "tau_e", "tau_98", "tau_n", "k_gas", "p_ohmic", "nbi_energy_limit",
            "nbi_group", "gas_group", "degradation", "boundary",
        )),
        *(f"plant.{key}: {NO_NUMBER}" for key in ("tau_e", "tau_98", "tau_n", "k_gas", "p_ohmic", "nbi_energy_limit")),
        "plant.nbi_group: expected a string, got None",
        "plant.gas_group: expected a string, got None",
        "plant.degradation: missing required list",
        "plant.boundary: missing required list",
    ]),
    # A node that is not a mapping gets no missing-key lines.
    ("section_not_mapping", set_at("run", 5), [
        "run: expected a mapping, got int", f"run.dt: {NO_NUMBER}", f"run.duration: {NO_NUMBER}",
    ]),
    ("event_not_mapping", set_at("ones.0", 5), [
        "ones[0]: expected a mapping, got int",
        "ones[0].thresholds: missing required list",
        "ones[0].id: expected a string, got None",
        "ones[0].signal: expected a string, got None",
        "ones[0].direction: expected a string, got None",
        "ones[0].danger: danger map must be a mapping of event level to danger name",
        "ones[0].reaction: reaction map must be a mapping of danger name to reaction level",
    ]),
    ("missing_list", drop("ones.0.thresholds"), [
        "ones[0]: missing required key 'thresholds'", "ones[0].thresholds: missing required list",
    ]),
    ("not_a_list", set_at("scenarios", {"id": "normal"}), ["scenarios: expected a list, got dict"]),
    ("plant_pair", set_at("plant.boundary.1", [2.5]), ["plant.boundary[1]: expected a [x, y] pair"]),
    (
        "command_range",
        set_at("actuator_groups.0.command_range", [0.0, 1.0, 2.0]),
        ["actuator_groups[0].command_range: expected a [lo, hi] pair"],
    ),
    (
        "breakpoint",
        set_at("scenarios.0.tasks.0.reference", {"points": [[0.0, 0.4], 0.5]}),
        ["scenarios[0].tasks[0].reference.points[1]: each breakpoint must be a [time, value] pair"],
    ),
    ("unit_suffix", set_at("run.dt", "0.01 ms"), ["run.dt: unit suffix 'ms' does not match declared 's'"]),
    (
        "pair_unit_suffix",
        set_at("actuator_groups.0.command_range", ["0 MW", "1 kW"]),
        ["actuator_groups[0].command_range[1]: unit suffix 'kW' does not match declared 'MW'"],
    ),
    ("unitless_suffix", set_at("plant.k_gas", "0.02 MW"), ["plant.k_gas: field does not declare a unit, got suffix 'MW'"]),
    # An empty group unit declares none; an empty event or waveform unit is declared and empty.
    (
        "empty_group_unit",
        set_at("actuator_groups.0", {"id": "nbi", "capacity": "1.3 MW", "unit": ""}),
        ["actuator_groups[0].capacity: field does not declare a unit, got suffix 'MW'"],
    ),
    (
        "empty_event_unit",
        set_at("ones.0", dict(yaml.safe_load(MINIMAL)["ones"][0], unit="", thresholds=["0.5 x"])),
        ["ones[0].thresholds[0]: unit suffix 'x' does not match declared ''"],
    ),
    ("event_unit_type", set_at("ones.0.unit", 5), ["ones[0].unit: unit must be a string"]),
    ("group_unit_type", set_at("actuator_groups.0.unit", 5), ["actuator_groups[0].unit: expected a string, got 5"]),
    ("non_finite", set_at("plant.k_gas", float("inf")), ["plant.k_gas: number must be finite, got inf"]),
    ("number_type", set_at("plant.tau_e", True), ["plant.tau_e: expected a number, got boolean True"]),
    ("integer_type", set_at("ones.0.irreversible", [3, "4"]), ["ones[0].irreversible[1]: expected an integer, got '4'"]),
    ("plant_failure_one", set_at("run.plant_failure_one", 5), ["run.plant_failure_one: expected an event id string"]),
    (
        "danger_map",
        set_at("ones.0.danger", ["no"]),
        ["ones[0].danger: danger map must be a mapping of event level to danger name"],
    ),
    (
        "reaction_map",
        set_at("ones.0.reaction", 0),
        ["ones[0].reaction: reaction map must be a mapping of danger name to reaction level"],
    ),
    (
        "virtual_row",
        virtual(rows=[{"levels": [0], "level": 0}, {"levels": [1]}]),
        ["virtual_ones[0].rows[1]: missing required key 'level'", "virtual_ones[0].rows[1].level: expected an integer, got None"],
    ),
    (
        "os_row",
        drop("os_mapping.rows.1.scenario"),
        ["os_mapping.rows[1]: missing required key 'scenario'", "os_mapping.rows[1].scenario: expected a string, got None"],
    ),
    (
        "activation_event_key",
        set_at("scenarios.0.tasks.0.activation", {"event": {"one": "watch", "level": 1}}),
        ["scenarios[0].tasks[0].activation.event: unknown key 'level'"],
    ),
    ("controllers", set_at("controllers", ["ff"]), ["controllers: expected a mapping of controller id to settings"]),
    ("controller", set_at("controllers.ff", "feedforward"), ["controllers.ff: expected a mapping"]),
    ("waveform", set_at("signals", {"amp": [[0.0, 1.0]]}), [
        "signals.amp: expected a mapping, got list", "signals.amp.points: missing required list",
    ]),
    # An absent required key gets its reader's line too.
    ("absent_priority", drop("scenarios.0.tasks.0.priority"), [
        "scenarios[0].tasks[0]: missing required key 'priority'",
        "scenarios[0].tasks[0].priority: expected an integer, got None",
    ]),
    ("absent_default", drop("os_mapping.default"), [
        "os_mapping: missing required key 'default'", "os_mapping.default: expected a string, got None",
    ]),
    # A required key cannot be null.
    ("null_priority", set_at("scenarios.0.tasks.0.priority", None), ["scenarios[0].tasks[0].priority: expected an integer, got None"]),
    ("null_default", set_at("os_mapping.default", None), ["os_mapping.default: expected a string, got None"]),
    # An optional key given as null reads as its default.
    ("null_irreversible", set_at("ones.0.irreversible", None), []),
    # Signals, when given, are a mapping.
    ("signals_list", set_at("signals", []), ["signals: expected a mapping of signal name to waveform"]),
    # Document text is echoed through reprlib.repr, shortened past 30 characters.
    ("long_number", set_at("run.dt", "x" * 100), ["run.dt: cannot parse number 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"]),
    (
        "long_suffix",
        set_at("run.dt", "0.01 " + "m" * 100),
        ["run.dt: unit suffix 'mmmmmmmmmmmm...mmmmmmmmmmmmm' does not match declared 's'"],
    ),
    (
        "long_unitless_suffix",
        set_at("plant.k_gas", "0.02 " + "m" * 100),
        ["plant.k_gas: field does not declare a unit, got suffix 'mmmmmmmmmmmm...mmmmmmmmmmmmm'"],
    ),
    (
        "long_unit",
        set_at("ones.0", dict(yaml.safe_load(MINIMAL)["ones"][0], unit="u" * 100, thresholds=["0.5 x"])),
        ["ones[0].thresholds[0]: unit suffix 'x' does not match declared 'uuuuuuuuuuuu...uuuuuuuuuuuuu'"],
    ),
    ("long_unknown_key", set_at("ones.0." + "k" * 100, 1), ["ones[0]: unknown key 'kkkkkkkkkkkk...kkkkkkkkkkkkk'"]),
]


@pytest.mark.parametrize("mutate, lines", [row[1:] for row in SHAPE_ERRORS], ids=[row[0] for row in SHAPE_ERRORS])
def test_shape_error_lines(mutate, lines):
    assert shape_errors(mutate) == lines


#: Each controller type with only its required settings, and the settings it compiles to.
REQUIRED_ONLY = [
    ("feedforward", {}, {"min_request": 0.0}),
    (
        "pid",
        {"hi": 2, "measurement": "h98y2"},
        {"kp": 0.0, "ki": 0.0, "kd": 0.0, "lo": 0.0, "hi": 2, "measurement": "h98y2", "anti_windup": True},
    ),
    (
        "da_power",
        {"mode": "normal", "d_critical1": 0.45, "p_max": 1, "signal": "d_ne_edge"},
        {"mode": "normal", "d_critical1": 0.45, "gain": 1.0, "p_max": 1, "signal": "d_ne_edge"},
    ),
    ("gas_shaper", {"mode": "freeze"}, {"mode": "freeze", "factor": 0.5, "ramp_down": 0.1}),
    ("ntm", {"position_signal": "h98y2", "aim_group": "aim"}, {"position_signal": "h98y2", "aim_group": "aim"}),
]


class TestCompile:
    @pytest.mark.parametrize("kind, given, complete", REQUIRED_ONLY, ids=[row[0] for row in REQUIRED_ONLY])
    def test_controller_defaults_are_filled_in(self, kind, given, complete):
        doc = minimal_doc()
        doc["actuator_groups"].append({"id": "aim", "capacity": 1.0, "semantics": "exclusive"})
        doc["controllers"]["probe"] = dict(given, type=kind)
        compiled = cfg.compile_schedule(parse_doc(doc))
        got_kind, settings = compiled.controllers["probe"]
        assert (got_kind, settings) == (kind, complete)
        assert [s.key for s in RUNTIMES[kind].settings] == list(settings)
        # Values pass through as the document gives them: an int stays an int.
        assert [type(v) for v in settings.values()] == [type(v) for v in complete.values()]

    def test_compiled_event_order_matches_document(self, density_limit_compiled):
        assert density_limit_compiled.one_ids == ("d_ne_edge", "actuator_lim")

    def test_signal_lookup(self, density_limit_compiled):
        assert density_limit_compiled.event_signals["actuator_lim"] == "nbi_energy_frac"
        assert "missing" not in density_limit_compiled.event_signals

    def test_task_references_become_waveforms_or_scalars(self, density_limit_compiled):
        # A scalar reference becomes a constant (one-point hold) waveform.
        normal = density_limit_compiled.supervisor.os_mapping.scenarios["normal"]
        by_id = {t.id: t for t in normal.tasks}
        assert by_id["ff_power_nor"].reference == Waveform(points=((0.0, 0.65),), interpolation="hold")
        assert by_id["ff_gas_nor"].reference(0.0) == 15.0

    def test_scenario_tasks_are_compiled_in_priority_order(self):
        doc = minimal_doc()
        doc["scenarios"][0]["tasks"].insert(
            0, {"id": "late", "priority": 2, "controller": "ff", "group": "nbi", "reference": 0.1}
        )
        compiled = cfg.compile_schedule(parse_doc(doc))
        assert [t.id for t in compiled.supervisor.os_mapping.scenarios["normal"].tasks] == ["heat", "late"]

    def test_command_range_defaults_to_capacity_and_keeps_zero(self):
        doc = minimal_doc()
        doc["actuator_groups"].append(
            {"id": "aim", "capacity": 1.0, "semantics": "exclusive", "command_range": [0.0, 0.0]}
        )
        groups = cfg.compile_schedule(parse_doc(doc)).groups
        assert groups["nbi"].command_range == (0.0, 1.3)
        assert groups["aim"].command_range == (0.0, 0.0)


def brute_force_coverage(per_one, row_map, types_present):
    """The coverage check as it was first written: walk every reachable tuple."""
    out = []
    fallback_hits = []
    for combo in itertools.product(*per_one):
        if combo in row_map:
            continue
        if all(r == 0 for r in combo):
            fallback_hits.append((combo, "default scenario"))
            continue
        wanted = SCENARIO_TYPES[max(combo)]
        if wanted not in types_present:
            out.append(
                cfg.Diagnostic(
                    "error",
                    "os_mapping.rows",
                    f"reachable combination {list(combo)} has no row and no "
                    f"{wanted!r} scenario to fall back to",
                )
            )
        else:
            fallback_hits.append((combo, f"max-severity fallback to type {wanted!r}"))
    if fallback_hits:
        shown = "; ".join(f"{list(c)} -> {how}" for c, how in fallback_hits[:4])
        out.append(
            cfg.Diagnostic(
                "warning",
                "os_mapping.rows",
                f"{len(fallback_hits)} reachable combination(s) have no explicit row and rely on "
                f"the fallback rule (max reaction level picks the scenario type): {shown}",
            )
        )
    return out


def counted_per_level(diagnostics):
    """``brute_force_coverage``'s output with its per-combination errors grouped by maximum level.

    Each level gets one error: the count of its combinations, then the
    first four in product order.
    """
    by_level = {}
    for d in cfg.errors_of(diagnostics):
        listed, wanted = re.fullmatch(
            r"reachable combination (\[.*\]) has no row and no ('\w+') scenario to fall back to", d.message
        ).groups()
        by_level.setdefault(max(ast.literal_eval(listed)), (wanted, []))[1].append(listed)
    counted = [
        cfg.Diagnostic(
            "error",
            "os_mapping.rows",
            f"{len(listed)} reachable combination(s) have no row and no {wanted} scenario to fall back to: "
            + "; ".join(listed[:4]),
        )
        for _, (wanted, listed) in sorted(by_level.items())
    ]
    return counted + [d for d in diagnostics if d.severity == "warning"]


@st.composite
def coverage_cases(draw):
    n = draw(st.integers(1, 6))
    per_one = [tuple(sorted(draw(st.sets(st.integers(0, 4))))) for _ in range(n)]
    # Rows mostly name reachable levels, so that they cover tuples the walk must skip.
    levels = [st.sampled_from(rs) | st.integers(0, 4) if rs else st.integers(0, 4) for rs in per_one]
    rows = draw(st.lists(st.tuples(*levels), max_size=12))
    types_present = draw(st.sets(st.sampled_from(SCENARIO_TYPES)))
    return per_one, {row: "s" for row in rows}, types_present


class TestCoverage:
    def test_validate_work_per_event_stays_flat(self):
        # Work counted, not timed: the Python and C function calls made inside
        # validate, per event, on dual_ntm widened as in the 2000-event case.
        # A call per pair of events, or per row per event, would grow it with n.
        def calls_per_event(n):
            doc = yaml.safe_load(DUAL_NTM.read_text())
            ntm21, ntm43 = doc["ones"]
            doc["ones"] = [ntm21] + [dict(ntm43, id=f"ntm43_{i}") for i in range(n - 1)]
            del doc["os_mapping"]["rows"]
            ps = cfg.parse_document(doc)
            calls = []
            sys.setprofile(lambda frame, event, arg: event in ("call", "c_call") and calls.append(None))
            try:
                cfg.validate(ps)
            finally:
                sys.setprofile(None)
            return len(calls) / n

        per_event = {n: calls_per_event(n) for n in (64, 256, 1024)}
        assert max(per_event.values()) <= 1.25 * per_event[64], per_event

    @settings(max_examples=300, deadline=None)
    @given(coverage_cases(), st.sets(st.integers(0, 4)))
    def test_walk_is_the_filtered_product(self, case, maxima):
        per_one = case[0]
        assert list(cfg._combos_with_max(per_one, maxima)) == [
            c for c in itertools.product(*per_one) if max(c) in maxima
        ]

    def test_two_thousand_events_validate_and_run(self, tmp_path, capsys):
        # The walk goes as deep as there are events; no recursion limit applies.
        doc = yaml.safe_load(DUAL_NTM.read_text())
        ntm21, ntm43 = doc["ones"]
        doc["ones"] = [ntm21] + [dict(ntm43, id=f"ntm43_{i}") for i in range(1999)]
        del doc["os_mapping"]["rows"]
        path = tmp_path / "wide.yaml"
        path.write_text(yaml.safe_dump(doc))

        started = time.perf_counter()
        assert cli.main(["validate", str(path)]) in (0, 64)
        validated = capsys.readouterr()
        assert cli.main(["run", str(path), "--out", str(tmp_path / "trace.csv")]) in (0, 64)
        assert time.perf_counter() - started < 5.0
        assert "Traceback" not in validated.err + capsys.readouterr().err
        # Each example shows at most 16 non-zero levels, so no diagnostic grows with the events.
        lines = (validated.out + validated.err).splitlines()
        assert any("rely on the fallback rule" in line for line in lines)
        assert max(len(line) for line in lines) <= 1000

    @settings(max_examples=300, deadline=None)
    @given(coverage_cases())
    def test_counting_matches_brute_force(self, case):
        per_one, row_map, types_present = case
        scenarios = {t: Scenario(t, t) for t in types_present}
        mapping = OsMapping(row_map, scenarios, "normal")
        assert cfg._coverage_diagnostics(per_one, mapping) == counted_per_level(
            brute_force_coverage(per_one, row_map, types_present)
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**300))
    def test_counts_print_whole_up_to_forty_digits_else_as_an_exponent(self, n):
        digits = str(n)
        if len(digits) <= 40:
            assert cfg._count(n) == digits
        else:
            assert cfg._count(n) == f"{digits[0]}.{digits[1:3]}e+{len(digits) - 1}"

    def test_counts_past_python_digit_limit_are_not_converted_whole(self):
        # 2**15000 - 1 has 4516 digits, more than Python converts to text.
        scenarios = {"normal": Scenario("normal", "normal")}
        (error, warning) = cfg._coverage_diagnostics([(0, 3)] * 15000, OsMapping({}, scenarios, "normal"))
        assert error.message == (
            "2.81e+4515 reachable combination(s) have no row and no 'soft_shutdown' scenario to fall back to: "
            "{14999: 3}; {14998: 3}; {14998: 3, 14999: 3}; {14997: 3}"
        )
        assert warning.message.startswith("1 reachable combination(s) have no explicit row")
        assert cfg._combiner_gap([range(2)] * 15000, {}) == (
            "combiner not total: 2.81e+4515 missing combinations (e.g. {}, {14999: 1}, {14998: 1}, {14998: 1, 14999: 1})"
        )

    def test_forty_stranded_events_give_one_counted_error(self):
        # 2**40 - 1 combinations reach level 3 and none has a row or a
        # soft_shutdown scenario: counted, not listed.
        n = 40
        doc = minimal_doc()
        doc["ones"] = [
            {
                "id": f"watch{i}",
                "signal": "h98y2",
                "direction": "falling",
                "thresholds": [0.5],
                "danger": {0: "no", 1: "high"},
                "reaction": {"no": 0, "low": 0, "medium": 1, "high": 3, "very_high": 3},
            }
            for i in range(n)
        ]
        doc["os_mapping"]["rows"] = [{"reactions": [0] * n, "scenario": "normal"}]
        doc["scenarios"] = doc["scenarios"][:2]
        ps = parse_doc(doc)

        started = time.perf_counter()
        diagnostics = cfg.validate(ps)
        assert time.perf_counter() - started < 1.0

        # Past 16 events an example shows its non-zero levels by event position,
        # so the four examples differ where they differ: in the last events.
        assert error_messages(diagnostics) == [
            f"error: os_mapping.rows: {2 ** n - 1} reachable combination(s) have no row and no 'soft_shutdown' "
            "scenario to fall back to: {39: 3}; {38: 3}; {38: 3, 39: 3}; {37: 3}"
        ]

    def test_twenty_events_validate_by_counting(self):
        # 3**20 (about 3.5e9) reachable tuples: far too many to enumerate.
        n = 20
        doc = minimal_doc()
        doc["ones"] = [
            {
                "id": f"watch{i}",
                "signal": "h98y2",
                "direction": "falling",
                "thresholds": [0.5, 0.4],
                "danger": {0: "no", 1: "low", 2: "medium"},
                "reaction": {"no": 0, "low": 1, "medium": 2, "high": 3, "very_high": 3},
            }
            for i in range(n)
        ]
        one_hot = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        unreachable = [3] + [0] * (n - 1)
        doc["os_mapping"]["rows"] = (
            [{"reactions": [0] * n, "scenario": "normal"}]
            + [{"reactions": r, "scenario": "recovery"} for r in one_hot]
            + [{"reactions": unreachable, "scenario": "shutdown"}]
        )
        doc["scenarios"].append({"id": "backup", "type": "backup", "tasks": []})
        ps = parse_doc(doc)

        started = time.perf_counter()
        diagnostics = cfg.validate(ps)
        assert time.perf_counter() - started < 5.0
        assert error_messages(diagnostics) == []
        (warning,) = [d for d in diagnostics if d.path == "os_mapping.rows"]
        reachable_rows = 1 + n

        # Each example shows its non-zero levels by event position; the one-hot
        # level-1 rows are skipped.
        assert warning.message == (
            f"{3 ** n - reachable_rows} reachable combination(s) have no explicit row and rely on "
            "the fallback rule (max reaction level picks the scenario type): "
            "{19: 2} -> max-severity fallback to type 'backup'; "
            "{18: 1, 19: 1} -> max-severity fallback to type 'recovery'; "
            "{18: 1, 19: 2} -> max-severity fallback to type 'backup'; "
            "{18: 2} -> max-severity fallback to type 'backup'"
        )


def listed_combiner_gap(ranges, table):
    """The combiner totality check as it was first written: list every missing combination."""
    missing = [combo for combo in itertools.product(*ranges) if combo not in table]
    if not missing:
        return None
    shown = ", ".join(str(list(c)) for c in missing[:4])
    return f"combiner not total: {len(missing)} missing combinations (e.g. {shown})"


@st.composite
def combiner_cases(draw):
    sizes = draw(st.lists(st.integers(1, 4), max_size=5))
    # Keys mostly inside the input product, some one level past either end.
    levels = [st.integers(0, n - 1) | st.integers(-1, n) for n in sizes]
    keys = draw(st.lists(st.tuples(*levels), max_size=40))
    return [range(n) for n in sizes], {key: 0 for key in keys}


class TestCombinerTotality:
    @settings(max_examples=300, deadline=None)
    @given(combiner_cases())
    def test_counting_matches_the_listing(self, case):
        ranges, table = case
        assert cfg._combiner_gap(ranges, table) == listed_combiner_gap(ranges, table)

    def test_twelve_inputs_are_counted_not_listed(self):
        # 4**12 (about 1.7e7) combinations: listing them takes seconds and gigabytes.
        ranges = [range(4)] * 12
        started = time.perf_counter()
        message = cfg._combiner_gap(ranges, {(0,) * 12: 0})
        assert time.perf_counter() - started < 1.0

        def tail(*levels):
            return [0] * (12 - len(levels)) + list(levels)

        assert message == (
            f"combiner not total: {4 ** 12 - 1} missing combinations "
            f"(e.g. {tail(1)}, {tail(2)}, {tail(3)}, {tail(1, 0)})"
        )
