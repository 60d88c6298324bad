import itertools
import random

import pytest

from oneguard.errors import ConfigError
from oneguard.model import DangerLevel, EventState, ScenarioType
from oneguard.supervisor import (
    DangerFsm,
    OsMapping,
    ReactionFsm,
    Scenario,
    SupervisorConfig,
    SupervisorState,
    activate_tasks,
    supervisor_step,
)

D = DangerLevel


def identity_danger(one_id, k=4):
    return DangerFsm(one_id=one_id, mapping={i: D(min(i, 4)) for i in range(k + 1)})


FULL_REACTION = {D.NO: 0, D.LOW: 1, D.MEDIUM: 2, D.HIGH: 3, D.VERY_HIGH: 4}
CAPPED_REACTION = {D.NO: 0, D.LOW: 1, D.MEDIUM: 1, D.HIGH: 1, D.VERY_HIGH: 1}


class TestDangerStep:
    def test_identity_mapping_quiet(self):
        fsm = identity_danger("x")
        assert fsm.classify(0) == D.NO

    def test_distance_levels_map_to_low_then_medium(self):
        fsm = DangerFsm(
            one_id="d_ne_edge",
            mapping={0: D.NO, 1: D.LOW, 2: D.MEDIUM, 3: D.HIGH},
        )
        assert fsm.classify(1) == D.LOW
        assert fsm.classify(2) == D.MEDIUM

    def test_energy_limit_is_high_or_nothing(self):
        fsm = DangerFsm(one_id="actuator_lim", mapping={0: D.NO, 1: D.HIGH})
        assert fsm.classify(1) == D.HIGH
        assert fsm.classify(0) == D.NO

    def test_unmapped_level_rejected(self):
        fsm = DangerFsm(one_id="x", mapping={0: D.NO})
        with pytest.raises(ConfigError):
            fsm.classify(1)


class TestReactionStep:
    def test_capped_ladder_never_exceeds_recovery(self):
        fsm = ReactionFsm(one_id="ntm43", mapping=CAPPED_REACTION)
        assert fsm.react(D.VERY_HIGH, previous=0) == 1

    def test_irreversible_level_latches(self):
        fsm = ReactionFsm(one_id="x", mapping=FULL_REACTION)
        assert fsm.react(D.NO, previous=3) == 3

    def test_latch_still_allows_escalation(self):
        fsm = ReactionFsm(one_id="x", mapping=FULL_REACTION)
        assert fsm.react(D.VERY_HIGH, previous=3) == 4

    def test_reversible_level_deescalates(self):
        fsm = ReactionFsm(one_id="x", mapping=FULL_REACTION)
        assert fsm.react(D.NO, previous=1) == 0

    def test_custom_irreversible_set(self):
        fsm = ReactionFsm(one_id="x", mapping=FULL_REACTION, irreversible=frozenset({2, 3, 4}))
        assert fsm.react(D.NO, previous=2) == 2


def small_mapping(rows, scenarios=None, default="normal"):
    if scenarios is None:
        scenarios = {
            "normal": Scenario(id="normal", type=ScenarioType.NORMAL),
            "recovery_1": Scenario(id="recovery_1", type=ScenarioType.RECOVERY),
            "recovery_2": Scenario(id="recovery_2", type=ScenarioType.RECOVERY),
            "recovery_3": Scenario(id="recovery_3", type=ScenarioType.RECOVERY),
            "backup1": Scenario(id="backup1", type=ScenarioType.BACKUP),
            "soft_shutdown": Scenario(id="soft_shutdown", type=ScenarioType.SOFT_SHUTDOWN),
            "mitigation": Scenario(id="mitigation", type=ScenarioType.DISRUPTION_MITIGATION),
        }
    return OsMapping(one_ids=("one_a", "one_b"), rows=rows, scenarios=scenarios, default=default)


class TestMapScenario:
    ROWS = {
        (0, 0): "normal",
        (1, 0): "recovery_1",
        (0, 1): "recovery_2",
        (1, 1): "recovery_3",
    }

    def test_quiescent_tuple_selects_normal(self):
        assert small_mapping(self.ROWS).select((0, 0)) == "normal"

    def test_per_event_recovery_rows(self):
        mapping = small_mapping(self.ROWS)
        assert mapping.select((1, 0)) == "recovery_1"
        assert mapping.select((0, 1)) == "recovery_2"
        assert mapping.select((1, 1)) == "recovery_3"

    def test_mitigation_row_wins_regardless_of_second_event(self, dual_ntm_compiled):
        mapping = dual_ntm_compiled.supervisor.os_mapping
        assert mapping.select((4, 0)) == "mitigation"
        assert mapping.select((4, 1)) == "mitigation"

    def test_fallback_picks_type_of_max_reaction(self):
        mapping = small_mapping(self.ROWS)
        assert mapping.select((2, 0)) == "backup1"
        assert mapping.select((0, 3)) == "soft_shutdown"
        assert mapping.select((4, 1)) == "mitigation"

    def test_fallback_tie_breaks_to_lowest_id(self):
        mapping = small_mapping({})
        assert mapping.select((0, 1)) == "recovery_1"

    def test_zero_tuple_without_row_uses_default(self):
        assert small_mapping({}).select((0, 0)) == "normal"

    def test_missing_fallback_type_rejected(self):
        scenarios = {"normal": Scenario(id="normal", type=ScenarioType.NORMAL)}
        mapping = small_mapping({}, scenarios=scenarios)
        with pytest.raises(ConfigError):
            mapping.select((0, 2))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            small_mapping(self.ROWS).select((0, 0, 0))


class TestActivateTasks:
    def test_backup_scenario_activates_its_three_tasks(self, dual_ntm_compiled):
        scenario = dual_ntm_compiled.supervisor.scenarios["backup1"]
        events = {
            "ntm21": EventState("ntm21", 2, 0.1),
            "ntm43": EventState("ntm43", 1, 0.1),
        }
        tasks = activate_tasks(scenario, 0.1, events)
        assert [t.id for t in tasks] == [
            "ntm21_stabilization",
            "beta_control",
            "heating_feedforward",
        ]

    def test_da_tasks_wait_for_distance_trigger(self, density_limit_compiled):
        scenario = density_limit_compiled.supervisor.scenarios["normal"]
        quiet = {
            "d_ne_edge": EventState("d_ne_edge", 0, 0.2),
            "actuator_lim": EventState("actuator_lim", 0, 0.2),
        }
        assert [t.id for t in activate_tasks(scenario, 0.2, quiet)] == [
            "ff_power_nor",
            "ff_gas_nor",
        ]
        near = dict(quiet, d_ne_edge=EventState("d_ne_edge", 1, 0.2))
        assert [t.id for t in activate_tasks(scenario, 0.2, near)] == [
            "ff_power_nor",
            "da_power_nor",
            "da_gas_nor",
        ]

    def test_empty_scenario_activates_nothing(self):
        scenario = Scenario(id="idle", type=ScenarioType.NORMAL)
        assert activate_tasks(scenario, 0.0, {}) == []

    def test_tasks_sorted_by_priority(self, dual_ntm_compiled):
        scenario = dual_ntm_compiled.supervisor.scenarios["recovery_3"]
        tasks = activate_tasks(scenario, 0.0, {})
        assert [t.priority for t in tasks] == sorted(t.priority for t in tasks)


def two_one_config(rows=None):
    scenarios = {
        "normal": Scenario(id="normal", type=ScenarioType.NORMAL),
        "recovery": Scenario(id="recovery", type=ScenarioType.RECOVERY),
        "backup": Scenario(id="backup", type=ScenarioType.BACKUP),
        "soft_shutdown": Scenario(id="soft_shutdown", type=ScenarioType.SOFT_SHUTDOWN),
        "mitigation": Scenario(id="mitigation", type=ScenarioType.DISRUPTION_MITIGATION),
    }
    return SupervisorConfig(
        one_ids=("one_a", "one_b"),
        danger_fsms={"one_a": identity_danger("one_a"), "one_b": identity_danger("one_b")},
        reaction_fsms={
            "one_a": ReactionFsm(one_id="one_a", mapping=FULL_REACTION),
            "one_b": ReactionFsm(one_id="one_b", mapping=CAPPED_REACTION),
        },
        os_mapping=OsMapping(
            one_ids=("one_a", "one_b"),
            rows=rows or {},
            scenarios=scenarios,
            default="normal",
        ),
    )


class TestSupervisorStep:
    def events(self, a, b, t=0.0):
        return {
            "one_a": EventState("one_a", a, t),
            "one_b": EventState("one_b", b, t),
        }

    def test_no_events_configured_keeps_default(self):
        config = SupervisorConfig(
            one_ids=(),
            danger_fsms={},
            reaction_fsms={},
            os_mapping=OsMapping(
                one_ids=(),
                rows={},
                scenarios={"normal": Scenario(id="normal", type=ScenarioType.NORMAL)},
                default="normal",
            ),
        )
        state = SupervisorState.initial(config)
        for t in range(5):
            scenario_id, tasks, _, _, state = supervisor_step({}, state, config, float(t))
            assert scenario_id == "normal"

    def test_density_limit_timeline_decisions(self, density_limit_compiled):
        config = density_limit_compiled.supervisor
        state = SupervisorState.initial(config)
        events = {
            "d_ne_edge": EventState("d_ne_edge", 1, 0.3),
            "actuator_lim": EventState("actuator_lim", 0, 0.3),
        }
        scenario_id, tasks, _, _, state = supervisor_step(events, state, config, 0.3)
        assert scenario_id == "normal"
        assert {"da_power_nor", "da_gas_nor"} <= {t.id for t in tasks}
        events = {
            "d_ne_edge": EventState("d_ne_edge", 2, 0.4),
            "actuator_lim": EventState("actuator_lim", 0, 0.4),
        }
        scenario_id, tasks, _, _, state = supervisor_step(events, state, config, 0.4)
        assert scenario_id == "recovery"

    def test_replay_reproduces_decisions(self):
        config = two_one_config()
        rng = random.Random(7)
        trace = [(self.events(rng.randint(0, 4), rng.randint(0, 4), t=float(t)), float(t)) for t in range(40)]

        def run():
            state = SupervisorState.initial(config)
            out = []
            for events, t in trace:
                scenario_id, tasks, dangers, reactions, state = supervisor_step(
                    events, state, config, t
                )
                out.append((scenario_id, tuple(t.id for t in tasks), tuple(sorted(reactions.items()))))
            return out

        assert run() == run()

    def test_latch_monotonic_over_random_sequences(self):
        config = two_one_config()
        rng = random.Random(99)
        for _ in range(300):
            state = SupervisorState.initial(config)
            latched = {"one_a": 0, "one_b": 0}
            for t in range(30):
                events = self.events(rng.randint(0, 4), rng.randint(0, 4), t=float(t))
                _, _, _, reactions, state = supervisor_step(events, state, config, float(t))
                for one_id, level in reactions.items():
                    if latched[one_id] in (3, 4):
                        assert level >= latched[one_id]
                    if level in (3, 4):
                        latched[one_id] = max(latched[one_id], level)

    def test_scenario_type_never_steps_back_once_terminal(self):
        # Rows respect the reaction-level/scenario-type correspondence, so
        # with the default irreversible set the selected type can never
        # retreat from a shutdown-type scenario.
        rows = {}
        names = {0: "normal", 1: "recovery", 2: "backup", 3: "soft_shutdown", 4: "mitigation"}
        for combo in itertools.product(range(5), range(2)):
            rows[combo] = names[max(combo)]
        config = two_one_config(rows)
        order = {
            ScenarioType.NORMAL: 0,
            ScenarioType.RECOVERY: 1,
            ScenarioType.BACKUP: 2,
            ScenarioType.SOFT_SHUTDOWN: 3,
            ScenarioType.DISRUPTION_MITIGATION: 4,
        }
        rng = random.Random(1234)
        for _ in range(200):
            state = SupervisorState.initial(config)
            terminal_seen = 0
            for t in range(40):
                events = self.events(rng.randint(0, 4), rng.randint(0, 4), t=float(t))
                scenario_id, _, _, _, state = supervisor_step(events, state, config, float(t))
                rank = order[config.scenarios[scenario_id].type]
                if terminal_seen >= 3:
                    assert rank >= terminal_seen
                if rank >= 3:
                    terminal_seen = max(terminal_seen, rank)


class InterpreterOracle:
    """Straight-line reimplementation of the decision tables for checking.

    Walks the raw dicts step by step: danger lookup, reaction lookup with
    an explicit latch branch, then row lookup with the documented
    fallback. Shares no code with the production path.
    """

    TYPE_OF = {0: "normal", 1: "recovery", 2: "backup", 3: "soft_shutdown", 4: "disruption_mitigation"}

    def __init__(self, danger_maps, reaction_maps, irreversible, rows, scenario_types, default):
        self.danger_maps = danger_maps
        self.reaction_maps = reaction_maps
        self.irreversible = irreversible
        self.rows = rows
        self.scenario_types = scenario_types
        self.default = default
        self.prev = [0] * len(danger_maps)

    def step(self, levels):
        reactions = []
        for i, level in enumerate(levels):
            danger = self.danger_maps[i][level]
            candidate = self.reaction_maps[i][danger]
            if self.prev[i] in self.irreversible[i] and candidate < self.prev[i]:
                result = self.prev[i]
            else:
                result = candidate
            reactions.append(result)
            self.prev[i] = result
        combo = tuple(reactions)
        if combo in self.rows:
            return combo, self.rows[combo]
        if max(combo) == 0:
            return combo, self.default
        wanted = self.TYPE_OF[max(combo)]
        candidates = sorted(sid for sid, t in self.scenario_types.items() if t == wanted)
        return combo, candidates[0]


def oracle_config_pairs(seed, n_ones, max_level):
    """One random small config, built twice: production objects + oracle."""
    rng = random.Random(seed)
    danger_pool = [
        {i: min(i, 4) for i in range(max_level + 1)},
        {i: 0 for i in range(max_level + 1)},
        {i: min(2 * i, 4) for i in range(max_level + 1)},
        {i: rng.randint(0, 4) for i in range(max_level + 1)},
    ]
    reaction_pool = [
        {d: d for d in range(5)},
        {d: min(d, 1) for d in range(5)},
        {d: rng.randint(0, 4) for d in range(5)},
        {0: 0, 1: 0, 2: 1, 3: 3, 4: 4},
    ]
    scenario_types = {
        "normal": "normal",
        "recovery_a": "recovery",
        "recovery_b": "recovery",
        "backup": "backup",
        "soft_shutdown": "soft_shutdown",
        "mitigation": "disruption_mitigation",
    }
    danger_maps = [rng.choice(danger_pool) for _ in range(n_ones)]
    reaction_maps = [rng.choice(reaction_pool) for _ in range(n_ones)]
    irreversible = [frozenset({3, 4}) if rng.random() < 0.7 else frozenset({2, 3, 4}) for _ in range(n_ones)]
    names = [f"one_{i}" for i in range(n_ones)]
    ids_by_type = {}
    for sid, t in scenario_types.items():
        ids_by_type.setdefault(t, []).append(sid)
    rows = {}
    for combo in itertools.product(range(5), repeat=n_ones):
        if rng.random() < 0.5:
            rows[combo] = rng.choice(ids_by_type[InterpreterOracle.TYPE_OF[max(combo)]])
    if rng.random() < 0.5:
        rows.pop(tuple([0] * n_ones), None)

    config = SupervisorConfig(
        one_ids=tuple(names),
        danger_fsms={
            name: DangerFsm(one_id=name, mapping={k: D(v) for k, v in danger_maps[i].items()})
            for i, name in enumerate(names)
        },
        reaction_fsms={
            name: ReactionFsm(
                one_id=name,
                mapping={D(k): v for k, v in reaction_maps[i].items()},
                irreversible=irreversible[i],
            )
            for i, name in enumerate(names)
        },
        os_mapping=OsMapping(
            one_ids=tuple(names),
            rows=rows,
            scenarios={
                sid: Scenario(id=sid, type=ScenarioType(t)) for sid, t in scenario_types.items()
            },
            default="normal",
        ),
    )
    oracle = InterpreterOracle(danger_maps, reaction_maps, irreversible, rows, scenario_types, "normal")
    return config, oracle


def test_exhaustive_sequences_match_interpreter_oracle_smoke():
    for seed in range(6):
        config, oracle = oracle_config_pairs(seed, n_ones=2, max_level=2)
        alphabet = list(itertools.product(range(3), repeat=2))
        for sequence in itertools.product(alphabet, repeat=2):
            state = SupervisorState.initial(config)
            oracle.prev = [0, 0]
            for t, levels in enumerate(sequence):
                events = {
                    name: EventState(name, levels[i], float(t))
                    for i, name in enumerate(config.one_ids)
                }
                scenario_id, _, _, reactions, state = supervisor_step(events, state, config, float(t))
                combo = tuple(reactions[name] for name in config.one_ids)
                expected_combo, expected_scenario = oracle.step(levels)
                assert combo == expected_combo
                assert scenario_id == expected_scenario
