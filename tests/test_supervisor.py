import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oneguard.model import Activation, ControlTask, DangerLevel, EventTrigger, ScenarioType
from oneguard.supervisor import (
    OneEvaluation,
    OsMapping,
    Scenario,
    SupervisorConfig,
    SupervisorState,
    activate_tasks,
    supervisor_step,
)

from test_config import diagnose, drop, drop_recovery, set_at

D = DangerLevel

#: Reaction tables, indexed by danger level.
FULL_REACTION = (0, 1, 2, 3, 4)
CAPPED_REACTION = (0, 1, 1, 1, 1)


def evaluation(danger=tuple(D), reaction=FULL_REACTION, irreversible=frozenset({3, 4})):
    return OneEvaluation(danger=tuple(danger), reaction=reaction, irreversible=irreversible)


def danger_of(one, level):
    return one.evaluate(level, 0)[0]


def reaction_of(one, level, previous):
    return one.evaluate(level, previous)[1]


class TestDangerStep:
    def test_identity_mapping_quiet(self):
        assert danger_of(evaluation(), 0) == D.NO

    def test_distance_levels_map_to_low_then_medium(self):
        one = evaluation(danger=(D.NO, D.LOW, D.MEDIUM, D.HIGH))
        assert danger_of(one, 1) == D.LOW
        assert danger_of(one, 2) == D.MEDIUM

    def test_energy_limit_is_high_or_nothing(self):
        one = evaluation(danger=(D.NO, D.HIGH))
        assert danger_of(one, 1) == D.HIGH
        assert danger_of(one, 0) == D.NO

    def test_unmapped_level_rejected(self):
        # validate refuses a danger map with a gap, so the table has a
        # danger level for every level the event can take.
        assert "error: ones[0].danger: non-total mapping: missing levels [1]" in diagnose(drop("ones.0.danger.1"))


class TestReactionStep:
    # The danger table is the identity here, so event level = danger level.
    def test_capped_ladder_never_exceeds_recovery(self):
        assert reaction_of(evaluation(reaction=CAPPED_REACTION), D.VERY_HIGH, previous=0) == 1

    def test_irreversible_level_latches(self):
        assert reaction_of(evaluation(), D.NO, previous=3) == 3

    def test_latch_still_allows_escalation(self):
        assert reaction_of(evaluation(), D.VERY_HIGH, previous=3) == 4

    def test_reversible_level_deescalates(self):
        assert reaction_of(evaluation(), D.NO, previous=1) == 0

    def test_custom_irreversible_set(self):
        one = evaluation(irreversible=frozenset({2, 3, 4}))
        assert reaction_of(one, D.NO, previous=2) == 2

    def test_gapped_irreversible_set_latches_from_its_lowest_level(self):
        # [1, 3, 4] acts as [1, 2, 3, 4]: 1 -> 2 may not fall back to 0.
        one = evaluation(irreversible=frozenset({1, 3, 4}))
        reaction = 0
        for level in (D.LOW, D.MEDIUM, D.NO):
            reaction = reaction_of(one, level, reaction)
        assert reaction == 2

    def test_evaluate_returns_danger_and_reaction(self):
        one = evaluation(danger=(D.NO, D.MEDIUM, D.VERY_HIGH), reaction=(0, 0, 1, 3, 3))
        assert one.evaluate(1, 0) == (D.MEDIUM, 1)
        assert one.evaluate(2, 1) == (D.VERY_HIGH, 3)
        assert one.evaluate(0, 3) == (D.NO, 3)


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
    return OsMapping(rows=rows, scenarios=scenarios, default=default)


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

    def test_fallback_table_is_built_once_per_level(self):
        mapping = small_mapping(self.ROWS)
        assert mapping.fallback == ("normal", "recovery_1", "backup1", "soft_shutdown", "mitigation")

    def test_missing_fallback_type_rejected(self):
        # validate refuses a reachable combination that neither a row nor a
        # scenario of its fallback type covers, so the table has no gap
        # that a run can reach.
        assert (
            "error: os_mapping.rows: 1 reachable combination(s) have no row and no "
            "'recovery' scenario to fall back to: [1]"
        ) in diagnose(drop_recovery)

    def test_arity_mismatch_rejected(self):
        expected = "error: os_mapping.rows[1]: row arity 2 does not match 1 events"
        assert expected in diagnose(set_at("os_mapping.rows.1.reactions", [1, 0]))


class TestActivateTasks:
    def test_backup_scenario_activates_its_three_tasks(self, dual_ntm_compiled):
        scenario = dual_ntm_compiled.supervisor.scenarios["backup1"]
        tasks = activate_tasks(scenario, 0.1, {"ntm21": 2, "ntm43": 1})
        assert [t.id for t in tasks] == [
            "ntm21_stabilization",
            "beta_control",
            "heating_feedforward",
        ]

    def test_da_tasks_wait_for_distance_trigger(self, density_limit_compiled):
        scenario = density_limit_compiled.supervisor.scenarios["normal"]
        quiet = {"d_ne_edge": 0, "actuator_lim": 0}
        assert [t.id for t in activate_tasks(scenario, 0.2, quiet)] == [
            "ff_power_nor",
            "ff_gas_nor",
        ]
        near = dict(quiet, d_ne_edge=1)
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
        evaluations={"one_a": evaluation(), "one_b": evaluation(reaction=CAPPED_REACTION)},
        os_mapping=OsMapping(
            rows=rows or {},
            scenarios=scenarios,
            default="normal",
        ),
    )


class TestSupervisorStep:
    def test_no_events_configured_keeps_default(self):
        config = SupervisorConfig(
            one_ids=(),
            evaluations={},
            os_mapping=OsMapping(
                rows={},
                scenarios={"normal": Scenario(id="normal", type=ScenarioType.NORMAL)},
                default="normal",
            ),
        )
        state = SupervisorState.initial(config)
        for t in range(5):
            scenario_id, tasks, _, _, state = supervisor_step((), state, config, float(t))
            assert scenario_id == "normal"

    def test_density_limit_timeline_decisions(self, density_limit_compiled):
        config = density_limit_compiled.supervisor
        state = SupervisorState.initial(config)
        assert config.one_ids == ("d_ne_edge", "actuator_lim")
        scenario_id, tasks, _, _, state = supervisor_step((1, 0), state, config, 0.3)
        assert scenario_id == "normal"
        assert {"da_power_nor", "da_gas_nor"} <= {t.id for t in tasks}
        scenario_id, tasks, _, _, state = supervisor_step((2, 0), state, config, 0.4)
        assert scenario_id == "recovery"

    def test_replay_reproduces_decisions(self):
        config = two_one_config()
        rng = random.Random(7)
        trace = [((rng.randint(0, 4), rng.randint(0, 4)), float(t)) for t in range(40)]

        def run():
            state = SupervisorState.initial(config)
            out = []
            for levels, t in trace:
                scenario_id, tasks, dangers, reactions, state = supervisor_step(
                    levels, state, config, t
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
                levels = (rng.randint(0, 4), rng.randint(0, 4))
                _, _, _, reactions, state = supervisor_step(levels, state, config, float(t))
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
                levels = (rng.randint(0, 4), rng.randint(0, 4))
                scenario_id, _, _, _, state = supervisor_step(levels, state, config, float(t))
                rank = order[config.scenarios[scenario_id].type]
                if terminal_seen >= 3:
                    assert rank >= terminal_seen
                if rank >= 3:
                    terminal_seen = max(terminal_seen, rank)


class InterpreterOracle:
    """Straight-line reimplementation of the decision tables for checking.

    Walks the raw dicts step by step: danger lookup, reaction lookup with
    an explicit latch branch (held once the previous reaction reaches the
    set's lowest level), then row lookup with the documented fallback.
    Shares no code with the production path.
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
            if self.prev[i] >= min(self.irreversible[i], default=5) and candidate < self.prev[i]:
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
    irreversible = []
    for _ in range(n_ones):
        r = rng.random()
        irreversible.append(frozenset({3, 4}) if r < 0.7 else frozenset({2, 3, 4}) if r < 0.9 else frozenset({1, 3, 4}))
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
        evaluations={
            name: evaluation(
                danger=[D(danger_maps[i][k]) for k in range(max_level + 1)],
                reaction=tuple(reaction_maps[i][d] for d in range(5)),
                irreversible=irreversible[i],
            )
            for i, name in enumerate(names)
        },
        os_mapping=OsMapping(
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
    # Four steps, so held levels meet the carried decision (C4 runs more seeds).
    for seed in range(3):
        config, oracle = oracle_config_pairs(seed, n_ones=2, max_level=2)
        alphabet = list(itertools.product(range(3), repeat=2))
        for sequence in itertools.product(alphabet, repeat=4):
            state = SupervisorState.initial(config)
            oracle.prev = [0, 0]
            for t, levels in enumerate(sequence):
                scenario_id, _, _, reactions, state = supervisor_step(levels, state, config, float(t))
                combo = tuple(reactions[name] for name in config.one_ids)
                expected_combo, expected_scenario = oracle.step(levels)
                assert combo == expected_combo
                assert scenario_id == expected_scenario


DT = 0.01


def task(scenario_id, j, t_start=0.0, t_end=None, trigger=None):
    return ControlTask(
        id=f"{scenario_id}_{j}",
        priority=j + 1,
        controller="ff",
        group="g",
        activation=Activation(t_start=t_start, t_end=t_end, trigger=trigger),
    )


def test_held_levels_reuse_the_decision_until_a_window_opens():
    late = task("normal", 0, t_start=2 * DT)
    config = SupervisorConfig(
        one_ids=("one_a",),
        evaluations={"one_a": evaluation(reaction=(0, 0, 0, 0, 0))},
        os_mapping=small_mapping({}, scenarios={"normal": Scenario("normal", ScenarioType.NORMAL, (late,))}),
    )
    quiet = (0,)
    *first, state = supervisor_step(quiet, SupervisorState.initial(config), config, 0.0)
    *held, held_state = supervisor_step(quiet, state, config, DT)
    assert held_state is state and held[1] is first[1] == ()
    *opened, opened_state = supervisor_step(quiet, held_state, config, 2 * DT)
    assert opened_state is not held_state and opened[1] == (late,)
    *earlier, _ = supervisor_step(quiet, opened_state, config, DT)
    assert earlier[1] == ()
    *_, moved_state = supervisor_step((1,), opened_state, config, 3 * DT)
    assert moved_state is not opened_state and moved_state.levels == (1,)


@st.composite
def decision_cases(draw):
    """A random supervisor config whose activation windows open and close on
    tick times, and a level sequence made of held runs."""
    n_ones = draw(st.integers(1, 3))
    names = tuple(f"one_{i}" for i in range(n_ones))
    tops = [draw(st.integers(1, 3)) for _ in names]
    evaluations = {
        name: evaluation(
            danger=draw(st.lists(st.sampled_from(list(D)), min_size=top + 1, max_size=top + 1)),
            reaction=tuple(draw(st.lists(st.integers(0, 4), min_size=5, max_size=5))),
            irreversible=frozenset(draw(st.lists(st.integers(0, 4), max_size=4))),
        )
        for name, top in zip(names, tops)
    }
    tick = st.integers(0, 20)
    scenarios = {}
    for scenario_type in ScenarioType:
        sid = scenario_type.value
        tasks = []
        for j in range(draw(st.integers(0, 3))):
            t_start = draw(tick)
            t_end = draw(st.none() | st.integers(t_start + 1, 24))
            trigger = None
            if draw(st.booleans()):
                i = draw(st.integers(0, n_ones - 1))
                low = draw(st.integers(0, tops[i]))
                trigger = EventTrigger(names[i], low, draw(st.none() | st.integers(low, tops[i])))
            tasks.append(task(sid, j, t_start * DT, None if t_end is None else t_end * DT, trigger))
        scenarios[sid] = Scenario(sid, scenario_type, tuple(tasks))
    combo = st.tuples(*[st.integers(0, 4)] * n_ones)
    rows = draw(st.dictionaries(combo, st.sampled_from(sorted(scenarios)), max_size=6))
    config = SupervisorConfig(names, evaluations, OsMapping(rows=rows, scenarios=scenarios, default="normal"))
    levels = st.tuples(*[st.integers(0, top) for top in tops])
    runs = draw(st.lists(st.tuples(levels, st.integers(1, 6)), min_size=1, max_size=8))
    return config, [lvl for lvl, length in runs for _ in range(length)]


@settings(max_examples=100, deadline=None)
@given(decision_cases())
def test_carried_decision_equals_a_fresh_one(case):
    # Stepping with the carried state (which may hand back its decision)
    # matches stepping with a copy stripped of the levels and span that
    # decision holds for, which always decides afresh.
    config, sequence = case
    carried = fresh = SupervisorState.initial(config)
    for k, levels in enumerate(sequence):
        *got, carried = supervisor_step(levels, carried, config, k * DT)
        stripped = SupervisorState(fresh.scenario_id, fresh.tasks, fresh.dangers, fresh.reactions)
        *want, fresh = supervisor_step(levels, stripped, config, k * DT)
        assert got == want, k
