"""End-to-end acceptance checks.

One test per release criterion; each prints a single PASS line when its
assertions hold, so `pytest -v tests/test_acceptance.py` reads as the
acceptance report.
"""

import copy
import csv
import io
import itertools
import math
import os
import random
import tempfile
import time as wallclock
from unittest import mock

import numpy as np

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oneguard import cli
from oneguard import config as cfg
from oneguard import harness
from oneguard.allocator import GroupTable, allocate
from oneguard.harness import ControlLoop
from oneguard.model import DANGER_LEVELS
from oneguard.plant import initial_state, plant_step
from oneguard.supervisor import OneEvaluation, SupervisorState, supervisor_step

from conftest import DENSITY_LIMIT, DUAL_NTM, DUAL_NTM_EVENTS
from test_allocator import assert_matches_oracle, by_priority, grant_of, random_instance
from test_controllers import pid_output, pid_runtime
from test_harness import replayed_rows
from test_monitor import reference_monitor_step
from test_plant import BOUNDARY, sample_polyline
from test_supervisor import oracle_config_pairs

D_CRITICAL_1 = 0.45
D_CRITICAL_2 = 0.25
FAST_STEP = pytest.approx(1.2, abs=1e-9)
SLOW_STEP = pytest.approx(0.3, abs=1e-9)


def rows_of(trace_text):
    return list(csv.DictReader(io.StringIO(trace_text)))


def test_c1_density_limit_timeline(density_limit_compiled):
    task_outputs = []  # each tick's (task id, command) pairs, as handed to the merge
    merge = harness.merge_commands

    def recording_merge(outputs, allocation, table):
        task_outputs.append(list(outputs))
        return merge(outputs, allocation, table)

    with mock.patch.object(harness, "merge_commands", recording_merge):
        started = wallclock.monotonic()
        result = harness.run(density_limit_compiled)
        elapsed = wallclock.monotonic() - started
    rows = rows_of(result.trace_text)

    # Phase boundaries.
    da_index = next(
        i for i, r in enumerate(rows) if "da_power_nor" in r["tasks"].split(";")
    )
    rec_index = next(i for i, r in enumerate(rows) if r["scenario"] == "recovery")
    assert 0 < da_index < rec_index

    # Avoidance tasks wake up exactly when the distance breaches the first
    # critical value, both of them, inside the normal scenario.
    for r in rows[:da_index]:
        assert float(r["sig_d_ne_edge"]) > D_CRITICAL_1
        assert "da_power_nor" not in r["tasks"] and "da_gas_nor" not in r["tasks"]
    assert float(rows[da_index]["sig_d_ne_edge"]) <= D_CRITICAL_1
    assert rows[da_index]["scenario"] == "normal"
    assert {"da_power_nor", "da_gas_nor"} <= set(rows[da_index]["tasks"].split(";"))

    # Recovery engages when the second critical value is breached.
    for r in rows[:rec_index]:
        assert r["scenario"] == "normal"
    assert float(rows[rec_index]["sig_d_ne_edge"]) <= D_CRITICAL_2
    for r in rows[rec_index:]:
        assert r["scenario"] == "recovery"

    # Gas flux: fast ramp, then reduced ramp, then frozen.
    gas = [float(r["cmd_gas"]) for r in rows]
    fast_diffs = [b - a for a, b in zip(gas[: da_index - 1], gas[1:da_index])]
    slow_diffs = [b - a for a, b in zip(gas[da_index - 1 : rec_index - 1], gas[da_index:rec_index])]
    frozen_diffs = [b - a for a, b in zip(gas[rec_index - 1 : -1], gas[rec_index:])]
    assert all(d == FAST_STEP or d == pytest.approx(0.0, abs=1e-12) for d in fast_diffs)
    assert sum(1 for d in fast_diffs if d == FAST_STEP) >= 5
    assert slow_diffs and all(d == SLOW_STEP for d in slow_diffs)
    assert frozen_diffs and all(d == pytest.approx(0.0, abs=1e-12) for d in frozen_diffs)

    # Total beam command reaches the 1.3 maximum and pins there; the
    # feedforward share stays a constant 0.65 underneath the whole time.
    nbi = [float(r["cmd_nbi"]) for r in rows]
    for value in nbi[:da_index]:
        assert value == pytest.approx(0.65, abs=1e-12)
    pin_index = next(i for i, v in enumerate(nbi) if v == pytest.approx(1.3, abs=1e-9))
    assert pin_index <= rec_index
    for value in nbi[pin_index:]:
        assert value == pytest.approx(1.3, abs=1e-9)
    assert all(b >= a - 1e-9 for a, b in zip(nbi, nbi[1:]))
    ff_values = [
        value
        for outputs in task_outputs
        for tid, (gid, value) in outputs
        if tid in ("ff_power_nor", "ff_power_rec")
    ]
    assert len(ff_values) == len(rows)
    assert all(v == pytest.approx(0.65, abs=1e-12) for v in ff_values)

    # The discharge ends in a disruption before any shutdown is ordered,
    # with the energy-limit event never firing.
    assert result.exit_code == harness.EXIT_DISRUPTED
    assert all(r["scenario"] != "soft_shutdown" for r in rows)
    assert all(r["evt_actuator_lim"] == "0" for r in rows)
    assert result.violations == 0

    assert elapsed < 5.0
    print(f"[acceptance] C1 density-limit timeline: PASS ({len(rows)} ticks, {elapsed:.2f}s)")


def test_c2_dual_ntm_situations(dual_ntm_compiled):
    started = wallclock.monotonic()
    rows = replayed_rows(dual_ntm_compiled, DUAL_NTM_EVENTS)
    elapsed = wallclock.monotonic() - started

    by_reactions = {}
    for r in rows:
        key = (r["rct_ntm21"], r["rct_ntm43"])
        by_reactions.setdefault(key, []).append(r)

    situation_1 = by_reactions[("2", "1")]
    assert situation_1, "situation 1 must occur in the scripted events"
    for r in situation_1:
        assert r["scenario"] == "backup1"
        assert r["tasks"].split(";") == [
            "ntm21_stabilization",
            "beta_control",
            "heating_feedforward",
        ]

    situation_2 = by_reactions[("4", "1")]
    assert situation_2, "situation 2 must occur in the scripted events"
    for r in situation_2:
        assert r["scenario"] == "mitigation"

    # Mitigation latches: events clearing afterwards change nothing.
    assert rows[-1]["evt_ntm21"] == "0" and rows[-1]["scenario"] == "mitigation"

    assert elapsed < 1.0
    print(f"[acceptance] C2 dual tearing-mode example: PASS ({len(rows)} rows, {elapsed:.2f}s)")


def test_c3_irreversibility_latch():
    rng = random.Random(0xC3)
    sequences = 10_000
    length = 50
    violations = 0
    for _ in range(sequences):
        n_ones = rng.randint(2, 4)
        max_level = rng.randint(1, 4)
        danger_maps = [
            {lvl: rng.randint(0, 4) for lvl in range(max_level + 1)} for _ in range(n_ones)
        ]
        reaction_maps = [
            {d: rng.randint(0, 4) for d in range(5)} for _ in range(n_ones)
        ]
        irreversible = [
            frozenset({3, 4}) if rng.random() < 0.8 else frozenset({2, 3, 4})
            for _ in range(n_ones)
        ]
        evaluations = [
            OneEvaluation(
                danger=tuple(danger_maps[i][lvl] for lvl in range(max_level + 1)),
                reaction=tuple(reaction_maps[i][d] for d in range(5)),
                irreversible=irreversible[i],
            )
            for i in range(n_ones)
        ]
        previous = [0] * n_ones
        watermark = [0] * n_ones
        for t in range(length):
            for i, one in enumerate(evaluations):
                level = rng.randint(0, max_level)
                _, reaction = one.evaluate(level, previous[i])
                if watermark[i] and reaction < watermark[i]:
                    violations += 1
                if reaction in one.irreversible:
                    watermark[i] = max(watermark[i], reaction)
                previous[i] = reaction
    assert violations == 0
    print(f"[acceptance] C3 irreversibility latch: PASS ({sequences} sequences, 0 violations)")


def test_c4_scenario_mapping_brute_force():
    checked_steps = 0
    for seed, n_ones in [(s, 2) for s in range(10)] + [(100 + s, 1) for s in range(6)]:
        config, oracle = oracle_config_pairs(seed, n_ones=n_ones, max_level=2)
        alphabet = list(itertools.product(range(3), repeat=n_ones))
        for sequence in itertools.product(alphabet, repeat=4):
            state = SupervisorState.initial(config)
            oracle.prev = [0] * n_ones
            for t, levels in enumerate(sequence):
                scenario_id, _, _, reactions, state = supervisor_step(
                    levels, state, config, float(t)
                )
                combo = tuple(reactions[name] for name in config.one_ids)
                expected_combo, expected_scenario = oracle.step(levels)
                assert combo == expected_combo, (seed, sequence, t)
                assert scenario_id == expected_scenario, (seed, sequence, t)
                checked_steps += 1
    print(f"[acceptance] C4 scenario-mapping equivalence: PASS ({checked_steps} steps vs oracle)")


def test_c5_allocator_oracle_and_feasibility():
    rng = random.Random(0xC5)
    for _ in range(300):
        requests, groups, priorities = random_instance(rng)
        assert_matches_oracle(requests, groups, priorities)
    for _ in range(100):
        requests, groups, priorities = random_instance(rng, max_tasks=2, multi_group=True)
        assert_matches_oracle(requests, groups, priorities)

    feasibility_violations = 0
    instances = 100_000
    for _ in range(instances):
        requests, groups, priorities = random_instance(rng, multi_group=True)
        alloc = allocate(by_priority(requests, priorities), GroupTable(groups))
        for gid, g in groups.items():
            if alloc.totals[gid] > g.capacity + 1e-9:
                feasibility_violations += 1
        for r in requests:
            got = grant_of(alloc, r.task_id, r.group_id)
            if got != 0.0 and got + 1e-9 < r.min_acceptable:
                feasibility_violations += 1
            if got > r.amount + 1e-12:
                feasibility_violations += 1
    assert feasibility_violations == 0
    print(
        f"[acceptance] C5 allocator oracle + feasibility: PASS "
        f"(400 oracle instances, {instances} feasibility instances, 0 violations)"
    )


def test_c6_numerical_checks(density_limit_compiled):
    # Discrete PID vs fine-step integration of the same law.
    kp, ki, kd = 0.8, 2.0, 0.05
    tau = 0.2
    dt = tau / 100.0
    horizon = 10.0 * tau
    pid = pid_runtime(kp=kp, ki=ki, kd=kd, lo=-100.0, hi=100.0, anti_windup=True, reference=1.0)
    n = int(round(horizon / dt))
    out = 0.0
    for k in range(n + 1):
        measurement = 1.0 - math.exp(-k * dt / tau)
        out = pid_output(pid, measurement, dt)
    fine = dt / 100.0
    integral = 0.0
    for k in range(int(round(horizon / fine)) + 1):
        integral += math.exp(-k * fine / tau) * fine
    e_end = math.exp(-horizon / tau)
    oracle = kp * e_end + ki * integral - kd * (e_end / tau)
    pid_error = abs(out - oracle) / abs(oracle)
    assert pid_error < 0.01

    # Density lag vs the closed-form exponential at dt = tau_n / 100.
    params = density_limit_compiled.plant
    lag_dt = params.tau_n / 100.0
    plant = initial_state(params)
    flux = 40.0
    target = params.k_gas * flux
    worst_lag = 0.0
    for k in range(1, 201):
        plant = plant_step(plant, params, p_nbi=0.0, gas_flux=flux, dt=lag_dt)
        exact = target + (params.ne_init - target) * math.exp(-k * lag_dt / params.tau_n)
        worst_lag = max(worst_lag, abs(plant.ne_edge_norm - exact) / abs(exact))
    assert worst_lag < 1e-3

    # Signed distance vs a dense sampling of the limit curve.
    cloud = sample_polyline(BOUNDARY)
    rng = random.Random(0xC6)
    worst_distance = 0.0
    checked = 0
    while checked < 40:
        ne = rng.uniform(0.0, 1.8)
        h98 = rng.uniform(-0.2, 1.6)
        got = BOUNDARY.signed_distance(ne, h98)
        if abs(got) < 0.05:
            continue
        diff = cloud - np.array([ne, h98])
        expected = float(np.min(np.hypot(diff[:, 0], diff[:, 1])))
        if h98 < BOUNDARY.h_limit(ne):
            expected = -expected
        worst_distance = max(worst_distance, abs(got - expected))
        checked += 1
    assert worst_distance < 1e-6

    # Injected-energy bookkeeping against a plain running sum.
    plant = initial_state(params)
    rng = random.Random(0xE6)
    total = 0.0
    for _ in range(20_000):
        power = rng.uniform(0.0, 1.3)
        plant = plant_step(plant, params, p_nbi=power, gas_flux=0.0, dt=0.001)
        total += 0.001 * power
        if plant.disrupted:
            break
    energy_error = abs(plant.nbi_energy - total) / max(total, 1e-12)
    assert energy_error < 1e-9

    print(
        "[acceptance] C6 numerical checks: PASS "
        f"(pid {pid_error:.2e} < 1e-2, lag {worst_lag:.2e} < 1e-3, "
        f"distance {worst_distance:.2e} < 1e-6, energy {energy_error:.2e} < 1e-9)"
    )


def test_c7_determinism(density_limit_compiled, dual_ntm_compiled, tmp_path):
    for name, compiled in (
        ("density_limit", density_limit_compiled),
        ("dual_ntm", dual_ntm_compiled),
    ):
        first = harness.run(compiled)
        second = harness.run(compiled)
        assert first.trace_text == second.trace_text, name

        trace_path = tmp_path / f"{name}.csv"
        trace_path.write_text(first.trace_text)
        replayed = replayed_rows(compiled, trace_path)
        original = rows_of(first.trace_text)
        decision_columns = ["scenario", "tasks"]
        for one_id in compiled.one_ids:
            decision_columns += [f"dng_{one_id}", f"rct_{one_id}"]
        for got, want in zip(replayed, original):
            for column in decision_columns:
                assert got[column] == want[column], (name, column)
    print("[acceptance] C7 determinism and replay identity: PASS (2 schedules)")


VIRTUAL_SCHEDULE = """
run: {dt: 0.01 s, duration: 0.2 s, plant_failure_one: watchdog}
plant:
  tau_e: 0.02 s
  tau_98: 0.02 s
  tau_n: 0.25 s
  k_gas: 0.02
  p_ohmic: 0.3 MW
  nbi_energy_limit: 1.3 MJ
  ne_init: 0.2
  gas_init: 10.0
  nbi_group: nbi
  gas_group: gas
  degradation: [[0.0, 1.0], [2.0, 1.0]]
  boundary: [[1.5, 0.1], [2.5, 0.2]]
signals:
  locked_amp: {points: [[0.0, 0.0], [0.2, 2.0]]}
  rad_power: {points: [[0.0, 0.0], [0.2, 1.5]]}
ones:
  - id: locked_mode
    signal: locked_amp
    direction: rising
    thresholds: [0.5, 1.2]
    hysteresis: [0.05, 0.05]
    danger: {0: "no", 1: low, 2: medium}
    reaction: {"no": 0, low: 0, medium: 1, high: 2, very_high: 3}
  - id: radiation
    signal: rad_power
    direction: rising
    thresholds: [1.0]
    danger: {0: "no", 1: medium}
    reaction: {"no": 0, low: 0, medium: 1, high: 2, very_high: 3}
  - id: watchdog
    signal: h98y2
    direction: falling
    thresholds: [0.1]
    danger: {0: "no", 1: very_high}
    reaction: {"no": 0, low: 0, medium: 1, high: 3, very_high: 3}
virtual_ones:
  - id: locked_radiating
    inputs: [locked_mode, radiation]
    rows:
      - {levels: [0, 0], level: 0}
      - {levels: [0, 1], level: 0}
      - {levels: [1, 0], level: 0}
      - {levels: [1, 1], level: 1}
      - {levels: [2, 0], level: 1}
      - {levels: [2, 1], level: 2}
    danger: {0: "no", 1: medium, 2: very_high}
    reaction: {"no": 0, low: 0, medium: 1, high: 3, very_high: 4}
os_mapping:
  default: normal
scenarios:
  - id: normal
    type: normal
    tasks:
      - {id: heat, priority: 1, controller: ff, group: nbi, reference: 0.4}
      - id: tune
        priority: 2
        controller: performance
        group: nbi
        reference: 0.012
  - id: recovery
    type: recovery
    tasks:
      - {id: heat_rec, priority: 1, controller: ff, group: nbi, reference: 0.3}
  - id: shutdown
    type: soft_shutdown
    tasks:
      - {id: kill_heat, priority: 1, controller: cutoff, group: nbi}
  - id: mitigation
    type: disruption_mitigation
    tasks: []
controllers:
  ff: {type: feedforward}
  performance: {type: pid, kp: 10.0, ki: 50.0, lo: 0.0, hi: 0.6, measurement: stored_energy}
  cutoff: {type: gas_shaper, mode: cutoff, ramp_down: 0.05}
actuator_groups:
  - {id: nbi, capacity: 1.3, unit: MW}
  - {id: gas, capacity: 50.0}
"""


def test_c8_validation_soundness(density_limit_schedule, dual_ntm_schedule):
    virtual_ps = cfg.parse(VIRTUAL_SCHEDULE)
    schedules = [density_limit_schedule, dual_ntm_schedule, virtual_ps]
    compiled = []
    for ps in schedules:
        assert cfg.errors_of(cfg.validate(ps)) == []
        compiled.append(cfg.compile_schedule(ps))

    signal_names = [
        sorted(set(cfg.PLANT_SIGNALS) | {name for name, _ in ps.scripted})
        for ps in schedules
    ]
    rng = random.Random(0xC8)
    traces = 1000
    ticks = 10
    for trace_index in range(traces):
        cs = compiled[trace_index % len(compiled)]
        names = signal_names[trace_index % len(compiled)]
        loop = ControlLoop(cs)
        for k in range(ticks):
            signals = {}
            for name in names:
                roll = rng.random()
                if roll < 0.08:
                    signals[name] = math.nan
                elif roll < 0.12:
                    signals[name] = math.inf if rng.random() < 0.5 else -math.inf
                elif roll < 0.2:
                    signals[name] = rng.choice([-1e9, 1e9, 0.0])
                else:
                    signals[name] = rng.uniform(-5.0, 5.0)
            expected, expected_faults = reference_monitor_step(signals, cs.monitor, loop.events)
            try:
                record = loop.tick(signals, k * cs.run.dt, cs.run.dt)
            except Exception as exc:
                raise AssertionError(
                    f"validated schedule raised {type(exc).__name__} on fuzzed trace "
                    f"{trace_index}, tick {k}: {exc}"
                ) from exc
            # The monitor, carried or not, gives the levels and faults that re-deriving every event gives.
            assert {i: e.level for i, e in loop.events.items()} == {i: e.level for i, e in expected.items()}
            assert record.faults == expected_faults
            assert loop.levels == tuple(expected[one_id].level for one_id in cs.one_ids)
    print(
        f"[acceptance] C8 validation soundness: PASS "
        f"({len(schedules)} schedules, {traces} fuzzed traces, 0 exceptions, monitor matches its reference)"
    )


#: Numeric settings of each controller type.
CONTROLLER_NUMBERS = {
    "feedforward": ("min_request",),
    "pid": ("kp", "ki", "kd", "lo", "hi"),
    "da_power": ("d_critical1", "gain", "p_max"),
    "gas_shaper": ("factor", "ramp_down"),
    "ntm": (),
}
PLANT_NUMBERS = ("tau_e", "tau_98", "tau_n", "k_gas", "p_ohmic", "nbi_energy_limit", "w_init", "ne_init", "gas_init")


def numeric_fields(doc):
    """Paths of the numeric controller settings, group capacities and ranges, and plant fields."""
    fields = [("controllers", cid, key) for cid, c in doc["controllers"].items() for key in CONTROLLER_NUMBERS[c["type"]]]
    for i in range(len(doc["actuator_groups"])):
        fields += [("actuator_groups", i, "capacity"), ("actuator_groups", i, "command_range")]
    return fields + [("plant", key) for key in PLANT_NUMBERS]


SHIPPED_DOCS = [yaml.safe_load(path.read_text()) for path in (DENSITY_LIMIT, DUAL_NTM)]
SIGNED = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def perturbed_schedules(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED_DOCS)))
    for *parents, leaf in draw(st.lists(st.sampled_from(numeric_fields(doc)), min_size=1, max_size=4, unique=True)):
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = [draw(SIGNED), draw(SIGNED)] if leaf == "command_range" else draw(SIGNED)
    return doc


@settings(max_examples=100, deadline=None)
@given(perturbed_schedules())
def test_c8_clean_validate_means_run_cannot_raise(doc):
    # Perturbed numbers either fail validation, and run refuses them with
    # 64, or run to one of the three discharge outcomes; nothing raises.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "schedule.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        validated = cli.main(["validate", path])
        code = cli.main(["run", path, "--out", os.path.join(tmp, "trace.csv"), "--until", "0.3"])
    if validated == harness.EXIT_CONFIG:
        assert code == harness.EXIT_CONFIG
    else:
        assert code in (harness.EXIT_CLEAN, harness.EXIT_DISRUPTED, harness.EXIT_SHUTDOWN)


OPTIONAL_TYPES = ["recovery", "backup", "soft_shutdown", "disruption_mitigation"]
WATCHED = ["h98y2", "ne_edge_norm", "stored_energy", "nbi_energy_frac", "d_ne_edge"]
TASK_POOL = {
    "heat": {"controller": "ff", "group": "nbi"},
    "extra": {"controller": "da", "group": "nbi"},
    "beta": {"controller": "pid", "group": "nbi"},
    "fuel": {"controller": "shaper", "group": "gas"},
    # Power on nbi plus the exclusive aim group: a multi-group request.
    "aim": {"controller": "ntm", "group": "nbi"},
}


@st.composite
def activations(draw, event_ids):
    """A task activation for the 0.2 s, 0.01 s-tick run of ``MINIMAL_PLANT``.

    A time window that opens or closes inside the run, on the tick grid or
    between ticks, an event trigger on one of ``event_ids``, both or
    neither.
    """
    activation = {}
    if draw(st.booleans()):
        start = draw(st.integers(0, 20)) / 100 + draw(st.sampled_from([0.0, 0.0, 0.005]))
        end = start + draw(st.integers(1, 10)) / 100 + draw(st.sampled_from([0.0, 0.0, 0.003]))
        activation.update(t_start=start, t_end=draw(st.sampled_from([None, end])))
    if draw(st.booleans()):
        low = draw(st.integers(0, 3))
        top = draw(st.sampled_from([None, low, low + 1]))
        activation["event"] = {"one": draw(st.sampled_from(event_ids)), "min_level": low, "max_level": top}
    return activation


@st.composite
def generated_schedules(draw):
    """A schedule with random total danger and reaction maps, irreversible
    sets, scenario types, task lists, task activations and os_mapping rows,
    and 0 or 1 virtual event over 1-2 base events with a total combiner."""
    ones = []
    for i in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 3))
        rising = draw(st.booleans())
        cuts = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k, unique=True))
        ones.append({
            "id": f"one{i}",
            "signal": draw(st.sampled_from(WATCHED)),
            "direction": "rising" if rising else "falling",
            "thresholds": [c / 10 for c in sorted(cuts, reverse=not rising)],
            "danger": {lvl: draw(st.sampled_from(DANGER_LEVELS)) for lvl in range(k + 1)},
            "reaction": {name: draw(st.integers(0, 4)) for name in DANGER_LEVELS},
            "irreversible": draw(st.lists(st.integers(0, 4), unique=True, max_size=5)),
        })
    virtuals = []
    for _ in range(draw(st.integers(0, 1))):
        inputs = draw(st.lists(st.sampled_from(ones), min_size=1, max_size=2, unique_by=lambda o: o["id"]))
        combos = itertools.product(*[range(len(o["thresholds"]) + 1) for o in inputs])
        rows = [{"levels": list(c), "level": draw(st.integers(0, 2))} for c in combos]
        top = max(r["level"] for r in rows)
        virtuals.append({
            "id": "combo",
            "inputs": [o["id"] for o in inputs],
            "rows": rows,
            "danger": {lvl: draw(st.sampled_from(DANGER_LEVELS)) for lvl in range(top + 1)},
            "reaction": {name: draw(st.integers(0, 4)) for name in DANGER_LEVELS},
            "irreversible": draw(st.lists(st.integers(0, 4), unique=True, max_size=5)),
        })
    event_ids = [o["id"] for o in ones + virtuals]
    # Each other type has zero to two scenarios; without one, a reachable
    # reaction of its level is a validate error.
    types = {"normal": "normal"}
    for t in OPTIONAL_TYPES:
        types.update((f"{t}_{j}", t) for j in range(draw(st.sampled_from([0, 1, 1, 2]))))
    scenarios = []
    for sid, scenario_type in types.items():
        names = draw(st.permutations(sorted(TASK_POOL)))[: draw(st.integers(0, len(TASK_POOL)))]
        tasks = []
        for priority, name in enumerate(names, start=1):
            task = dict(TASK_POOL[name], id=name, priority=priority)
            if name in ("heat", "beta"):
                task["reference"] = draw(st.integers(0, 13)) / 10
            if draw(st.booleans()):
                task["activation"] = draw(activations(event_ids))
            tasks.append(task)
        scenarios.append({"id": sid, "type": scenario_type, "tasks": tasks})
    row = st.tuples(st.tuples(*[st.integers(0, 4)] * len(event_ids)), st.sampled_from(sorted(types)))
    rows = draw(st.lists(row, max_size=6, unique_by=lambda r: r[0]))
    doc = yaml.safe_load(MINIMAL_PLANT)
    doc["run"]["plant_failure_one"] = draw(st.sampled_from([None] + event_ids))
    doc.update(
        ones=ones,
        virtual_ones=virtuals,
        os_mapping={"default": "normal", "rows": [{"reactions": list(r), "scenario": s} for r, s in rows]},
        scenarios=scenarios,
    )
    return doc, draw(st.integers(0, 2**32 - 1))


MINIMAL_PLANT = """
run: {dt: 0.01, duration: 0.2}
plant:
  tau_e: 0.02
  tau_98: 0.02
  tau_n: 0.25
  k_gas: 0.02
  p_ohmic: 0.3
  nbi_energy_limit: 1.3
  ne_init: 0.2
  nbi_group: nbi
  gas_group: gas
  degradation: [[0.0, 1.0], [2.0, 1.0]]
  boundary: [[1.5, 0.1], [2.5, 0.2]]
controllers:
  ff: {type: feedforward}
  da: {type: da_power, mode: normal, d_critical1: 0.45, p_max: 1.3, signal: d_ne_edge}
  pid: {type: pid, kp: 2.0, ki: 5.0, hi: 1.3, measurement: stored_energy}
  shaper: {type: gas_shaper, mode: cutoff, ramp_down: 0.05}
  ntm: {type: ntm, position_signal: ne_edge_norm, aim_group: ec_aim}
actuator_groups:
  - {id: nbi, capacity: 1.3}
  - {id: gas, capacity: 10.0}
  - {id: ec_aim, capacity: 1.0, semantics: exclusive, command_range: [0.0, 1.0]}
"""


@settings(max_examples=100, deadline=None)
@given(generated_schedules())
def test_c8_generated_schedules_that_validate_run_clean(drawn):
    # validate attaches a compiled schedule exactly when it reports no
    # error, the one compile_schedule hands over. Any schedule validate
    # accepts runs fuzzed ticks with no exception, a latch that only moves
    # up, no dropped command and a feasible allocation on every tick. Its
    # closed-loop run is byte-identical twice over, and replaying that
    # trace gives back its decision columns.
    doc, seed = drawn
    ps = cfg.parse(yaml.safe_dump(doc, sort_keys=False))
    diagnostics = cfg.validate(ps)
    assert (diagnostics.schedule is None) == bool(cfg.errors_of(diagnostics))
    if diagnostics.schedule is None:
        return
    cs = cfg.compile_schedule(ps)
    assert cs == diagnostics.schedule
    allocations = []

    def recording_allocate(requests, table):
        allocations.append((list(requests), allocate(requests, table)))
        return allocations[-1][1]

    # A patch, not a fixture: hypothesis refuses function-scoped fixtures.
    with mock.patch.object(harness, "allocate", recording_allocate):
        # A reaction at or above the set's lowest level is never left downward,
        # gaps in the set ([1, 3, 4]) included.
        latch_from = {spec.id: min(spec.irreversible, default=5) for spec in ps.ones + ps.virtual_ones}
        floor = dict.fromkeys(latch_from, 0)
        rng = random.Random(seed)
        loop = ControlLoop(cs)
        for k in range(20):
            signals = {name: math.nan if rng.random() < 0.05 else rng.uniform(-3.0, 3.0) for name in cfg.PLANT_SIGNALS}
            record = loop.tick(signals, k * cs.run.dt, cs.run.dt)
            assert record.violations == []
            for one_id, reaction in loop.sup_state.reactions.items():
                assert reaction >= floor[one_id]
                if reaction >= latch_from[one_id]:
                    floor[one_id] = reaction
        result = harness.run(cs)
        assert harness.run(cs).trace_text == result.trace_text
        rows = rows_of(result.trace_text)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(result.trace_text)
            replayed = replayed_rows(cs, path)
        assert len(replayed) == len(rows)
        for row, replayed_row in zip(rows, replayed):
            assert replayed_row == {key: row[key] for key in replayed_row}
    for requests, allocation in allocations:
        for gid, group in cs.groups.items():
            assert sum(grants.get(gid, 0.0) for grants in allocation.grants.values()) <= group.capacity + 1e-9
        for task_id, gid, amount, minimum in requests:
            grant = grant_of(allocation, task_id, gid)
            assert grant == 0.0 or minimum - 1e-9 <= grant <= amount
