"""The loop and the run against the reference loop that takes none of their shortcuts.

Every shortcut of the tick (the monitor's carried bands, the supervisor's
carried decision, runtimes bound only on a new decision, the actuator round
in grant order, cells formatted once per decision) must leave the trace
bytes and the exit code as ``reference_loop`` writes them.
"""

import random

import pytest
import yaml
from hypothesis import given, settings

from oneguard import cli
from oneguard import config as cfg
from oneguard import harness
from oneguard.plant import initial_state

from conftest import DENSITY_LIMIT, DUAL_NTM
from reference_loop import ReferenceLoop, fuzzed_signals, plant_cells, reference_run
from test_acceptance import generated_schedules
from test_harness import NAN_COMMAND_OVERRIDES, wide_schedule


def assert_run_matches(cs):
    result = harness.run(cs)
    assert reference_run(cs) == (result.exit_code, result.trace_text)


def assert_fuzzed_ticks_match(cs, seed):
    """20 fuzzed ticks give the reference's rows, and ``pending`` holds exactly the bound tasks after each."""
    loop, reference = harness.ControlLoop(cs), ReferenceLoop(cs)
    plant = initial_state(cs.plant)
    for k, signals in enumerate(fuzzed_signals(cs, random.Random(seed))):
        t = k * cs.run.dt
        record = loop.tick(signals, t, cs.run.dt)
        assert harness.trace_row(cs, record, plant) == reference.tick(signals, t, cs.run.dt) + plant_cells(plant), k
        assert list(loop.pending) == [task_id for task_id, _ in loop.bound], k


@pytest.mark.parametrize("path", [DENSITY_LIMIT, DUAL_NTM], ids=lambda path: path.stem)
def test_shipped_runs_match_the_reference_loop(path):
    assert_run_matches(cfg.compile_schedule(cfg.parse_file(path)))


@pytest.mark.parametrize("case", sorted(NAN_COMMAND_OVERRIDES))
def test_runs_with_nan_commands_match_the_reference_loop(case):
    assert_run_matches(cfg.compile_schedule(cli._load_schedule(str(DUAL_NTM), NAN_COMMAND_OVERRIDES[case], None)))


@pytest.mark.parametrize("seed", range(8))
def test_wide_runs_match_the_reference_loop(seed):
    # CI runs all 64 pinned seeds through tests/reference_loop.py.
    assert_run_matches(wide_schedule(seed))


@settings(max_examples=50, deadline=None)
@given(generated_schedules())
def test_generated_schedules_match_the_reference_loop(drawn):
    doc, seed = drawn
    diagnostics = cfg.validate(cfg.parse(yaml.safe_dump(doc, sort_keys=False)))
    if diagnostics.schedule is None:
        return
    assert_run_matches(diagnostics.schedule)
    assert_fuzzed_ticks_match(diagnostics.schedule, seed)


@pytest.mark.parametrize("failing", ["base", "virtual"])
@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_ticks_with_a_plant_failure_event_match_the_reference_loop(failing, seed):
    # A fault forces the failure event to its top level, on a base event or
    # on the virtual one that combines four of them.
    def fail_on(doc):
        events = doc["ones"] if failing == "base" else doc["virtual_ones"]
        doc["run"]["plant_failure_one"] = events[seed % len(events)]["id"]

    assert_fuzzed_ticks_match(wide_schedule(0, fail_on), seed)
