"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import wide  # noqa: E402

run.load_program()


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 100]; a [10, 30] and b [20, 50] overlap; a has a child [12, 15];
    # c [90, 120] runs past the end of root.
    start = [0, 10, 12, 20, 90]
    end = [100, 30, 15, 50, 120]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == [100 - 40 - 10, 20 - 3, 3, 30, 30]


def test_self_time_of_sequential_children_is_duration_minus_their_sum():
    start = [0, 5, 40, 60]
    end = [100, 25, 55, 61]
    parent = [-1, 0, 0, 0]
    out = spans.self_times(start, end, parent)
    assert out == [100 - 20 - 15 - 1, 20, 15, 1]
    assert sum(out) == end[0] - start[0]


def test_generator_is_deterministic_in_its_seed():
    text_a, shape_a = wide.generate(7)
    text_b, shape_b = wide.generate(7)
    text_c, shape_c = wide.generate(8)
    assert text_a == text_b and shape_a == shape_b
    assert text_a != text_c
    # The seed moves numbers, not the shape the costs depend on.
    for key in ("base_events", "scenarios", "tasks", "groups", "waveform_points", "coverage_product", "ticks"):
        assert shape_a[key] == shape_c[key]


def test_generated_schedule_validates_clean():
    from oneguard import config as cfg

    text, _ = wide.generate(3)
    assert cfg.errors_of(cfg.validate(cfg.parse(text))) == []


def _density_op(tmp_path: Path, digest: str = run.PINNED["density_limit"][0]) -> run.Op:
    out = tmp_path / "trace.csv"
    schedule = run.SCHEDULES / "density_limit.yaml"
    return run.Op("run", ["run", str(schedule), "--out", str(out)], out, 2, digest, 61)


def _attributes():
    import yaml
    from oneguard import config as cfg
    from oneguard import controllers, harness, plant

    pairs = [(harness.ControlLoop, "tick"), (controllers.Waveform, "__call__"),
             (plant.DisruptionBoundary, "signed_distance")]
    pairs += [(harness, n) for n in ("monitor_step", "supervisor_step", "build_runtime", "allocate",
                                     "merge_commands", "plant_step", "plant_signals", "trace_row", "run",
                                     "replay_file", "read_trace", "replay_events", "replay_to_csv")]
    pairs += [(cfg, n) for n in ("parse", "validate", "compile_schedule")]
    pairs += [(yaml, "safe_load"), (yaml, "safe_dump")]
    for cls in spans._runtime_classes(controllers.TaskRuntime):
        pairs += [(cls, n) for n in ("requests", "step") if n in cls.__dict__]
    return {(owner, attr): spans.lookup(owner, attr) for owner, attr in pairs}


def test_wrappers_are_transparent_and_removed(tmp_path):
    before = _attributes()
    op = _density_op(tmp_path)
    untraced = run.run_op(op)
    untraced_bytes = op.out.read_bytes()

    from oneguard import cli

    tracer = spans.Tracer()
    tracer.install()
    assert all(_attributes()[k] is not v for k, v in before.items())
    try:
        traced = run.run_op(op, tracer.wrap(cli.main, spans.ROOT_RUN))
    finally:
        tracer.remove()

    assert untraced.ok and traced.ok, (untraced.error, traced.error)
    assert op.out.read_bytes() == untraced_bytes
    assert all(_attributes()[k] is v for k, v in before.items())
    metrics, acc = spans.layer_metrics(tracer)
    assert acc["ticks"] == 61 and acc["discharges"] == 1
    assert metrics["config.validate_calls"] == 2
    assert metrics["plant.boundary_evals"] == 2
    # Stage self times plus the tick's own self time account for the tick span.
    assert acc["sum_us"] == pytest.approx(acc["tick_span_us"], rel=1e-9)


def test_replay_metrics_are_per_replay_operation(tmp_path):
    from oneguard import cli

    op = _density_op(tmp_path)
    assert run.run_op(op).ok
    out = tmp_path / "replay.csv"
    schedule = run.SCHEDULES / "density_limit.yaml"
    replay = run.Op("replay", ["replay", str(op.out), str(schedule), "--out", str(out)], out, 0,
                    expected=run.decision_columns(op.out.read_bytes()))
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcome = run.run_op(replay, tracer.wrap(cli.main, spans.ROOT_REPLAY))
    finally:
        tracer.remove()
    assert outcome.ok, outcome.error
    metrics, acc = spans.layer_metrics(tracer, spans.ROOT_REPLAY)
    assert acc["replay_rows"] == 61
    assert metrics["config.validate_calls"] == 1  # compile's own validate
    assert metrics["config.parse_ms"] > 0 and metrics["harness.replay_csv_us"] > 0
    assert metrics["cli.yaml_roundtrip_ms"] == 0


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        run.percentile(list(range(999)), 99)
    assert run.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 50)


def test_midmean_is_the_mean_of_the_middle_half():
    assert run.midmean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]) == 3.5
    assert run.midmean([3.0, 1.0, 2.0]) == 2.0  # fewer than four: the median
    with pytest.raises(ValueError):
        run.midmean([])


def test_block_percentiles_average_over_whole_blocks():
    samples = list(range(2000)) + [10**9] * 999  # the partial last block is left out
    assert run.block_percentiles(samples, (50, 99)) == [(499 + 1499) / 2, (989 + 1989) / 2]
    with pytest.raises(ValueError):
        run.block_percentiles(list(range(999)), (50,))


def test_corrupted_expected_hash_counts_as_a_failure(tmp_path):
    digest = run.PINNED["density_limit"][0]
    bad = _density_op(tmp_path, digest[:-1] + ("0" if digest[-1] != "0" else "1"))
    tally = run.Tally()
    times = run.window(bad, 0.0, tally)
    assert len(times) == 1  # timed, and still reported as failed
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "sha256" in tally.errors[0]
    tally.add(run.run_op(_density_op(tmp_path)))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_wide_pins_cover_every_generator_seed_and_match_the_generator():
    pins = run.load_wide_pins()
    assert sorted(pins) == list(range(run.WIDE_SEEDS))
    for seed in (0, run.WIDE_SEEDS - 1):
        text, _ = wide.generate(seed)
        assert run.sha256(text.encode("utf-8")) == pins[seed][0]


def test_wide_reference_run_matches_its_pin_and_hits_every_selection_path(tmp_path):
    tally = run.Tally()
    # --seed 65 picks generator seed 1.
    _, op, info = run._wide_reference(run.WIDE_SEEDS + 1, tmp_path, tally)
    assert (tally.attempted, tally.failed) == (1, 0), tally.errors
    assert info["generator_seed"] == 1 and op.sha256 == run.load_wide_pins()[1][1]
    assert min(info["selection_paths"].values()) > 0


DEFINITION = run.load_definition()


def _metric_names(kind):
    return [m["name"] for m in DEFINITION[kind]]


def test_untraced_run_reports_every_end_to_end_metric():
    result, detail = run.run_workload(DEFINITION, "dual_ntm_long", 1, 0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _metric_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["tick_samples"] >= 3000


def test_traced_run_reports_every_per_layer_metric():
    result, detail = run.run_workload(DEFINITION, "dual_ntm_long", 1, 0.0, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _metric_names("per_layer")
    assert result["metrics"]["config.validate_calls"]["value"] == 2
    assert detail["tick_accounting"]["sum_us"] == pytest.approx(detail["tick_accounting"]["tick_span_us"])
