import csv
import hashlib
import importlib.util
import io
import os
import random
import subprocess
import sys

import pytest
import yaml

from oneguard import cli
from oneguard import config as cfg
from oneguard import harness
from oneguard.allocator import ActuatorCommand
from oneguard.errors import TraceError
from oneguard.plant import initial_state, plant_signals

from conftest import DENSITY_LIMIT, DUAL_NTM, DUAL_NTM_EVENTS, REPO
from test_config import set_at


def run_schedule(path, mutate=None):
    doc = yaml.safe_load(open(path).read())
    if mutate:
        mutate(doc)
    ps = cfg.parse(yaml.safe_dump(doc, sort_keys=False))
    compiled = cfg.compile_schedule(ps)
    return compiled, harness.run(compiled)


def rows_of(trace_text):
    reader = csv.DictReader(io.StringIO(trace_text))
    return list(reader)


def wide_schedule(seed, mutate=None):
    """The compiled ``wide_switching`` schedule of ``seed`` (bench/wide.py), its document edited by ``mutate``."""
    spec = importlib.util.spec_from_file_location("wide", REPO / "bench" / "wide.py")
    wide = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wide)
    text = wide.generate(seed)[0]
    if mutate:
        doc = yaml.safe_load(text)
        mutate(doc)
        text = yaml.safe_dump(doc, sort_keys=False)
    return cfg.compile_schedule(cfg.parse(text))


#: Overrides of ``dual_ntm`` that validate clean and make a task command NaN:
#: the PID's infinite proportional and derivative terms cancel, and the
#: feedforward reference interpolates ``v0 + 0.0 * inf`` at its first point.
NAN_COMMAND_OVERRIDES = {
    "pid_inf_minus_inf": [
        "scenarios.0.tasks.1.reference=5.0", "controllers.beta_pid.kp=1.0e+308", "controllers.beta_pid.kd=1.0e+308",
        "controllers.beta_pid.hi=1.0e+308", "controllers.beta_pid.measurement=nbi_power",
    ],
    "waveform_zero_times_inf": ["scenarios.0.tasks.0.reference={points: [[0.0, -1.0e+308], [0.2, 1.0e+308]]}"],
}


def nested(depth):
    return "[" * depth + "]" * depth


def replayed_rows(compiled, trace_path):
    """The replay of ``trace_path`` as rows keyed by column name."""
    return rows_of(harness.replay_to_csv(harness.replay_file(compiled, trace_path), compiled))


class TestRun:
    def test_two_runs_are_byte_identical(self, density_limit_compiled):
        first = harness.run(density_limit_compiled)
        second = harness.run(density_limit_compiled)
        assert first.trace_text == second.trace_text

    def test_density_limit_exit_code_is_disrupted(self, density_limit_compiled):
        result = harness.run(density_limit_compiled)
        assert result.exit_code == harness.EXIT_DISRUPTED
        assert result.final_scenario == "recovery"

    def test_dual_ntm_completes_cleanly(self, dual_ntm_compiled):
        result = harness.run(dual_ntm_compiled)
        assert result.exit_code == harness.EXIT_CLEAN
        assert result.final_scenario == "backup1"
        assert result.violations == 0

    def test_zero_duration_gives_header_only_trace(self):
        _, result = run_schedule(DENSITY_LIMIT, lambda d: d["run"].update(duration=0.0))
        assert result.rows == 0
        assert result.exit_code == harness.EXIT_CLEAN
        header = result.trace_text.strip().splitlines()
        assert len(header) == 1 and header[0].startswith("time,")

    def test_rows_count_ticks_when_a_task_id_holds_a_newline(self, density_limit_compiled):
        # The trace quotes such an id over two lines; a row is still one tick.
        def break_ids(doc):
            for scenario in doc["scenarios"]:
                for task in scenario["tasks"]:
                    task["id"] += "\nsplit"

        _, result = run_schedule(DENSITY_LIMIT, break_ids)
        ticks = harness.run(density_limit_compiled).rows
        assert result.trace_text.count("\n") - 1 > ticks
        assert result.rows == len(rows_of(result.trace_text)) == ticks == 61

    def test_soft_shutdown_exit_code(self):
        # Pull the third critical distance up so the shutdown engages long
        # before the limit, then watch the run finish inside it.
        def mutate(doc):
            doc["ones"][0]["thresholds"] = [0.45, 0.35, 0.25]
            doc["run"]["duration"] = 1.5

        _, result = run_schedule(DENSITY_LIMIT, mutate)
        assert result.exit_code == harness.EXIT_SHUTDOWN
        assert result.final_scenario == "soft_shutdown"

    def test_one_tick_actuation_delay(self, density_limit_compiled):
        result = harness.run(density_limit_compiled)
        rows = rows_of(result.trace_text)
        for before, after in zip(rows, rows[1:]):
            assert after["nbi_power"] == before["cmd_nbi"]
            assert after["gas_flux"] == before["cmd_gas"]

    def test_post_roll_records_frozen_rows(self):
        _, result = run_schedule(DENSITY_LIMIT, lambda d: d["run"].update(post_roll=0.05))
        rows = rows_of(result.trace_text)
        tail = [r for r in rows if r["disrupted"] == "1"]
        assert len(tail) == 5
        assert len({r["ne_edge_norm"] for r in tail}) == 1

    def test_no_command_violations_in_closed_loop(self, density_limit_compiled):
        assert harness.run(density_limit_compiled).violations == 0

    def test_reused_task_id_keeps_its_first_binding_across_a_switch(self, monkeypatch):
        # validate warns about this schedule; the run behaviour is pinned
        # until the semantics of a reused id change.
        def reuse(doc):
            recovery = next(sc for sc in doc["scenarios"] if sc["id"] == "recovery")
            recovery["tasks"][0].update(id="ff_power_nor", reference=0.1)

        ticks, merged = [], []
        real_tick, real_merge = harness.ControlLoop.tick, harness.merge_commands

        def merge(outputs, allocation, table):
            merged.append(list(outputs))
            return real_merge(outputs, allocation, table)

        def tick(loop, *args):
            record = real_tick(loop, *args)
            ticks.append((loop.sup_state.scenario_id, record, merged[-1]))
            return record

        monkeypatch.setattr(harness, "merge_commands", merge)
        monkeypatch.setattr(harness.ControlLoop, "tick", tick)
        doc = yaml.safe_load(DENSITY_LIMIT.read_text())
        reuse(doc)
        compiled = cfg.compile_schedule(cfg.parse(yaml.safe_dump(doc, sort_keys=False)))
        harness.run(compiled)
        first, outputs = next((record, outputs) for scenario_id, record, outputs in ticks if scenario_id == "recovery")
        assert first.time == pytest.approx(0.5)
        assert ("ff_power_nor", ActuatorCommand("nbi", 0.65)) in outputs

    def test_task_that_leaves_and_reenters_gets_a_fresh_runtime(self, density_limit_compiled):
        # ff_gas_nor is active only while d_ne_edge is at level 0; the
        # scenario stays 'normal' throughout. Held levels reuse the decision
        # and the runtime; leaving drops the runtime, re-entering builds one.
        cs = density_limit_compiled
        loop = harness.ControlLoop(cs)
        signals = dict(plant_signals(initial_state(cs.plant), cs.plant))
        runtimes = []
        for k, distance in enumerate([0.6, 0.6, 0.4, 0.4, 0.6, 0.6]):
            loop.tick(dict(signals, d_ne_edge=distance), k * cs.run.dt, cs.run.dt)
            assert loop.sup_state.scenario_id == "normal"
            runtimes.append(dict(loop.bound).get("ff_gas_nor"))
        assert runtimes[0] is runtimes[1] is not None
        assert runtimes[2] is None and runtimes[3] is None
        assert runtimes[4] is runtimes[5] is not runtimes[0]
        assert runtimes[4] is not None

    def test_ntm_deposition_tracks_scripted_mode_position(self, dual_ntm_compiled):
        # Whenever a stabilization task owns the aiming group, the
        # deposition command must equal that mode's scripted position.
        result = harness.run(dual_ntm_compiled)
        rows = rows_of(result.trace_text)
        seen_21 = seen_43 = 0
        for r in rows:
            tasks = r["tasks"].split(";")
            if "ntm21_stabilization" in tasks:
                assert float(r["cmd_ec_aim"]) == 0.6
                assert float(r["cmd_ec_power"]) == 1.0
                seen_21 += 1
            elif "ntm43_stabilization" in tasks:
                assert float(r["cmd_ec_aim"]) == 0.8
                seen_43 += 1
        assert seen_21 >= 5 and seen_43 >= 1


class TestReplay:
    def test_self_replay_reproduces_decision_columns(self, density_limit_compiled, tmp_path):
        result = harness.run(density_limit_compiled)
        trace_path = tmp_path / "run.csv"
        trace_path.write_text(result.trace_text)
        replayed = replayed_rows(density_limit_compiled, trace_path)
        original = rows_of(result.trace_text)
        assert len(replayed) == len(original)
        for got, want in zip(replayed, original):
            for column in got:
                if column == "time":
                    continue
                assert got[column] == want[column], column

    def test_recovery_selection_pattern(self, dual_ntm_compiled):
        times = [0.0, 0.01, 0.02, 0.03]
        assert dual_ntm_compiled.one_ids == ("ntm21", "ntm43")
        levels = [(0, 0), (1, 0), (0, 1), (1, 1)]
        rows = harness.replay_events(dual_ntm_compiled, times, levels)
        scenario = harness.replay_header(dual_ntm_compiled).index("scenario")
        assert [r[scenario] for r in rows] == [
            "normal",
            "recovery_1",
            "recovery_2",
            "recovery_3",
        ]

    def test_shipped_event_script(self, dual_ntm_compiled):
        rows = replayed_rows(dual_ntm_compiled, DUAL_NTM_EVENTS)
        assert rows[0]["scenario"] == "normal"
        assert rows[-1]["scenario"] == "mitigation"

    def test_columns_are_found_by_name(self, density_limit_compiled, tmp_path):
        # Permuted columns and an unknown one replay to the same bytes.
        result = harness.run(density_limit_compiled)
        header, *rows = csv.reader(io.StringIO(result.trace_text))
        order = list(range(len(header)))
        random.Random(3).shuffle(order)
        assert order != sorted(order)
        original, shuffled = tmp_path / "run.csv", tmp_path / "shuffled.csv"
        original.write_text(result.trace_text)
        with open(shuffled, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in [header] + rows:
                cells = [row[i] for i in order]
                cells.insert(len(cells) // 2, "note" if row is header else "x")
                writer.writerow(cells)
        outputs = []
        for trace in (original, shuffled):
            out = tmp_path / f"{trace.stem}.replay.csv"
            assert cli.main(["replay", str(trace), str(DENSITY_LIMIT), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == len(rows) + 1

    def test_non_monotone_time_rejected(self, dual_ntm_compiled, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,evt_ntm21,evt_ntm43\n0.02,0,0\n0.01,0,0\n")
        with pytest.raises(TraceError, match="increasing"):
            harness.replay_file(dual_ntm_compiled, bad)

    def test_missing_event_column_rejected(self, dual_ntm_compiled, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,evt_ntm21\n0.0,0\n")
        with pytest.raises(TraceError, match="ntm43"):
            harness.replay_file(dual_ntm_compiled, bad)

    def test_out_of_range_level_rejected(self, dual_ntm_compiled, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,evt_ntm21,evt_ntm43\n0.0,9,0\n")
        with pytest.raises(TraceError, match="outside"):
            harness.replay_file(dual_ntm_compiled, bad)


@pytest.mark.parametrize("schedule", ["dual_ntm", "wide"])
def test_decision_cells_are_formatted_once_per_new_state(schedule, dual_ntm_compiled, tmp_path, monkeypatch):
    # run and replay both decide through ControlLoop.decide. It formats a
    # decision's cells once, when the supervisor hands over a new state, and
    # every tick that carries the decision reuses them.
    cs = dual_ntm_compiled if schedule == "dual_ntm" else wide_schedule(0)
    stepped, formatted = [], []
    real_step, real_decide = harness.supervisor_step, harness.ControlLoop.decide

    def step(*args):
        result = real_step(*args)
        stepped.append(result[4])
        return result

    def decide(loop, levels, time):
        cells = loop.cells
        new = real_decide(loop, levels, time)
        assert new == (loop.cells is not cells)
        if new:
            formatted.append(loop.sup_state)
        return new

    monkeypatch.setattr(harness, "supervisor_step", step)
    monkeypatch.setattr(harness.ControlLoop, "decide", decide)
    trace = tmp_path / "trace.csv"
    trace.write_text(harness.run(cs).trace_text)
    ticks = len(stepped)
    harness.replay_file(cs, trace)
    assert len(stepped) == 2 * ticks
    for states in (stepped[:ticks], stepped[ticks:]):
        new = [state for k, state in enumerate(states) if k == 0 or state is not states[k - 1]]
        assert len(set(map(id, new))) == len(new) < ticks / 4
        assert list(map(id, formatted[: len(new)])) == list(map(id, new))
        del formatted[: len(new)]
    assert formatted == []


class TestCli:
    def test_validate_ok(self, capsys):
        assert cli.main(["validate", str(DENSITY_LIMIT)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_validate_reports_errors(self, tmp_path, capsys):
        doc = yaml.safe_load(open(DENSITY_LIMIT).read())
        del doc["ones"][0]["reaction"]["medium"]
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert cli.main(["validate", str(bad)]) == 64
        assert "non-total" in capsys.readouterr().err

    def test_run_writes_trace_and_exit_code(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli.main(["run", str(DENSITY_LIMIT), "--out", str(out)])
        assert code == 2
        assert out.read_text().startswith("time,")

    def test_run_with_overrides_and_until(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli.main(
            [
                "run",
                str(DENSITY_LIMIT),
                "--out",
                str(out),
                "--set",
                "plant.gas_init=5.0",
                "--set",
                "plant.ne_init=0.1",
                "--until",
                "0.05",
            ]
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 6

    def test_replay_cli_round_trip(self, tmp_path, capsys):
        code = cli.main(["replay", str(DUAL_NTM_EVENTS), str(DUAL_NTM)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("time,evt_ntm21")
        assert "mitigation" in out

    def test_replay_rejects_mismatched_trace(self, tmp_path, capsys):
        code = cli.main(["replay", str(DUAL_NTM_EVENTS), str(DENSITY_LIMIT)])
        assert code == 64

    def test_invalid_schedule_run_exits_64(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("run: {dt: 0.01}\n")
        assert cli.main(["run", str(bad), "--out", str(tmp_path / "x.csv")]) == 64

    def test_unwritable_trace_path_exits_nonzero(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = cli.main(["run", str(DENSITY_LIMIT), "--out", str(missing_dir)])
        assert code == 1
        assert "cannot write trace" in capsys.readouterr().err

    def test_unwritable_replay_path_exits_1(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = cli.main(["replay", str(DUAL_NTM_EVENTS), str(DUAL_NTM), "--out", str(missing_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot write decisions")

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ("ones.x.thresholds=1", "not a list index"),
            ("ones.9.id=foo", "index 9 outside"),
            ("ones.0.thresholds.7=0.2", "index 7 outside"),
            ("run.dt=[", "not valid YAML"),
            # Deeper than Python's recursion limit: the loader builds it, and
            # a diagnostic names it without recursing into it.
            pytest.param(f"run.dt={nested(3000)}", "run.dt: expected a number, got list", id="deep_number"),
            pytest.param(
                f"ones.0.id={nested(3000)}", "ones[0].id: expected a string, got [[[[[[[...]]]]]]]", id="deep_string"
            ),
            pytest.param(
                f"controllers.ff.type={nested(3000)}",
                "error: controllers.ff: unknown controller type [[[[[[[...]]]]]]]",
                id="deep_controller_type",
            ),
            pytest.param(f"run.dt={nested(6000)}", "value nests collections more than 5000 deep", id="too_deep"),
            pytest.param(
                f"run.duration={'9' * 4301}", "value cannot be loaded: Exceeds the limit (4300 digits)", id="huge_int"
            ),
            pytest.param("run.dt=2020-13-45", "value cannot be loaded: month must be in 1..12", id="bad_date"),
            pytest.param("run.dt=0x__", "value cannot be loaded: invalid literal for int()", id="empty_hex"),
        ],
    )
    def test_bad_override_exits_64(self, tmp_path, capsys, assignment, message):
        out = tmp_path / "x.csv"
        code = cli.main(["run", str(DENSITY_LIMIT), "--out", str(out), "--set", assignment])
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_long_override_text_is_echoed_shortened(self, tmp_path, capsys):
        long = "k" * 100_000
        out = tmp_path / "x.csv"
        for assignment in (f"run.dt={nested(6000)}", long, f"{long}.x=1", f"ones.{long}.id=1", f"run.{long}=1"):
            assert cli.main(["run", str(DENSITY_LIMIT), "--out", str(out), "--set", assignment]) == 64
            assert len(capsys.readouterr().err.encode()) < 1024

    @pytest.mark.parametrize(
        "assignment, diagnostic",
        [
            ("controllers.da_power_nor.gain=-4.0", "error: controllers.da_power_nor: field 'gain' must be >= 0"),
            ("controllers.ff.min_request=-0.1", "error: controllers.ff: field 'min_request' must be >= 0"),
        ],
    )
    def test_negative_controller_setting_is_a_diagnostic(self, tmp_path, capsys, assignment, diagnostic):
        out = tmp_path / "x.csv"
        assert cli.main(["run", str(DENSITY_LIMIT), "--out", str(out), "--set", assignment]) == 64
        assert capsys.readouterr().err == diagnostic + "\n"
        assert not out.exists()

        path, value = assignment.split("=")
        doc = yaml.safe_load(DENSITY_LIMIT.read_text())
        set_at(path, float(value))(doc)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert cli.main(["validate", str(bad)]) == 64
        captured = capsys.readouterr()
        assert captured.err == diagnostic + "\n"
        assert captured.out == f"{bad}: 1 error(s), 0 warning(s)\n"

    @pytest.mark.parametrize(
        "assignment",
        [
            "plant.boundary=[[0.0, 0.14], [1.0e-200, 0.14]]",
            "plant.boundary=[[-1.0e+200, 0.1], [1.0e+200, 0.2]]",
            "plant.boundary.0.0=-1e300",
        ],
    )
    def test_degenerate_boundary_segment_exits_64(self, tmp_path, capsys, assignment):
        out = tmp_path / "x.csv"
        assert cli.main(["run", str(DENSITY_LIMIT), "--out", str(out), "--set", assignment]) == 64
        assert capsys.readouterr().err == (
            "error: plant.boundary: a segment's squared length, extended ends included, is not positive and finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run", "replay"])
    def test_schedule_that_is_not_utf8_exits_64(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes(DENSITY_LIMIT.read_text().replace("# ", "# caf\xe9 ", 1).encode("latin-1"))
        argv = {"validate": [str(bad)], "run": [str(bad), "--out", str(tmp_path / "x.csv")]}
        argv["replay"] = [str(DUAL_NTM_EVENTS), str(bad)]
        assert cli.main([command] + argv[command]) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: schedule is not UTF-8 text: ") and err.count("\n") == 1

    def test_trace_that_is_not_utf8_exits_64(self, tmp_path, capsys):
        bad = tmp_path / "events.csv"
        bad.write_bytes(DUAL_NTM_EVENTS.read_bytes() + "0.9,caf\xe9\n".encode("latin-1"))
        assert cli.main(["replay", str(bad), str(DUAL_NTM)]) == 64
        assert capsys.readouterr().err.startswith(f"error: {bad}: trace is not UTF-8 text: ")

    def test_replay_of_non_numeric_time_exits_64(self, tmp_path, capsys):
        lines = DUAL_NTM_EVENTS.read_text().splitlines()
        lines[2] = "soon," + lines[2].split(",", 1)[1]
        bad = tmp_path / "events.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay", str(bad), str(DUAL_NTM)]) == 64
        assert capsys.readouterr().err == f"error: {bad}: bad time 'soon'\n"

    @pytest.mark.parametrize("bad_time", ["nan", "inf"])
    def test_replay_of_non_finite_time_exits_64(self, tmp_path, capsys, bad_time):
        bad = tmp_path / "events.csv"
        bad.write_text(f"time,evt_ntm21,evt_ntm43\n0.0,0,0\n{bad_time},0,0\n0.005,1,0\n")
        assert cli.main(["replay", str(bad), str(DUAL_NTM)]) == 64
        assert capsys.readouterr().err == f"error: {bad}: bad time '{bad_time}'\n"

    def test_over_long_trace_field_exits_64(self, tmp_path, capsys):
        # Longer than the csv module's field limit (131072 characters).
        bad = tmp_path / "events.csv"
        bad.write_text(f"time,evt_ntm21,evt_ntm43\n0.0,{'1' * 200_000},0\n")
        assert cli.main(["replay", str(bad), str(DUAL_NTM)]) == 64
        assert capsys.readouterr().err == (
            f"error: {bad}: trace is not readable CSV: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("command", ["validate", "run", "replay"])
    def test_schedule_nested_past_the_limit_exits_64(self, tmp_path, capsys, command):
        # libyaml's composer would overflow the C stack on this one.
        deep = tmp_path / "deep.yaml"
        deep.write_text(f"run: {nested(30_000)}\n")
        argv = {"validate": [str(deep)], "run": [str(deep), "--out", str(tmp_path / "x.csv")]}
        argv["replay"] = [str(DUAL_NTM_EVENTS), str(deep)]
        assert cli.main([command] + argv[command]) == 64
        assert capsys.readouterr().err == "error: schedule nests collections more than 5000 deep\n"

    @pytest.mark.parametrize("command", ["validate", "run", "replay"])
    def test_integer_past_python_digit_limit_exits_64(self, tmp_path, capsys, command):
        # Python refuses to convert an integer literal of more than 4300 digits.
        bad = tmp_path / "huge.yaml"
        bad.write_text(DUAL_NTM.read_text().replace("priority: 1", "priority: " + "9" * 4301, 1))
        argv = {"validate": [str(bad)], "run": [str(bad), "--out", str(tmp_path / "x.csv")]}
        argv["replay"] = [str(DUAL_NTM_EVENTS), str(bad)]
        assert cli.main([command] + argv[command]) == 64
        assert capsys.readouterr().err == (
            "error: schedule cannot be loaded: Exceeds the limit (4300 digits) for integer string conversion: "
            "value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit\n"
        )

    @pytest.mark.parametrize("cells", ["0.0,{},0", "{},0,0"], ids=["event_level", "time"])
    def test_replay_echoes_a_bad_cell_shortened(self, tmp_path, capsys, cells):
        bad = tmp_path / "events.csv"
        bad.write_text("time,evt_ntm21,evt_ntm43\n" + cells.format("1" * 5000) + "\n")
        assert cli.main(["replay", str(bad), str(DUAL_NTM)]) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: bad ") and "'111111111111...1111111111111'" in err
        assert len(err) < 200

    def test_run_and_replay_refuse_an_invalid_schedule_alike(self, tmp_path, capsys):
        # Every diagnostic, the warnings included, one per line.
        doc = yaml.safe_load(DUAL_NTM.read_text())
        del doc["ones"][0]["reaction"]["medium"]
        doc["ones"][1]["irreversible"] = [4]
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert cli.main(["validate", str(bad)]) == 64
        diagnostics = capsys.readouterr().err
        assert "error: " in diagnostics and "warning: " in diagnostics
        assert cli.main(["run", str(bad), "--out", str(tmp_path / "x.csv")]) == 64
        assert capsys.readouterr().err == diagnostics
        assert cli.main(["replay", str(DUAL_NTM_EVENTS), str(bad)]) == 64
        assert capsys.readouterr().err == diagnostics

    def test_unparseable_yaml_run_exits_64(self, tmp_path, capsys):
        bad = tmp_path / "broken.yaml"
        bad.write_text("run: [1\n")
        assert cli.main(["run", str(bad), "--out", str(tmp_path / "x.csv")]) == 64
        assert "not valid YAML" in capsys.readouterr().err

    def test_run_parses_the_overridden_document_once(self, tmp_path, monkeypatch):
        # The overridden document goes straight to the parser: no dump and reload.
        # yaml.load sees every load: the schedule's, and the override value's.
        loads = []
        real_load = yaml.load
        monkeypatch.setattr(yaml, "load", lambda text, Loader: loads.append(text) or real_load(text, Loader))
        monkeypatch.setattr(yaml, "safe_dump", lambda *a, **k: pytest.fail("schedule was re-dumped"))
        code = cli.main(
            ["run", str(DENSITY_LIMIT), "--out", str(tmp_path / "x.csv"), "--set", "plant.gas_init=5.0"]
        )
        assert code == 2
        assert loads[0] == DENSITY_LIMIT.read_text() and loads[1:] == ["5.0"]

    @pytest.mark.parametrize(
        "argv, sha256, exit_code, rows",
        [
            ([str(DENSITY_LIMIT)], "dc0c6ec7b115e4c0fff1548db5de867600f91dcea7d6cac22ebb589d9b586747", 2, 61),
            (
                [str(DUAL_NTM), "--until", "30"],
                "5aa778d70e9da9d3697e036db8b2c284102f116239f097005e14640616e2b9ad",
                0,
                3000,
            ),
        ],
    )
    def test_shipped_traces_are_pinned(self, tmp_path, argv, sha256, exit_code, rows):
        out = tmp_path / "trace.csv"
        assert cli.main(["run", *argv, "--out", str(out)]) == exit_code
        data = out.read_bytes()
        assert data.count(b"\n") - 1 == rows
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_run_validates_once_and_reports_every_diagnostic(self, tmp_path, monkeypatch, capsys):
        doc = yaml.safe_load(open(DENSITY_LIMIT).read())
        del doc["ones"][0]["reaction"]["medium"]
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert cli.main(["validate", str(bad)]) == 64
        expected = capsys.readouterr().err

        calls = []
        real_validate = cfg.validate
        monkeypatch.setattr(cfg, "validate", lambda ps: calls.append(ps) or real_validate(ps))
        out = tmp_path / "x.csv"
        assert cli.main(["run", str(bad), "--out", str(out)]) == 64
        assert capsys.readouterr().err == expected and "non-total" in expected
        assert not out.exists()
        assert cli.main(["run", str(DENSITY_LIMIT), "--out", str(out)]) == 2
        assert len(calls) == 2

    def test_usage_errors_exit_64_and_help_exits_0(self, capsys):
        # Exit 2 means the plasma disrupted, so a usage error must not exit with it.
        for argv in ([], ["run"], ["run", str(DENSITY_LIMIT), "--until", "abc"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 64
            assert "error: " in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().error("no such option")
        assert exc.value.code == 64
        assert capsys.readouterr().err.endswith("oneguard: error: no such option\n")
        for argv in (["--help"], ["run", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0

    def test_until_past_the_tick_count_exits_64_without_traceback(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "oneguard.cli", "run", str(DENSITY_LIMIT), "--until", "1e308"]
        result = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert result.returncode == 64
        assert "Traceback" not in result.stderr
        assert "error: run.duration: tick count duration / dt must be finite" in result.stderr

    @pytest.mark.parametrize("case", sorted(NAN_COMMAND_OVERRIDES))
    def test_a_nan_command_is_dropped_not_a_traceback(self, case, tmp_path):
        # The NaN is starved and dropped in the actuator round, so it never
        # reaches the plant's own non-finite check.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        out = tmp_path / "trace.csv"
        sets = [arg for value in NAN_COMMAND_OVERRIDES[case] for arg in ("--set", value)]
        argv = [sys.executable, "-m", "oneguard.cli", "run", str(DUAL_NTM), *sets, "--out", str(out)]
        result = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "command violation(s)" in result.stderr and " 0 command violation(s)" not in result.stderr
        assert "nan" not in out.read_text(encoding="utf-8").lower()

    def test_import_does_not_load_numpy(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        probe = "import sys, oneguard.cli; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"
