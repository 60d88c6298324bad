#!/usr/bin/env python3
"""oneguard benchmark: cold path, tick latency and per-stage cost.

Run one workload (what an automated runner calls)::

    python3 bench/run.py --workload dual_ntm_long --seed 1 --seconds 30 --trace 0

prints a human-readable report and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` measures
the end-to-end metrics with no tracing; ``--trace 1`` is a separate run
that wraps the program's functions and reports the per-layer metrics.

Run every workload, untraced then traced, one process at a time::

    python3 bench/run.py --all

Workload names, metric names, units and ``run_seconds`` are read from
``BENCHMARK.json`` at the repository root, their only definition.

The program is imported from ``src/`` next to this directory and is
driven only through ``oneguard.cli.main``, exactly as a user runs it.
See ``bench/README.md`` for the metrics, workloads and known limits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import spans
import wide

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEDULES = ROOT / "schedules"
OUT = HERE / "out"

DEFINITION = ROOT / "BENCHMARK.json"
WIDE_PINS = HERE / "wide_pins.json"

# Trace bytes of the shipped schedules: sha256, exit code, rows.
PINNED = {
    "density_limit": ("dc0c6ec7b115e4c0fff1548db5de867600f91dcea7d6cac22ebb589d9b586747", 2, 61),
    "dual_ntm_30": ("5aa778d70e9da9d3697e036db8b2c284102f116239f097005e14640616e2b9ad", 0, 3000),
}
# Shipped-schedule workloads: schedule file, pinned trace, extra CLI arguments.
SHIPPED = {
    "dual_ntm_long": ("dual_ntm.yaml", "dual_ntm_30", ["--until", "30"]),
    "density_limit_cold": ("density_limit.yaml", "density_limit", []),
}
# The generated wide schedule ends latched in its shutdown scenario after
# 2000 ticks. Its schedule text and trace are pinned in WIDE_PINS for
# generator seeds 0 .. WIDE_SEEDS-1; a run's --seed picks one of them.
WIDE_EXIT = 3
WIDE_ROWS = 2000
WIDE_SEEDS = 64

IMPORT_STARTS = 11  # fresh interpreters per import_s measurement
TICK_BLOCK = 1000  # ticks per block: a block's p99 has 10 ticks beyond it
SETUP_MIN_BATCHES = 5
SETUP_BATCH_S = 0.25  # set-ups are repeated in batches at least this long
SETUP_SHARE = 0.25  # of the measured window spent repeating the set-up


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One CLI invocation and what its output must be."""

    kind: str  # "run" or "replay"
    argv: List[str]
    out: Path
    exit_code: int
    sha256: Optional[str] = None  # run: trace bytes
    rows: Optional[int] = None
    expected: Optional[bytes] = None  # replay: decision columns


@dataclass
class Workload:
    name: str
    setup_text: str  # schedule text for setup_s
    op: Op  # the ``run`` operation repeated in the measured window
    info: Dict[str, object] = field(default_factory=dict)
    warm: bool = False  # prepare already ran ``op`` once


@dataclass
class Outcome:
    ok: bool
    seconds: Optional[float]  # None when ``cli.main`` raised
    error: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def add(self, outcome: Outcome) -> Outcome:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(outcome.error)
        return outcome


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decision_columns(trace: bytes) -> bytes:
    """The columns ``replay`` must reproduce, cut from a run's trace.

    Written with the csv module alone, independently of the program's
    replay code: time, then evt/dng/rct per event, then scenario and tasks.
    """
    reader = csv.reader(io.StringIO(trace.decode("utf-8"), newline=""))
    header = next(reader)
    keep = [
        i for i, c in enumerate(header)
        if c in ("time", "scenario", "tasks") or c.startswith(("evt_", "dng_", "rct_"))
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([header[i] for i in keep])
    for row in reader:
        writer.writerow([row[i] for i in keep])
    return buf.getvalue().encode("utf-8")


def run_op(op: Op, main: Optional[Callable[[List[str]], int]] = None) -> Outcome:
    """Invoke the CLI in-process and check its exit code and output bytes.

    ``main`` stands in for ``cli.main`` (a traced run passes it wrapped in
    its root span), so only the program's own call is timed or spanned,
    never the checks that follow it.
    """
    from oneguard import cli

    main = main or cli.main
    if op.out.exists():
        op.out.unlink()
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = main(op.argv)
            seconds = time.perf_counter() - t0
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return Outcome(False, None, f"{type(exc).__name__}: {exc}")
    if code != op.exit_code:
        return Outcome(False, seconds, f"exit {code}, expected {op.exit_code}: {err.getvalue().strip()[-200:]}")
    try:
        data = op.out.read_bytes()
    except OSError as exc:
        return Outcome(False, seconds, f"no output: {exc}")
    if op.kind == "run":
        if op.sha256 is not None and sha256(data) != op.sha256:
            return Outcome(False, seconds, f"trace sha256 {sha256(data)}, expected {op.sha256}")
        rows = data.count(b"\n") - 1
        if op.rows is not None and rows != op.rows:
            return Outcome(False, seconds, f"{rows} rows, expected {op.rows}")
    elif data != op.expected:
        return Outcome(False, seconds, "replay does not reproduce the trace's decision columns")
    return Outcome(True, seconds)


def load_wide_pins() -> Dict[int, Tuple[str, str]]:
    """Generator seed -> (schedule text sha256, trace sha256)."""
    pins = json.loads(WIDE_PINS.read_text(encoding="utf-8"))
    return {int(seed): (pin["schedule_sha256"], pin["trace_sha256"]) for seed, pin in pins.items()}


def _wide_reference(seed: int, work: Path, tally: Tally) -> Tuple[str, Op, Dict[str, object]]:
    """Generate the pinned wide schedule and run it once, as a checked operation.

    Returns the schedule text, the ``run`` operation with its pinned
    trace, and the shape and selection paths for the report. Raises
    BenchError if the generator no longer gives the pinned text (a fault
    of the benchmark, not of the program).
    """
    gen_seed = seed % WIDE_SEEDS
    schedule_digest, trace_digest = load_wide_pins()[gen_seed]
    text, shape = wide.generate(gen_seed)
    if sha256(text.encode("utf-8")) != schedule_digest:
        raise BenchError(f"wide schedule for generator seed {gen_seed} does not match its pinned sha256")
    schedule = work / f"wide_s{gen_seed}.yaml"
    schedule.write_text(text, encoding="utf-8")
    out = work / "trace.csv"
    op = Op("run", ["run", str(schedule), "--out", str(out)], out, WIDE_EXIT, trace_digest, WIDE_ROWS)
    tally.add(run_op(op))
    data = out.read_bytes() if out.exists() else b""
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))
    info = {"generator_seed": gen_seed, "shape": shape, "selection_paths": wide.selection_paths(text, rows),
            "pinned_sha256": trace_digest}
    return text, op, info


def prepare(name: str, seed: int, work: Path, tally: Tally) -> Workload:
    """Build the workload's inputs from the seed (shipped ones ignore it)."""
    if name in SHIPPED:
        filename, pinned, extra = SHIPPED[name]
        schedule = SCHEDULES / filename
        digest, code, rows = PINNED[pinned]
        out = work / "trace.csv"
        op = Op("run", ["run", str(schedule), *extra, "--out", str(out)], out, code, digest, rows)
        return Workload(name, schedule.read_text(encoding="utf-8"), op, {"pinned_sha256": digest})
    if name != "wide_switching":
        raise BenchError(f"no workload named {name!r}")
    text, op, info = _wide_reference(seed, work, tally)
    return Workload(name, text, op, info, warm=True)


def replay_check(op: Op) -> Op:
    """The gate's last operation: replay the trace ``op`` just wrote against its schedule."""
    out = op.out.with_name("replay.csv")
    expected = decision_columns(op.out.read_bytes()) if op.out.exists() else b""
    return Op("replay", ["replay", str(op.out), op.argv[1], "--out", str(out)], out, 0, expected=expected)


# ---------------------------------------------------------------------------
# Measurements.
# ---------------------------------------------------------------------------

def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile; needs at least 10 samples beyond it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < 10:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has only {beyond} beyond it (needs 10)")
    return ordered[rank - 1]


def midmean(values: List[float]) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean).

    The machine alternates fast and slow spells. A median jumps between
    the two whenever their shares are near even, and a mean follows every
    burst; the mean of the middle half moves smoothly with the shares and
    ignores the bursts. With fewer than four values it is their median.
    """
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    if len(ordered) < 4:
        return statistics.median(ordered)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def block_percentiles(samples: List[float], qs: Tuple[float, ...]) -> List[float]:
    """Each percentile taken within consecutive blocks of TICK_BLOCK samples, midmean over the blocks.

    A percentile pooled over a whole run jumps between the machine's fast
    and slow spells, and one burst of slow ticks moves a pooled tail;
    per-block percentiles averaged over their middle half move smoothly
    with the spells' shares instead. A trailing partial block is left out.
    """
    blocks = [samples[i:i + TICK_BLOCK] for i in range(0, len(samples) - TICK_BLOCK + 1, TICK_BLOCK)]
    if not blocks:
        raise ValueError(f"{len(samples)} samples, fewer than one block of {TICK_BLOCK}")
    return [midmean([percentile(b, q) for b in blocks]) for q in qs]


def setup_batch(text: str) -> Tuple[float, float]:
    """Schedule text to a CompiledSchedule, repeated for SETUP_BATCH_S at least.

    Returns ``(mean seconds per set-up, batch seconds)``. A set-up that
    takes longer than a batch (the wide schedule's) is a batch of its own.
    """
    from oneguard import config as cfg

    reps = 0
    t0 = time.perf_counter()
    while True:
        ps = cfg.parse(text)
        cfg.validate(ps)
        cfg.compile_schedule(ps)
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_BATCH_S:
            return elapsed / reps, elapsed


def import_once() -> float:
    """Seconds to ``import oneguard.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import oneguard.cli; print(repr(time.perf_counter() - t))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], cwd=str(ROOT), capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise BenchError(f"import oneguard.cli failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Probe:
    """Timestamp pairs around the tick and around each whole run.

    The only probes of an untraced run: per-tick latency comes from
    ``ControlLoop.tick``, throughput from ``harness.run``.
    """

    def __init__(self) -> None:
        from oneguard import harness

        self.samples_ns: List[int] = []
        self.sizes: List[int] = []  # ticks of each run
        self.durations_ns: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        clock = time.perf_counter_ns
        samples, sizes, durations = self.samples_ns, self.sizes, self.durations_ns

        def timed(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                samples.append(clock() - t0)
                return result
            return wrapper

        def counted(fn, size):
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                durations.append(clock() - t0)
                sizes.append(size(result))
                return result
            return wrapper

        self._patch(harness.ControlLoop, "tick", timed(harness.ControlLoop.tick))
        self._patch(harness, "run", counted(harness.run, lambda r: r.rows))

    def _patch(self, owner, attr, fn) -> None:
        self._restore.append((owner, attr, spans.lookup(owner, attr)))
        setattr(owner, attr, fn)

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def machine_info() -> Dict[str, object]:
    import numpy
    import yaml

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
    }


def window(op: Op, seconds: float, tally: Tally, between: Optional[Callable[[float], None]] = None) -> List[float]:
    """Repeat ``op`` until ``seconds`` have passed (at least once).

    Returns the wall time of every operation that returned, whether or
    not it passed its check: a failure is counted in ``tally`` and the
    run still reports its metrics. ``between(elapsed)`` runs after each
    operation, untimed.
    """
    times: List[float] = []
    start = time.perf_counter()
    while True:
        outcome = tally.add(run_op(op))
        if outcome.seconds is not None:
            times.append(outcome.seconds)
        if between is not None:
            between(time.perf_counter() - start)
        if time.perf_counter() - start >= seconds:
            return times


def end_to_end(w: Workload, seconds: float, tally: Tally, detail: Dict[str, object]) -> Dict[str, float]:
    """Operations, set-up repeats and interpreter starts, interleaved.

    The machine's speed drifts with other tenants' load, so every metric
    is sampled across the whole window rather than in a burst of its own,
    and each is the midmean of its samples (``setup_s`` the median).
    """
    if not w.warm:
        tally.add(run_op(w.op))  # warm-up: lazy imports, file cache
    setup: List[float] = []
    setup_spent = [0.0]
    imports: List[float] = []

    def add_setup() -> None:
        mean, spent = setup_batch(w.setup_text)
        setup.append(mean)
        setup_spent[0] += spent

    def between(elapsed: float) -> None:
        if setup_spent[0] < SETUP_SHARE * elapsed:
            add_setup()
        if len(imports) < IMPORT_STARTS and elapsed >= (len(imports) + 0.5) * seconds / IMPORT_STARTS:
            imports.append(import_once())

    probe = Probe()
    try:
        op_times = window(w.op, seconds, tally, between)
    finally:
        probe.remove()
    while len(setup) < SETUP_MIN_BATCHES:
        add_setup()
    while len(imports) < IMPORT_STARTS:
        imports.append(import_once())
    tally.add(run_op(replay_check(w.op)))
    if not op_times or not probe.sizes:
        raise BenchError(f"{w.name}: every operation raised: {tally.errors}")
    ticks_us = [ns / 1e3 for ns in probe.samples_ns]
    try:
        (p50,) = block_percentiles(ticks_us, (50,))
    except ValueError as exc:
        raise BenchError(f"{w.name}: {exc}; run longer") from None
    detail.update(
        setup_s=setup, import_s=imports, op_s=op_times, ops=len(op_times), tick_samples=len(ticks_us),
        tick_us_max=max(ticks_us),
    )
    return {
        "setup_s": statistics.median(setup),
        "import_s": midmean(imports),
        "discharges_per_s": 1.0 / midmean(op_times),
        "ticks_per_s": midmean([size / (ns * 1e-9) for size, ns in zip(probe.sizes, probe.durations_ns)]),
        "tick_us_p50": p50,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(
    w: Workload, seconds: float, tally: Tally, detail: Dict[str, object], spans_path: Path
) -> Dict[str, float]:
    """Alternate untraced and traced operations; metrics from the traced ones.

    ``tick_us_p99`` comes from the untraced operations: on a shared machine
    the tail does not repeat within the end-to-end bounds, so it is
    reported here rather than gated on.
    """
    from oneguard import cli

    tracer = spans.Tracer()
    untraced: List[float] = []
    traced: List[float] = []
    ticks_ns: List[int] = []

    def untraced_op(op: Op) -> Outcome:
        probe = Probe()
        try:
            return run_op(op)
        finally:
            probe.remove()
            ticks_ns.extend(probe.samples_ns)

    def traced_op(op: Op) -> Outcome:
        tracer.install()
        try:
            return run_op(op, tracer.wrap(cli.main, spans.ROOTS[op.kind]))
        finally:
            tracer.remove()

    if not w.warm:
        tally.add(run_op(w.op))  # warm-up
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        is_traced = i % 2 == 1
        outcome = tally.add(traced_op(w.op) if is_traced else untraced_op(w.op))
        if outcome.seconds is not None:
            (traced if is_traced else untraced).append(outcome.seconds)
        i += 1
    tally.add(traced_op(replay_check(w.op)))
    if tracer.installed:
        raise BenchError("tracer wrappers were not removed")
    if not untraced or not traced:
        raise BenchError(f"{w.name}: every operation raised: {tally.errors}")
    metrics, accounting = spans.layer_metrics(tracer)
    try:
        (metrics["tick_us_p99"],) = block_percentiles([ns / 1e3 for ns in ticks_ns], (99,))
    except ValueError as exc:
        raise BenchError(f"{w.name}: {exc}; run longer") from None
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["failed_frac"] = tally.failed / tally.attempted
    tracer.write(spans_path)
    detail.update(tick_accounting=accounting, untraced_ops=len(untraced), traced_ops=len(traced),
                  spans_file=str(spans_path.relative_to(ROOT)))
    return metrics


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def load_program() -> None:
    if not (SRC / "oneguard" / "cli.py").is_file() or not SCHEDULES.is_dir():
        raise BenchError(f"program sources not found: expected {SRC}/oneguard and {SCHEDULES}")
    sys.path.insert(0, str(SRC))


def load_definition() -> Dict[str, object]:
    """``BENCHMARK.json``: the workloads, the metrics with their units, ``run_seconds``."""
    try:
        return json.loads(DEFINITION.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {DEFINITION.name}: {exc}") from None


def run_workload(
    definition: Dict[str, object], name: str, seed: int, seconds: float, trace: bool
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Measure one workload; returns the result line and the details for the report."""
    workloads = [wl["name"] for wl in definition["workloads"]]
    if name not in workloads:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(workloads)}")
    load_program()
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    detail: Dict[str, object] = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        w = prepare(name, seed, work, tally)
        detail.update(w.info)
        if trace:
            spans_path = OUT / f"spans-{name}-s{seed}.csv.gz"
            values = per_layer(w, seconds, tally, detail, spans_path)
        else:
            values = end_to_end(w, seconds, tally, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in definition["per_layer" if trace else "end_to_end"]}
    detail.update(machine=machine_info(), errors=tally.errors)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    return result, detail


def report(result: Dict[str, object], detail: Dict[str, object]) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  seconds {detail['seconds']}  trace {detail['trace']}")
    if "shape" in detail:
        print(f"  generator seed {detail['generator_seed']} (pinned trace {detail['pinned_sha256'][:12]}...)")
        print(f"  shape {json.dumps(detail['shape'])}")
        print(f"  selection paths {json.dumps(detail['selection_paths'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:>14.6g} {m['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}"
          f" (failed_frac {result['failed'] / max(result['attempted'], 1):.3g} of {result['attempted']})")
    for key in ("tick_samples", "ops", "untraced_ops", "traced_ops"):
        if key in detail:
            print(f"  {key} {detail[key]}")
    if "tick_accounting" in detail:
        acc = detail["tick_accounting"]
        print(f"  tick accounting: stage self times sum to {acc['sum_us']:.2f} us, "
              f"tick span {acc['tick_span_us']:.2f} us over {acc['ticks']} ticks")
    for err in detail.get("errors", []):
        print(f"  error: {err}")


def run_all(definition: Dict[str, object], seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in (wl["name"] for wl in definition["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    args = parser.parse_args(argv)
    try:
        definition = load_definition()
        seconds = definition["run_seconds"] if args.seconds is None else args.seconds
        if args.all:
            return run_all(definition, args.seed, seconds)
        if args.workload is None:
            parser.error("--workload or --all is required")
        result, detail = run_workload(definition, args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=2) + "\n",
                                            encoding="utf-8")
    report(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
