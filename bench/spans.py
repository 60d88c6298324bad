"""Span recording by wrapping the program's public functions from outside.

``Tracer.install`` replaces each function at the point where
``oneguard.harness``, ``oneguard.cli`` and ``oneguard.config`` look it up
(module attribute or class attribute) with a wrapper that records a span:
name, start, end, parent span and the closed-loop tick it belongs to.
``Tracer.remove`` puts every original back. Nothing in the program changes
and no copy of the control loop exists here.

Spans stay in memory in flat arrays and are written out when the run
ends. Counters (requests, starvation, scenario switches, ...) are taken
by hooks at the same boundaries; each hook runs inside a ``trace.hook``
span of its own so its cost is not charged to the caller's self time.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT_RUN = "cli.run"
ROOT_REPLAY = "cli.replay"
ROOTS = {"run": ROOT_RUN, "replay": ROOT_REPLAY}  # root span of each CLI operation
TICK = "harness.tick"
HOOK = "trace.hook"


def lookup(owner: object, attr: str) -> object:
    """The attribute a patch replaces: a class's own, or a module's."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def self_times(start: Sequence[int], end: Sequence[int], parent: Sequence[int]) -> List[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Child intervals are clipped to the parent and merged where they
    overlap, so a span's self time is never negative and no stretch of
    time is subtracted twice.
    """
    out = [e - s for s, e in zip(start, end)]
    kids: Dict[int, List[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    for p, ks in kids.items():
        lo, hi = start[p], end[p]
        ks.sort(key=start.__getitem__)
        covered = 0
        cur_s = cur_e = None
        for k in ks:
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.tick = array("i")
        self.stack: List[int] = []
        self.tick_id = -1
        self.in_tick = False
        # (counter name, "tick" or "other") -> running total.
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.tick.append(self.tick_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, counter: str, value: float = 1.0) -> None:
        self.counts[(counter, "tick" if self.in_tick else "other")] += value

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None, tick: bool = False) -> Callable:
        nid = self.intern(name)
        hook_nid = self.intern(HOOK)
        names, starts, ends, parents, ticks, stack = (
            self.name, self.start, self.end, self.parent, self.tick, self.stack,
        )
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if tick:
                tracer.tick_id += 1
                tracer.in_tick = True
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ticks.append(tracer.tick_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if tick:
                    tracer.in_tick = False
            if hook is not None:
                h = len(starts)
                names.append(hook_nid)
                parents.append(stack[-1] if stack else -1)
                ticks.append(tracer.tick_id)
                ends.append(0)
                starts.append(clock())
                hook(tracer, args, result)
                ends[h] = clock()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- installing --------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, hook: Optional[Callable] = None, tick: bool = False) -> None:
        original = lookup(owner, attr)
        setattr(owner, attr, self.wrap(original, name, hook, tick))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every boundary the per-layer metrics are built from."""
        import yaml
        from oneguard import config as cfg
        from oneguard import controllers, harness, plant

        self.patch(harness.ControlLoop, "tick", TICK, tick=True)
        self.patch(harness, "monitor_step", "monitor.monitor_step", _hook_monitor)
        self.patch(harness, "supervisor_step", "supervisor.supervisor_step", _hook_supervisor)
        self.patch(harness, "build_runtime", "controllers.build_runtime")
        for cls in _runtime_classes(controllers.TaskRuntime):
            for attr in ("requests", "step"):
                if attr in cls.__dict__:
                    self.patch(cls, attr, f"controllers.{attr}")
        self.patch(controllers.Waveform, "__call__", "controllers.waveform")
        self.patch(harness, "allocate", "allocator.allocate", _hook_allocate)
        self.patch(harness, "merge_commands", "allocator.merge_commands", _hook_merge)
        self.patch(harness, "plant_step", "plant.plant_step")
        self.patch(harness, "plant_signals", "plant.plant_signals")
        self.patch(plant.DisruptionBoundary, "signed_distance", "plant.signed_distance")
        self.patch(harness, "trace_row", "harness.trace_row")
        self.patch(harness, "run", "harness.run", _hook_run)
        self.patch(harness, "replay_file", "harness.replay_file")
        self.patch(harness, "read_trace", "harness.read_trace")
        self.patch(harness, "replay_events", "harness.replay_events")
        self.patch(harness, "replay_to_csv", "harness.replay_to_csv")
        self.patch(cfg, "parse", "config.parse")
        self.patch(cfg, "validate", "config.validate")
        self.patch(cfg, "compile_schedule", "config.compile_schedule")
        self.patch(yaml, "safe_load", "yaml.safe_load")
        self.patch(yaml, "safe_dump", "yaml.safe_dump")

    def remove(self) -> None:
        """Restore every original and check that nothing stays wrapped."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if lookup(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzip-compressed CSV: name,start_ns,end_ns,parent,tick."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("name,start_ns,end_ns,parent,tick\n")
            names = self.names
            for n, s, e, p, t in zip(self.name, self.start, self.end, self.parent, self.tick):
                fh.write(f"{names[n]},{s},{e},{p},{t}\n")


def _runtime_classes(base: type) -> List[type]:
    out, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop(0)
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


# -- counter hooks: (tracer, call args, result) -------------------------------

def _hook_monitor(tr: Tracer, args, result) -> None:
    previous = args[2]
    events, faults = result
    changed = 0
    for one_id, ev in events.items():
        prev = previous.get(one_id)
        if (prev.level if prev is not None else 0) != ev.level:
            changed += 1
    tr.count("monitor.events", changed)
    tr.count("monitor.faults", len(faults))


def _hook_supervisor(tr: Tracer, args, result) -> None:
    state, config = args[1], args[2]
    scenario_id, _tasks, _dangers, reactions, _state = result
    if scenario_id != state.scenario_id:
        tr.count("supervisor.scenario_switches")
    combo = tuple(reactions[i] for i in config.one_ids)
    if combo not in config.os_mapping.rows and any(combo):
        tr.count("supervisor.fallback_selects")


def _hook_allocate(tr: Tracer, args, result) -> None:
    requests = args[0]
    tr.count("allocator.requests", len(requests))
    tr.count("allocator.requested", sum(r.amount for r in requests))
    tr.count("allocator.granted", sum(v for g in result.grants.values() for v in g.values()))
    tr.count("allocator.starved", len(result.starved))


def _hook_merge(tr: Tracer, args, result) -> None:
    tr.count("allocator.violations", len(result[1]))


def _hook_run(tr: Tracer, args, result) -> None:
    tr.count("harness.trace_bytes", len(result.trace_text.encode("utf-8")))
    tr.count("harness.rows", result.rows)


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(tr: Tracer, op_root: str = ROOT_RUN) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics from the recorded spans, plus a tick accounting check.

    Returns ``(metrics, accounting)``. Times are self times. Tick stages
    are divided by the number of closed-loop ticks, replay costs by
    replayed rows, and config and CLI costs by the number of operations
    under ``op_root``: the root span of the workload's measured operation
    (``run`` discharges, or ``replay`` invocations).
    """
    names = tr.names
    self_ns = self_times(tr.start, tr.end, tr.parent)
    n = len(self_ns)
    root = [0] * n  # name id of the root span
    in_tick = [False] * n
    tick_nid = tr._ids.get(TICK, -1)
    # key (name, root name, inside a tick, parent name) -> [self ns, count]
    acc: Dict[Tuple[str, str, bool, str], List[float]] = defaultdict(lambda: [0.0, 0])
    tick_span_ns = 0
    for i in range(n):
        p = tr.parent[i]
        nid = tr.name[i]
        if p < 0:
            root[i] = nid
            in_tick[i] = nid == tick_nid
            pname = ""
        else:
            root[i] = root[p]
            in_tick[i] = in_tick[p] or nid == tick_nid
            pname = names[tr.name[p]]
        if nid == tick_nid:
            tick_span_ns += tr.end[i] - tr.start[i]
        a = acc[(names[nid], names[root[i]], in_tick[i], pname)]
        a[0] += self_ns[i]
        a[1] += 1

    def total(name=None, root_name=None, tick=None, parent=None, count=False) -> float:
        idx = 1 if count else 0
        return sum(
            v[idx]
            for (nm, rt, tk, pn), v in acc.items()
            if (name is None or nm in name)
            and (root_name is None or rt == root_name)
            and (tick is None or tk == tick)
            and (parent is None or pn in parent)
        )

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def counter(name: str, ctx: str = "tick") -> float:
        return tr.counts.get((name, ctx), 0.0)

    discharges = total({ROOT_RUN}, count=True)
    ops = total({op_root}, count=True)
    ticks = total({TICK}, root_name=ROOT_RUN, count=True)
    replay_rows = total({"supervisor.supervisor_step"}, root_name=ROOT_REPLAY, count=True)
    us, ms = 1e-3, 1e-6

    def per_tick_us(name: str, **kw) -> float:
        return ratio(total({name}, root_name=ROOT_RUN, **kw), ticks) * us

    def per_op_ms(names_: set, **kw) -> float:
        return ratio(total(names_, root_name=op_root, **kw), ops) * ms

    m = {
        "config.yaml_load_ms": per_op_ms({"yaml.safe_load"}, parent={"config.parse"}),
        "config.parse_ms": per_op_ms({"config.parse"}),
        "config.validate_ms": per_op_ms({"config.validate"}),
        "config.compile_ms": per_op_ms({"config.compile_schedule"}),
        "config.validate_calls": ratio(total({"config.validate"}, root_name=op_root, count=True), ops),
        "cli.yaml_roundtrip_ms": per_op_ms({"yaml.safe_load", "yaml.safe_dump"}, parent={op_root}),
        "cli.self_ms": per_op_ms({op_root}),
        "monitor.step_us": per_tick_us("monitor.monitor_step", tick=True),
        "monitor.events": ratio(counter("monitor.events"), ticks),
        "monitor.faults": ratio(counter("monitor.faults"), ticks),
        "supervisor.step_us": per_tick_us("supervisor.supervisor_step", tick=True),
        "supervisor.scenario_switches": ratio(counter("supervisor.scenario_switches"), ticks),
        "supervisor.fallback_selects": ratio(counter("supervisor.fallback_selects"), ticks),
        "supervisor.replay_step_us": ratio(
            total({"supervisor.supervisor_step"}, root_name=ROOT_REPLAY), replay_rows) * us,
        "controllers.requests_us": per_tick_us("controllers.requests", tick=True),
        "controllers.step_us": per_tick_us("controllers.step", tick=True),
        "controllers.build_us": per_tick_us("controllers.build_runtime", tick=True),
        "controllers.task_steps": ratio(total({"controllers.step"}, root_name=ROOT_RUN, count=True), ticks),
        "controllers.runtime_builds": ratio(
            total({"controllers.build_runtime"}, root_name=ROOT_RUN, count=True), ticks),
        "controllers.waveform_us": per_tick_us("controllers.waveform"),
        "controllers.waveform_calls": ratio(
            total({"controllers.waveform"}, root_name=ROOT_RUN, count=True), ticks),
        "allocator.allocate_us": per_tick_us("allocator.allocate", tick=True),
        "allocator.merge_us": per_tick_us("allocator.merge_commands", tick=True),
        "allocator.requests": ratio(counter("allocator.requests"), ticks),
        "allocator.grant_ratio": ratio(counter("allocator.granted"), counter("allocator.requested")),
        "allocator.starved": ratio(counter("allocator.starved"), ticks),
        "allocator.violations": ratio(counter("allocator.violations"), ticks),
        "plant.step_us": per_tick_us("plant.plant_step"),
        "plant.signals_us": per_tick_us("plant.plant_signals"),
        "plant.boundary_us": per_tick_us("plant.signed_distance"),
        "plant.boundary_evals": ratio(
            total({"plant.signed_distance"}, root_name=ROOT_RUN, count=True), ticks),
        "harness.tick_self_us": per_tick_us(TICK),
        "harness.trace_row_us": per_tick_us("harness.trace_row"),
        "harness.run_self_us": per_tick_us("harness.run"),
        "harness.trace_bytes": ratio(counter("harness.trace_bytes", "other"), counter("harness.rows", "other")),
        "harness.read_trace_ms": ratio(
            total({"harness.read_trace"}, root_name=ROOT_REPLAY),
            total({"harness.read_trace"}, root_name=ROOT_REPLAY, count=True)) * ms,
        "harness.replay_self_us": ratio(
            total({"harness.replay_file", "harness.replay_events"}, root_name=ROOT_REPLAY), replay_rows) * us,
        "harness.replay_csv_us": ratio(total({"harness.replay_to_csv"}, root_name=ROOT_REPLAY), replay_rows) * us,
    }
    # The self times of every span inside a tick add up to the tick spans.
    stages = {
        "monitor": m["monitor.step_us"],
        "supervisor": m["supervisor.step_us"],
        "controllers.requests": m["controllers.requests_us"],
        "controllers.step": m["controllers.step_us"],
        "controllers.build": m["controllers.build_us"],
        "controllers.waveform(in tick)": per_tick_us("controllers.waveform", tick=True),
        "allocator.allocate": m["allocator.allocate_us"],
        "allocator.merge": m["allocator.merge_us"],
        "trace.hook": per_tick_us(HOOK, tick=True),
        "harness.tick_self": m["harness.tick_self_us"],
    }
    accounting = dict(stages)
    accounting["sum_us"] = sum(stages.values())
    accounting["tick_span_us"] = ratio(tick_span_ns, ticks) * us
    accounting["ticks"] = ticks
    accounting["discharges"] = discharges
    accounting["replay_rows"] = replay_rows
    accounting["spans"] = n
    return m, accounting
