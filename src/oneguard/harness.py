"""Fixed-period control loop, trace recording and supervisor replay.

Loop contract for one tick: the monitor reads the current plant snapshot,
the supervisor turns the event vector into a scenario and an active task
list, the actuator manager allocates the pending resource requests, the
controllers spend their grants and post requests for the next tick, and
the merged commands drive the plant into the next tick (one tick of
actuation delay). Every stage is a pure function, so a run is a
deterministic map from the schedule to the trace bytes.
"""

from __future__ import annotations

import csv
import io
import math
import reprlib
from operator import attrgetter
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .allocator import ActuatorCommand, GroupTable, allocate, merge_commands
from .config import CompiledSchedule
from .controllers import StepContext, TaskRuntime, build_runtime
from .errors import TraceError
from .model import NO_GRANTS, EventState, Record, ResourceRequest, ScenarioType
from .monitor import monitor_step
from .plant import PlantState, initial_state, plant_signals, plant_step
from .supervisor import SupervisorState, supervisor_step

EXIT_CLEAN = 0
EXIT_DISRUPTED = 2
EXIT_SHUTDOWN = 3
EXIT_CONFIG = 64

_SHUTDOWN_TYPES = (ScenarioType.SOFT_SHUTDOWN, ScenarioType.DISRUPTION_MITIGATION)


class TickRecord(Record):
    """Everything one tick decided, for the trace; ``cells`` holds the ``ControlLoop.cells`` of its decision."""

    __slots__ = ("time", "signals", "cells", "group_grants", "commands", "faults", "violations")

    def __init__(
        self, time: float, signals: Mapping[str, float], cells: Tuple[str, ...], group_grants: Mapping[str, float],
        commands: Mapping[str, float], faults: List[Tuple[str, str]], violations: List[Tuple[str, str, str]],
    ) -> None:
        self.time = time
        self.signals = signals
        self.cells = cells
        self.group_grants = group_grants
        self.commands = commands
        self.faults = faults
        self.violations = violations


class ControlLoop:
    """Monitor -> supervisor -> allocator -> controllers, one tick at a time.

    Owns all cross-tick state (previous event states and their levels, the
    supervisor state with its last decision, controller runtimes, pending
    requests, last merged commands). The plant stays outside so the same
    loop drives live runs and fuzzed signal traces; ``replay`` drives its
    ``decide`` alone. Only on a new decision are its trace ``cells``
    formatted and its tasks bound to their runtimes (``bound``:
    ``(task_id, runtime)`` pairs in priority order). A task that left loses
    its runtime and pending requests; a new one gets its runtime built and
    its dry-run requests queued, so ``pending`` holds the bound tasks.
    """

    def __init__(self, schedule: CompiledSchedule):
        self.schedule = schedule
        self.table = GroupTable(schedule.groups)
        self.events: Dict[str, EventState] = {}
        self.levels: Tuple[int, ...] = ()
        self.sup_state = SupervisorState.initial(schedule.supervisor)
        self.pending: Dict[str, Sequence[ResourceRequest]] = {}
        self.prev_commands: Dict[str, float] = {gid: 0.0 for gid in schedule.groups}
        self.cells: Tuple[str, ...] = ()
        self.bound: Tuple[Tuple[str, TaskRuntime], ...] = ()

    def decide(self, levels: Tuple[int, ...], time: float) -> bool:
        """Step the supervisor. On a new decision, format ``cells`` (evt, dng, rct per event, scenario, tasks)."""
        config = self.schedule.supervisor
        state = supervisor_step(levels, self.sup_state, config, time)[4]
        if state is self.sup_state:
            return False
        self.sup_state = state
        cells: List[str] = []
        for one_id, level in zip(config.one_ids, state.levels):
            cells += (str(level), state.dangers[one_id].label, str(state.reactions[one_id]))
        self.cells = (*cells, state.scenario_id, ";".join([t.id for t in state.tasks]))
        return True

    def tick(self, signals: Mapping[str, float], time: float, dt: float) -> TickRecord:
        cs = self.schedule
        # Both per-tick records are built positionally: a keyword call builds a dict.
        ctx = StepContext(time, dt, signals, self.prev_commands)
        events, faults = monitor_step(signals, cs.monitor, self.events)
        if events is not self.events:
            self.events, self.levels = events, tuple([events[one_id].level for one_id in cs.supervisor.one_ids])
        pending = self.pending
        if self.decide(self.levels, time):
            runtimes = dict(self.bound)
            self.bound = tuple(
                (t.id, runtimes.get(t.id) or build_runtime(t, cs.controllers[t.controller], cs.groups))
                for t in self.sup_state.tasks
            )
            # In bound order, which each step keeps: a kept task serves what it posted, a new one its dry run.
            self.pending = pending = {i: pending[i] if i in runtimes else r.requests(ctx) for i, r in self.bound}
        requests: List[ResourceRequest] = []
        for queued in pending.values():
            requests.extend(queued)

        allocation = allocate(requests, self.table)

        outputs: List[Tuple[str, ActuatorCommand]] = []
        grants = allocation.grants
        for task_id, runtime in self.bound:
            issued, pending[task_id] = runtime.step(ctx, grants.get(task_id, NO_GRANTS))
            for cmd in issued:
                outputs.append((task_id, cmd))

        commands, violations = merge_commands(outputs, allocation, self.table)
        self.prev_commands = commands
        return TickRecord(time, signals, self.cells, allocation.totals, commands, faults, violations)


# ---------------------------------------------------------------------------
# Trace format.
# ---------------------------------------------------------------------------

#: The plant's float columns, named as its state's fields; the "disrupted" flag follows them.
_PLANT_FLOATS = ("h98y2", "ne_edge_norm", "w_mj", "nbi_power", "nbi_energy", "gas_flux")
_plant_floats = attrgetter(*_PLANT_FLOATS)


def trace_header(schedule: CompiledSchedule) -> List[str]:
    cols = ["time"]
    for one_id in schedule.one_ids:
        cols += [f"sig_{one_id}", f"evt_{one_id}", f"dng_{one_id}", f"rct_{one_id}"]
    cols += ["scenario", "tasks"]
    for gid in schedule.groups:
        cols += [f"grant_{gid}", f"cmd_{gid}"]
    return cols + [*_PLANT_FLOATS, "disrupted"]


def trace_row(schedule: CompiledSchedule, record: TickRecord, plant: PlantState) -> List[str]:
    row = [repr(record.time)]
    signals, cells = record.signals, record.cells
    for k, signal_name in enumerate(schedule.event_signals.values()):
        value = signals.get(signal_name)
        row.append("" if value is None else repr(value))
        row += cells[3 * k : 3 * k + 3]
    row += cells[-2:]
    for gid in schedule.groups:
        row.append(repr(record.group_grants[gid]))
        row.append(repr(record.commands[gid]))
    row += map(repr, _plant_floats(plant))
    row.append("1" if plant.disrupted else "0")
    return row


def read_trace(path, columns: Sequence[str]) -> Tuple[List[str], List[List[str]]]:
    """Load a trace file as (header, rows).

    Each row keeps only the cells of those ``columns`` the header has, in
    the order given; a name the header repeats reads its last column.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise TraceError(f"{path}: empty trace file") from None
            index = {name: i for i, name in enumerate(header)}
            keep = [index[name] for name in columns if name in index]
            rows = []
            for line in reader:
                if len(line) != len(header):
                    raise TraceError(f"{path}: row width {len(line)} != header width {len(header)}")
                rows.append([line[i] for i in keep])
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: trace is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise TraceError(f"{path}: trace is not readable CSV: {exc}") from None
    return header, rows


# ---------------------------------------------------------------------------
# Full closed-loop run.
# ---------------------------------------------------------------------------

class RunResult(NamedTuple):
    exit_code: int
    trace_text: str
    rows: int
    final_scenario: str
    violations: int
    faults: int


def run(schedule: CompiledSchedule) -> RunResult:
    """Execute the closed loop for the configured duration.

    Stops early when the plant disrupts, after rolling the loop for the
    configured post-roll so the trace shows the frozen state. The exit
    code distinguishes clean completion, disruption and a discharge that
    ended inside a shutdown-type scenario.
    """
    cs = schedule
    dt = cs.run.dt
    n_ticks = int(round(cs.run.duration / dt))
    post_roll_ticks = int(round(cs.run.post_roll / dt))

    loop = ControlLoop(cs)
    plant = initial_state(cs.plant)
    loop.prev_commands[cs.plant.gas_group] = cs.plant.gas_init

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(trace_header(cs))

    rows = 0
    violations = 0
    faults = 0
    ticks_after_disruption = 0

    for k in range(n_ticks):
        if plant.disrupted:
            ticks_after_disruption += 1
            if ticks_after_disruption > post_roll_ticks:
                break
        t = k * dt
        signals = plant_signals(plant, cs.plant)
        for name, wf in cs.scripted.items():
            signals[name] = wf(t)
        record = loop.tick(signals, t, dt)
        writer.writerow(trace_row(cs, record, plant))
        rows += 1
        violations += len(record.violations)
        faults += len(record.faults)

        plant = plant_step(
            plant,
            cs.plant,
            p_nbi=record.commands.get(cs.plant.nbi_group, 0.0),
            gas_flux=record.commands.get(cs.plant.gas_group, 0.0),
            dt=dt,
        )

    final_scenario = loop.sup_state.scenario_id
    scenario_type = cs.supervisor.scenarios[final_scenario].type
    if plant.disrupted:
        exit_code = EXIT_DISRUPTED
    elif scenario_type in _SHUTDOWN_TYPES:
        exit_code = EXIT_SHUTDOWN
    else:
        exit_code = EXIT_CLEAN

    return RunResult(
        exit_code=exit_code,
        trace_text=buf.getvalue(),
        rows=rows,
        final_scenario=final_scenario,
        violations=violations,
        faults=faults,
    )


# ---------------------------------------------------------------------------
# Supervisor-only replay.
# ---------------------------------------------------------------------------

def replay_header(schedule: CompiledSchedule) -> List[str]:
    """The replay output columns: time, evt/dng/rct per event, scenario, tasks."""
    cols = ["time"]
    for one_id in schedule.one_ids:
        cols += [f"evt_{one_id}", f"dng_{one_id}", f"rct_{one_id}"]
    cols += ["scenario", "tasks"]
    return cols


def replay_events(
    schedule: CompiledSchedule,
    times: Sequence[float],
    levels: Sequence[Tuple[int, ...]],
) -> List[List[str]]:
    """Re-run the decision chain over recorded event levels.

    ``levels`` holds one level tuple per time, in ``schedule.one_ids``
    order; rows follow ``replay_header``. A ``ControlLoop`` that only
    decides writes each row's cells, as in a run, so feeding a run's own
    event columns back reproduces its danger, reaction, scenario and task columns.
    """
    loop = ControlLoop(schedule)
    rows: List[List[str]] = []
    prev_t = None
    for t, lvl in zip(times, levels):
        if prev_t is not None and t <= prev_t:
            raise TraceError(f"trace times not strictly increasing at t={t!r}")
        prev_t = t
        loop.decide(lvl, t)
        rows.append([repr(float(t)), *loop.cells])
    return rows


def replay_file(schedule: CompiledSchedule, trace_path) -> List[List[str]]:
    """Replay the event columns of a trace file (full or events-only), found by name."""
    evt_columns = [f"evt_{one_id}" for one_id in schedule.one_ids]
    header, rows = read_trace(trace_path, ["time", *evt_columns])
    if "time" not in header:
        raise TraceError(f"{trace_path}: missing 'time' column")
    missing = [one_id for one_id, name in zip(schedule.one_ids, evt_columns) if name not in header]
    if missing:
        raise TraceError(
            f"{trace_path}: missing event columns for {missing}; "
            f"trace does not match the schedule's event list"
        )
    evaluations = schedule.supervisor.evaluations
    tops = [(one_id, len(evaluations[one_id].danger) - 1) for one_id in schedule.one_ids]
    times: List[float] = []
    levels: List[Tuple[int, ...]] = []
    for time_cell, *cells in rows:
        try:
            t = float(time_cell)
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise TraceError(f"{trace_path}: bad time {reprlib.repr(time_cell)}")
        times.append(t)
        lvl = []
        for (one_id, top), raw in zip(tops, cells):
            try:
                value = int(raw)
            except ValueError:
                raise TraceError(f"{trace_path}: bad event level {reprlib.repr(raw)} for {one_id}") from None
            if not 0 <= value <= top:
                raise TraceError(
                    f"{trace_path}: event level {value} for {one_id} outside [0, {top}]"
                )
            lvl.append(value)
        levels.append(tuple(lvl))
    return replay_events(schedule, times, levels)


def replay_to_csv(rows: Sequence[Sequence[str]], schedule: CompiledSchedule) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(replay_header(schedule))
    writer.writerows(rows)
    return buf.getvalue()
