"""The closed loop run the long way, as the reference for ``harness.ControlLoop`` and ``harness.run``.

Each tick follows the loop contract in ``harness.py``'s docstring with none
of the loop's shortcuts: the monitor re-derives every event
(``reference_monitor_step``), the supervisor decides afresh from a state
stripped of the levels it decided on, every active task is looked up by
id, the actuator round sorts (``sorting_allocate``,
``sorting_merge_commands``), and the row's cells are formatted here and
written by ``csv.writer``. Between ticks it keeps only what the chain
needs: the event states (hysteresis), the reactions (the latch), the
runtimes with the requests they posted, and the merged commands (one tick
of actuation delay).

Run as a script, it checks every pinned wide schedule and both shipped
schedules against ``harness.run``, trace bytes and exit code:

    PYTHONPATH=src python tests/reference_loop.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from typing import Dict, Iterator, List, Mapping, Tuple

from oneguard import config as cfg
from oneguard import harness
from oneguard.config import CompiledSchedule
from oneguard.controllers import StepContext, build_runtime
from oneguard.model import NO_GRANTS, ScenarioType
from oneguard.plant import PLANT_SIGNALS, PlantState, initial_state, plant_signals, plant_step
from oneguard.supervisor import SupervisorState, supervisor_step

from conftest import DENSITY_LIMIT, DUAL_NTM, REPO
from test_allocator import sorting_allocate, sorting_merge_commands
from test_harness import wide_schedule
from test_monitor import reference_monitor_step

PLANT_FLOATS = ("h98y2", "ne_edge_norm", "w_mj", "nbi_power", "nbi_energy", "gas_flux")
ODD = (math.nan, math.inf, -math.inf)


class ReferenceLoop:
    """Monitor -> supervisor -> allocator -> controllers, everything re-derived on every tick."""

    def __init__(self, schedule: CompiledSchedule):
        self.schedule = schedule
        self.events = {}
        self.state = SupervisorState.initial(schedule.supervisor)
        self.runtimes = {}
        self.pending = {}
        self.commands: Dict[str, float] = dict.fromkeys(schedule.groups, 0.0)

    def tick(self, signals: Mapping[str, float], time: float, dt: float) -> List[str]:
        """One tick: its trace row up to the plant columns. ``commands`` then holds its merged commands."""
        cs = self.schedule
        ctx = StepContext(time, dt, signals, self.commands)
        self.events, _ = reference_monitor_step(signals, cs.monitor, self.events)
        levels = tuple(self.events[one_id].level for one_id in cs.one_ids)
        last = self.state
        stripped = SupervisorState(last.scenario_id, last.tasks, last.dangers, last.reactions)
        scenario_id, tasks, dangers, reactions, self.state = supervisor_step(levels, stripped, cs.supervisor, time)

        # A task active on the last tick keeps its runtime and is served what
        # it posted then; a newly active one is built and dry-run.
        runtimes, pending = {}, {}
        for task in tasks:
            runtime = self.runtimes.get(task.id)
            if runtime is None:
                runtime = build_runtime(task, cs.controllers[task.controller], cs.groups)
                pending[task.id] = runtime.requests(ctx)
            else:
                pending[task.id] = self.pending[task.id]
            runtimes[task.id] = runtime
        priorities = {task.id: task.priority for task in tasks}
        # A NaN amount is starved, and a NaN command is dropped.
        requests = [request for queued in pending.values() for request in queued if request.amount == request.amount]
        allocation = sorting_allocate(requests, cs.groups, priorities)
        outputs = []
        for task_id, runtime in runtimes.items():
            issued, pending[task_id] = runtime.step(ctx, allocation.grants.get(task_id, NO_GRANTS))
            outputs += [(task_id, command) for command in issued]
        outputs = [(task_id, command) for task_id, command in outputs if command.value == command.value]
        self.commands, _ = sorting_merge_commands(outputs, allocation, cs.groups, priorities)
        self.runtimes, self.pending = runtimes, pending

        row = [repr(time)]
        for one_id, level in zip(cs.one_ids, levels):
            signal = cs.event_signals[one_id]
            value = None if signal is None else signals.get(signal)
            row += ["" if value is None else repr(value), str(level), dangers[one_id].label, str(reactions[one_id])]
        row += [scenario_id, ";".join(task.id for task in tasks)]
        for gid in cs.groups:
            row += [repr(allocation.totals[gid]), repr(self.commands[gid])]
        return row


def plant_cells(plant: PlantState) -> List[str]:
    return [repr(getattr(plant, name)) for name in PLANT_FLOATS] + ["1" if plant.disrupted else "0"]


def reference_run(schedule: CompiledSchedule) -> Tuple[int, str]:
    """``(exit_code, trace_text)`` of the closed-loop run that ``harness.run`` documents."""
    cs = schedule
    dt = cs.run.dt
    loop = ReferenceLoop(cs)
    loop.commands[cs.plant.gas_group] = cs.plant.gas_init
    plant = initial_state(cs.plant)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["time"]
    for one_id in cs.one_ids:
        header += [f"sig_{one_id}", f"evt_{one_id}", f"dng_{one_id}", f"rct_{one_id}"]
    header += ["scenario", "tasks"]
    for gid in cs.groups:
        header += [f"grant_{gid}", f"cmd_{gid}"]
    writer.writerow(header + [*PLANT_FLOATS, "disrupted"])

    post_roll = int(round(cs.run.post_roll / dt))
    frozen = 0
    for k in range(int(round(cs.run.duration / dt))):
        if plant.disrupted:
            frozen += 1
            if frozen > post_roll:
                break
        t = k * dt
        signals = plant_signals(plant, cs.plant)
        for name, waveform in cs.scripted.items():
            signals[name] = waveform(t)
        writer.writerow(loop.tick(signals, t, dt) + plant_cells(plant))
        commands = loop.commands
        plant = plant_step(
            plant, cs.plant, p_nbi=commands[cs.plant.nbi_group], gas_flux=commands[cs.plant.gas_group], dt=dt
        )

    scenario_type = cs.supervisor.scenarios[loop.state.scenario_id].type
    if plant.disrupted:
        exit_code = harness.EXIT_DISRUPTED
    elif scenario_type in (ScenarioType.SOFT_SHUTDOWN, ScenarioType.DISRUPTION_MITIGATION):
        exit_code = harness.EXIT_SHUTDOWN
    else:
        exit_code = harness.EXIT_CLEAN
    return exit_code, buf.getvalue()


def fuzzed_signals(schedule: CompiledSchedule, rng: random.Random, ticks: int = 20) -> Iterator[Dict[str, float]]:
    """Signal snapshots for ``ticks`` ticks, as a monitor must survive them.

    Each watched and plant signal sits on one of the monitor's thresholds or
    release points, or is random. A third of the snapshots also miss signals
    or hold NaN or +-inf, and a third repeat the last snapshot that had
    every signal finite, so that levels hold, also right after a fault.
    """
    names = sorted({*PLANT_SIGNALS, *(name for name in schedule.event_signals.values() if name is not None)})
    edges = [t.sign * e for t in schedule.monitor.tables.values() for e in t.rising + t.release] or [0.0]
    clean: Dict[str, float] = {}
    for _ in range(ticks):
        kind = rng.randrange(3)
        if kind == 0 and clean:
            yield dict(clean)
            continue
        signals = {name: rng.choice(edges) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0) for name in names}
        if kind == 1:
            for name in names:
                u = rng.random()
                if u < 0.1:
                    del signals[name]
                elif u < 0.25:
                    signals[name] = rng.choice(ODD)
        else:
            clean = signals
        yield dict(signals)


def main() -> int:
    schedules = {path.name: cfg.compile_schedule(cfg.parse_file(path)) for path in (DENSITY_LIMIT, DUAL_NTM)}
    with open(REPO / "bench" / "wide_pins.json") as fh:
        seeds = sorted(map(int, json.load(fh)))
    schedules.update((f"wide seed {seed}", wide_schedule(seed)) for seed in seeds)
    failures = []
    for name, cs in schedules.items():
        result = harness.run(cs)
        if reference_run(cs) != (result.exit_code, result.trace_text):
            failures.append(f"{name}: harness.run differs from the reference loop")
    print("\n".join(failures) or f"all {len(schedules)} runs match the reference loop byte for byte")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
