"""Generic task-executing controllers.

Each controller follows the same two-way contract with the actuator
manager: it emits a resource request for the next tick and a command that
never exceeds the grant it currently holds. Each controller type is one
runtime class that binds a task for the loop and holds its settings, the
state that survives between ticks and its law; the state is discarded
when the task deactivates.
Task references are ``Waveform``s (the parser promotes a scalar to a
constant one). Each runtime class carries its type's settings table;
``validate`` checks a schedule's settings against it and fills in its
defaults in the same pass, and ``build_runtime`` passes the complete
settings on.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .model import ControlTask, Record, ResourceRequest
from .allocator import ActuatorCommand, ActuatorGroup

HOLD = "hold"
LINEAR = "linear"


class Waveform(Record):
    """Piecewise reference trajectory over time.

    Evaluation holds the first value before the first breakpoint and the
    last value after the last one. ``hold`` interpolation steps at each
    breakpoint; ``linear`` interpolates between neighbours. There is at
    least one breakpoint, with strictly increasing times.
    """

    _fields = ("points", "interpolation")
    __slots__ = _fields + ("_times",)

    def __init__(self, points: Tuple[Tuple[float, float], ...], interpolation: str = LINEAR) -> None:
        self.points, self.interpolation = points, interpolation
        self._times = tuple(t for t, _ in points)

    def __call__(self, time: float) -> float:
        idx = bisect_right(self._times, time) - 1
        if idx < 0:
            return self.points[0][1]
        if idx >= len(self.points) - 1:
            return self.points[-1][1]
        if self.interpolation == HOLD:
            return self.points[idx][1]
        t0, v0 = self.points[idx]
        t1, v1 = self.points[idx + 1]
        frac = (time - t0) / (t1 - t0)
        return v0 + frac * (v1 - v0)


MODE_NORMAL = "normal"
MODE_RECOVERY = "recovery"
MODE_SLOW_RAMP = "slow_ramp"
MODE_FREEZE = "freeze"
MODE_CUTOFF = "cutoff"


# ---------------------------------------------------------------------------
# Per-task runtimes driven by the control loop, with their settings tables.
# ---------------------------------------------------------------------------

#: Kinds of setting; a mode setting's kind is the tuple of its modes.
NUMBER = "number"
SIGNAL = "signal"
FLAG = "flag"
GROUP = "group"

#: Bounds a number setting may carry: the tail of the diagnostic a value
#: outside it gets ("field 'gain' must be >= 0"), and the test it fails.
POSITIVE = ("be positive", lambda v: v > 0.0)
NON_NEGATIVE = ("be >= 0", lambda v: v >= 0.0)
UNIT_INTERVAL = ("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)


class Setting(NamedTuple):
    """A controller setting and the runtime argument of that name; without a default it is required."""

    key: str
    kind: Any
    default: Any = None
    bound: Optional[Tuple[str, Callable[[float], bool]]] = None


class StepContext(Record):
    """What every controller may look at during one tick."""

    __slots__ = ("time", "dt", "signals", "prev_commands")

    def __init__(
        self, time: float, dt: float, signals: Mapping[str, float], prev_commands: Mapping[str, float]
    ) -> None:
        self.time = time
        self.dt = dt
        self.signals = signals
        self.prev_commands = prev_commands


class TaskRuntime:
    """Base runtime: binds one control task to its law and state.

    ``requests`` is a dry run used both to bootstrap a freshly activated
    task and (from within ``step``) to ask for next-tick resources; it must
    not mutate state. ``step`` commits state and emits commands limited to
    the current grants. ``settings`` is the type's settings table.
    """

    settings: Tuple[Setting, ...] = ()

    def __init__(self, task: ControlTask):
        self.task = task

    @staticmethod
    def needs_reference(settings: Mapping[str, Any]) -> bool:
        """Whether a task bound to these settings must carry a reference."""
        return True

    def requests(self, ctx: StepContext) -> List[ResourceRequest]:
        raise NotImplementedError

    def step(
        self, ctx: StepContext, grants: Mapping[str, float]
    ) -> Tuple[List[ActuatorCommand], List[ResourceRequest]]:
        raise NotImplementedError


class FeedforwardRuntime(TaskRuntime):
    settings = (Setting("min_request", NUMBER, 0.0, NON_NEGATIVE),)

    def __init__(self, task: ControlTask, *, min_request: float):
        super().__init__(task)
        self.waveform = task.reference
        self.min_request = min_request

    def _request_at(self, time: float) -> List[ResourceRequest]:
        amount = max(self.waveform(time), 0.0)
        return [ResourceRequest(self.task.id, self.task.group, amount, min(self.min_request, amount))]

    def requests(self, ctx: StepContext) -> List[ResourceRequest]:
        return self._request_at(ctx.time)

    def step(self, ctx, grants):
        value = min(max(self.waveform(ctx.time), 0.0), grants.get(self.task.group, 0.0))
        return [ActuatorCommand(self.task.group, value)], self._request_at(ctx.time + ctx.dt)


class PidRuntime(TaskRuntime):
    """Positional PID on one measured signal.

    The clamped output is both the command and the next request.
    ``integrator`` stores the integral *term* (output units), clamped to
    the output limits when anti-windup is on. The derivative acts on the
    measurement, not the error, to avoid kicks on reference steps. A
    non-finite measurement holds the previous output, integrator and
    measurement instead of propagating the value.
    """

    settings = (
        Setting("kp", NUMBER, 0.0),
        Setting("ki", NUMBER, 0.0),
        Setting("kd", NUMBER, 0.0),
        Setting("lo", NUMBER, 0.0),
        Setting("hi", NUMBER),
        Setting("measurement", SIGNAL),
        Setting("anti_windup", FLAG, True),
    )

    def __init__(
        self, task: ControlTask, *, kp: float, ki: float, kd: float, lo: float, hi: float, measurement: str,
        anti_windup: bool,
    ):
        super().__init__(task)
        self.reference = task.reference
        self.measurement = measurement
        self.kp, self.ki, self.kd, self.lo, self.hi, self.anti_windup = kp, ki, kd, lo, hi, anti_windup
        self.integrator = 0.0
        self.prev_measurement: Optional[float] = None
        self.last_output = 0.0

    def _law(self, ctx: StepContext) -> Tuple[float, float, Optional[float]]:
        """This tick's ``(output, integrator, measurement)``, the state ``step`` commits."""
        reference = self.reference(ctx.time)
        measurement = ctx.signals.get(self.measurement, math.nan)
        if not math.isfinite(measurement):
            return self.last_output, self.integrator, self.prev_measurement
        error = reference - measurement
        integrator = self.integrator + self.ki * error * ctx.dt
        if self.anti_windup:
            integrator = min(max(integrator, self.lo), self.hi)
        prev = self.prev_measurement
        derivative = 0.0 if prev is None else -self.kd * (measurement - prev) / ctx.dt
        output = min(max(self.kp * error + integrator + derivative, self.lo), self.hi)
        return output, integrator, measurement

    def requests(self, ctx: StepContext) -> List[ResourceRequest]:
        return [ResourceRequest(self.task.id, self.task.group, max(self._law(ctx)[0], 0.0))]

    def step(self, ctx, grants):
        self.last_output, self.integrator, self.prev_measurement = self._law(ctx)
        desired = max(self.last_output, 0.0)
        value = min(desired, grants.get(self.task.group, 0.0))
        return [ActuatorCommand(self.task.group, value)], [ResourceRequest(self.task.id, self.task.group, desired)]


class DaPowerRuntime(TaskRuntime):
    """Disruption-avoidance heating law.

    In normal mode the extra power grows linearly with the gap below the
    first critical distance (zero at and above it, so the law is
    continuous there), clamped at ``p_max``; a non-finite distance asks for
    none. In recovery mode it always asks for ``p_max``.
    """

    settings = (
        Setting("mode", (MODE_NORMAL, MODE_RECOVERY)),
        Setting("d_critical1", NUMBER),
        Setting("gain", NUMBER, 1.0, NON_NEGATIVE),
        Setting("p_max", NUMBER, bound=POSITIVE),
        Setting("signal", SIGNAL),
    )

    def __init__(
        self, task: ControlTask, *, mode: str, d_critical1: float, gain: float, p_max: float, signal: str
    ):
        super().__init__(task)
        self.mode = mode
        self.d_critical1 = d_critical1
        self.gain = gain
        self.p_max = p_max
        self.signal = signal

    needs_reference = staticmethod(lambda settings: False)

    def _desired(self, ctx: StepContext) -> float:
        if self.mode == MODE_RECOVERY:
            return self.p_max
        distance = ctx.signals.get(self.signal, math.nan)
        if not math.isfinite(distance) or distance >= self.d_critical1:
            return 0.0
        return min(self.gain * (self.d_critical1 - distance), self.p_max)

    def requests(self, ctx: StepContext) -> List[ResourceRequest]:
        return [ResourceRequest(self.task.id, self.task.group, self._desired(ctx))]

    def step(self, ctx, grants):
        desired = self._desired(ctx)
        value = min(desired, grants.get(self.task.group, 0.0))
        next_req = ResourceRequest(self.task.id, self.task.group, desired)
        return [ActuatorCommand(self.task.group, value)], [next_req]


class GasShaperRuntime(TaskRuntime):
    """Reduce, freeze or cut off a ramp command on one group.

    The shaper takes over whatever the group was last commanded to
    (``prev_commands``) when its task activates. ``slow_ramp`` continues it
    at ``factor`` times each increment of the task's reference waveform,
    ``freeze`` holds the value captured at activation, and ``cutoff`` ramps
    that value linearly to zero over ``ramp_down`` seconds.
    """

    settings = (
        Setting("mode", (MODE_SLOW_RAMP, MODE_FREEZE, MODE_CUTOFF)),
        Setting("factor", NUMBER, 0.5, UNIT_INTERVAL),
        Setting("ramp_down", NUMBER, 0.1, NON_NEGATIVE),
    )

    def __init__(self, task: ControlTask, *, mode: str, factor: float, ramp_down: float):
        super().__init__(task)
        self.waveform = task.reference if mode == MODE_SLOW_RAMP else None
        self.mode = mode
        self.factor = factor
        self.ramp_down = ramp_down
        self.entry_value: Optional[float] = None
        self.entry_time: float = 0.0

    needs_reference = staticmethod(lambda settings: settings.get("mode") == MODE_SLOW_RAMP)

    def _command(self, base: float, time: float, rise: float) -> float:
        """The command at ``time`` after ``base`` one tick before, as the reference rose by ``rise``; never negative.

        Until ``step`` captures the entry, ``base`` at ``time`` stands in for it.
        """
        if self.mode == MODE_SLOW_RAMP:
            value = base + self.factor * rise
        else:
            entry_value, entry_time = (base, time) if self.entry_value is None else (self.entry_value, self.entry_time)
            if self.mode == MODE_FREEZE:
                value = entry_value
            elif self.ramp_down <= 0.0:
                value = 0.0
            else:
                value = entry_value * min(max(1.0 - (time - entry_time) / self.ramp_down, 0.0), 1.0)
        return max(value, 0.0)

    def requests(self, ctx: StepContext) -> List[ResourceRequest]:
        base, waveform, t = ctx.prev_commands.get(self.task.group, 0.0), self.waveform, ctx.time
        rise = waveform(t) - waveform(t - ctx.dt) if waveform is not None else 0.0
        return [ResourceRequest(self.task.id, self.task.group, self._command(base, t, rise))]

    def step(self, ctx, grants):
        base, waveform, t, dt = ctx.prev_commands.get(self.task.group, 0.0), self.waveform, ctx.time, ctx.dt
        if self.entry_value is None:
            self.entry_value, self.entry_time = base, t
        before, now, after = (waveform(t - dt), waveform(t), waveform(t + dt)) if waveform is not None else (0.0,) * 3
        value = min(self._command(base, t, now - before), grants.get(self.task.group, 0.0))
        next_req = ResourceRequest(self.task.id, self.task.group, self._command(value, t + dt, after - now))
        return [ActuatorCommand(self.task.group, value)], [next_req]


class NtmRuntime(TaskRuntime):
    """Aim the EC beam at the mode location and spend the whole grant.

    Holds one request on the power group (asks for everything available)
    and one ownership token on the aiming group, both built once.
    ``power_capacity`` is the capacity of the task's group, not a setting.
    """

    settings = (Setting("position_signal", SIGNAL), Setting("aim_group", GROUP))

    def __init__(self, task: ControlTask, *, position_signal: str, aim_group: str, power_capacity: float):
        super().__init__(task)
        self.position_signal = position_signal
        self.aim_group = aim_group
        self.fixed_requests = (
            ResourceRequest(task.id, task.group, power_capacity),
            ResourceRequest(task.id, aim_group, 1.0, 1.0),
        )

    needs_reference = staticmethod(lambda settings: False)

    def requests(self, ctx: StepContext) -> Sequence[ResourceRequest]:
        return self.fixed_requests

    def step(self, ctx, grants):
        if grants.get(self.aim_group, 0.0) <= 0.0:
            # Lost the aiming contest: park rather than dump power off-target.
            return [], self.fixed_requests
        rho = ctx.signals.get(self.position_signal, math.nan)
        if not math.isfinite(rho):
            rho = 0.0
        cmds = [
            ActuatorCommand(self.task.group, grants.get(self.task.group, 0.0)),
            ActuatorCommand(self.aim_group, min(max(rho, 0.0), 1.0)),
        ]
        return cmds, self.fixed_requests


#: Runtime class of each controller type.
RUNTIMES = {
    "feedforward": FeedforwardRuntime,
    "pid": PidRuntime,
    "da_power": DaPowerRuntime,
    "gas_shaper": GasShaperRuntime,
    "ntm": NtmRuntime,
}


def build_runtime(
    task: ControlTask,
    controller: Tuple[str, Mapping[str, Any]],
    groups: Mapping[str, ActuatorGroup],
) -> TaskRuntime:
    """Instantiate the runtime for one task from its compiled ``(type, settings)``.

    The settings hold every key of the type's table, defaults filled in.
    """
    kind, settings = controller
    cls = RUNTIMES[kind]
    kwargs = {s.key: settings[s.key] for s in cls.settings}
    if cls is NtmRuntime:
        kwargs["power_capacity"] = groups[task.group].capacity
    return cls(task, **kwargs)
