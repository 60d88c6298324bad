import math
import random
from typing import List, NamedTuple, Optional, Tuple

import pytest

from oneguard.allocator import ActuatorCommand
from oneguard.controllers import (
    MODE_FREEZE,
    MODE_NORMAL,
    MODE_RECOVERY,
    MODE_SLOW_RAMP,
    RUNTIMES,
    DaPowerRuntime,
    FeedforwardRuntime,
    GasShaperRuntime,
    NtmRuntime,
    PidRuntime,
    StepContext,
    TaskRuntime,
    Waveform,
)
from oneguard.model import ControlTask, ResourceRequest

from test_config import DA_POWER, controller, diagnose, minimal_doc, parse_doc, set_at


class TestWaveform:
    def test_constant_value_everywhere(self):
        # The parser promotes a scalar reference to a one-point hold waveform.
        wf = parse_doc(minimal_doc()).scenarios[0].tasks[0].reference
        assert wf == Waveform(points=((0.0, 0.4),), interpolation="hold")
        for t in (-1.0, 0.0, 0.5, 10.0):
            assert wf(t) == 0.4

    def test_linear_midpoint(self):
        wf = Waveform(points=((0.0, 0.0), (1.0, 1.0)))
        assert wf(0.5) == pytest.approx(0.5)

    def test_holds_last_value_past_end(self):
        wf = Waveform(points=((0.0, 0.0), (1.0, 1.0)))
        assert wf(5.0) == 1.0

    def test_holds_first_value_before_start(self):
        wf = Waveform(points=((1.0, 3.0), (2.0, 4.0)))
        assert wf(0.0) == 3.0

    def test_hold_interpolation_steps(self):
        wf = Waveform(points=((0.0, 1.0), (1.0, 2.0)), interpolation="hold")
        assert wf(0.99) == 1.0
        assert wf(1.0) == 2.0

    def test_empty_waveform_rejected(self):
        # Checked by validate; Waveform itself assumes a validated schedule.
        assert "error: signals.amp: waveform has no breakpoints" in diagnose(
            set_at("signals", {"amp": {"points": []}})
        )

    def test_non_increasing_times_rejected(self):
        assert "error: signals.amp: breakpoint times must be strictly increasing" in diagnose(
            set_at("signals", {"amp": {"points": [[0.0, 1.0], [0.0, 2.0]]}})
        )

    def test_feedforward_step_requests_what_it_commands(self):
        rt = FeedforwardRuntime(task(reference=0.65, group="nbi"), min_request=0.0)
        (request,) = rt.requests(ctx(time=1.0))
        (command,), _ = rt.step(ctx(time=1.0), {"nbi": 1.3})
        assert request.amount == command.value == 0.65


def pid_runtime(kp=1.0, ki=0.0, kd=0.0, lo=-10.0, hi=10.0, anti_windup=True, reference=1.0):
    return PidRuntime(
        task(reference=reference, group="g"),
        kp=kp, ki=ki, kd=kd, lo=lo, hi=hi, measurement="m", anti_windup=anti_windup,
    )


def pid_output(rt, measurement, dt=0.1, time=0.0):
    """Commit one step of ``rt`` on ``measurement``; the law's clamped output."""
    rt.step(ctx(time=time, dt=dt, signals={"m": measurement}), {"g": math.inf})
    return rt.last_output


class TestPid:
    def test_zero_error_zero_output(self):
        assert pid_output(pid_runtime(), 1.0) == 0.0

    def test_pure_proportional(self):
        assert pid_output(pid_runtime(kp=1.0, reference=1.2), 1.0) == pytest.approx(0.2)

    def test_output_clamped_to_limits(self):
        assert pid_output(pid_runtime(kp=1.0, lo=0.0, hi=1.3, reference=100.0), 0.0) == 1.3

    def test_non_finite_measurement_holds_output_integrator_and_measurement(self):
        rt = pid_runtime(ki=2.0, kd=0.1)
        out = pid_output(rt, 0.5)
        held = (rt.integrator, rt.prev_measurement)
        for bad in (math.nan, math.inf, -math.inf):
            out2 = pid_output(rt, bad)
            assert out2 == out
            assert (rt.last_output, rt.integrator, rt.prev_measurement) == (out,) + held

    def test_matches_fine_step_integration_oracle(self):
        # Drive the discrete controller with an exponentially settling
        # measurement and compare against the same law integrated two
        # orders of magnitude finer.
        kp, ki, kd = 0.8, 2.0, 0.05
        tau = 0.2
        dt = tau / 100.0
        horizon = 10.0 * tau
        reference = 1.0

        def measurement(t):
            return 1.0 - math.exp(-t / tau)

        rt = pid_runtime(kp=kp, ki=ki, kd=kd, lo=-100.0, hi=100.0, reference=reference)
        n = int(round(horizon / dt))
        out = 0.0
        for k in range(n + 1):
            out = pid_output(rt, measurement(k * dt), dt)

        fine = dt / 100.0
        m = int(round(horizon / fine))
        integral = 0.0
        for k in range(m + 1):
            integral += (reference - measurement(k * fine)) * fine
        t_end = (n) * dt
        e_end = reference - measurement(t_end)
        dmdt = math.exp(-t_end / tau) / tau
        oracle = kp * e_end + ki * integral - kd * dmdt
        assert out == pytest.approx(oracle, rel=0.01)

    def test_anti_windup_bounds_integral_action(self):
        # Integral term clamped to the output span keeps the accumulated
        # error below (hi - lo) / ki no matter the input sequence. The
        # reference steps to a new random value at each whole second.
        rng = random.Random(42)
        ki = 3.0
        lo, hi = -0.5, 1.3
        inputs = [(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(2000)]
        reference = Waveform(tuple((float(k), ref) for k, (ref, _) in enumerate(inputs)), "hold")
        rt = pid_runtime(kp=0.5, ki=ki, lo=lo, hi=hi, reference=reference)
        for k, (_, meas) in enumerate(inputs):
            pid_output(rt, meas, 0.01, time=float(k))
            assert abs(rt.integrator / ki) <= (hi - lo) / ki + 1e-12

    def test_inverted_limits_rejected(self):
        assert "error: controllers.probe: output limits inverted (lo > hi)" in diagnose(
            controller(type="pid", lo=1.0, hi=0.0, measurement="h98y2")
        )


def da_desired(distance, d_critical1, gain, p_max, mode):
    """The power a DA runtime asks for at ``distance``."""
    rt = DaPowerRuntime(task(group="h"), mode=mode, d_critical1=d_critical1, gain=gain, p_max=p_max, signal="d")
    (request,) = rt.requests(ctx(signals={"d": distance}))
    return request.amount


class TestDaPower:
    def test_no_extra_power_at_or_above_first_critical(self):
        assert da_desired(0.5, 0.45, gain=4.0, p_max=1.3, mode="normal") == 0.0
        assert da_desired(0.45, 0.45, gain=4.0, p_max=1.3, mode="normal") == 0.0

    def test_recovery_always_asks_for_maximum(self):
        assert da_desired(0.9, 0.45, gain=4.0, p_max=1.3, mode="recovery") == 1.3

    def test_clamped_at_p_max(self):
        assert da_desired(0.0, 0.45, gain=100.0, p_max=1.3, mode="normal") == 1.3

    def test_continuous_at_threshold(self):
        for eps in (1e-3, 1e-6, 1e-9):
            value = da_desired(0.45 - eps, 0.45, gain=4.0, p_max=1.3, mode="normal")
            assert value == pytest.approx(4.0 * eps, abs=1e-12)

    def test_non_finite_distance(self):
        for distance in (math.nan, math.inf, -math.inf):
            assert da_desired(distance, 0.45, gain=4.0, p_max=1.3, mode="normal") == 0.0
            assert da_desired(distance, 0.45, gain=4.0, p_max=1.3, mode="recovery") == 1.3

    def test_unknown_mode_rejected(self):
        assert "error: controllers.probe: mode must be one of 'normal', 'recovery'" in diagnose(
            controller(**dict(DA_POWER, mode="panic"))
        )


class TestGasShaper:
    # The reference rises by exactly 1.2 over [0, 1].
    RAMP = Waveform(points=((0.0, 0.0), (1.0, 1.2)))

    def shaper(self, mode, factor=0.5, ramp_down=0.1, entry=None):
        rt = GasShaperRuntime(task(reference=self.RAMP, group="gas"), mode=mode, factor=factor, ramp_down=ramp_down)
        if entry is not None:
            rt.entry_value, rt.entry_time = entry
        return rt

    def test_freeze_holds_entry_value(self):
        rt = self.shaper("freeze", entry=(42.0, 0.0))
        for t in (0.0, 0.5, 3.0):
            assert rt._command(99.0, t, 0.012) == 42.0

    def test_slow_ramp_with_zero_factor_is_freeze(self):
        out = self.shaper("slow_ramp", factor=0.0)._command(42.0, 1.0, self.RAMP(1.0) - self.RAMP(0.0))
        assert out == 42.0

    def test_cutoff_ramps_linearly_to_zero(self):
        f0, ramp = 10.0, 0.1
        rt = self.shaper("cutoff", ramp_down=ramp, entry=(f0, 0.0))
        values = [rt._command(f0, t, 0.012) for t in (0.0, 0.05, 0.1, 0.2)]
        assert values == [10.0, pytest.approx(5.0), 0.0, 0.0]

    def test_slow_ramp_scales_increment(self):
        out = self.shaper("slow_ramp", factor=0.25)._command(50.0, 1.0, self.RAMP(1.0) - self.RAMP(0.0))
        assert out == pytest.approx(50.3)


class TestNtm:
    def ntm_commands(self, rho, power_grant):
        rt = NtmRuntime(
            task(group="ec_power"), position_signal="rho", aim_group="ec_aim", power_capacity=1.0
        )
        commands, _ = rt.step(ctx(signals={"rho": rho}), {"ec_power": power_grant, "ec_aim": 1.0})
        return {c.group_id: c.value for c in commands}

    def test_deposition_and_power_passthrough(self):
        assert self.ntm_commands(0.6, 0.5) == {"ec_aim": 0.6, "ec_power": 0.5}

    def test_zero_grant_zero_power(self):
        assert self.ntm_commands(0.6, 0.0) == {"ec_aim": 0.6, "ec_power": 0.0}

    def test_position_outside_unit_interval_rejected(self):
        # The runtime clamps the measured position onto [0, 1] before aiming.
        assert self.ntm_commands(1.5, 0.5)["ec_aim"] == 1.0
        assert self.ntm_commands(-0.2, 0.5)["ec_aim"] == 0.0


def task(tid="t", priority=1, controller="c", group="g", reference=None, activation=None):
    from oneguard.model import Activation

    if isinstance(reference, (int, float)):
        # As the parser stores a scalar reference.
        reference = Waveform(points=((0.0, float(reference)),), interpolation="hold")
    return ControlTask(
        id=tid,
        priority=priority,
        controller=controller,
        group=group,
        reference=reference,
        activation=activation or Activation(),
    )


def ctx(time=0.0, dt=0.01, signals=None, prev=None):
    return StepContext(time=time, dt=dt, signals=signals or {}, prev_commands=prev or {})


class TestRuntimes:
    def test_feedforward_command_limited_by_grant(self):
        rt = FeedforwardRuntime(task(reference=0.65, group="nbi"), min_request=0.0)
        commands, _ = rt.step(ctx(), {"nbi": 0.4})
        assert commands[0].value == 0.4

    def test_feedforward_request_anticipates_next_tick(self):
        wf = Waveform(points=((0.0, 0.0), (1.0, 1.0)))
        rt = FeedforwardRuntime(task(reference=wf, group="nbi"), min_request=0.0)
        _, next_reqs = rt.step(ctx(time=0.5, dt=0.1), {"nbi": 0.5})
        assert next_reqs[0].amount == pytest.approx(0.6)

    def test_gas_shaper_slow_ramp_telescopes_from_activation_level(self):
        wf = Waveform(points=((0.0, 0.0), (1.0, 120.0)))
        rt = GasShaperRuntime(task(reference=wf, group="gas"), mode="slow_ramp", factor=0.25, ramp_down=0.1)
        prev = {"gas": 50.0}
        value = None
        for k in range(5):
            commands, _ = rt.step(ctx(time=0.5 + 0.01 * k, dt=0.01, prev=prev), {"gas": 1e9})
            value = commands[0].value
            prev = {"gas": value}
        assert value == pytest.approx(50.0 + 5 * 0.25 * 1.2)

    def test_gas_shaper_slow_ramp_evaluates_each_reference_time_once(self):
        times = []

        def reference(t):
            times.append(t)
            return 2.0 * t

        rt = GasShaperRuntime(task(reference=reference, group="gas"), mode="slow_ramp", factor=0.5, ramp_down=0.1)
        c = ctx(time=1.0, dt=0.25, prev={"gas": 3.0})
        assert rt.requests(c)[0].amount == 3.25 and sorted(times) == [0.75, 1.0]
        times.clear()
        commands, requests = rt.step(c, {"gas": 1e9})
        # This tick's end is the next request's start: three times, three evaluations.
        assert sorted(times) == [0.75, 1.0, 1.25]
        assert commands[0].value == 3.25 and requests[0].amount == 3.5

    def test_gas_shaper_freeze_captures_entry(self):
        rt = GasShaperRuntime(task(group="gas"), mode="freeze", factor=0.5, ramp_down=0.1)
        prev = {"gas": 33.0}
        for k in range(3):
            commands, _ = rt.step(ctx(time=0.1 + 0.01 * k, dt=0.01, prev=prev), {"gas": 1e9})
            prev = {"gas": 77.0}  # later group activity must not move the hold
            assert commands[0].value == 33.0

    def test_ntm_runtime_parks_without_aim_ownership(self):
        rt = NtmRuntime(
            task(group="ec_power"), position_signal="rho", aim_group="ec_aim", power_capacity=1.0
        )
        commands, requests = rt.step(ctx(signals={"rho": 0.6}), {"ec_power": 1.0, "ec_aim": 0.0})
        assert commands == []
        assert {r.group_id for r in requests} == {"ec_power", "ec_aim"}

    def test_ntm_runtime_aims_and_spends_grant(self):
        rt = NtmRuntime(
            task(group="ec_power"), position_signal="rho", aim_group="ec_aim", power_capacity=1.0
        )
        commands, _ = rt.step(ctx(signals={"rho": 0.6}), {"ec_power": 0.8, "ec_aim": 1.0})
        by_group = {c.group_id: c.value for c in commands}
        assert by_group == {"ec_power": 0.8, "ec_aim": 0.6}

    def test_pid_runtime_requests_match_committed_step(self):
        rt = PidRuntime(
            task(reference=1.0, group="nbi"),
            kp=1.0, ki=0.5, kd=0.0, lo=0.0, hi=2.0, measurement="w", anti_windup=True,
        )
        c = ctx(signals={"w": 0.4})
        dry = rt.requests(c)[0].amount
        commands, reqs = rt.step(c, {"nbi": 10.0})
        assert commands[0].value == pytest.approx(dry)
        assert reqs[0].amount == pytest.approx(dry)

    def test_every_runtime_defines_its_own_requests_and_step(self):
        # The benchmark's span hooks wrap the methods found in each class's
        # own __dict__; an inherited one would go untimed.
        for name, cls in RUNTIMES.items():
            assert {"requests", "step"} <= set(vars(cls)), name


# ---------------------------------------------------------------------------
# The gas shaper as it was while its law was split between the module-level
# da_gas_step, the runtime's _shape (this tick's command) and _project (the
# next tick's request). Kept verbatim, as the reference that
# GasShaperRuntime._command must match bit for bit.
# ---------------------------------------------------------------------------

def da_gas_step(
    base_command: float,
    mode: str,
    *,
    ramp_increment: float = 0.0,
    factor: float = 1.0,
    entry_value: float = 0.0,
    entry_time: float = 0.0,
    time: float = 0.0,
    ramp_down: float = 0.0,
) -> float:
    """Shape a flux/power command for disruption avoidance or shutdown.

    ``slow_ramp`` continues from the current command ``base_command`` at a
    fraction ``factor`` of the reference ramp increment, ``freeze`` holds
    the value captured at mode entry, and ``cutoff`` ramps that value
    linearly to zero over ``ramp_down`` seconds.
    """
    if mode == MODE_SLOW_RAMP:
        return base_command + factor * ramp_increment
    if mode == MODE_FREEZE:
        return entry_value
    if ramp_down <= 0.0:
        return 0.0
    remaining = 1.0 - (time - entry_time) / ramp_down
    return entry_value * min(max(remaining, 0.0), 1.0)


class SplitGasShaperRuntime(GasShaperRuntime):
    def _shape(self, ctx: StepContext) -> float:
        base = ctx.prev_commands.get(self.task.group, 0.0)
        entry_value = base if self.entry_value is None else self.entry_value
        entry_time = ctx.time if self.entry_value is None else self.entry_time
        increment = 0.0
        if self.waveform is not None:
            increment = self.waveform(ctx.time) - self.waveform(ctx.time - ctx.dt)
        value = da_gas_step(
            base,
            self.mode,
            ramp_increment=increment,
            factor=self.factor,
            entry_value=entry_value,
            entry_time=entry_time,
            time=ctx.time,
            ramp_down=self.ramp_down,
        )
        return max(value, 0.0)

    def _project(self, issued: float, ctx: StepContext) -> float:
        """Expected command one tick ahead, for the next resource request."""
        t_next = ctx.time + ctx.dt
        if self.mode == MODE_SLOW_RAMP:
            increment = 0.0
            if self.waveform is not None:
                increment = self.waveform(t_next) - self.waveform(ctx.time)
            return max(issued + self.factor * increment, 0.0)
        entry_value = issued if self.entry_value is None else self.entry_value
        entry_time = ctx.time if self.entry_value is None else self.entry_time
        value = da_gas_step(
            issued,
            self.mode,
            entry_value=entry_value,
            entry_time=entry_time,
            time=t_next,
            ramp_down=self.ramp_down,
        )
        return max(value, 0.0)

    def requests(self, ctx: StepContext) -> List[ResourceRequest]:
        return [ResourceRequest(self.task.id, self.task.group, self._shape(ctx))]

    def step(self, ctx, grants):
        if self.entry_value is None:
            self.entry_value = ctx.prev_commands.get(self.task.group, 0.0)
            self.entry_time = ctx.time
        desired = self._shape(ctx)
        value = min(desired, grants.get(self.task.group, 0.0))
        next_req = ResourceRequest(self.task.id, self.task.group, self._project(value, ctx))
        return [ActuatorCommand(self.task.group, value)], [next_req]


def random_float(rng):
    return rng.choice([0.0, -0.0, rng.uniform(-20.0, 150.0), rng.uniform(0.0, 5.0)])


def random_shaper_case(rng):
    """A shaper task's settings and a run of ticks, as ``(mode, factor, ramp_down, reference, dt, ticks)``."""
    times = sorted({round(rng.uniform(-1.0, 3.0), 3) for _ in range(rng.randint(1, 4))})
    reference = Waveform(tuple((t, rng.uniform(-50.0, 150.0)) for t in times), rng.choice(["linear", "hold"]))
    mode = rng.choice(["slow_ramp", "freeze", "cutoff"])
    factor = rng.choice([0.0, 1.0, rng.random()])
    ramp_down = rng.choice([0.0, rng.uniform(0.001, 0.5)])
    dt = rng.choice([0.01, rng.uniform(0.001, 0.1)])
    # Each tick: (time, call requests before step, previous group command or None, grant or None).
    # A tenth of the ticks step back in time, where a cutoff's ramp would exceed its entry value.
    t0 = rng.uniform(-0.5, 2.5)
    ticks = [
        (t0 + k * dt if rng.random() < 0.9 else rng.uniform(t0 - 1.0, t0), rng.random() < 0.3,
         None if rng.random() < 0.1 else random_float(rng),
         None if rng.random() < 0.1 else rng.choice([1e9, 0.0, rng.uniform(0.0, 150.0)]))
        for k in range(rng.randint(1, 12))
    ]
    return mode, factor, ramp_down, reference, dt, ticks


def test_gas_shaper_command_matches_its_split_reference():
    rng = random.Random(0x6A5)
    outputs = 0
    seen = set()
    for _ in range(1500):
        mode, factor, ramp_down, reference, dt, ticks = random_shaper_case(rng)
        shaper_task = task(reference=reference, group="gas")
        runtimes = [
            cls(shaper_task, mode=mode, factor=factor, ramp_down=ramp_down)
            for cls in (GasShaperRuntime, SplitGasShaperRuntime)
        ]
        # The first tick bootstraps through requests, as the loop does.
        for k, (time, dry_run, prev, grant) in enumerate(ticks):
            c = ctx(time=time, dt=dt, prev={} if prev is None else {"gas": prev})
            grants = {} if grant is None else {"gas": grant}
            if k == 0 or dry_run:
                new, old = (repr(rt.requests(c)) for rt in runtimes)
                assert new == old
                outputs += 1
            new, old = (repr(rt.step(c, grants)) for rt in runtimes)
            assert new == old
            outputs += 1
        seen.add((mode, ramp_down == 0.0))
    assert outputs >= 10000
    assert seen == {(mode, zero) for mode in ("slow_ramp", "freeze", "cutoff") for zero in (False, True)}


# ---------------------------------------------------------------------------
# The PID and disruption-avoidance laws as they were while they were free
# step functions that their runtimes wrapped. Kept verbatim, as the
# reference that PidRuntime and DaPowerRuntime must match bit for bit.
# ---------------------------------------------------------------------------

class PidState(NamedTuple):
    """Discrete PID state.

    ``integrator`` stores the integral *term* (output units), clamped to
    the output limits when anti-windup is on. The derivative acts on the
    measurement, not the error, to avoid kicks on reference steps.
    """

    kp: float
    ki: float
    kd: float
    lo: float
    hi: float
    anti_windup: bool
    integrator: float = 0.0
    prev_measurement: Optional[float] = None
    last_output: float = 0.0
    fault: bool = False


def pid_step(reference: float, measurement: float, state: PidState, dt: float) -> Tuple[float, PidState]:
    """One positional PID update.

    Returns ``(output, new_state)``; the clamped output is both the
    command and the next request. A non-finite measurement holds the
    previous output and raises the fault flag instead of propagating the
    value.
    """
    if not math.isfinite(measurement):
        return state.last_output, state._replace(fault=True)

    error = reference - measurement
    integrator = state.integrator + state.ki * error * dt
    if state.anti_windup:
        integrator = min(max(integrator, state.lo), state.hi)
    if state.prev_measurement is None:
        derivative = 0.0
    else:
        derivative = -state.kd * (measurement - state.prev_measurement) / dt
    output = state.kp * error + integrator + derivative
    output = min(max(output, state.lo), state.hi)
    new_state = PidState(
        state.kp, state.ki, state.kd, state.lo, state.hi, state.anti_windup, integrator, measurement, output
    )
    return output, new_state


def da_power_step(distance: float, d_critical1: float, gain: float, p_max: float, mode: str) -> float:
    """Disruption-avoidance heating law.

    In normal mode the extra power grows linearly with the gap below the
    first critical distance (zero at and above it, so the law is
    continuous there), clamped at ``p_max``. In recovery mode it always
    asks for ``p_max``.
    """
    if mode == MODE_RECOVERY:
        return p_max
    if distance >= d_critical1:
        return 0.0
    return min(gain * (d_critical1 - distance), p_max)


class StepPidRuntime(TaskRuntime):
    def __init__(
        self, task: ControlTask, *, kp: float, ki: float, kd: float, lo: float, hi: float, measurement: str,
        anti_windup: bool,
    ):
        super().__init__(task)
        self.reference = task.reference
        self.measurement = measurement
        self.state = PidState(kp=kp, ki=ki, kd=kd, lo=lo, hi=hi, anti_windup=anti_windup)

    def _output(self, ctx: StepContext) -> Tuple[float, PidState]:
        ref = self.reference(ctx.time)
        meas = ctx.signals.get(self.measurement, math.nan)
        return pid_step(ref, meas, self.state, ctx.dt)

    def requests(self, ctx: StepContext) -> List[ResourceRequest]:
        output, _ = self._output(ctx)
        return [ResourceRequest(self.task.id, self.task.group, max(output, 0.0))]

    def step(self, ctx, grants):
        output, self.state = self._output(ctx)
        desired = max(output, 0.0)
        value = min(desired, grants.get(self.task.group, 0.0))
        return [ActuatorCommand(self.task.group, value)], [ResourceRequest(self.task.id, self.task.group, desired)]


class StepDaPowerRuntime(TaskRuntime):
    def __init__(
        self, task: ControlTask, *, mode: str, d_critical1: float, gain: float, p_max: float, signal: str
    ):
        super().__init__(task)
        self.mode = mode
        self.d_critical1 = d_critical1
        self.gain = gain
        self.p_max = p_max
        self.signal = signal

    def _desired(self, ctx: StepContext) -> float:
        distance = ctx.signals.get(self.signal, math.nan)
        if not math.isfinite(distance):
            # No usable distance estimate: do not inject extra power.
            return 0.0 if self.mode == MODE_NORMAL else self.p_max
        return da_power_step(distance, self.d_critical1, self.gain, self.p_max, self.mode)

    def requests(self, ctx: StepContext) -> List[ResourceRequest]:
        return [ResourceRequest(self.task.id, self.task.group, self._desired(ctx))]

    def step(self, ctx, grants):
        desired = self._desired(ctx)
        value = min(desired, grants.get(self.task.group, 0.0))
        next_req = ResourceRequest(self.task.id, self.task.group, desired)
        return [ActuatorCommand(self.task.group, value)], [next_req]


NON_FINITE = (math.nan, math.inf, -math.inf)


def random_signal(rng):
    """A signal value: finite, non-finite, or missing (``None``)."""
    roll = rng.random()
    if roll < 0.1:
        return None
    if roll < 0.25:
        return rng.choice(NON_FINITE)
    return rng.choice([0.0, -0.0, rng.uniform(-3.0, 3.0), rng.uniform(-200.0, 200.0)])


def random_gain(rng):
    return rng.choice([0.0, rng.uniform(0.0, 5.0), rng.uniform(-5.0, 50.0)])


def random_pid_settings(rng):
    lo = rng.choice([0.0, rng.uniform(-10.0, 0.0), rng.uniform(-1.0, 1.0)])
    return dict(
        kp=random_gain(rng), ki=random_gain(rng), kd=random_gain(rng),
        lo=lo, hi=lo + rng.choice([0.0, rng.uniform(0.0, 20.0)]),
        measurement="m", anti_windup=rng.random() < 0.5,
    )


def random_da_settings(rng):
    return dict(
        mode=rng.choice([MODE_NORMAL, MODE_RECOVERY]), d_critical1=rng.uniform(-0.5, 1.0),
        gain=random_gain(rng), p_max=rng.uniform(0.01, 5.0), signal="d",
    )


def drive_in_step(rng, runtimes, signal):
    """Step both runtimes through one random run of ticks; assert each output is identical; count them."""
    dt = rng.choice([0.01, rng.uniform(0.001, 0.1)])
    t0 = rng.uniform(-0.5, 2.5)
    outputs = 0
    for k in range(rng.randint(1, 15)):
        time = t0 + k * dt if rng.random() < 0.9 else rng.uniform(t0 - 1.0, t0)
        value = random_signal(rng)
        c = ctx(time=time, dt=dt, signals={} if value is None else {signal: value})
        grant = rng.choice([None, 0.0, math.inf, rng.uniform(0.0, 10.0)])
        grants = {} if grant is None else {"g": grant}
        # The first tick bootstraps through requests, as the loop does.
        if k == 0 or rng.random() < 0.3:
            new, old = (repr(rt.requests(c)) for rt in runtimes)
            assert new == old
            outputs += 1
        new, old = (repr(rt.step(c, grants)) for rt in runtimes)
        assert new == old
        outputs += 1
    return outputs


def test_pid_runtime_matches_its_step_function_reference():
    rng = random.Random(0x91D)
    outputs = 0
    seen = set()
    for _ in range(1200):
        settings = random_pid_settings(rng)
        times = sorted({round(rng.uniform(-1.0, 3.0), 3) for _ in range(rng.randint(1, 4))})
        reference = Waveform(tuple((t, rng.uniform(-5.0, 5.0)) for t in times), rng.choice(["linear", "hold"]))
        pid_task = task(reference=reference, group="g")
        runtimes = [cls(pid_task, **settings) for cls in (PidRuntime, StepPidRuntime)]
        outputs += drive_in_step(rng, runtimes, "m")
        assert (runtimes[0].last_output, runtimes[0].integrator, runtimes[0].prev_measurement) == (
            runtimes[1].state.last_output, runtimes[1].state.integrator, runtimes[1].state.prev_measurement)
        seen.add((settings["kd"] != 0.0, settings["anti_windup"], settings["lo"] < 0.0))
    assert outputs >= 10000
    assert len(seen) == 8


def test_da_power_runtime_matches_its_step_function_reference():
    rng = random.Random(0xDA)
    outputs = 0
    modes = set()
    for _ in range(1200):
        settings = random_da_settings(rng)
        runtimes = [cls(task(group="g"), **settings) for cls in (DaPowerRuntime, StepDaPowerRuntime)]
        outputs += drive_in_step(rng, runtimes, "d")
        modes.add(settings["mode"])
    assert outputs >= 10000
    assert modes == {MODE_NORMAL, MODE_RECOVERY}
