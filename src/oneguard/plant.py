"""0-D surrogate plasma standing in for the machine-dependent layer.

The model only has to produce the phenomenology the decision chain feeds
on: a gas ramp drags normalized edge density up through a first-order lag,
confinement quality degrades as density approaches the empirical limit,
and crossing the limit curve in the (density, confinement) plane is an
absorbing disruption. Stored energy follows a plain 0-D power balance and
injected beam energy is accumulated exactly for the energy-limit event.

Integration is a fixed-step explicit update at the control period; the
density lag uses the exact zero-order-hold discretization of the linear
lag rather than a forward-Euler slope, which keeps the trace bit-exact
against the closed-form solution.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence, Tuple

from .errors import SimFault
from .model import Record

# End segments of the limit curve are continued this far in density so the
# signed distance stays continuous for any state the surrogate can reach.
_EXTENSION = 1.0e6


def _interp(x: float, xs: Sequence[float], ys: Sequence[float]) -> float:
    """``numpy.interp(x, xs, ys)`` for one point, with numpy's float operations.

    Holds ``ys[0]`` below the first breakpoint and ``ys[-1]`` at or past
    the last one; ``xs`` must be strictly increasing.
    """
    j = bisect_right(xs, x) - 1
    if j < 0:
        return ys[0]
    if j >= len(xs) - 1:
        return ys[-1]
    if xs[j] == x:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return slope * (x - xs[j]) + ys[j]


class DisruptionBoundary(Record):
    """Piecewise-linear empirical limit in the (density, confinement) plane.

    Vertices are at least two (ne_edge_norm, h98y2) pairs with strictly
    increasing density, so the curve is a function of density; the end
    segments are extrapolated linearly. States above the curve are stable
    (positive distance), states below have crossed the limit (negative
    distance). The parser builds a boundary before ``validate`` has seen
    its vertices, so the segments wait for their first use: ``validate``
    checks that each has a positive, finite squared length.
    """

    _fields = ("vertices",)
    __slots__ = _fields + ("_xs", "_ys", "_segments")

    def __init__(self, vertices: Tuple[Tuple[float, float], ...]) -> None:
        self.vertices = vertices
        self._xs = tuple(float(x) for x, _ in vertices)
        self._ys = tuple(float(y) for _, y in vertices)
        self._segments = None

    @property
    def segments(self) -> Tuple[Tuple[float, float, float, float, float], ...]:
        """Extended segments as (ax, ay, abx, aby, ab.ab), built on first use."""
        if self._segments is not None:
            return self._segments
        xs, ys = self._xs, self._ys

        def extended(i: int, j: int) -> Tuple[float, float]:
            """End vertex ``i`` moved away from its neighbour ``j``, _EXTENSION in density."""
            run = abs(xs[i] - xs[j])
            return (
                xs[i] + (xs[i] - xs[j]) / run * _EXTENSION,
                ys[i] + (ys[i] - ys[j]) / run * _EXTENSION,
            )

        points = [extended(0, 1), *zip(xs, ys), extended(-1, -2)]
        segments = []
        for (ax, ay), (bx, by) in zip(points, points[1:]):
            abx, aby = bx - ax, by - ay
            segments.append((ax, ay, abx, aby, abx * abx + aby * aby))
        self._segments = tuple(segments)
        return self._segments

    def h_limit(self, ne: float) -> float:
        """Curve height at ``ne`` (end segments extrapolated)."""
        xs, ys = self._xs, self._ys
        if ne < xs[0]:
            slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
            return ys[0] + slope * (ne - xs[0])
        if ne > xs[-1]:
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            return ys[-1] + slope * (ne - xs[-1])
        return _interp(ne, xs, ys)

    def signed_distance(self, ne: float, h98: float) -> float:
        """Euclidean distance to the curve, negative once past the limit."""
        dist = math.inf
        for ax, ay, abx, aby, ab2 in self.segments:
            t = ((ne - ax) * abx + (h98 - ay) * aby) / ab2
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            # abs(complex) is the C library's hypot, as numpy.hypot is;
            # math.hypot rounds differently in the last bit.
            d = abs(complex(ne - (ax + t * abx), h98 - (ay + t * aby)))
            if d < dist:
                dist = d
        return dist if h98 >= self.h_limit(ne) else -dist


class PlantParams(Record):
    """Tuning of the surrogate dynamics; all values schedule-supplied.

    The time constants and ``nbi_energy_limit`` are positive, and the
    ``degradation`` table has at least two strictly increasing densities.
    ``nbi_group`` and ``gas_group`` name the actuator groups whose merged
    commands drive the beam and the gas valve.
    """

    _fields = (
        "tau_e", "tau_98", "tau_n", "k_gas", "p_ohmic", "nbi_energy_limit", "w_init", "ne_init", "gas_init",
        "nbi_group", "gas_group", "degradation", "boundary",
    )
    __slots__ = _fields + ("_deg_xs", "_deg_ys")

    def __init__(
        self, tau_e: float, tau_98: float, tau_n: float, k_gas: float, p_ohmic: float, nbi_energy_limit: float,
        w_init: float, ne_init: float, gas_init: float, nbi_group: str, gas_group: str,
        degradation: Tuple[Tuple[float, float], ...], boundary: DisruptionBoundary,
    ) -> None:
        self.tau_e, self.tau_98, self.tau_n, self.k_gas, self.p_ohmic = tau_e, tau_98, tau_n, k_gas, p_ohmic
        self.nbi_energy_limit, self.w_init, self.ne_init, self.gas_init = nbi_energy_limit, w_init, ne_init, gas_init
        self.nbi_group, self.gas_group, self.degradation, self.boundary = nbi_group, gas_group, degradation, boundary
        self._deg_xs = tuple(float(x) for x, _ in degradation)
        self._deg_ys = tuple(float(y) for _, y in degradation)

    def degradation_at(self, ne: float) -> float:
        return _interp(ne, self._deg_xs, self._deg_ys)

    def h98_at(self, ne: float) -> float:
        return (self.tau_e / self.tau_98) * self.degradation_at(ne)


class PlantState(Record):
    """Snapshot of the surrogate plasma and its actuators.

    ``distance`` is the boundary's signed distance at
    (``ne_edge_norm``, ``h98y2``), computed once when the state is made.
    """

    __slots__ = ("h98y2", "ne_edge_norm", "w_mj", "nbi_power", "nbi_energy", "gas_flux", "distance", "disrupted")

    def __init__(
        self, h98y2: float, ne_edge_norm: float, w_mj: float, nbi_power: float, nbi_energy: float, gas_flux: float,
        distance: float, disrupted: bool = False,
    ) -> None:
        self.h98y2 = h98y2
        self.ne_edge_norm = ne_edge_norm
        self.w_mj = w_mj
        self.nbi_power = nbi_power
        self.nbi_energy = nbi_energy
        self.gas_flux = gas_flux
        self.distance = distance
        self.disrupted = disrupted


def initial_state(params: PlantParams) -> PlantState:
    ne = params.ne_init
    h98 = params.h98_at(ne)
    return PlantState(
        h98y2=h98,
        ne_edge_norm=ne,
        w_mj=params.w_init,
        nbi_power=0.0,
        nbi_energy=0.0,
        gas_flux=params.gas_init,
        distance=params.boundary.signed_distance(ne, h98),
    )


def plant_step(
    state: PlantState,
    params: PlantParams,
    p_nbi: float,
    gas_flux: float,
    dt: float,
) -> PlantState:
    """Advance the surrogate one control period.

    Disruption is absorbing: once set, the state no longer changes.
    Commands are magnitudes; negative values clamp to zero (the beam and
    the valve cannot run backwards), keeping injected energy
    non-decreasing no matter the caller.
    """
    if not (math.isfinite(p_nbi) and math.isfinite(gas_flux)):
        raise SimFault(f"non-finite actuator command (p_nbi={p_nbi!r}, gas={gas_flux!r})")
    p_nbi = max(p_nbi, 0.0)
    gas_flux = max(gas_flux, 0.0)

    if state.disrupted:
        return state

    w = state.w_mj + dt * (p_nbi + params.p_ohmic - state.w_mj / params.tau_e)
    target = params.k_gas * gas_flux
    ne = target + (state.ne_edge_norm - target) * math.exp(-dt / params.tau_n)
    h98 = params.h98_at(ne)
    nbi_energy = state.nbi_energy + dt * p_nbi
    dist = params.boundary.signed_distance(ne, h98)
    return PlantState(
        h98y2=h98,
        ne_edge_norm=ne,
        w_mj=w,
        nbi_power=p_nbi,
        nbi_energy=nbi_energy,
        gas_flux=gas_flux,
        distance=dist,
        disrupted=dist <= 0.0,
    )


#: Signals the surrogate plant publishes every tick, in ``plant_signals`` order.
PLANT_SIGNALS = (
    "h98y2", "ne_edge_norm", "stored_energy", "nbi_power", "nbi_energy", "nbi_energy_frac", "gas_flux", "d_ne_edge",
)


def plant_signals(state: PlantState, params: PlantParams) -> dict:
    """The generic continuous signals the monitor and controllers see, keyed by ``PLANT_SIGNALS``."""
    return {
        "h98y2": state.h98y2,
        "ne_edge_norm": state.ne_edge_norm,
        "stored_energy": state.w_mj,
        "nbi_power": state.nbi_power,
        "nbi_energy": state.nbi_energy,
        "nbi_energy_frac": state.nbi_energy / params.nbi_energy_limit,
        "gas_flux": state.gas_flux,
        "d_ne_edge": state.distance,
    }
