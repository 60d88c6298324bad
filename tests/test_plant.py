import math
import random

import numpy as np
import pytest

from oneguard import config as cfg
from oneguard.errors import SimFault
from oneguard.plant import (
    _EXTENSION,
    PLANT_SIGNALS,
    DisruptionBoundary,
    PlantParams,
    PlantState,
    _interp,
    initial_state,
    plant_signals,
    plant_step,
)

from test_config import diagnose, set_at

BOUNDARY = DisruptionBoundary(vertices=((0.2, 0.14), (0.8, 0.5), (1.4, 1.04)))


def params(**kw):
    defaults = dict(
        tau_e=0.02,
        tau_98=0.02,
        tau_n=0.25,
        k_gas=0.02,
        p_ohmic=0.3,
        nbi_energy_limit=1.3,
        degradation=((0.0, 1.0), (0.6, 1.0), (0.9, 0.85), (0.94, 0.25), (1.4, 0.2)),
        boundary=BOUNDARY,
        w_init=0.006,
        ne_init=0.3,
        gas_init=15.0,
        nbi_group="nbi",
        gas_group="gas",
    )
    defaults.update(kw)
    return PlantParams(**defaults)


def sample_polyline(boundary, margin=50.0, n=2_000_000):
    """Dense point cloud along the (extended) limit curve for the oracle."""
    pts = np.asarray(boundary.vertices, dtype=float)
    first_dir = (pts[0] - pts[1]) / abs(pts[0, 0] - pts[1, 0])
    last_dir = (pts[-1] - pts[-2]) / abs(pts[-1, 0] - pts[-2, 0])
    extended = np.vstack([pts[0] + first_dir * margin, pts, pts[-1] + last_dir * margin])
    segments = []
    lengths = []
    for a, b in zip(extended[:-1], extended[1:]):
        segments.append((a, b))
        lengths.append(np.hypot(*(b - a)))
    total = sum(lengths)
    cloud = []
    for (a, b), length in zip(segments, lengths):
        count = max(int(n * length / total), 2)
        t = np.linspace(0.0, 1.0, count)
        cloud.append(a + t[:, None] * (b - a))
    return np.vstack(cloud)


def numpy_signed_distance(boundary, ne, h98):
    """The boundary distance as first written, with numpy over all extended segments."""
    pts = np.asarray(boundary.vertices, dtype=float)
    first = pts[0] + (pts[0] - pts[1]) / abs(pts[0][0] - pts[1][0]) * _EXTENSION
    last = pts[-1] + (pts[-1] - pts[-2]) / abs(pts[-1][0] - pts[-2][0]) * _EXTENSION
    extended = np.vstack([first, pts, last])
    a, b = extended[:-1], extended[1:]
    p = np.array([ne, h98], dtype=float)
    ab = b - a
    t = np.einsum("ij,ij->i", p - a, ab) / np.einsum("ij,ij->i", ab, ab)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[:, None] * ab
    dist = float(np.min(np.hypot(*(p - closest).T)))
    return dist if h98 >= boundary.h_limit(ne) else -dist


def random_table(rng, n):
    xs = sorted(rng.sample(range(1, 10_000), n))
    return [x / 997.0 for x in xs], [rng.uniform(-2.0, 2.0) for _ in range(n)]


class TestInterp:
    def test_equals_numpy_interp_bit_for_bit(self):
        rng = random.Random(42)
        for _ in range(200):
            xs, ys = random_table(rng, rng.randint(2, 7))
            points = [rng.uniform(xs[0] - 1.0, xs[-1] + 1.0) for _ in range(50)]
            points += xs + [xs[0] - 5.0, xs[-1] + 5.0, math.nextafter(xs[0], -math.inf)]
            points += [math.nextafter(x, math.inf) for x in xs]
            for x in points:
                assert _interp(x, xs, ys).hex() == float(np.interp(x, xs, ys)).hex(), (x, xs, ys)


class TestDistance:
    def test_point_on_boundary_is_zero(self):
        assert BOUNDARY.signed_distance(0.8, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_perpendicular_offset_from_single_segment(self):
        flat = DisruptionBoundary(vertices=((0.0, 1.0), (2.0, 1.0)))
        assert flat.signed_distance(1.0, 1.0 + 0.3) == pytest.approx(0.3, abs=1e-12)
        assert flat.signed_distance(1.0, 1.0 - 0.3) == pytest.approx(-0.3, abs=1e-12)

    def test_sign_negative_past_the_limit(self):
        assert BOUNDARY.signed_distance(0.8, 0.2) < 0.0

    def test_matches_dense_sampling_oracle(self):
        cloud = sample_polyline(BOUNDARY)
        rng = random.Random(20250810)
        checked = 0
        while checked < 60:
            ne = rng.uniform(0.0, 1.8)
            h98 = rng.uniform(-0.2, 1.6)
            got = BOUNDARY.signed_distance(ne, h98)
            if abs(got) < 0.05:
                continue  # keep the sampling error term negligible
            diff = cloud - np.array([ne, h98])
            expected = float(np.min(np.hypot(diff[:, 0], diff[:, 1])))
            if h98 < BOUNDARY.h_limit(ne):
                expected = -expected
            assert got == pytest.approx(expected, abs=1e-6)
            checked += 1

    def test_lipschitz_along_trajectory(self):
        rng = random.Random(7)
        point = np.array([0.4, 0.9])
        for _ in range(500):
            step = np.array([rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)])
            before = BOUNDARY.signed_distance(point[0], point[1])
            point = point + step
            after = BOUNDARY.signed_distance(point[0], point[1])
            assert abs(after - before) <= np.hypot(*step) * (1.0 + 1e-9) + 1e-12

    def test_equals_the_numpy_formula_bit_for_bit(self):
        rng = random.Random(20251018)
        boundaries = [BOUNDARY] + [
            DisruptionBoundary(vertices=tuple(zip(*random_table(rng, rng.randint(2, 6)))))
            for _ in range(20)
        ]
        for boundary in boundaries:
            xs = [x for x, _ in boundary.vertices]
            points = [(rng.uniform(xs[0] - 1.0, xs[-1] + 1.0), rng.uniform(-3.0, 3.0)) for _ in range(500)]
            points += list(boundary.vertices) + [(x, 0.0) for x in xs]
            for ne, h98 in points:
                got = boundary.signed_distance(ne, h98)
                assert got.hex() == numpy_signed_distance(boundary, ne, h98).hex(), (ne, h98)

    def test_boundary_validation(self):
        # Checked by validate; DisruptionBoundary itself assumes a validated schedule.
        assert "error: plant.boundary: needs at least two points" in diagnose(set_at("plant.boundary", [[0.0, 0.0]]))
        assert "error: plant.boundary: densities must be strictly increasing" in diagnose(
            set_at("plant.boundary", [[0.5, 0.0], [0.5, 1.0]])
        )


class TestPlantStep:
    def test_equilibrium_is_a_fixed_point(self):
        p = params(ne_init=0.0, gas_init=0.0, w_init=0.02 * 0.3)
        state = initial_state(p)
        stepped = plant_step(state, p, p_nbi=0.0, gas_flux=0.0, dt=0.01)
        assert stepped.w_mj == pytest.approx(state.w_mj, abs=1e-15)
        assert stepped.ne_edge_norm == state.ne_edge_norm
        assert stepped.h98y2 == state.h98y2
        assert stepped.distance == state.distance

    def test_density_lag_matches_closed_form(self):
        p = params()
        dt = p.tau_n / 100.0
        state = initial_state(p)
        flux = 40.0
        target = p.k_gas * flux
        for k in range(1, 301):
            state = plant_step(state, p, p_nbi=0.0, gas_flux=flux, dt=dt)
            exact = target + (p.ne_init - target) * math.exp(-k * dt / p.tau_n)
            assert state.ne_edge_norm == pytest.approx(exact, rel=1e-3)

    def test_density_rises_monotonically_below_target(self):
        p = params()
        state = initial_state(p)
        flux = 15.0
        previous = state.ne_edge_norm
        for k in range(200):
            flux += 0.5
            state = plant_step(state, p, p_nbi=0.0, gas_flux=flux, dt=0.01)
            if state.disrupted:
                break
            assert state.ne_edge_norm >= previous
            previous = state.ne_edge_norm

    def test_sustained_ramp_ends_in_disruption(self):
        p = params()
        state = initial_state(p)
        for k in range(2000):
            state = plant_step(state, p, p_nbi=0.65, gas_flux=15.0 + 0.6 * k, dt=0.01)
            if state.disrupted:
                break
        assert state.disrupted

    def test_disruption_is_absorbing(self):
        p = params()
        state = initial_state(p)
        while not state.disrupted:
            state = plant_step(state, p, p_nbi=0.65, gas_flux=state.gas_flux + 1.0, dt=0.01)
        frozen = state
        for _ in range(10):
            state = plant_step(state, p, p_nbi=1.3, gas_flux=99.0, dt=0.01)
            assert state is frozen
        for field in ("h98y2", "ne_edge_norm", "w_mj", "nbi_power", "nbi_energy", "gas_flux"):
            assert getattr(state, field) == getattr(frozen, field)

    def test_energy_bookkeeping_exact(self):
        p = params()
        state = initial_state(p)
        rng = random.Random(3)
        powers = []
        dt = 0.01
        for _ in range(5000):
            power = rng.uniform(0.0, 1.3)
            powers.append(power)
            state = plant_step(state, p, p_nbi=power, gas_flux=0.0, dt=dt)
            if state.disrupted:
                break
        total = 0.0
        for power in powers:
            total += dt * power
        assert abs(state.nbi_energy - total) <= 1e-9 * max(total, 1.0)

    def test_non_finite_command_faults(self):
        p = params()
        with pytest.raises(SimFault):
            plant_step(initial_state(p), p, p_nbi=math.nan, gas_flux=0.0, dt=0.01)

    def test_negative_commands_clamp_and_energy_never_decreases(self):
        p = params()
        state = initial_state(p)
        rng = random.Random(11)
        previous_energy = state.nbi_energy
        for _ in range(300):
            state = plant_step(
                state, p, p_nbi=rng.uniform(-1.0, 1.0), gas_flux=rng.uniform(-20.0, 20.0), dt=0.01
            )
            assert state.nbi_energy >= previous_energy
            assert state.nbi_power >= 0.0 and state.gas_flux >= 0.0
            previous_energy = state.nbi_energy

    def test_signals_expose_distance_and_energy_fraction(self):
        p = params()
        state = initial_state(p)
        signals = plant_signals(state, p)
        assert signals["d_ne_edge"] == pytest.approx(
            BOUNDARY.signed_distance(state.ne_edge_norm, state.h98y2)
        )
        assert signals["nbi_energy_frac"] == 0.0

    def test_published_names_are_the_signal_keys(self):
        p = params()
        assert tuple(plant_signals(initial_state(p), p)) == PLANT_SIGNALS
        assert cfg.PLANT_SIGNALS is PLANT_SIGNALS


class TestCarriedDistance:
    """PlantState.distance is the boundary distance of the state it sits on."""

    def fresh(self, p, state):
        return p.boundary.signed_distance(state.ne_edge_norm, state.h98y2)

    def test_initial_state(self):
        for ne in (0.0, 0.3, 0.95, 1.6):
            p = params(ne_init=ne)
            state = initial_state(p)
            assert state.distance == self.fresh(p, state)
            assert plant_signals(state, p)["d_ne_edge"] == state.distance

    def test_every_step_and_the_frozen_disrupted_state(self):
        p = params()
        state = initial_state(p)
        for k in range(2000):
            state = plant_step(state, p, p_nbi=0.65, gas_flux=15.0 + 0.6 * k, dt=0.01)
            assert state.distance == self.fresh(p, state)
            assert state.disrupted == (state.distance <= 0.0)
            if state.disrupted:
                break
        assert state.disrupted
        for _ in range(5):
            state = plant_step(state, p, p_nbi=1.3, gas_flux=99.0, dt=0.01)
            assert state.distance == self.fresh(p, state) <= 0.0
            assert plant_signals(state, p)["d_ne_edge"] == state.distance


class TestEnergyCheck:
    """``nbi_energy_frac``, the injected-energy fraction fed to the actuator-limit event."""

    def fraction(self, nbi_energy, limit=1.3):
        p = params(nbi_energy_limit=limit)
        state = initial_state(p)._replace(nbi_energy=nbi_energy)
        return plant_signals(state, p)["nbi_energy_frac"]

    def test_zero_energy_zero_fraction(self):
        assert self.fraction(0.0) == 0.0

    def test_threshold_boundary(self):
        assert self.fraction(1.235, limit=1.3) == pytest.approx(0.95, abs=1e-12)

    def test_full_budget(self):
        assert self.fraction(1.3, limit=1.3) == pytest.approx(1.0, abs=1e-15)
