import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityclock.errors import HorizonError, SuperluminalPathError, WedgeDomainError
from cavityclock.kinematics import (Trajectory, cavity_geometry,
                                    minkowski_from_rindler, proper_time,
                                    rindler_from_minkowski)


class TestProperTime:
    def test_rest(self):
        r = proper_time(Trajectory.constant_velocity(0.0), 0.0, 5.0)
        assert r.value == pytest.approx(5.0, rel=1e-14)

    def test_constant_velocity(self):
        r = proper_time(Trajectory.constant_velocity(0.6), 0.0, 1.0)
        assert r.value == pytest.approx(0.8, abs=1e-13)

    def test_sinusoidal_high_frequency(self):
        # A -> 0 with A w -> 0: proper time approaches the resting value
        # to (A w)^2 / 4 relative order; fine-grid oracle value frozen
        r = proper_time(Trajectory.sinusoidal(1e-4, 100.0), 0.0, 10.0)
        assert r.value == pytest.approx(9.999749879054727, rel=1e-10)
        # deviation from the leading law is the partial-period remainder of
        # cos^2, bounded by (A w)^2 / (2 w)
        leading = 10.0 * (1.0 - (1e-4 * 100.0) ** 2 / 4.0)
        assert r.value == pytest.approx(leading, abs=(1e-4 * 100.0) ** 2 / 200.0)

    def test_superluminal_rejected(self):
        with pytest.raises(SuperluminalPathError):
            proper_time(Trajectory.sinusoidal(1.0, 2.0), 0.0, 3.0)
        with pytest.raises(SuperluminalPathError):
            Trajectory.constant_velocity(1.0)

    def test_reversed_interval(self):
        with pytest.raises(ValueError):
            proper_time(Trajectory.constant_velocity(0.0), 1.0, 0.0)

    @given(v=st.floats(-0.95, 0.95), duration=st.floats(0.1, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_coordinate_duration(self, v, duration):
        r = proper_time(Trajectory.constant_velocity(v), 0.0, duration)
        assert r.value <= duration * (1.0 + 1e-12)
        if v != 0.0:
            assert r.value < duration


class TestRindlerMaps:
    def test_reference_trajectory(self):
        xi, tau = rindler_from_minkowski(1.0 / 0.7, 0.0, 0.7)
        assert xi == pytest.approx(0.0, abs=1e-14)
        assert tau == 0.0

    def test_direct_substitution(self):
        alpha = 0.7
        xi, _ = rindler_from_minkowski(2.0 / alpha, 0.0, alpha)
        assert xi == pytest.approx(math.log(2.0) / alpha, rel=1e-14)

    @given(alpha=st.floats(0.1, 3.0), xi=st.floats(-2.0, 2.0), tau=st.floats(-2.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, alpha, xi, tau):
        # the inverse map loses ~e^{2 alpha tau} precision near the horizon
        # (cancellation in x - t is intrinsic), so keep the rapidity moderate
        if abs(alpha * tau) > 3.0:
            tau = math.copysign(3.0 / alpha, tau)
        x, t = minkowski_from_rindler(xi, tau, alpha)
        assert x > abs(t)
        xi2, tau2 = rindler_from_minkowski(x, t, alpha)
        assert xi2 == pytest.approx(xi, abs=1e-12)
        assert tau2 == pytest.approx(tau, abs=1e-12)

    def test_outside_wedge_rejected(self):
        with pytest.raises(WedgeDomainError):
            rindler_from_minkowski(1.0, 2.0, 1.0)
        with pytest.raises(WedgeDomainError):
            rindler_from_minkowski(-1.0, 0.0, 1.0)

    def test_constant_xi_worldline_has_proper_acceleration_alpha_exp(self):
        # differentiate the mapped worldline numerically (central stencils)
        alpha, xi = 0.8, 0.4
        d = 1e-4
        taus = np.arange(-2, 3) * d
        xs = np.array([minkowski_from_rindler(xi, float(s), alpha)[0] for s in taus])
        ts = np.array([minkowski_from_rindler(xi, float(s), alpha)[1] for s in taus])
        v = (xs[2:] - xs[:-2]) / (ts[2:] - ts[:-2])           # at taus[1:4]
        a = (v[2] - v[0]) / (ts[3] - ts[1])                   # at tau = 0
        gamma2 = 1.0 / (1.0 - v[1] ** 2)
        proper_acc = abs(a) * gamma2**1.5
        assert proper_acc == pytest.approx(alpha * math.exp(-alpha * xi), rel=1e-6)


class TestCavityGeometry:
    def test_resting(self):
        g = cavity_geometry(2.0, 0.0)
        assert (g.omega1, g.xi_minus, g.xi_plus) == (math.pi / 2.0, -1.0, 1.0)
        assert all(type(v) is float for v in (g.l, g.alpha, g.omega1, g.xi_minus, g.xi_plus))

    def test_accelerated_example(self):
        g = cavity_geometry(1.0, 0.01)
        assert g.omega1 == pytest.approx(3.141566473476465, rel=1e-13)
        # walls at Rindler positions ln(1 -+ alpha l/2)/alpha
        assert g.xi_minus == pytest.approx(math.log(0.995) / 0.01, rel=1e-13)
        assert g.xi_plus == pytest.approx(math.log(1.005) / 0.01, rel=1e-13)
        # approaches pi/l as alpha -> 0
        assert abs(g.omega1 - math.pi) < 1e-4

    def test_wall_relations(self):
        g = cavity_geometry(1.0, 0.5)
        # lab wall positions sigma_-+ = e^{alpha xi_-+}/alpha = 1/alpha -+ l/2
        sigma_minus = math.exp(g.alpha * g.xi_minus) / g.alpha
        sigma_plus = math.exp(g.alpha * g.xi_plus) / g.alpha
        assert sigma_minus == pytest.approx(1.0 / 0.5 - 0.5, rel=1e-14)
        assert sigma_plus - sigma_minus == pytest.approx(g.l, rel=1e-14)
        assert 2.0 / (sigma_minus + sigma_plus) == pytest.approx(g.alpha, rel=1e-14)
        assert g.xi_plus > g.xi_minus
        # the lowest mode sin(omega1 (xi - xi_-)) vanishes on both walls
        assert g.omega1 * (g.xi_plus - g.xi_minus) == pytest.approx(math.pi, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-12, 1e-300, 0.1, 1.9])
    def test_closed_forms_against_mpmath(self, alpha):
        # the definitions ln(sigma_+/sigma_-) and ln(alpha sigma_-+)/alpha in
        # enough digits to resolve 1/alpha -+ l/2, against the closed forms
        mp = pytest.importorskip("mpmath").mp
        g = cavity_geometry(1.0, alpha)
        with mp.workdps(340):
            a = mp.mpf(alpha)
            sigma_minus, sigma_plus = 1 / a - mp.mpf(0.5), 1 / a + mp.mpf(0.5)
            ref = [a * mp.pi / mp.log(sigma_plus / sigma_minus),
                   mp.log(a * sigma_minus) / a, mp.log(a * sigma_plus) / a]
            for got, want in zip((g.omega1, g.xi_minus, g.xi_plus), ref):
                assert float(abs(got / want - 1)) <= 2.3e-16, (got, float(want))

    def test_alpha_to_zero_limit(self):
        for alpha in [1e-3, 1e-5]:
            g = cavity_geometry(1.0, alpha)
            assert g.omega1 == pytest.approx(math.pi, rel=1e-5)

    def test_horizon_crossing(self):
        with pytest.raises(HorizonError):
            cavity_geometry(1.0, 2.1)
        with pytest.raises(HorizonError):
            cavity_geometry(1.0, 2.0)

    def test_invalid_inputs(self):
        for l, alpha in [(0.0, 0.1), (-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                         (math.nan, 0.5), (1.0, -0.1), (1.0, math.nan), (1.0, math.inf),
                         (1.0, -math.inf),
                         (5e-324, 0.0)]:  # omega1 = pi/l overflows
            with pytest.raises(ValueError):
                cavity_geometry(l, alpha)
