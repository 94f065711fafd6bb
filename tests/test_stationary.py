import math

import numpy as np
import pytest

from cavityclock.core import (DecayResult, FieldParams, REGIME_GENERIC, REGIME_LONG,
                              REGIME_SHORT)
from cavityclock.errors import NearThresholdError
from cavityclock.kinematics import cavity_geometry
from cavityclock.quadrature import QuadratureConfig, integrate
from cavityclock.specialfn import resonance_kernel
from cavityclock.stationary import (_integrand_scaled, decay_probability_stationary,
                                    decay_rate_stationary_longtime)

GEOM = cavity_geometry(1.0, 0.0)
FIELDS = FieldParams(M=1.0, lam=1.0)
RATE_L1_M1 = 0.028103438618244724  # 4 pi cos^2(sqrt(pi^2-1)/2) / sqrt(pi^2-1)


def _integrand_full_line(u: np.ndarray, m: float, ts: float) -> np.ndarray:
    """_integrand_scaled without the evenness reduction: the stable rewrite
    uses the mirrored identity cos^2(u/2) = sin^2((u + pi)/2) for u < 0."""
    u = np.asarray(u, dtype=float)
    om = np.hypot(u, m)
    ker = resonance_kernel(om - math.pi, ts)
    shift = np.where(u >= 0.0, u - math.pi, u + math.pi)
    other = np.where(u >= 0.0, u + math.pi, u - math.pi)
    sinc = np.sinc(0.5 * shift / math.pi)
    return 0.125 * sinc * sinc * ker / (other * other * om)


class TestDecayProbability:
    def test_zero_duration(self):
        r = decay_probability_stationary(GEOM, FIELDS, 0.0)
        assert r.value == 0.0 and r.kind == "probability"

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            decay_probability_stationary(GEOM, FIELDS, -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_duration(self, t):
        with pytest.raises(ValueError, match="finite"):
            decay_probability_stationary(GEOM, FIELDS, t)

    def test_requires_resting_cavity(self):
        with pytest.raises(ValueError):
            decay_probability_stationary(cavity_geometry(1.0, 0.3), FIELDS, 1.0)

    def test_coupling_scales_exactly_quadratically(self):
        p1 = decay_probability_stationary(GEOM, FieldParams(M=1.0, lam=1.0), 0.5)
        p2 = decay_probability_stationary(GEOM, FieldParams(M=1.0, lam=2.0), 0.5)
        assert p2.value == 4.0 * p1.value

    def test_short_time_quadratic_law(self):
        pa = decay_probability_stationary(GEOM, FIELDS, 0.01)
        pb = decay_probability_stationary(GEOM, FIELDS, 0.005)
        assert pa.value / pb.value == pytest.approx(4.0, rel=1e-2)
        assert pa.regime == REGIME_SHORT

    def test_monotone_in_duration(self):
        ts = [0.5, 2.0, 10.0, 40.0]
        ps = [decay_probability_stationary(GEOM, FIELDS, t).value for t in ts]
        assert all(b > a for a, b in zip(ps[:-1], ps[1:]))

    def test_even_integrand_half_domain_doubling(self):
        m, ts = 1.0, 7.0
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14)
        half = integrate(lambda u: _integrand_scaled(u, m, ts), 0.0, 30.0, cfg)
        full = integrate(lambda u: _integrand_full_line(u, m, ts), -30.0, 30.0, cfg)
        assert half.value == pytest.approx(full.value, rel=1e-8)

    def test_regime_tags(self):
        assert decay_probability_stationary(GEOM, FIELDS, 0.01).regime == REGIME_SHORT
        assert decay_probability_stationary(GEOM, FIELDS, 10.0).regime == REGIME_GENERIC

    def test_error_estimate_reported(self):
        r = decay_probability_stationary(GEOM, FIELDS, 1.0)
        assert 0.0 < r.error_estimate < 1e-4 * r.value


class TestLongtimeRate:
    def test_frozen_value(self):
        r = decay_rate_stationary_longtime(GEOM, FIELDS)
        assert r.value == pytest.approx(RATE_L1_M1, rel=1e-12)
        assert r.kind == "rate" and r.regime == REGIME_LONG

    def test_below_threshold_zero(self):
        r = decay_rate_stationary_longtime(GEOM, FieldParams(M=4.0, lam=1.0))
        assert r.value == 0.0

    def test_near_threshold_guard(self):
        with pytest.raises(NearThresholdError):
            decay_rate_stationary_longtime(GEOM, FieldParams(M=math.pi * (1 - 1e-8)))

    def test_small_cavity_limit(self):
        for l in [0.1, 0.03, 0.01]:
            g = cavity_geometry(l, 0.0)
            r = decay_rate_stationary_longtime(g, FIELDS)
            assert r.value * 4.0 * math.pi**2 / l**3 == pytest.approx(1.0, abs=0.05), l

    def test_small_mass_limit(self):
        for M in [0.5, 0.1]:
            r = decay_rate_stationary_longtime(GEOM, FieldParams(M=M))
            # leading term lam^2 l^3 / (4 pi^2) per unit time as M -> 0
            ratio = r.value * 4.0 * math.pi**2
            assert ratio == pytest.approx(1.0, abs=0.3 * M * M + 0.05), M

    def test_lambda_scaling(self):
        r1 = decay_rate_stationary_longtime(GEOM, FieldParams(M=1.0, lam=1.0))
        r3 = decay_rate_stationary_longtime(GEOM, FieldParams(M=1.0, lam=3.0))
        assert r3.value == 9.0 * r1.value

    def test_longtime_slope_consistency(self):
        # operational meaning of the delta-function limit; mirrored in the
        # acceptance suite at its stated tolerance
        cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-9)
        ts = np.array([50.0, 100.0])
        ps = [decay_probability_stationary(GEOM, FIELDS, float(t), cfg).value for t in ts]
        slope = (ps[1] - ps[0]) / (ts[1] - ts[0])
        assert slope == pytest.approx(RATE_L1_M1, rel=0.02)


class TestFieldParams:
    def test_validation(self):
        for value in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="M must be positive and finite"):
                FieldParams(M=value)
        for value in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
                FieldParams(M=1.0, lam=value)


class TestDecayResult:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, value):
        # one check for every observable: a value or estimate that is not
        # finite is a numerical failure, never a result
        with pytest.raises(OverflowError, match="not finite"):
            DecayResult(value, "rate", 0.0, REGIME_LONG)
        with pytest.raises(OverflowError, match="not finite"):
            DecayResult(1.0, "probability", value, REGIME_SHORT)

    def test_coupling_overflow_is_numerical_failure(self):
        with pytest.raises(OverflowError):
            decay_rate_stationary_longtime(GEOM, FieldParams(M=1.0, lam=1e300))
