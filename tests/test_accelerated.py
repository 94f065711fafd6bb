import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityclock.accelerated import (AveragingWindow, averaged_decay_rate,
                                     decay_probability_accelerated,
                                     decay_rate_accelerated_longtime,
                                     ideal_clock_deviation, ideal_clock_deviation_result,
                                     rindler_mode_spatial, spatial_overlap, spatial_overlaps)
from cavityclock.core import FieldParams
from cavityclock.errors import HorizonError, UndefinedRatioError
from cavityclock.kinematics import cavity_geometry
from cavityclock.quadrature import QuadratureConfig
from cavityclock.specialfn import bessel_k_imag_order
from cavityclock.stationary import decay_rate_stationary_longtime

FIELDS = FieldParams(M=1.0, lam=1.0)
G_HALF = cavity_geometry(1.0, 0.5)

# frozen against an independent high-precision quadrature of the defining
# integral (arbitrary-precision Bessel, adaptive tanh-sinh rule)
OVERLAP_SCALED_REF = -0.0774116137450397
OVERLAP_REF = -4.93547221062976e-06

# regression values computed with this artifact; the qualitative content
# (growth with alpha, large-alpha breakdown) is the claim under test
DEVIATION_REGRESSION = {0.02: 0.06731538134850501,
                        0.2: 0.6742484770260255,
                        1.9: 16.179205712651385}


class TestRindlerMode:
    def test_modulus_identity(self):
        # |F|^2 = (1/pi Om) (Om/alpha) sinh(pi Om/alpha)/pi * K^2
        Om, alpha, M, xi = 1.0, 0.5, 1.0, 0.3
        nu = Om / alpha
        F = rindler_mode_spatial(Om, xi, M, alpha)
        K = bessel_k_imag_order(nu, (M / alpha) * math.exp(alpha * xi)).value
        rhs = (1.0 / (math.pi * Om)) * (nu * math.sinh(math.pi * nu) / math.pi) * K * K
        assert abs(F) ** 2 == pytest.approx(rhs, rel=1e-10)

    def test_wave_equation_residual(self):
        Om, alpha, M, h = 1.0, 0.5, 1.0, 1e-3
        for xi in np.linspace(-1.0, 1.0, 9):
            f0 = rindler_mode_spatial(Om, float(xi), M, alpha)
            fp = rindler_mode_spatial(Om, float(xi) + h, M, alpha)
            fm = rindler_mode_spatial(Om, float(xi) - h, M, alpha)
            second = (fp - 2.0 * f0 + fm) / (h * h)
            residual = second + (Om**2 - M**2 * math.exp(2.0 * alpha * xi)) * f0
            scale = max(abs(Om**2 * f0), abs(M**2 * math.exp(2.0 * alpha * xi) * f0))
            assert abs(residual) / scale < 1e-4

    def test_decay_at_large_xi(self):
        vals = [abs(rindler_mode_spatial(1.0, xi, 1.0, 0.5)) for xi in (2.0, 4.0, 6.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-8 * vals[0]


class TestSpatialOverlap:
    def test_frozen_reference(self):
        ov = spatial_overlap(G_HALF.omega1, G_HALF, 1.0)
        assert ov.scaled_value == pytest.approx(OVERLAP_SCALED_REF, rel=1e-9)
        assert ov.value == pytest.approx(OVERLAP_REF, rel=1e-9)
        assert ov.scale_log == pytest.approx(-0.5 * math.pi * G_HALF.omega1 / 0.5)

    def test_brute_force_oracle(self):
        # 1e5-node trapezoid of the same integrand, independent of the
        # adaptive panel machinery
        from cavityclock.specialfn import bessel_k_scaled_values
        g = G_HALF
        nu = g.omega1 / g.alpha
        xi = np.linspace(g.xi_minus, g.xi_plus, 100_001)
        z = (1.0 / g.alpha) * np.exp(g.alpha * xi)
        vals, _ = bessel_k_scaled_values(nu, z)
        integ = vals * np.sin(g.omega1 * (xi - g.xi_minus))
        oracle = float(np.trapezoid(integ, xi))
        ov = spatial_overlap(g.omega1, g, 1.0)
        assert ov.scaled_value == pytest.approx(oracle, rel=1e-6)

    def test_integrand_vanishes_at_walls(self):
        g = G_HALF
        for xi in (g.xi_minus, g.xi_plus):
            assert math.sin(g.omega1 * (xi - g.xi_minus)) == pytest.approx(0.0, abs=1e-12)

    def test_mass_shift_equals_wall_translation(self):
        # z = (M/alpha) e^{alpha xi}: scaling M by e^{alpha c} is the same
        # integrand over walls translated by -c, so the overlap is invariant
        # when geometry and mass shift together; checked through the scaled
        # value at a non-resonant frequency
        g = G_HALF
        om = 2.3
        base = spatial_overlap(om, g, 1.0).scaled_value

        c = 0.37
        M2 = math.exp(g.alpha * c)
        nu = om / g.alpha
        from cavityclock.specialfn import bessel_k_scaled_values
        xi = np.linspace(g.xi_minus - c, g.xi_plus - c, 20_001)
        z = (M2 / g.alpha) * np.exp(g.alpha * xi)
        vals, _ = bessel_k_scaled_values(nu, z)
        integ = vals * np.sin(g.omega1 * (xi - (g.xi_minus - c)))
        shifted = float(np.trapezoid(integ, xi))
        assert shifted == pytest.approx(base, rel=1e-7)

    def test_requires_accelerated_geometry(self):
        with pytest.raises(ValueError):
            spatial_overlap(1.0, cavity_geometry(1.0, 0.0), 1.0)


def overlap_bits(ov):
    return (ov.value.hex(), ov.scaled_value.hex(), ov.scale_log.hex(),
            ov.error_estimate.hex(), ov.evaluations, ov.converged)


class TestLockstepOverlaps:
    def test_each_equals_spatial_overlap(self):
        # mixed accelerations and frequencies: series rows next to
        # oscillatory rows (nu = 80, 150), one- and many-panel overlaps
        geoms = [G_HALF, cavity_geometry(1.0, 0.2), G_HALF, cavity_geometry(0.7, 1.1),
                 cavity_geometry(1.0, 0.2), G_HALF]
        omegas = [G_HALF.omega1, 0.3, 40.0, 2.0, 30.0, 1e-6]
        for M, cfg in ((1.0, None), (2.5, QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300))):
            got = spatial_overlaps(omegas, geoms, M, cfg)
            want = [spatial_overlap(om, g, M, cfg) for om, g in zip(omegas, geoms)]
            assert [overlap_bits(ov) for ov in got] == [overlap_bits(ov) for ov in want]
        assert len({ov.evaluations for ov in want}) > 1

    @pytest.mark.parametrize("alpha, om, M", [(0.5, 10.0, 1.0), (0.2, 10.0, 2.5),
                                              (0.5, 40.0, 1.0), (1.1, 2.0, 1.0)])
    def test_equals_panel_by_panel_quadrature(self, alpha, om, M):
        # the overlap as one integrate() over one-panel Bessel calls, with the
        # worst kernel estimate of every panel entering the error
        from cavityclock.quadrature import integrate
        from cavityclock.specialfn import bessel_k_scaled_values
        g = cavity_geometry(1.0, alpha)
        nu = om / alpha
        worst = [0.0]

        def integrand(xi):
            vals, est = bessel_k_scaled_values(nu, (M / alpha) * np.exp(alpha * xi))
            worst[0] = max(worst[0], est)
            return vals * np.sin(g.omega1 * (xi - g.xi_minus))

        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300)
        res = integrate(integrand, g.xi_minus, g.xi_plus, cfg)
        ov = spatial_overlaps([om], [g], M, cfg)[0]
        assert ov.evaluations > 15
        assert ov.scaled_value.hex() == res.value.hex()
        assert ov.error_estimate.hex() == (res.error_estimate
                                           + abs(res.value) * worst[0]).hex()

    def test_validation(self):
        with pytest.raises(ValueError):
            spatial_overlaps([1.0, 2.0], [G_HALF], 1.0)
        with pytest.raises(ValueError):
            spatial_overlaps([1.0, 2.0], [G_HALF, cavity_geometry(1.0, 0.0)], 1.0)
        with pytest.raises(ValueError):
            spatial_overlaps([1.0, 0.0], [G_HALF, G_HALF], 1.0)

    def test_window_costs_one_kernel_call_per_round(self, monkeypatch):
        # the 64 window samples share each refinement round's Bessel call
        from cavityclock import accelerated
        calls = []
        rows = accelerated.bessel_k_scaled_rows

        def counting(nu, x, *args):
            calls.append(len(nu))
            return rows(nu, x, *args)

        monkeypatch.setattr(accelerated, "bessel_k_scaled_rows", counting)
        window = AveragingWindow(0.5, 0.05, 64)
        r = averaged_decay_rate(G_HALF, FIELDS, window)
        monkeypatch.undo()
        geoms = [cavity_geometry(1.0, float(a)) for a in window.alphas()]
        steps = [(ov.evaluations // 15 - 1) // 2
                 for ov in spatial_overlaps([g.omega1 for g in geoms], geoms, 1.0)]
        assert r.diagnostics["converged"] is True
        assert len(calls) == 1 + max(steps) < 64
        assert calls[0] == 64
        assert sum(calls) == 64 + 2 * sum(steps)


class TestDecayProbability:
    def test_zero_duration(self):
        assert decay_probability_accelerated(G_HALF, FIELDS, 0.0).value == 0.0

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            decay_probability_accelerated(G_HALF, FIELDS, -0.1)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_duration(self, tau):
        # refused before any work: a NaN tail probe would double the Omega
        # cutoff until truncation_point gives up
        with pytest.raises(ValueError, match="finite"):
            decay_probability_accelerated(G_HALF, FIELDS, tau)

    def test_lambda_scaling_exact(self):
        cfg = QuadratureConfig(rel_tol=1e-5, abs_tol=1e-8)
        p1 = decay_probability_accelerated(G_HALF, FieldParams(M=1.0, lam=1.0), 2.0, cfg)
        p2 = decay_probability_accelerated(G_HALF, FieldParams(M=1.0, lam=2.0), 2.0, cfg)
        assert p2.value == pytest.approx(4.0 * p1.value, rel=1e-9)

    def test_short_time_quadratic(self):
        cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-12)
        pa = decay_probability_accelerated(G_HALF, FIELDS, 0.02, cfg).value
        pb = decay_probability_accelerated(G_HALF, FIELDS, 0.01, cfg).value
        assert pa / pb == pytest.approx(4.0, rel=1e-2)

    def test_monotone_in_duration(self):
        cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-9)
        ps = [decay_probability_accelerated(G_HALF, FIELDS, t, cfg).value
              for t in (1.0, 5.0, 20.0)]
        assert ps[0] < ps[1] < ps[2]

    def test_one_overlap_batch_per_round(self, monkeypatch):
        # the outer integrand refines each round's overlaps in one lockstep:
        # one spatial_overlaps call per tail probe (4 nodes) and per outer
        # round (15 nodes per initial panel, then 30 per panel bisected in
        # the round), two kernel calls each
        from cavityclock import accelerated
        sizes, probes, kernels = [], [0], [0]
        overlaps, truncation, kernel = (accelerated.spatial_overlaps,
                                        accelerated.truncation_point,
                                        accelerated.resonance_kernel)

        def counting_overlaps(oms, *args):
            sizes.append(len(oms))
            return overlaps(oms, *args)

        def counting_truncation(tail, *args):
            def probe(om_c):
                probes[0] += 1
                return tail(om_c)
            return truncation(probe, *args)

        def counting_kernel(x, t):
            kernels[0] += 1
            return kernel(x, t)

        monkeypatch.setattr(accelerated, "spatial_overlaps", counting_overlaps)
        monkeypatch.setattr(accelerated, "truncation_point", counting_truncation)
        monkeypatch.setattr(accelerated, "resonance_kernel", counting_kernel)
        cfg = QuadratureConfig(rel_tol=1e-5, abs_tol=1e-9)
        r = decay_probability_accelerated(G_HALF, FIELDS, 5.0, cfg)
        n = probes[0]
        rounds = sizes[n:]
        assert n >= 1 and sizes[:n] == [4] * n
        assert rounds[0] % 15 == 0 and all(size % 30 == 0 for size in rounds[1:])
        assert sum(rounds) == r.diagnostics["evaluations"]
        bisections = (r.diagnostics["evaluations"] - rounds[0]) // 30
        assert bisections > 10
        # looking ahead, they take fewer rounds
        assert len(rounds) < 1 + bisections
        assert kernels[0] == 2 * len(sizes)

    def test_longtime_slope_matches_rate(self):
        # the differential rate dP/dtau approaches the closed-form long-time
        # rate; the offset P(tau) - rate*tau is tau-independent
        cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)
        w1 = G_HALF.omega1
        t1, t2 = 150.0 / w1, 450.0 / w1
        p1 = decay_probability_accelerated(G_HALF, FIELDS, t1, cfg).value
        p2 = decay_probability_accelerated(G_HALF, FIELDS, t2, cfg).value
        slope = (p2 - p1) / (t2 - t1)
        rate = decay_rate_accelerated_longtime(G_HALF, FIELDS).value
        assert slope == pytest.approx(rate, rel=0.03)


class TestLongtimeRate:
    def test_matches_scaled_overlap(self):
        ov = spatial_overlap(G_HALF.omega1, G_HALF, 1.0)
        r = decay_rate_accelerated_longtime(G_HALF, FIELDS)
        assert r.value == pytest.approx(ov.scaled_value**2 / (math.pi**2 * 0.5), rel=1e-12)

    def test_lambda_scaling_exact(self):
        r1 = decay_rate_accelerated_longtime(G_HALF, FieldParams(M=1.0, lam=1.0))
        r2 = decay_rate_accelerated_longtime(G_HALF, FieldParams(M=1.0, lam=2.0))
        assert r2.value == 4.0 * r1.value

    def test_resonant_weight_identity(self):
        # the thermal and Gamma factors at resonance collapse to a pure
        # exponential: (1 + sinh^2 r) (Om/alpha) sinh(pi Om/alpha) / pi
        # = e^{pi Om/alpha} Om / (2 pi alpha), with sinh^2 r = 1/(e^{2 pi Om/alpha} - 1)
        for om, alpha in [(1.0, 0.5), (3.07, 0.5), (2.0, 1.3)]:
            nu = om / alpha
            thermal_weight = 1.0 / math.expm1(2.0 * math.pi * nu)
            lhs = (1.0 + thermal_weight) * nu * math.sinh(math.pi * nu) / math.pi
            rhs = math.exp(math.pi * nu) * nu / (2.0 * math.pi)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_deep_small_alpha_no_overflow(self):
        # e^{pi w1/alpha} alone is ~e^{629} here; the scaled form must survive
        g = cavity_geometry(1.0, 0.005)
        r = decay_rate_accelerated_longtime(g, FIELDS)
        assert math.isfinite(r.value) and r.value >= 0.0


class TestAveraging:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            AveragingWindow(1.0, relative_halfwidth=0.0)
        with pytest.raises(ValueError):
            AveragingWindow(1.0, relative_halfwidth=1.0)
        with pytest.raises(ValueError):
            AveragingWindow(1.0, samples=4)
        for center in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="center_alpha must be positive and finite"):
                AveragingWindow(center)

    def test_degenerate_window_approaches_pointwise(self):
        g = cavity_geometry(1.0, 0.3)
        point = decay_rate_accelerated_longtime(g, FIELDS).value
        for delta in (1e-3, 1e-5):
            avg = averaged_decay_rate(g, FIELDS, AveragingWindow(0.3, delta, 8)).value
            assert avg == pytest.approx(point, rel=50.0 * delta)

    def test_inertial_recovery(self):
        g = cavity_geometry(1.0, 0.02)
        avg = averaged_decay_rate(g, FIELDS, AveragingWindow(0.02))
        stat = decay_rate_stationary_longtime(cavity_geometry(1.0, 0.0), FIELDS)
        assert avg.value == pytest.approx(stat.value, rel=0.10)

    def test_horizon_crossing_aborts(self):
        g = cavity_geometry(1.0, 1.95)
        with pytest.raises(HorizonError):
            averaged_decay_rate(g, FIELDS, AveragingWindow(1.95, 0.05, 8))

    def test_oscillation_reported(self):
        g = cavity_geometry(1.0, 0.5)
        avg = averaged_decay_rate(g, FIELDS, AveragingWindow(0.5, 0.05, 16))
        assert avg.diagnostics["rate_max"] > 2.0 * avg.diagnostics["rate_min"]


class TestDeviation:
    def test_regression_triple(self):
        for alpha, expected in DEVIATION_REGRESSION.items():
            g = cavity_geometry(1.0, alpha)
            dev = ideal_clock_deviation(g, FIELDS)
            assert dev == pytest.approx(expected, rel=1e-6), alpha

    def test_magnitude_grows_with_alpha(self):
        devs = [abs(ideal_clock_deviation(cavity_geometry(1.0, a), FIELDS))
                for a in (0.02, 0.2, 1.9)]
        assert devs[0] < devs[1] < devs[2]

    def test_coupling_cancels(self):
        g = cavity_geometry(1.0, 0.3)
        d1 = ideal_clock_deviation(g, FieldParams(M=1.0, lam=1.0))
        d2 = ideal_clock_deviation(g, FieldParams(M=1.0, lam=7.0))
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_undefined_below_threshold(self):
        g = cavity_geometry(1.0, 0.3)
        with pytest.raises(UndefinedRatioError, match="deviation undefined"):
            ideal_clock_deviation(g, FieldParams(M=4.0))

    def test_result_carries_error_and_diagnostics(self):
        g = cavity_geometry(1.0, 0.3)
        window = AveragingWindow(0.3, 0.05, 16)
        res = ideal_clock_deviation_result(g, FIELDS, window)
        acc = averaged_decay_rate(g, FIELDS, window)
        stat = decay_rate_stationary_longtime(cavity_geometry(1.0, 0.0), FIELDS)
        assert (res.kind, res.regime) == ("deviation", "long-time")
        assert res.value == acc.value / stat.value - 1.0
        assert res.error_estimate == (acc.error_estimate + stat.error_estimate) / stat.value
        assert res.diagnostics == acc.diagnostics
        assert ideal_clock_deviation(g, FIELDS, window) == res.value


class TestConvergenceFlag:
    # one subdivision cannot reach a 1e-14 tolerance; every level must say so
    TIGHT = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=1)

    def test_overlap(self):
        assert spatial_overlap(G_HALF.omega1, G_HALF, 1.0).converged is True
        assert spatial_overlap(G_HALF.omega1, G_HALF, 1.0, self.TIGHT).converged is False

    def test_longtime_rate(self):
        assert decay_rate_accelerated_longtime(G_HALF, FIELDS).diagnostics["converged"] is True
        r = decay_rate_accelerated_longtime(G_HALF, FIELDS, self.TIGHT)
        assert r.diagnostics["converged"] is False

    def test_averaged_rate(self):
        window = AveragingWindow(0.5, 0.05, 8)
        assert averaged_decay_rate(G_HALF, FIELDS, window).diagnostics["converged"] is True
        r = averaged_decay_rate(G_HALF, FIELDS, window, self.TIGHT)
        assert r.diagnostics["converged"] is False

    def test_probability_ands_inner_overlaps(self, monkeypatch):
        # a loose abs_tol lets the outer Omega integral converge at once, so
        # only the inner overlaps can report the failure
        from cavityclock import accelerated
        outer = []
        integrate = accelerated.integrate

        def recording(f, a, b, cfg=None, **domain):
            res = integrate(f, a, b, cfg, **domain)
            if domain.get("resonances"):
                outer.append(res.converged)
            return res

        monkeypatch.setattr(accelerated, "integrate", recording)
        cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1.0, max_subdivisions=1)
        p = decay_probability_accelerated(G_HALF, FIELDS, 5.0, cfg)
        assert outer == [True]
        assert p.diagnostics["converged"] is False
