import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityclock.errors import IntegrandError
from cavityclock.quadrature import (_NODES, QuadratureConfig, _breakpoints, _panel,
                                    integrate, integrate_rows, truncation_point)
from cavityclock.specialfn import resonance_kernel


class TestBasics:
    def test_polynomial(self):
        r = integrate(lambda x: x * x, 0.0, 1.0)
        assert r.converged
        assert r.value == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert r.error_estimate <= max(1e-12, 1e-8 * abs(r.value))

    def test_semi_infinite_with_cutoff(self):
        cfg = QuadratureConfig(domain_cutoff=40.0)
        r = integrate(lambda x: np.exp(-x), 0.0, math.inf, cfg)
        assert r.converged
        assert r.value == pytest.approx(1.0, rel=1e-10)

    def test_semi_infinite_requires_cutoff(self):
        with pytest.raises(ValueError):
            integrate(lambda x: np.exp(-x), 0.0, math.inf)

    def test_oscillatory(self):
        r = integrate(np.sin, 0.0, math.pi)
        assert r.value == pytest.approx(2.0, rel=1e-12)

    def test_empty_interval(self):
        r = integrate(lambda x: x, 2.0, 2.0)
        assert r.value == 0.0 and r.converged

    def test_reversed_limits_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_scalar_integrand_accepted(self):
        r = integrate(lambda x: math.sin(x), 0.0, math.pi)
        assert r.value == pytest.approx(2.0, rel=1e-10)

    def test_evaluation_count_reported(self):
        r = integrate(lambda x: x, 0.0, 1.0)
        assert r.evaluations >= 15 and r.evaluations % 15 == 0


def resumming_reference(f, a, b, cfg):
    """integrate() as it was before running sums: every panel re-summed on
    each step and the result summed in left-endpoint order."""
    heap = []

    def add_panel(lo, hi):
        xs = 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)
        value, err = _panel(f(xs), lo, hi)
        heapq.heappush(heap, (-err, lo, hi, value, err))

    pts = _breakpoints(a, b, cfg)
    for lo, hi in zip(pts[:-1], pts[1:]):
        add_panel(lo, hi)
    subdivisions = 0
    while True:
        total = math.fsum(item[3] for item in heap)
        total_err = math.fsum(item[4] for item in heap)
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            converged = True
            break
        if subdivisions >= cfg.max_subdivisions:
            converged = False
            break
        _neg_err, lo, hi, _value, _err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        add_panel(lo, mid)
        add_panel(mid, hi)
        subdivisions += 1
    panels = sorted(heap, key=lambda item: item[1])
    return (math.fsum(p[3] for p in panels), math.fsum(p[4] for p in panels),
            15 * len(pts) - 15 + 30 * subdivisions, converged)


class TestRunningSums:
    @pytest.mark.parametrize("rel_tol, max_subdivisions", [(1e-12, 20_000), (1e-16, 60)])
    def test_identical_to_resumming_every_step(self, rel_tol, max_subdivisions):
        # hundreds of panels of very different sizes and signs: the running
        # sums must give the same bits as re-summing the heap on every step
        def f(x):
            return np.sin(40.0 * x) / ((x - 0.3) ** 2 + 1e-7) + 1e-9 * np.cos(x)

        cfg = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=max_subdivisions)
        r = integrate(f, -1.0, 2.0, cfg)
        ref = resumming_reference(f, -1.0, 2.0, cfg)
        assert (r.value.hex(), r.error_estimate.hex(), r.evaluations, r.converged) == \
            (ref[0].hex(), ref[1].hex(), ref[2], ref[3])
        assert r.evaluations > 100 * 15


def bits(r):
    return (r.value.hex(), r.error_estimate.hex(), r.evaluations, r.converged)


class TestLockstep:
    """integrate_rows() refines every interval as integrate() does alone."""

    @staticmethod
    def rows_of(fs):
        # f(ids, xs) for integrate_rows from one 1-D integrand per interval
        return lambda ids, xs: np.array([fs[i](x) for i, x in zip(ids, xs)])

    def test_same_bits_as_integrate(self):
        fs = [lambda x: x * x,                                     # one panel
              lambda x: np.sin(40.0 * x) / ((x - 0.3) ** 2 + 1e-5),  # 37 steps
              lambda x: np.exp(-x),                                # a == b
              lambda x: np.sqrt(np.abs(x - 0.25)),                 # 38 steps
              lambda x: np.sign(np.sin(7.0 * x))]                  # unconverged
        intervals = [(0.0, 1.0), (-1.0, 2.0), (1.5, 1.5), (0.0, 1.0), (0.0, 2.0)]
        cfg = QuadratureConfig(rel_tol=1e-10, max_subdivisions=40)
        rounds = []

        def f(ids, xs):
            rounds.append(ids.tolist())
            return self.rows_of(fs)(ids, xs)

        got = integrate_rows(f, intervals, cfg)
        want = [integrate(g, a, b, cfg) for g, (a, b) in zip(fs, intervals)]
        assert [bits(r) for r in got] == [bits(r) for r in want]
        assert [r.converged for r in want] == [True, True, True, True, False]
        assert [r.evaluations // 15 for r in want] == [1, 1 + 2 * 37, 0, 1 + 2 * 38, 1 + 2 * 40]
        # one panel per unfinished integral in the first round, two after it
        assert rounds[0] == [0, 1, 3, 4]
        assert rounds[1] == [1, 1, 3, 3, 4, 4]
        assert rounds[38] == [3, 3, 4, 4]
        assert rounds[39:] == [[4, 4], [4, 4]]

    def test_breakpoints_and_cutoff(self):
        cfg = QuadratureConfig(singular_points=(0.5,), domain_cutoff=30.0).with_resonance(2.0, 0.1)
        fs = [lambda x: np.exp(-x) * np.cos(3.0 * x), lambda x: 1.0 / (1.0 + x * x)]
        intervals = [(0.0, math.inf), (0.0, 3.0)]
        got = integrate_rows(self.rows_of(fs), intervals, cfg)
        want = [integrate(g, a, b, cfg) for g, (a, b) in zip(fs, intervals)]
        assert [bits(r) for r in got] == [bits(r) for r in want]

    def test_nonfinite_names_same_abscissa(self):
        def bad(x):
            return np.where(np.abs(x - 0.3) < 0.01, np.nan, np.ones_like(x))

        with pytest.raises(IntegrandError) as alone:
            integrate(bad, 0.0, 1.0)
        fs = [np.cos, bad]
        with pytest.raises(IntegrandError) as lockstep:
            integrate_rows(self.rows_of(fs), [(0.0, 1.0), (0.0, 1.0)])
        assert str(lockstep.value) == str(alone.value)

    def test_no_intervals(self):
        assert integrate_rows(lambda ids, xs: xs, []) == []


class TestResonant:
    def test_sinc_squared_peak(self):
        # int sin^2(u t/2)/u^2 du over the real line is pi t/2; over [0,10]
        # around the u=1 peak the tails cost well under 0.5%
        t = 200.0
        cfg = QuadratureConfig().with_resonance(1.0, 2 * math.pi / t)
        r = integrate(lambda x: resonance_kernel(x - 1.0, t), 0.0, 10.0, cfg)
        assert r.converged
        assert r.value == pytest.approx(math.pi * t / 2.0, rel=5e-3)

    def test_without_splitting_fails(self):
        t = 200.0
        cfg = QuadratureConfig(max_subdivisions=8)
        r = integrate(lambda x: resonance_kernel(x - 1.0, t), 0.0, 10.0, cfg)
        assert not r.converged

    def test_zero_integrand(self):
        cfg = QuadratureConfig().with_resonance(1.0, 0.1)
        r = integrate(lambda x: resonance_kernel(x - 1.0, 0.0), 0.0, 10.0, cfg)
        assert r.value == 0.0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, QuadratureConfig().with_resonance(0.5, 0.0))


class TestSingularPoints:
    def test_declared_singularity_never_sampled(self):
        hits = []

        def f(x):
            x = np.asarray(x, dtype=float)
            if np.any(x == 0.5):
                hits.append(True)
            return np.where(x == 0.5, np.nan, np.ones_like(x))

        cfg = QuadratureConfig(singular_points=(0.5,))
        r = integrate(f, 0.0, 1.0, cfg)
        assert not hits
        assert r.value == pytest.approx(1.0, rel=1e-12)

    def test_nonfinite_sample_aborts_with_abscissa(self):
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x - 0.3) < 0.01, np.nan, np.ones_like(x))

        with pytest.raises(IntegrandError, match=r"x = 0\.(29|30|31)"):
            integrate(f, 0.0, 1.0)


class TestProperties:
    @given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b):
        f = lambda x: np.exp(-x)
        g = lambda x: np.sin(3.0 * x)
        lhs = integrate(lambda x: a * f(x) + b * g(x), 0.0, 2.0)
        rf = integrate(f, 0.0, 2.0)
        rg = integrate(g, 0.0, 2.0)
        combined_err = lhs.error_estimate + abs(a) * rf.error_estimate + abs(b) * rg.error_estimate
        assert abs(lhs.value - (a * rf.value + b * rg.value)) <= combined_err + 1e-12

    def test_refinement_monotonicity(self):
        # halving rel_tol never moves the result further from a brute-force
        # fixed-grid oracle of the resting-clock integrand
        from cavityclock.stationary import _integrand_scaled
        m, ts = 1.0, 30.0
        grid = np.linspace(0.0, 40.0, 2_000_001)
        oracle = float(np.trapezoid(_integrand_scaled(grid, m, ts), grid))
        devs = []
        for rel in (1e-4, 1e-6, 1e-8):
            cfg = QuadratureConfig(rel_tol=rel, abs_tol=1e-15)
            cfg = cfg.with_resonance(math.sqrt(math.pi**2 - 1.0), 2 * math.pi / ts * 1.05)
            r = integrate(lambda u: _integrand_scaled(u, m, ts), 0.0, 40.0, cfg)
            devs.append(abs(r.value - oracle))
        assert devs[1] <= devs[0] + 1e-16
        assert devs[2] <= devs[1] + 1e-16

    def test_error_estimate_within_tolerance_on_success(self):
        cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12)
        r = integrate(lambda x: np.cos(7.0 * x) ** 2, 0.0, 5.0, cfg)
        assert r.converged
        assert 0.0 <= r.error_estimate <= cfg.abs_tol + cfg.rel_tol * abs(r.value)

    def test_determinism(self):
        f = lambda x: np.sin(40.0 * x) / (1.0 + x * x)
        r1 = integrate(f, 0.0, 10.0)
        r2 = integrate(f, 0.0, 10.0)
        assert r1 == r2


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)

    def test_truncation_point(self):
        c = truncation_point(lambda x: math.exp(-x), 1.0, 1e-8)
        assert math.exp(-c) <= 1e-8
        assert math.exp(-c / 2.0) > 1e-8
