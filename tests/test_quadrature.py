import heapq
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityclock import accelerated, kinematics, stationary
from cavityclock.core import FieldParams
from cavityclock.errors import IntegrandError, SuperluminalPathError
from cavityclock.kinematics import Trajectory, cavity_geometry, proper_time
from cavityclock.quadrature import (_NODES, _WG_FULL, _WK_FULL, IntegralResult,
                                    QuadratureConfig, _breakpoints, _fixed, _panels, integrate,
                                    integrate_rows, truncation_point)
from cavityclock.specialfn import resonance_kernel
from cavityclock.stationary import _integrand_scaled


class TestBasics:
    def test_polynomial(self):
        r = integrate(lambda x: x * x, 0.0, 1.0)
        assert r.converged
        assert r.value == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert r.error_estimate <= max(1e-12, 1e-8 * abs(r.value))

    def test_infinite_limits_refused(self):
        # a caller truncates an infinite domain itself (truncation_point)
        for a, b in [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                integrate(lambda x: np.exp(-x * x), a, b)
            with pytest.raises(ValueError, match="finite"):
                integrate_rows(lambda ids, xs: np.exp(-xs * xs), [(0.0, 1.0), (a, b)])

    def test_oscillatory(self):
        r = integrate(np.sin, 0.0, math.pi)
        assert r.value == pytest.approx(2.0, rel=1e-12)

    def test_empty_interval(self):
        r = integrate(lambda x: x, 2.0, 2.0)
        assert r.value == 0.0 and r.converged

    def test_interval_below_breakpoint_resolution(self):
        # [1, 1 + eps] holds no panel: nothing is sampled and the result is 0
        def f(x):
            raise AssertionError("sampled")

        want = (0.0, 0.0, 0, True)
        r = integrate(f, 1.0, 1.0 + 2.0**-52)
        assert (r.value, r.error_estimate, r.evaluations, r.converged) == want
        rows = integrate_rows(f, [(1.0, 1.0 + 2.0**-52)])
        assert [(r.value, r.error_estimate, r.evaluations, r.converged) for r in rows] == [want]

    def test_reversed_limits_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_scalar_integrand_refused(self):
        # f gets a whole round of abscissae and must return one value for each
        with pytest.raises(ValueError, match="one value per abscissa"):
            integrate(lambda x: 1.0, 0.0, math.pi)
        with pytest.raises(TypeError):
            integrate(lambda x: math.sin(x), 0.0, math.pi)

    def test_evaluation_count_reported(self):
        r = integrate(lambda x: x, 0.0, 1.0)
        assert r.evaluations >= 15 and r.evaluations % 15 == 0


def panel_reference(fv, half):
    """One panel's Kronrod value and QUADPACK-style error estimate, reduced
    alone: the 15 values fv on a panel of half-width half."""
    resk = float(_WK_FULL @ fv)
    resg = float(_WG_FULL @ fv)
    value = resk * half
    diff = abs(resk - resg) * half
    resasc = float(_WK_FULL @ np.abs(fv - 0.5 * resk)) * half
    if resasc != 0.0 and diff != 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    return value, err


def hexes(panels):
    return [(value.hex(), err.hex()) for value, err in panels]


class TestPanels:
    """_panels reduces a batch of panels to the bits each gets alone."""

    @pytest.mark.parametrize("n_panels", [1, 2, 15, 300])
    def test_same_bits_as_per_row(self, n_panels):
        rng = np.random.default_rng(n_panels)
        fv = rng.standard_normal((n_panels, 15)) * 10.0 ** rng.uniform(-8, 8, (n_panels, 1))
        half = (10.0 ** rng.uniform(-6, 1, n_panels)).tolist()
        got = _panels(fv, half)
        assert all(type(v) is float and type(e) is float for v, e in got)
        assert hexes(got) == hexes([panel_reference(row, h) for row, h in zip(fv, half)])

    def test_degenerate_rows(self):
        # zeros: resasc == 0 and diff == 0; a subnormal constant, whose
        # deviations from resk / 2 round to 0: resasc == 0, diff != 0; two
        # mirrored samples of opposite sign: diff == 0, resasc != 0
        mirrored = np.zeros(15)
        mirrored[[3, 11]] = [1.5, -1.5]
        fv = np.array([np.zeros(15), np.full(15, 1e-323), mirrored, np.ones(15)])

        def resasc_and_diff(row):
            resk = float(_WK_FULL @ row)
            return (float(_WK_FULL @ np.abs(row - 0.5 * resk)),
                    abs(resk - float(_WG_FULL @ row)))

        assert [resasc_and_diff(row) == (0.0, 0.0) for row in fv] == [True] + [False] * 3
        assert resasc_and_diff(fv[1])[0] == 0.0 and resasc_and_diff(fv[2])[1] == 0.0
        half = [0.5, 0.25, 2.0, 1e-3]
        got = _panels(fv, half)
        assert hexes(got) == hexes([panel_reference(row, h) for row, h in zip(fv, half)])
        assert got[1][1] == resasc_and_diff(fv[1])[1] * 0.25 != 0.0
        assert got[2][1] == 0.0


class TestRunningSums:
    @pytest.mark.parametrize("rel_tol, max_subdivisions", [(1e-12, 20_000), (1e-16, 60)])
    def test_identical_to_resumming_every_step(self, rel_tol, max_subdivisions):
        # hundreds of panels of very different sizes and signs: the running
        # sums must give the same bits as re-summing the heap on every step
        def f(x):
            return np.sin(40.0 * x) / ((x - 0.3) ** 2 + 1e-7) + 1e-9 * np.cos(x)

        cfg = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=max_subdivisions)
        r = integrate(f, -1.0, 2.0, cfg)
        assert bits(r) == bits(per_panel(f, -1.0, 2.0, cfg))
        assert r.evaluations > 100 * 15

    def test_fixed_point_sum_rounds_as_fsum(self):
        # integers in units of 2^-1074 add exactly and int / int rounds
        # correctly: subnormals, exponents up to 2^1000 and sums that cancel
        # to zero round as math.fsum does, and an overflow raises on both
        rng = np.random.default_rng(7)
        unit = 1 << 1074
        for _ in range(2_000):
            n = int(rng.integers(1, 12))
            xs = (rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n)
                  * 2.0 ** rng.integers(-1074, 1000, n).astype(float)).tolist()
            xs += [-x for x in xs[:int(rng.integers(0, n + 1))]]
            assert (sum(map(_fixed, xs)) / unit).hex() == math.fsum(xs).hex()
        for xs in ([5e-324, 5e-324, -5e-324], [2.0**-1074] * 3, [2.0**-1022, -2.0**-1074]):
            assert (sum(map(_fixed, xs)) / unit).hex() == math.fsum(xs).hex()
        with pytest.raises(OverflowError):
            sum(map(_fixed, [1e308, 1e308])) / unit
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308])


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
        # one panel per unfinished integral in the first round; after it, in
        # interval order, both halves of each panel an integral bisects in
        # the round
        counts = [Counter(ids) for ids in rounds]
        assert rounds[0] == [0, 1, 3, 4]
        assert all(ids == sorted(ids) and all(n % 2 == 0 for n in c.values())
                   for ids, c in zip(rounds[1:], counts[1:]))
        # a converged integral uses every half it asked for; the unconverged
        # one stops at the subdivision cap short of panels it looked ahead
        # for, whose halves evaluations does not count
        asked = [sum(c[i] for c in counts) for i in range(5)]
        assert asked[:4] == [r.evaluations // 15 for r in want[:4]]
        assert asked[4] > want[4].evaluations // 15
        # looking ahead, the 40 bisections of the longest integral take fewer rounds
        assert len(rounds) < 1 + 40

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


def per_panel(f, a, b, cfg=None, **domain):
    """integrate() as one bisection per round, panel by panel, and without
    running sums: f gets one panel's 15 abscissae per call, each round's
    values are checked in panel order once its calls are made, each panel is
    reduced alone, and the heap is re-summed on every step.  Apart from
    _breakpoints it shares no code with the adaptive loop."""
    cfg = cfg or QuadratureConfig()

    def reduce(bounds):
        xs = [0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo) for lo, hi in bounds]
        fvs = [np.asarray(f(row), dtype=float) for row in xs]
        for row, fv in zip(xs, fvs):
            if not np.isfinite(fv).all():
                x_bad = float(row[int(np.argmin(np.isfinite(fv)))])
                raise IntegrandError(f"non-finite integrand value at x = {x_bad!r}")
        return [(-err, lo, hi, value, err) for (lo, hi), (value, err) in
                zip(bounds, (panel_reference(fv, 0.5 * (hi - lo))
                             for fv, (lo, hi) in zip(fvs, bounds)))]

    pts = _breakpoints(a, b, **domain)
    heap = reduce(list(zip(pts[:-1], pts[1:])))
    heapq.heapify(heap)
    subdivisions = 0
    while True:
        total = math.fsum(item[3] for item in heap)
        total_err = math.fsum(item[4] for item in heap)
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            converged = True
            break
        _neg_err, lo, hi, _value, _err = heap[0]
        mid = 0.5 * (lo + hi)
        if subdivisions >= cfg.max_subdivisions or not lo < mid < hi:
            converged = False
            break
        heapq.heappop(heap)
        for item in reduce([(lo, mid), (mid, hi)]):
            heapq.heappush(heap, item)
        subdivisions += 1
    return IntegralResult(total, total_err, 15 * (len(pts) - 1 + 2 * subdivisions), converged)


class TestOneCallPerRound:
    """integrate() evaluates each refinement round with one call of f."""

    def test_call_count_and_sizes(self):
        sizes = []

        def f(x):
            sizes.append(x.shape)
            return np.sin(40.0 * x) / ((x - 0.3) ** 2 + 1e-5)

        domain = {"singular": (0.5,), "resonances": ((1.2, 0.05),)}
        r = integrate(f, -1.0, 2.0, **domain)
        initial = len(_breakpoints(-1.0, 2.0, **domain)) - 1
        subdivisions = (r.evaluations // 15 - initial) // 2
        assert initial > 1 and subdivisions > 10
        # the initial panels, then both halves of each panel bisected in the
        # round, each half used: fewer calls than bisections, no more points
        assert sizes[0] == (15 * initial,)
        assert all(n % 30 == 0 for (n,) in sizes[1:])
        assert sum(n for (n,) in sizes) == r.evaluations
        assert len(sizes) - 1 < subdivisions

    @pytest.mark.parametrize("M, t", [(1.0, 40.0), (0.999 * math.pi, 25.0), (4.0, 10.0)],
                             ids=["above threshold", "near threshold", "below threshold"])
    def test_stationary_same_bits_as_per_panel(self, monkeypatch, M, t):
        # decay_probability_stationary's own integrals, breakpoints and
        # resonance included, against the panel-by-panel driver
        pairs = []

        def both(f, a, b, cfg, **domain):
            got = integrate(f, a, b, cfg, **domain)
            pairs.append((bits(got), bits(per_panel(f, a, b, cfg, **domain))))
            return got

        monkeypatch.setattr(stationary, "integrate", both)
        stationary.decay_probability_stationary(cavity_geometry(1.0, 0.0), FieldParams(M), t)
        assert len(pairs) == 1
        assert pairs[0][0] == pairs[0][1]
        assert pairs[0][0][2] > 15 * 20

    @pytest.mark.parametrize("f, a, b, cfg, domain", [
        (lambda u: _integrand_scaled(u, 1.0, 30.0), 0.0, 40.0,
         QuadratureConfig(rel_tol=1e-14, max_subdivisions=25), {}),
        # a semi-infinite decaying integrand cut off at 30
        (lambda x: np.exp(-x) * np.cos(3.0 * x) / (1.0 + np.abs(x - 2.0)), 0.0, 30.0,
         None, {"singular": (0.5,), "resonances": ((2.0, 0.1),)}),
    ], ids=["unconverged", "breakpoints, resonance and cutoff"])
    def test_same_bits_as_per_panel(self, f, a, b, cfg, domain):
        got, want = integrate(f, a, b, cfg, **domain), per_panel(f, a, b, cfg, **domain)
        assert bits(got) == bits(want)
        assert got.evaluations > 15 * 20

    def test_nonfinite_in_both_halves_names_lower_half(self):
        # finite on the first panel only: the first bisection's halves are
        # both non-finite, and the lower half's first abscissa is named
        first = 0.5 * _NODES + 0.5

        def f(x):
            return np.where(np.isin(x, first), np.sin(40.0 * x), np.nan)

        with pytest.raises(IntegrandError) as rounds:
            integrate(f, 0.0, 1.0)
        with pytest.raises(IntegrandError) as panels:
            per_panel(f, 0.0, 1.0)
        assert str(rounds.value) == str(panels.value)
        assert str(rounds.value).endswith(f"x = {float(0.25 * _NODES[0] + 0.25)!r}")

    def test_superluminal_path_names_same_time(self, monkeypatch):
        # |v| >= 1 only near t = 1, first sampled in the third round
        traj = Trajectory(lambda t: 1.2 * np.exp(-((np.asarray(t) - 1.0) / 0.1) ** 2))
        with pytest.raises(SuperluminalPathError) as rounds:
            proper_time(traj, 0.0, 3.0)
        monkeypatch.setattr(kinematics, "integrate", per_panel)
        with pytest.raises(SuperluminalPathError) as panels:
            proper_time(traj, 0.0, 3.0)
        assert str(rounds.value) == str(panels.value)


class TestLookAhead:
    """A round bisects every panel the loop must still bisect: no evaluation
    is wasted on the observables' integrals, and a round that fails falls
    back to one bisection, giving the result or the failure of per_panel."""

    @pytest.mark.parametrize("M, t", [(1.0, 40.0), (0.999 * math.pi, 25.0), (4.0, 10.0)],
                             ids=["above threshold", "near threshold", "below threshold"])
    def test_stationary_points_are_evaluations(self, monkeypatch, M, t):
        points = [0]

        def counting(u, m, ts):
            points[0] += u.size
            return _integrand_scaled(u, m, ts)

        monkeypatch.setattr(stationary, "_integrand_scaled", counting)
        p = stationary.decay_probability_stationary(cavity_geometry(1.0, 0.0), FieldParams(M), t)
        assert points[0] == p.diagnostics["evaluations"] > 15 * 20

    def test_accelerated_points_are_evaluations(self, monkeypatch):
        # the outer integrand's Omega nodes past the 4-node tail probes, and
        # the Bessel points of every overlap, the probes' included
        sizes, points = [], [0]
        overlaps, kernel_rows = accelerated.spatial_overlaps, accelerated.bessel_k_scaled_rows

        def counting_overlaps(oms, *args):
            sizes.append(len(oms))
            return overlaps(oms, *args)

        def counting_rows(nu, x):
            points[0] += x.size
            return kernel_rows(nu, x)

        monkeypatch.setattr(accelerated, "spatial_overlaps", counting_overlaps)
        monkeypatch.setattr(accelerated, "bessel_k_scaled_rows", counting_rows)
        p = accelerated.decay_probability_accelerated(cavity_geometry(1.0, 0.5),
                                                      FieldParams(1.0), 5.0)
        assert sum(n for n in sizes if n != 4) == p.diagnostics["evaluations"]
        assert points[0] == p.diagnostics["overlap_evaluations"]

    @staticmethod
    def sampled(run, f, *args, **domain):
        """run(f, *args, **domain) and the abscissae f got, one array per call."""
        calls = []

        def recording(x):
            calls.append(np.array(x, dtype=float))
            return f(x)

        return run(recording, *args, **domain), calls

    @staticmethod
    def failing_on(f, bad, how, hits):
        """f, but NaN at the abscissae in bad or raising there; hits[0]
        counts the calls that reach bad."""
        def g(x):
            hit = np.isin(x, bad)
            hits[0] += bool(hit.any())
            if how == "raises" and hit.any():
                raise ValueError(f"refused x = {float(x[hit][0])!r}")
            return np.where(hit, np.nan, f(x))
        return g

    @pytest.mark.parametrize("how", ["nan", "raises"])
    def test_failure_on_panel_looked_ahead(self, how):
        # the halves of the first panel looked ahead for fail: the round is
        # asked again without them, and the loop fails where per_panel does,
        # when it bisects that panel
        def f(x):
            return np.sin(40.0 * x) / ((x - 0.3) ** 2 + 1e-5)

        domain = {"singular": (0.5,), "resonances": ((1.2, 0.05),)}
        _r, calls = self.sampled(integrate, f, -1.0, 2.0, **domain)
        ahead = next(x for x in calls[1:] if x.size > 30)[30:60]
        error = IntegrandError if how == "nan" else ValueError
        hits = [0]
        with pytest.raises(error) as rounds:
            integrate(self.failing_on(f, ahead, how, hits), -1.0, 2.0, **domain)
        assert hits == [2]
        with pytest.raises(error) as panels:
            per_panel(self.failing_on(f, ahead, how, hits), -1.0, 2.0, **domain)
        assert str(rounds.value) == str(panels.value)

    @pytest.mark.parametrize("how", ["nan", "raises"])
    def test_failure_on_panel_never_bisected(self, how):
        # |total| grows past the error of a panel looked ahead for, so
        # per_panel converges without sampling it; failing there changes
        # nothing but the one round that is asked again
        def f(x):
            return 1e2 / ((x - 0.71) ** 2 + 1e-6) + np.sin(50.0 * x)

        cfg = QuadratureConfig(rel_tol=1e-6)
        got, mine = self.sampled(integrate, f, 0.0, 1.0, cfg)
        want, theirs = self.sampled(per_panel, f, 0.0, 1.0, cfg)
        unused = np.setdiff1d(np.concatenate(mine), np.concatenate(theirs))
        assert unused.size == 30 and bits(got) == bits(want)
        hits = [0]
        bad = self.failing_on(f, unused, how, hits)
        assert bits(integrate(bad, 0.0, 1.0, cfg)) == bits(want)
        assert hits == [1]
        assert bits(per_panel(bad, 0.0, 1.0, cfg)) == bits(want)
        # in lockstep, the failed round is asked again of every integral
        def other(x):
            return np.sin(40.0 * x) / ((x - 0.3) ** 2 + 1e-5)

        rows = integrate_rows(TestLockstep.rows_of([other, bad]), [(0.0, 1.0)] * 2, cfg)
        assert [bits(r) for r in rows] == [bits(integrate(other, 0.0, 1.0, cfg)), bits(want)]


class TestResonant:
    def test_sinc_squared_peak(self):
        # int sin^2(u t/2)/u^2 du over the real line is pi t/2; over [0,10]
        # around the u=1 peak the tails cost well under 0.5%
        t = 200.0
        r = integrate(lambda x: resonance_kernel(x - 1.0, t), 0.0, 10.0,
                      resonances=((1.0, 2 * math.pi / t),))
        assert r.converged
        assert r.value == pytest.approx(math.pi * t / 2.0, rel=5e-3)

    def test_without_splitting_fails(self):
        t = 200.0
        cfg = QuadratureConfig(max_subdivisions=8)
        r = integrate(lambda x: resonance_kernel(x - 1.0, t), 0.0, 10.0, cfg)
        assert not r.converged

    def test_zero_integrand(self):
        r = integrate(lambda x: resonance_kernel(x - 1.0, 0.0), 0.0, 10.0,
                      resonances=((1.0, 0.1),))
        assert r.value == 0.0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, resonances=((0.5, 0.0),))


class TestSingularPoints:
    def test_declared_singularity_never_sampled(self):
        hits = []

        def f(x):
            x = np.asarray(x, dtype=float)
            if np.any(x == 0.5):
                hits.append(True)
            return np.where(x == 0.5, np.nan, np.ones_like(x))

        r = integrate(f, 0.0, 1.0, singular=(0.5,))
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
        m, ts = 1.0, 30.0
        grid = np.linspace(0.0, 40.0, 2_000_001)
        oracle = float(np.trapezoid(_integrand_scaled(grid, m, ts), grid))
        devs = []
        for rel in (1e-4, 1e-6, 1e-8):
            cfg = QuadratureConfig(rel_tol=rel, abs_tol=1e-15)
            r = integrate(lambda u: _integrand_scaled(u, m, ts), 0.0, 40.0, cfg,
                          resonances=((math.sqrt(math.pi**2 - 1.0), 2 * math.pi / ts * 1.05),))
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
