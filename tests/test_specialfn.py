import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import loggamma

from cavityclock.errors import SpecialFunctionRangeError
from cavityclock.quadrature import _NODES
from cavityclock.specialfn import (_BAND, _CKJ, _DEBYE_TERMS, _NU_MAX, _X_MAX, _X_MIN,
                                   DEFAULT_BESSEL_TOL, BesselMethod,
                                   _contour_rows, _debye_oscillatory_rows, _k0_rows,
                                   _series_rows,
                                   bessel_k_imag_order, bessel_k_imag_order_log,
                                   bessel_k_scaled_rows, bessel_k_scaled_values,
                                   gamma_abs_sq_imag, log_gamma_one_plus_i, resonance_kernel)

mp = pytest.importorskip("mpmath")


def mp_k_imag(nu, x, dps=30):
    mp.mp.dps = dps
    v = mp.besselk(mp.mpc(0, nu), mp.mpf(x)).real
    return v


def brute_k_imag(nu, x):
    # fixed-grid trapezoid of int_0^inf cos(nu t) e^{-x cosh t} dt in float80
    dt = np.longdouble
    tmax = float(np.arccosh(dt(2000.0) / dt(min(x, 2000.0)))) + 1.5
    t = np.linspace(dt(0), dt(tmax), 250_001)
    f = np.cos(dt(nu) * t) * np.exp(-dt(x) * np.cosh(t))
    f[0] *= dt(0.5)
    f[-1] *= dt(0.5)
    return float(f.sum() * (t[1] - t[0]))


class TestBesselK:
    def test_frozen_values(self):
        # oracle: brute-force integral representation (and mpmath)
        assert bessel_k_imag_order(0.0, 1.0).value == pytest.approx(
            0.421024438240708, rel=1e-12)
        assert bessel_k_imag_order(1.0, 1.0).value == pytest.approx(
            0.289428037025992, rel=1e-12)

    def test_against_brute_force_grid(self):
        for nu in [0.0, 0.5, 2.0, 5.0, 10.0]:
            for x in [0.1, 0.7, 3.0, 12.0, 20.0]:
                mine = bessel_k_imag_order(nu, x).value
                ref = brute_k_imag(nu, x)
                assert mine == pytest.approx(ref, rel=1e-8), (nu, x)

    def test_against_mpmath_physics_slices(self):
        pts = [(0.3, 0.05), (2.0, 2.5), (6.15, 1.5), (40.0, 2.0), (157.08, 50.0),
               (157.08, 49.5), (260.0, 2.5), (15.65, 5.5), (0.857, 1.026)]
        for nu, x in pts:
            ev = bessel_k_imag_order_log(nu, x)
            ref = mp_k_imag(nu, x)
            mine = ev.sign * math.exp(ev.log_abs - float(mp.log(abs(ref))))
            assert mine == pytest.approx(float(mp.sign(ref)), rel=1e-9), (nu, x)

    @given(nu=st.floats(0.1, 8.0), x=st.floats(0.2, 15.0))
    @settings(max_examples=40, deadline=None)
    def test_even_in_order(self, nu, x):
        a = bessel_k_imag_order(nu, x)
        b = bessel_k_imag_order(-nu, x)
        assert a.value == b.value

    def test_monotone_decay_in_tail(self):
        # decreasing in x once x > nu
        for nu in [0.0, 1.5, 4.0, 9.0]:
            xs = np.linspace(nu + 0.5, nu + 20.0, 25)
            vals = [bessel_k_imag_order(nu, float(x)).value for x in xs]
            assert all(a > b > 0 for a, b in zip(vals[:-1], vals[1:])), nu

    def test_log_variant_matches_plain(self):
        for nu, x in [(0.0, 2.0), (3.0, 1.0), (8.0, 14.0)]:
            ev = bessel_k_imag_order(nu, x)
            lg = bessel_k_imag_order_log(nu, x)
            assert lg.sign * math.exp(lg.log_abs) == pytest.approx(ev.value, rel=1e-13)

    def test_log_variant_below_double_range(self):
        # the plain value underflows, the log form works: e^{-pi nu/2} ~
        # e^{-786} (the Debye form), and e^{pi nu/2} K ~ e^{-897} as well
        # (the contour rule's log form)
        for nu, x in [(500.0, 30.0), (2.0, 900.0)]:
            with pytest.raises(SpecialFunctionRangeError):
                bessel_k_imag_order(nu, x)
            lg = bessel_k_imag_order_log(nu, x)
            assert lg.log_abs < -745.0
            mp.mp.dps = 40
            ref = mp.besselk(mp.mpc(0, nu), mp.mpf(x)).real
            assert lg.sign == float(mp.sign(ref))
            assert lg.log_abs == pytest.approx(float(mp.log(abs(ref))), abs=1e-7)

    def test_method_tags_cover_expected_regions(self):
        # small argument: series; x < nu at large order away from the
        # turning point: oscillatory Debye; x >= nu beyond the small-x
        # region and the turning band: the contour integral
        assert bessel_k_imag_order(2.0, 1.0).method is BesselMethod.POWER_SERIES
        assert bessel_k_imag_order(150.0, 100.0).method is BesselMethod.ASYMPTOTIC
        assert bessel_k_imag_order(5.0, 40.0).method is BesselMethod.INTEGRAL_REPRESENTATION
        assert bessel_k_imag_order(1.0, 8.0).method is BesselMethod.INTEGRAL_REPRESENTATION

    def test_methods_agree_in_overlap_regions(self):
        # the contour rule against the series and against the oscillatory
        # Debye form where either is accurate too: within the sum of their
        # estimates, or 1e-14 of the envelope sqrt(2 pi/W) near a zero
        for nu, xs in [(0.0, [0.5, 2.0, 3.4]), (1.0, [0.3, 2.0, 3.5]), (6.0, [0.5, 2.0, 5.0, 8.0]),
                       (20.0, [9.0, 15.0, 19.0]), (45.0, [30.0, 40.0])]:
            xs = np.array(xs)
            ser, ser_worst = bessel_k_scaled_values(nu, xs)
            assert {bessel_k_imag_order_log(nu, x).method for x in xs} == {SERIES}
            self.check_contour(nu, xs, ser, ser_worst)
        for nu in [60.0, 150.0, 500.0]:
            xs = nu - np.array([9.5, 10.0, 11.0]) * nu ** (1.0 / 3.0)
            deb, deb_worst = np.zeros((1, xs.size)), np.full(1, 1e-15)
            _debye_oscillatory_rows(np.array([nu]), xs[None, :], np.ones((1, xs.size), dtype=bool),
                                    deb, deb_worst)
            self.check_contour(nu, xs, deb[0], deb_worst[0])

    def test_series_estimate_near_turning_point(self):
        # at nu = 45, x = 44 the series is off by 4.8e-11 (mpmath); counting
        # the rounding of the sines' arguments raised the estimate from
        # 2.7e-11 to 8.3e-11.  The contour rule there is off by less than 1e-15
        nu, x = 45.0, 44.0
        (ser,), worst = bessel_k_scaled_values(nu, np.array([x]))
        ref = mp_k_scaled(nu, x)
        assert abs(ser - ref) <= worst * abs(ref)

    @staticmethod
    def check_contour(nu, xs, other, other_worst):
        value, est = np.zeros((xs.size, 1)), np.full(xs.size, 1e-15)
        _contour_rows(np.full(xs.size, nu), xs[:, None], np.ones((xs.size, 1), dtype=bool),
                      value, est)
        value = value[:, 0]
        envelope = np.sqrt(2.0 * math.pi / np.sqrt(np.abs(nu * nu - xs * xs)))
        gap = np.abs(value - other)
        assert np.all((gap <= (est + other_worst) * np.abs(other)) | (gap <= 1e-14 * envelope)), nu

    def test_vectorized_matches_scalar(self):
        # relative agreement away from zeros of the oscillation; near a zero
        # a row's value moves with the series terms its largest argument
        # needs, so compare against the typical magnitude there
        rng = np.random.default_rng(7)
        for nu in [0.0, 0.7, 6.15, 40.0, 157.08]:
            xs = rng.uniform(0.05, max(2.5, 0.9 * nu), 25)
            vals, worst = bessel_k_scaled_values(nu, xs)
            typical = float(np.median(np.abs(vals)))
            for x, v in zip(xs, vals):
                lg = bessel_k_imag_order_log(nu, float(x))
                ref = lg.sign * math.exp(lg.log_abs + 0.5 * math.pi * nu)
                assert abs(v - ref) <= 1e-8 * max(abs(ref), typical), (nu, x)

    def test_invalid_argument(self):
        with pytest.raises(ValueError):
            bessel_k_imag_order(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k_imag_order(1.0, -2.0)


SERIES, DEBYE, INTEGRAL = (BesselMethod.POWER_SERIES, BesselMethod.ASYMPTOTIC,
                           BesselMethod.INTEGRAL_REPRESENTATION)

# (nu, x, method): the method the first-fit selector picked at (nu, x) at
# the default tolerance, frozen before the contour rule retired it.  The
# scalar result now carries the row kernel's branch (row_branch); where that
# differs, the frozen method (the series, the oscillatory Debye form or the
# monotonic Debye form, frozen_method_value) still gives the value there
FROZEN_TAGS = [
    # K_0 and the series
    (0.0, 0.05, SERIES), (0.0, 1.0, SERIES), (0.0, 3.0, SERIES), (1e-9, 2.0, SERIES),
    (0.5, 0.1, SERIES), (2.0, 1.0, SERIES), (6.15, 1.5, SERIES), (10.0, 5.0, SERIES),
    (40.0, 20.0, SERIES), (40.0, 39.0, SERIES), (59.9, 50.0, SERIES),
    # nu >= 60 at small x: the series, where the oscillatory Debye form goes now
    (60.0, 5.0, SERIES), (150.0, 10.0, SERIES), (150.0, 50.0, SERIES),
    (400.0, 20.0, SERIES), (400.0, 100.0, SERIES),
    # x ~ 0.9 nu: the oscillatory Debye form, where in the turning band the contour rule goes now
    (150.0, 100.0, DEBYE), (400.0, 300.0, DEBYE), (150.0, 135.5, DEBYE), (400.0, 360.5, DEBYE),
    # the monotonic Debye form, where the contour rule goes now
    (0.5, 30.0, DEBYE), (5.0, 40.0, DEBYE), (150.0, 200.0, DEBYE), (400.0, 500.0, DEBYE),
    # the integral strip around x = nu: the trapezoid then, the contour rule now
    (1.0, 8.0, INTEGRAL), (2.0, 7.0, INTEGRAL), (6.15, 12.0, INTEGRAL), (10.0, 12.0, INTEGRAL),
    (30.0, 33.0, INTEGRAL), (60.0, 62.0, INTEGRAL), (60.0, 80.0, INTEGRAL),
    (150.0, 150.1, INTEGRAL), (150.0, 150.2, INTEGRAL), (150.0, 153.766, INTEGRAL),
    # the series in the turning band at nu = 60
    (60.0, 40.0, SERIES),
]

# turning-band points where the selector's pick, the series, missed both the
# default tolerance and its own estimate (relative error 2.6e-10 against an
# estimate of 1.8e-10 at nu = 60, 25 to 5e10 at nu >= 150): the contour
# rule's points, and so tagged now
BAND_TAGS = [
    (60.0, 54.5, INTEGRAL), (150.0, 147.825, INTEGRAL), (150.0, 149.8, INTEGRAL),
    (150.0, 149.9, INTEGRAL), (150.0, 149.99, INTEGRAL), (237.1, 233.7, INTEGRAL),
]


def debye_monotonic(nu, x):
    """The monotonic Debye form (x > nu, W' = sqrt(x^2 - nu^2) >= 8) of the
    retired selector: e^{pi nu/2} K = sqrt(pi/2W') e^{pi nu/2 - W' - nu
    asin(nu/x)} times the series in 1/W', and its estimate."""
    wp = math.sqrt((x - nu) * (x + nu))
    pt2 = (nu / wp) ** 2
    total = term = 0.0
    for k in range(_DEBYE_TERMS):
        s = 0.0
        for j in range(k, -1, -1):
            s = s * pt2 + _CKJ[k][j] * (1.0 if j % 2 == 0 else -1.0)
        term = (-1.0 if k % 2 else 1.0) * s / wp**k
        total += term
    scale = math.exp(0.5 * math.pi * nu - wp - nu * math.asin(nu / x))
    return math.sqrt(math.pi / (2.0 * wp)) * scale * total, 4.0 * abs(term) / abs(total) + 1e-15


def frozen_method_value(nu, x, method):
    """e^{pi nu/2} K_{i nu}(x) and its estimate from the named method alone."""
    if method is DEBYE and x > nu:
        return debye_monotonic(nu, x)
    branch = {SERIES: _k0_rows if nu < 1e-8 else _series_rows,
              DEBYE: _debye_oscillatory_rows, INTEGRAL: _contour_rows}[method]
    out, worst = np.zeros((1, 1)), np.full(1, 1e-15)
    branch(np.array([nu]), np.array([[x]]), np.ones((1, 1), dtype=bool), out, worst)
    return float(out[0, 0]), float(worst[0])


def row_branch(nu, x):
    """The branch bessel_k_scaled_rows takes at (nu, x)."""
    if nu >= 60.0 and abs(x - nu) < _BAND * nu ** (1.0 / 3.0):
        return INTEGRAL
    if nu >= 60.0 and x < nu:
        return DEBYE
    if x * x <= 12.0 * math.sqrt(1.0 + nu * nu) or x < nu:
        return SERIES
    return INTEGRAL


class TestScalarFrontEnd:
    @pytest.mark.parametrize("nu, x, method", FROZEN_TAGS)
    def test_frozen_method_tags(self, nu, x, method):
        # tagged with the row kernel's branch; the frozen method's value lies
        # within the tolerance the selector accepted it at (or its estimate,
        # where none met the tolerance) of the scalar result
        ev = bessel_k_imag_order_log(nu, x)
        assert ev.method is row_branch(nu, x)
        value, est = frozen_method_value(nu, x, method)
        scalar = ev.sign * math.exp(ev.log_abs + 0.5 * math.pi * nu)
        assert abs(value - scalar) <= max(est, DEFAULT_BESSEL_TOL) * abs(scalar)

    @pytest.mark.parametrize("nu, x, method", BAND_TAGS)
    def test_band_method_tags(self, nu, x, method):
        assert bessel_k_imag_order_log(nu, x).method is method

    def test_vectorized_methods_are_row_calls(self):
        # the scalar result is the one-point row call, tagged with its branch
        grid = [(nu, x) for nu, x, _m in FROZEN_TAGS + BAND_TAGS]
        grid += [(float(nu), float(x)) for nu in [0.0, *np.geomspace(0.01, 500.0, 12)]
                 for x in np.geomspace(0.01, 1.2 * nu + 20.0, 15)]
        seen = set()
        for nu, x in grid:
            ev = bessel_k_imag_order_log(nu, x)
            assert ev.method is row_branch(nu, x), (nu, x)
            (v,), worst = bessel_k_scaled_values(nu, np.array([x]))
            assert ev.rel_error_estimate == worst, (nu, x)
            if ev.method is INTEGRAL:  # from the contour's log form
                assert ev.sign * math.exp(ev.log_abs + 0.5 * math.pi * nu) == pytest.approx(
                    v, rel=1e-13, abs=1e-300), (nu, x)
            else:
                assert ev.sign == math.copysign(1.0, v), (nu, x)
                assert ev.log_abs == math.log(abs(v)) - 0.5 * math.pi * nu, (nu, x)
            seen.add(ev.method)
        assert seen == {SERIES, DEBYE, INTEGRAL}

    @pytest.mark.parametrize("nu", [1000.0, 2000.0, 5000.0])
    def test_far_band_finite_or_flagged(self, nu):
        # the contour rule there; no NaN and no floating point warning may
        # reach the caller
        for w in (0.5, 4.0, 7.9):
            x = math.sqrt(nu * nu - w * w)
            with np.errstate(all="raise"):
                ev = bessel_k_imag_order_log(nu, x)
            assert math.isfinite(ev.log_abs) and ev.sign != 0.0, (nu, x)
            assert ev.rel_error_estimate < 1e-10, (nu, x)

    def test_far_band_point_against_mpmath(self):
        # the series met its term cap here and no method gave a value; the
        # contour rule does, in log form, as K itself underflows
        nu, x = 2000.0, 1999.992
        ev = bessel_k_imag_order_log(nu, x)
        assert ev.method is INTEGRAL and ev.rel_error_estimate < 1e-10
        ref = mp_k_imag(nu, x)
        assert ev.sign == float(mp.sign(ref))
        assert ev.log_abs == pytest.approx(float(mp.log(abs(ref))),
                                           abs=2.0 * ev.rel_error_estimate)
        with pytest.raises(SpecialFunctionRangeError, match="outside double range"):
            bessel_k_imag_order(nu, x)
        _vals, worst = bessel_k_scaled_values(nu, np.array([1990.0, x]))
        assert worst < 1e-10


def series_setup(nu):
    """The power series' first phase, arg 1/Gamma(1 + i nu), and the log of
    its scaled prefactor, sqrt(2 pi / (nu (1 - e^{-2 pi nu})))."""
    theta0 = -float(log_gamma_one_plus_i(nu).imag)
    lpref = 0.5 * (math.log(2.0 * math.pi) - math.log(nu)
                   - math.log1p(-math.exp(-2.0 * math.pi * nu)))
    return theta0, lpref


def per_term_reference(nu, xs):
    """bessel_k_scaled_values' two vectorized branches as term-by-term loops,
    one numpy call per term: the series for nu < 60, the oscillatory Debye
    form otherwise.  Every x must lie in that branch's region."""
    eps = np.finfo(float).eps
    if nu < 60.0:
        theta0, lpref = series_setup(nu)
        phi = nu * np.log(0.5 * xs)
        r = np.ones_like(xs)
        th = theta0
        total = np.sin(phi + th)
        bound = 2.0 + np.abs(phi + th)
        for k in range(1, 600):
            r *= (0.25 * xs * xs) / (k * math.hypot(k, nu))
            th -= math.atan2(nu, k)
            total += r * np.sin(phi + th)
            bound += r * (2.0 + np.abs(phi + th))
            if r.max() < 1e-17 and k > 3:
                break
        worst = float((2.0 * eps * bound / np.maximum(np.abs(total), 1e-300)).max())
        return -math.exp(lpref) * total, max(1e-15, worst)
    w = np.sqrt((nu - xs) * (nu + xs))
    p2 = (nu / w) ** 2
    s_even = np.zeros_like(xs)
    s_odd = np.zeros_like(xs)
    for k in range(_DEBYE_TERMS):
        s = np.zeros_like(xs)
        for j in range(k, -1, -1):
            s = s * p2 + _CKJ[k][j]
        uk = s / w**k
        if k % 2 == 0:
            s_even += (-1.0 if (k // 2) % 2 else 1.0) * uk
        else:
            s_odd += (-1.0 if ((k - 1) // 2) % 2 else 1.0) * uk
        last = np.abs(uk)
    phase = nu * np.arccosh(nu / xs)
    psi = phase - w - 0.25 * math.pi
    val = s_even * np.cos(psi) - s_odd * np.sin(psi)
    est = 4.0 * last + 2.0 * eps * (phase + w)
    worst = float((est / np.maximum(np.abs(val), 1e-300)).max())
    return np.sqrt(2.0 * math.pi / w) * val, max(1e-15, worst)


class TestBatchedMatchesPerTermLoops:
    @pytest.mark.parametrize("nu", [0.3, 2.0, 6.15, 40.0, 59.9, 60.0, 150.0, 400.0, 1500.0])
    def test_bit_identical(self, nu):
        rng = np.random.default_rng(int(nu * 100))
        if nu < 60.0:  # the series region
            hi = max(nu, math.sqrt(12.0 * math.sqrt(1.0 + nu * nu)))
        else:  # the oscillatory region, below the turning band
            hi = nu - _BAND * nu ** (1.0 / 3.0)
        for size in (1, 2, 15, 40):
            for _ in range(20):
                xs = np.exp(rng.uniform(math.log(1e-4), math.log(hi), size))
                vals, worst = bessel_k_scaled_values(nu, xs)
                ref, ref_worst = per_term_reference(nu, xs)
                assert vals.tobytes() == ref.tobytes()
                assert worst == ref_worst


def series_terms_reference(nu, qmax):
    """The divisors and phases of one row of _series_rows as its own scalar
    recurrence, up to the row's last term, and whether that came before the
    cap."""
    th, _lpref = series_setup(nu)
    r_top = 1.0
    divisors, phases = [], [th]
    for k in range(1, 600):
        d = k * math.hypot(k, nu)
        r_top *= qmax / d
        th -= math.atan2(nu, k)
        divisors.append(d)
        phases.append(th)
        if r_top < 1e-17 and k > 3:
            return np.array(divisors), np.array(phases), True
    return np.array(divisors), np.array(phases), False


def series_row_reference(nu, xs):
    """One row of _series_rows term by term from series_terms_reference:
    the values and the worst estimate (inf when the row meets the cap)."""
    q = 0.25 * xs * xs
    divisors, phases, done = series_terms_reference(nu, float(q.max()))
    phi = nu * np.log(0.5 * xs)
    r = np.ones_like(xs)
    total = np.sin(phi + phases[0])
    bound = 2.0 + np.abs(phi + phases[0])
    for d, th in zip(divisors, phases[1:]):
        r = r * (q / d)
        total += r * np.sin(phi + th)
        bound += r * (2.0 + np.abs(phi + th))
    est = float((2.0 * np.finfo(float).eps * bound / np.maximum(np.abs(total), 1e-300)).max())
    return -math.exp(series_setup(nu)[1]) * total, max(1e-15, est) if done else math.inf


def kronrod_row(nu, lo, hi):
    return nu, 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)


# (order, 15 arguments) rows for one _series_rows call, with their last terms
SERIES_ROWS = [
    kronrod_row(2.0, 1e-4, 2e-3),          # k = 4, inside the first block
    kronrod_row(6.15, 0.5, 8.0),           # k = 21, past one block
    kronrod_row(40.0, 2.0, 35.0),          # k = 43, in the third block
    kronrod_row(0.3, 0.05, 3.0),           # k = 14
    kronrod_row(59.9, 20.0, 52.0),         # k = 54, in the fourth block
    kronrod_row(2000.0, 1990.0, 1999.0),   # at the 599-term cap
]


class TestSeriesTable:
    """_series_rows builds and sums every row's terms block by block in one
    call, and each row gets the bits of its own recurrence from k = 1,
    whatever the other rows hold."""

    @staticmethod
    def lengths(rows):
        """Each row's last term, from its own recurrence."""
        return [series_terms_reference(nu, 0.25 * float(xs.max()) ** 2)[0].size
                for nu, xs in rows]

    @staticmethod
    def check_rows(rows):
        nu = np.array([n for n, _xs in rows])
        x = np.array([xs for _n, xs in rows])
        out, worst = np.zeros_like(x), np.full(nu.size, 1e-15)
        with np.errstate(all="ignore"):
            _series_rows(nu, x, np.ones(x.shape, dtype=bool), out, worst)
            refs = [series_row_reference(n, xs) for n, xs in rows]
        for i, (ref, ref_worst) in enumerate(refs):
            assert out[i].tobytes() == ref.tobytes(), rows[i][0]
            assert worst[i] == ref_worst
        return worst

    def test_mixed_orders_in_one_call(self):
        assert self.lengths(SERIES_ROWS) == [4, 21, 43, 14, 54, 599]
        worst = self.check_rows(SERIES_ROWS)
        assert worst[-1] == math.inf and np.all(np.isfinite(worst[:-1]))

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_in_another_order(self, seed):
        perm = np.random.default_rng(seed).permutation(len(SERIES_ROWS))
        self.check_rows([SERIES_ROWS[i] for i in perm])

    def test_rising_falling_repeated(self):
        # one order at rising, falling and repeated arguments, as rows of one
        # call: each row stops at its own last term, in the first to the
        # fourth block, or on either side of the first block's edge
        tops = [0.06, 1.4, 6.3, 28.0, 28.0, 6.3, 0.06, 1.4, 60.0, 60.0, 11.0, 4.6, 5.2]
        rows = [kronrod_row(6.15, 0.2 * top, top) for top in tops]
        lengths = self.lengths(rows)
        assert lengths[:4] == sorted(lengths[:4]) and len(set(lengths)) > 4
        assert max(lengths) > 48 and lengths[-2:] == [16, 17]
        self.check_rows(rows)

    def test_random_orders_and_arguments(self):
        rng = np.random.default_rng(5)
        orders = rng.uniform(1e-6, 80.0, 12).tolist()
        for _ in range(20):
            size = int(rng.integers(1, 40))
            tops = 2.0 * np.sqrt(10.0 ** rng.uniform(-8.0, 3.0, size))
            self.check_rows([kronrod_row(orders[i], float(top) * rng.uniform(0.01, 1.0), float(top))
                             for i, top in zip(rng.integers(len(orders), size=size), tops)])

    def test_term_cap(self):
        # nu = 2000 near x = nu: r_k is still far above 1e-17 at the cap, so
        # the row's estimate is inf; the rows beside it end on their own
        rows = [SERIES_ROWS[-1], kronrod_row(2000.0, 1.0, 2.0), kronrod_row(6.15, 10.0, 28.0)]
        assert self.lengths(rows)[0] == 599 and self.lengths(rows)[1] < 599
        worst = self.check_rows(rows)
        assert worst[0] == math.inf and np.all(np.isfinite(worst[1:]))
        # at twice that argument r_k overflows to inf, as in the scalar
        # recurrence, and the rows beside it keep their bits
        far = (2000.0, math.sqrt(2.0) * SERIES_ROWS[-1][1])
        rows = [far, rows[1], rows[2]]
        assert self.lengths(rows)[0] == 599
        out, worst = np.zeros((3, 15)), np.full(3, 1e-15)
        with np.errstate(all="ignore"):
            _series_rows(np.array([n for n, _xs in rows]), np.array([xs for _n, xs in rows]),
                         np.ones((3, 15), dtype=bool), out, worst)
        assert not np.isfinite(worst[0])
        for i in (1, 2):
            ref, ref_worst = series_row_reference(*rows[i])
            assert out[i].tobytes() == ref.tobytes() and worst[i] == ref_worst


def kronrod_panel(lo, hi):
    """The 15 arguments one overlap panel hands the batched kernel (in x, not xi)."""
    return 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)


def mp_k_scaled(nu, x):
    return float(mp.exp(mp.pi * nu / 2) * mp_k_imag(nu, float(x)))


# (nu, panel or single argument, largest worst estimate expected).  At
# nu = 400, x < 60 the rounding of the phase dominates the estimate: errors
# reach 1.5e-13 against an estimate of 1.5e-12.  "fallback" names the
# points beyond the series and the oscillatory Debye form, which the
# contour rule takes, as it takes the band's points of the nu = 60 and
# nu = 150 "oscillatory" panels (above x = 24.8 and x = 102.2)
BATCHED_CASES = {
    "series nu=0.5": (0.5, kronrod_panel(0.05, 3.0), 1e-12),
    "series nu=6.15": (6.15, kronrod_panel(0.5, 8.0), 1e-12),
    "series nu=40": (40.0, kronrod_panel(2.0, 35.0), 1e-10),
    "series nu=59.9": (59.9, kronrod_panel(20.0, 52.0), 1e-9),
    # the rounding of the sine's argument, |a_0| = 16 at x = 8.5e-4 where
    # sin a_0 = -0.058, makes the estimate 1.36e-13 (the error is 7.8e-15)
    "series stops at k=4": (2.0, kronrod_panel(1e-4, 2e-3), 2e-13),
    "oscillatory nu=60": (60.0, kronrod_panel(5.0, 40.0), 1e-7),
    "oscillatory nu=150": (150.0, kronrod_panel(10.0, 110.0), 1e-9),
    "oscillatory nu=400 small x": (400.0, kronrod_panel(20.0, 60.0), 1e-11),
    "oscillatory nu=400": (400.0, kronrod_panel(100.0, 330.0), 1e-9),
    "series and fallback nu=2": (2.0, kronrod_panel(3.0, 9.0), 1e-12),
    "series and fallback nu=6.15": (6.15, kronrod_panel(0.5, 12.0), 1e-12),
    "oscillatory and fallback nu=60": (60.0, kronrod_panel(5.0, 160.0), 1e-3),
    "one point series": (6.15, np.array([1.5]), 1e-14),
    "one point oscillatory": (150.0, np.array([100.0]), 1e-10),
    "one point fallback": (2.0, np.array([7.0]), 1e-14),
    # errors reach 1.0e-14 and 3.8e-14 (estimates 5.1e-14 and 1.3e-13)
    "K_0 branch": (0.0, kronrod_panel(0.05, 3.0), 1e-13),
    "K_0 branch to the series edge": (0.0, kronrod_panel(2.0, 3.46), 1e-12),
    # the contour rule: across the turning point at nu = 500, just above
    # x = nu where the tail starts at the saddle, and far above nu
    "band nu=500": (500.0, kronrod_panel(470.0, 530.0), 1e-10),
    "x just above nu": (150.0, kronrod_panel(150.0 + 1e-9, 150.01), 1e-11),
    "x far above nu": (0.5, kronrod_panel(300.0, 700.0), 1e-12),
}


class TestBatchedAgainstMpmath:
    @pytest.mark.parametrize("case", list(BATCHED_CASES))
    def test_panel(self, case):
        nu, xs, max_worst = BATCHED_CASES[case]
        vals, worst = bessel_k_scaled_values(nu, xs)
        assert worst <= max_worst
        ref = np.array([mp_k_scaled(nu, x) for x in xs])
        # the worst estimate bounds every point's relative error
        assert np.all(np.abs(vals - ref) <= worst * np.abs(ref))

    @pytest.mark.parametrize("nu, xs", [
        # near the turning point at nu = 150, |x^2 - nu^2| ~ 650 and 1150,
        # where the row kernel's estimate once understated its error by 1e17
        pytest.param(150.0, np.array([147.825, 153.766]), id="turning point nu=150"),
        # the phase's rounding, 1.5e-13 here, is part of the estimate
        pytest.param(400.0, kronrod_panel(20.0, 60.0), id="oscillatory phase nu=400"),
    ])
    def test_estimate_bounds_error(self, nu, xs):
        vals, worst = bessel_k_scaled_values(nu, xs)
        ref = np.array([mp_k_scaled(nu, x) for x in xs])
        assert np.all(np.abs(vals - ref) <= worst * np.abs(ref))

    def test_series_estimate_bounds_error_on_grid(self):
        # 462 points, one per row, at orders 0.05 to 59.9 and x log-uniform
        # from 1e-3 to the series' edge: each point's estimate bounds its
        # error (without the rounding of the sines' arguments it missed at
        # 340 of them, by up to 77x; with it the largest error/estimate is 0.68)
        rng = np.random.default_rng(1)
        nu = rng.uniform(0.05, 59.9, 462)
        edge = np.maximum(nu, np.sqrt(12.0 * np.sqrt(1.0 + nu * nu)))
        x = np.exp(rng.uniform(math.log(1e-3), np.log(edge)))
        assert all(bessel_k_imag_order_log(n, a).method is SERIES for n, a in zip(nu, x))
        vals, worst = bessel_k_scaled_rows(nu, x[:, None])
        ref = np.array([mp_k_scaled(n, a) for n, a in zip(nu, x)])
        assert np.all(np.abs(vals[:, 0] - ref) <= worst * np.abs(ref))


class TestTurningBand:
    """The row kernel on x = nu + s nu^(1/3), s in [-8, 8], against mpmath:
    every point within its own estimate, and within 1e-11 of the envelope
    sqrt(2 pi/W), W = sqrt(|nu^2 - x^2|) but at least the Airy scale
    nu^(2/3), which near the zeros of K is the magnitude the error is
    measured against."""

    @pytest.mark.parametrize("nu", [60.0, 100.0, 150.0, 300.0, 500.0])
    def test_band(self, nu):
        xs = nu + np.linspace(-8.0, 8.0, 81) * nu ** (1.0 / 3.0)
        vals, worst = bessel_k_scaled_rows(np.full(xs.size, nu), xs[:, None])
        vals = vals[:, 0]
        ref = np.array([mp_k_scaled(nu, x) for x in xs])
        err = np.abs(vals - ref)
        assert np.all(err <= worst * np.abs(ref))
        assert np.all(worst <= 1e-9)
        w = np.maximum(np.sqrt(np.abs(nu * nu - xs * xs)), nu ** (2.0 / 3.0))
        assert np.all(err <= 1e-11 * np.sqrt(2.0 * math.pi / w))


# one Kronrod panel per row, at mixed orders: every branch of the row kernel,
# rows with few series terms next to rows with many
ROWS = [
    (0.0, kronrod_panel(0.05, 3.0)),           # K_0 series
    (2.0, kronrod_panel(1e-4, 2e-3)),          # series, stops at k = 4
    (6.15, kronrod_panel(0.5, 8.0)),           # series
    (40.0, kronrod_panel(2.0, 35.0)),          # series, many terms
    (2.0, kronrod_panel(3.0, 9.0)),            # series and contour
    (150.0, kronrod_panel(10.0, 110.0)),       # oscillatory, contour above x = 102
    (60.0, kronrod_panel(5.0, 160.0)),         # oscillatory and contour
    (1e-9, kronrod_panel(0.5, 6.0)),           # K_0 series and contour
    # series whose 13th value moves in the last bit if the row takes more
    # terms than its own largest argument needs
    (8.49343291920629, kronrod_panel(1.3765884681999585, 2.365445529976764)),
    # the turning band: every point through the contour rule
    (150.0, kronrod_panel(149.8, 149.99)),
    (500.0, kronrod_panel(470.0, 530.0)),
    # x just above nu, where the tail starts at the saddle
    (150.0, kronrod_panel(150.0 + 1e-9, 150.01)),
    # x >> nu: ten of the scaled values underflow to zero
    (2.0, kronrod_panel(700.0, 900.0)),
]


class TestRowsIndependent:
    """Each row of bessel_k_scaled_rows is bit-equal to a one-row call,
    whatever the other rows of the call hold."""

    @pytest.mark.parametrize("seed", range(6))
    def test_row_equals_one_row_call(self, seed):
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(ROWS), size=int(rng.integers(2, 3 * len(ROWS))))
        nu = np.array([ROWS[i][0] for i in picks])
        x = np.array([ROWS[i][1] for i in picks])
        vals, worst = bessel_k_scaled_rows(nu, x)
        for r in range(len(picks)):
            one, one_worst = bessel_k_scaled_rows(nu[r:r + 1], x[r:r + 1])
            assert vals[r].tobytes() == one[0].tobytes(), ROWS[picks[r]]
            assert worst[r] == one_worst[0]

    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            bessel_k_scaled_rows(np.array([1.0, 2.0]), np.ones((3, 15)))
        with pytest.raises(ValueError):
            bessel_k_scaled_rows(np.array([1.0]), np.ones(15))
        with pytest.raises(ValueError):
            bessel_k_scaled_rows(np.array([1.0]), np.zeros((1, 15)))


class TestDomain:
    """One domain check for the row kernel and the scalar front end: inside
    it every branch gives finite values and estimates without a floating
    point warning, outside it the call is refused."""

    # the corners of the domain and the branch edges next to them; from order
    # 60 the smallest argument is 1e-308 nu
    INSIDE = [(0.0, _X_MIN), (0.0, 1.0), (0.0, _X_MAX), (1e-9, _X_MIN), (6.15, _X_MIN),
              (59.9, _X_MIN), (60.0, 6.1e-307), (150.0, 149.9), (1e4, _X_MAX),
              (_NU_MAX, 2e-291), (_NU_MAX, 0.5 * _NU_MAX), (_NU_MAX, _NU_MAX),
              (_NU_MAX, 1e34), (_NU_MAX, _X_MAX)]

    @pytest.mark.parametrize("nu, x", INSIDE)
    def test_inside_finite_without_warning(self, nu, x):
        xs = np.array([[x, x * (1.0 - 1e-3)]]) if x == _X_MAX else np.array([[x, 2.0 * x]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, worst = bessel_k_scaled_rows(np.array([nu]), xs)
            ev = bessel_k_imag_order_log(nu, x)
        assert np.isfinite(vals).all() and np.isfinite(worst).all()
        assert math.isfinite(ev.rel_error_estimate) and not math.isnan(ev.log_abs)

    @pytest.mark.parametrize("nu, x", [
        (math.nextafter(_NU_MAX, math.inf), 1.0), (3e300, 1e300), (math.inf, 1.0),
        (math.nan, 1.0), (1.0, math.nextafter(_X_MIN, 0.0)), (1.0, 5e-324), (60.0, 5e-307),
        (1.0, math.nextafter(_X_MAX, math.inf)), (1.0, math.inf)])
    def test_outside_refused(self, nu, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecialFunctionRangeError, match="outside"):
                bessel_k_scaled_rows(np.array([nu]), np.array([[1.0, x]]))
            with pytest.raises(SpecialFunctionRangeError, match="outside"):
                bessel_k_imag_order_log(nu, x)

    def test_overlap_order_past_double_range(self):
        # Omega/alpha overflows to inf, which the kernel refuses
        from cavityclock.accelerated import spatial_overlap
        from cavityclock.kinematics import cavity_geometry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecialFunctionRangeError):
                spatial_overlap(1e308, cavity_geometry(1.0, 0.1), 1.0)


class TestGammaAbsSq:
    def test_frozen_value(self):
        assert gamma_abs_sq_imag(1.0) == pytest.approx(0.27202905498213314, rel=1e-12)
        assert gamma_abs_sq_imag(2.0) == pytest.approx(
            math.pi / (2.0 * math.sinh(2.0 * math.pi)), rel=1e-12)

    @given(y=st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_identity_against_complex_gamma(self, y):
        ref = math.exp(2.0 * loggamma(complex(0.0, y)).real)
        assert gamma_abs_sq_imag(y) == pytest.approx(ref, rel=1e-10)

    def test_monotone_decrease(self):
        assert gamma_abs_sq_imag(1.0) > gamma_abs_sq_imag(2.0)

    def test_underflow_refused(self):
        with pytest.raises(SpecialFunctionRangeError):
            gamma_abs_sq_imag(300.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_abs_sq_imag(0.0)
        with pytest.raises(ValueError):
            gamma_abs_sq_imag(-1.0)


class TestLogGammaOnePlusI:
    """log Gamma(1 + i nu): its phase starts the power series, its modulus
    enters the Rindler mode."""

    # from 1e-8 to 1e5, and where scipy's loggamma changes method: its Taylor
    # series around 1 reaches nu = 0.2, its asymptotic series starts at 7
    NUS = np.concatenate([np.geomspace(1e-8, 1e5, 301),
                          [0.2 - 1e-9, 0.2, 0.2 + 1e-9, 7.0 - 1e-9, 7.0, 7.0 + 1e-9]])

    @staticmethod
    def phase_scale(nu):
        """The rounding the phase's terms carry: eps (nu |ln nu| + nu + 1)."""
        return np.finfo(float).eps * (nu * np.abs(np.log(nu)) + nu + 1.0)

    def test_against_mpmath(self):
        mp.mp.dps = 30
        lg = log_gamma_one_plus_i(self.NUS)
        for nu, z in zip(self.NUS, lg):
            ref = mp.loggamma(mp.mpc(1, nu))
            assert abs(z.imag - float(ref.imag)) <= 4.0 * self.phase_scale(nu), nu
            assert z.real == pytest.approx(float(ref.real), rel=2e-15), nu

    def test_against_scipy(self):
        # both within 2 phase scales of the exact phase (test_against_mpmath)
        ref = loggamma(1.0 + 1j * self.NUS)
        lg = log_gamma_one_plus_i(self.NUS)
        assert np.all(np.abs(lg.imag - ref.imag) <= 4.0 * self.phase_scale(self.NUS))
        np.testing.assert_allclose(lg.real, ref.real, rtol=1e-12, atol=0.0)

    def test_same_bits_alone_and_in_a_call(self):
        rng = np.random.default_rng(24)
        nus = np.concatenate([rng.uniform(1e-8, 60.0, 150), np.geomspace(1e-8, 1e5, 150)])
        together = log_gamma_one_plus_i(nus)
        for nu, z in zip(nus, together):
            assert log_gamma_one_plus_i(nu).tobytes() == z.tobytes(), nu
            assert log_gamma_one_plus_i(np.array([nu]))[0].tobytes() == z.tobytes(), nu

    def test_domain(self):
        assert log_gamma_one_plus_i(0.0) == 0.0
        assert log_gamma_one_plus_i([[1.0, 2.0]]).shape == (1, 2)
        with pytest.raises(ValueError):
            log_gamma_one_plus_i(np.array([1.0, -1.0]))


class TestResonanceKernel:
    def test_examples(self):
        assert resonance_kernel(0.0, 2.0) == 1.0
        assert type(resonance_kernel(0.5, 2.0)) is float
        assert resonance_kernel(math.pi, 1.0) == pytest.approx(1.0 / math.pi**2, rel=1e-14)
        assert resonance_kernel(1e-9, 2.0) == pytest.approx(1.0, rel=1e-12)

    @given(x=st.floats(-1e6, 1e6, allow_nan=False), t=st.floats(0.0, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_quarter_t_squared(self, x, t):
        k = resonance_kernel(x, t)
        assert 0.0 <= k <= 0.25 * t * t * (1.0 + 1e-12) + 1e-300

    def test_array_input(self):
        x = np.array([0.0, 1e-12, math.pi])
        out = resonance_kernel(x, 1.0)
        assert out.shape == x.shape
        assert out[0] == 0.25
        assert out[1] == pytest.approx(0.25, rel=1e-10)

    def test_negative_duration_rejected(self):
        for t in (-0.5, -1, np.float64(-0.5), np.array([1.0, -0.5])):
            with pytest.raises(ValueError, match="duration t must be nonnegative"):
                resonance_kernel(1.0, t)
            with pytest.raises(ValueError, match="duration t must be nonnegative"):
                resonance_kernel(np.array([0.0, 1.0]), t)
