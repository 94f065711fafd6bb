"""Special functions for the decay integrals.

Three things live here:

* K_{i nu}(x), the modified Bessel function of the second kind with purely
  imaginary order (real-valued for real nu and x > 0).  No mainstream float
  library evaluates it, so it is built from three methods with disjoint
  comfort zones and a common selection front end:

  - power-series: the ascending series of I_{+-i nu} rearranged so every term
    is real with bounded trig factors.  With the 1/sinh(pi nu) prefactor
    absorbed analytically the summation is overflow-free for any order, and
    in the oscillatory region x < nu it is nearly cancellation-free.
  - asymptotic: Debye expansions continued to imaginary order, one branch for
    the monotonic regime x > nu and one (Airy-free, away from the turning
    point) for the oscillatory regime x < nu.  Coefficient polynomials u_k
    are generated exactly from the standard recurrence at import time.
  - integral-representation: trapezoidal sum of int_0^inf cos(nu t)
    e^{-x cosh t} dt in extended precision.  The integrand is even, analytic
    and double-exponentially decaying, so the trapezoid converges
    geometrically; accuracy is limited only by cancellation, which the
    method reports via its error estimate.

  Each method is implemented once.  The series and the oscillatory Debye
  form are the vectorized row branches of bessel_k_scaled_rows, which every
  observable uses; the scalar front end bessel_k_imag_order[_log] calls
  them at one point.  Every method self-estimates its relative error; the
  front end returns the first method meeting DEFAULT_BESSEL_TOL
  (series, asymptotic, integral order), or the best estimate otherwise, and
  tags the result with it.  Magnitudes reach e^{-pi nu/2}, far below double
  range for the orders the accelerated-clock integrals need, so log/sign and
  e^{pi nu/2}-scaled variants are the primary internal currency.

  The series' divisors d_k = k |k + i nu| and phases depend on the order
  alone.  Each call of the row kernel builds them for all of its rows at
  once, as one (term x row) table grown a block of terms at a time for the
  rows that still need more (_term_table); nothing is kept between calls,
  so a row's terms do not depend on what earlier calls asked for.

* |Gamma(i y)|^2 = pi / (y sinh(pi y)), in plain and log form.

* The resonance kernel sin^2(x t / 2) / x^2 with its removable singularity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import loggamma

from .errors import SpecialFunctionRangeError

EULER_GAMMA = 0.5772156649015328606
DEFAULT_BESSEL_TOL = 1e-10

_LOG_MAX = math.log(np.finfo(float).max)          # ~709.78
_LOG_MIN = math.log(np.finfo(float).tiny)         # ~-708.40
_EPS = float(np.finfo(float).eps)
_EPS_LONG = float(np.finfo(np.longdouble).eps)


class BesselMethod(enum.Enum):
    POWER_SERIES = "power-series"
    ASYMPTOTIC = "asymptotic"
    INTEGRAL_REPRESENTATION = "integral-representation"


# ----------------------------------------------------------------------
# Debye coefficient polynomials
# u_0 = 1,  u_{k+1}(t) = t^2 (1 - t^2) u_k'(t) / 2 + (1/8) int_0^t (1 - 5 s^2) u_k(s) ds
# u_k(t) = sum_j c[k][j] t^(k + 2j), j = 0..k
# ----------------------------------------------------------------------

def _debye_coefficients(kmax: int) -> list[list[float]]:
    polys: list[dict[int, Fraction]] = [{0: Fraction(1)}]
    for _ in range(kmax):
        u = polys[-1]
        new: dict[int, Fraction] = {}
        for m, c in u.items():
            if m >= 1:
                new[m + 1] = new.get(m + 1, Fraction(0)) + c * m / 2
                new[m + 3] = new.get(m + 3, Fraction(0)) - c * m / 2
            new[m + 1] = new.get(m + 1, Fraction(0)) + c / (8 * (m + 1))
            new[m + 3] = new.get(m + 3, Fraction(0)) - 5 * c / (8 * (m + 3))
        polys.append({m: c for m, c in new.items() if c != 0})
    return [[float(p.get(k + 2 * j, Fraction(0))) for j in range(k + 1)]
            for k, p in enumerate(polys)]


_CKJ = _debye_coefficients(10)
_DEBYE_TERMS = 9
# the batched oscillatory branch: u_k coefficients zero-padded to one
# (order x power) table, each row times the sign (-1)^(k//2) u_k enters with
# (a negated Horner sequence is the exact negation of the original)
_DEBYE_TABLE = np.array([[-c if (k // 2) % 2 else c for c in row]
                         + [0.0] * (_DEBYE_TERMS - len(row))
                         for k, row in enumerate(_CKJ[:_DEBYE_TERMS])])


@dataclass(frozen=True)
class LogBesselEval:
    """K_{i nu}(x) as sign * exp(log_abs), with a relative error estimate."""
    log_abs: float
    sign: float
    rel_error_estimate: float
    method: BesselMethod


@dataclass(frozen=True)
class BesselEval:
    value: float
    error_estimate: float
    method: BesselMethod


def _series_region(nu: float, x: float) -> bool:
    # monotone-ish term growth; beyond this the runtime estimate still guards
    return x * x <= 12.0 * math.sqrt(1.0 + nu * nu) or x < nu


def _k_debye_monotonic(nu: float, x: float) -> tuple[float, float, float] | None:
    """x > nu regime: K = sqrt(pi/2W') e^{-W' - nu asin(nu/x)} * series.
    Returns the scaled log form (log_abs + pi nu/2, sign, rel_est)."""
    if x <= nu:
        return None
    wp = math.sqrt((x - nu) * (x + nu))
    if wp < 8.0:
        return None
    beta = math.asin(min(1.0, nu / x))
    pt2 = (nu / wp) ** 2
    total = 0.0
    last = 1.0
    for k in range(_DEBYE_TERMS):
        s = 0.0
        for j in range(k, -1, -1):
            s = s * pt2 + _CKJ[k][j] * (1.0 if j % 2 == 0 else -1.0)
        term = (-1.0 if k % 2 else 1.0) * s / wp**k
        total += term
        last = abs(term)
    if total == 0.0:
        return None
    est = 4.0 * last / abs(total) + 1e-15
    log_abs = 0.5 * math.log(math.pi / (2.0 * wp)) - wp - nu * beta + math.log(abs(total))
    return log_abs + 0.5 * math.pi * nu, math.copysign(1.0, total), est


def _trapezoid_grid(nu: float, x: float) -> tuple[float, int]:
    tmax = math.acosh(760.0 / x) + 1.0 if x < 700.0 else 1.0
    h = 2.0 * math.pi / (2.0 * nu + 0.7 * x + 60.0)
    return h, int(tmax / h) + 1


def _k_trapezoid(nu: float, x: float) -> tuple[float, float, float] | None:
    """Extended-precision trapezoid of the defining integral; scaled log form."""
    h, n = _trapezoid_grid(nu, x)
    dt = np.longdouble
    t = np.arange(n + 1, dtype=dt) * dt(h)
    f = np.cos(dt(nu) * t) * np.exp(-dt(x) * np.cosh(t))
    f[0] *= dt(0.5)
    s = float(f.sum() * dt(h))
    absint = float(np.abs(f).sum() * dt(h))
    if s == 0.0:
        return None
    est = 8.0 * _EPS_LONG * absint / abs(s) + 1e-16
    return math.log(abs(s)) + 0.5 * math.pi * nu, math.copysign(1.0, s), est


def _at_point(branch, nu: float, x: float) -> tuple[float, float, float] | None:
    """The row branch at the single point (nu, x) in the scaled log form
    (log|e^{pi nu/2} K|, sign, rel_est); None unless the value is finite and
    nonzero and the estimate finite (nu >~ 900 near x = nu, the series
    meets its term cap and may overflow)."""
    out = np.zeros((1, 1))
    worst = np.full(1, 1e-15)
    with np.errstate(all="ignore"):
        branch(np.array([nu]), np.array([[x]]), np.ones((1, 1), dtype=bool), out, worst)
    value, est = float(out[0, 0]), float(worst[0])
    if value == 0.0 or not (math.isfinite(value) and math.isfinite(est)):
        return None
    return math.log(abs(value)), math.copysign(1.0, value), est


def _series_candidate(nu: float, x: float) -> tuple[float, float, float] | None:
    if not _series_region(nu, x):
        return None
    return _at_point(_k0_rows if nu < 1e-8 else _series_rows, nu, x)


def _debye_oscillatory_candidate(nu: float, x: float) -> tuple[float, float, float] | None:
    if not (x < nu and (nu - x) * (nu + x) >= 64.0):
        return None
    return _at_point(_debye_oscillatory_rows, nu, x)


_METHOD_ORDER = (
    (BesselMethod.POWER_SERIES, _series_candidate),
    (BesselMethod.ASYMPTOTIC, _k_debye_monotonic),
    (BesselMethod.ASYMPTOTIC, _debye_oscillatory_candidate),
    (BesselMethod.INTEGRAL_REPRESENTATION, _k_trapezoid),
)


def _k_log_scaled(nu: float, x: float) -> tuple[float, float, float, BesselMethod]:
    """(log|e^{pi nu/2} K|, sign, rel_est, method) via first-fit selection."""
    best = None
    for method, fn in _METHOD_ORDER:
        out = fn(nu, x)
        if out is None:
            continue
        log_abs, sign, est = out
        if est <= DEFAULT_BESSEL_TOL:
            return log_abs, sign, est, method
        if best is None or est < best[2]:
            best = (log_abs, sign, est, method)
    if best is None:
        # no method gave a value (at nu >~ 900 near x = nu); the infinite
        # estimate flags the point
        return -math.inf, 0.0, math.inf, BesselMethod.INTEGRAL_REPRESENTATION
    return best


def bessel_k_imag_order_log(nu: float, x: float) -> LogBesselEval:
    """K_{i nu}(x) in log/sign form, usable at any representable order.

    log_abs is -inf with sign 0, and the estimate inf, when no method gives
    a value.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    nu = abs(float(nu))
    log_scaled, sign, est, method = _k_log_scaled(nu, x)
    return LogBesselEval(log_scaled - 0.5 * math.pi * nu, sign, est, method)


def bessel_k_imag_order(nu: float, x: float) -> BesselEval:
    """K_{i nu}(x) as a plain float; raises SpecialFunctionRangeError when the
    value leaves double range (the log variant then still works) or when no
    method gives a value."""
    ev = bessel_k_imag_order_log(nu, x)
    if ev.sign == 0.0:
        raise SpecialFunctionRangeError(f"no method evaluates K_(i {nu})({x})")
    if ev.log_abs > _LOG_MAX or ev.log_abs < _LOG_MIN:
        raise SpecialFunctionRangeError(
            f"K_(i {nu})({x}) has log-magnitude {ev.log_abs:.1f}, outside double "
            "range; use bessel_k_imag_order_log")
    value = ev.sign * math.exp(ev.log_abs)
    return BesselEval(value, abs(value) * ev.rel_error_estimate, ev.method)


# terms per block of the series table (_term_table) and of the batched
# series (_series_rows)
_SERIES_BLOCK = 16


def _k0_rows(nu: np.ndarray, x: np.ndarray, k0: np.ndarray,
             out: np.ndarray, worst: np.ndarray) -> None:
    """The K_0 limit (nu < 1e-8) of the series at the points k0 of x, row by
    row: a row stops at the first term below 1e-18 at all of its points."""
    for row in np.flatnonzero(k0.any(axis=1)):
        xs = x[row, k0[row]]
        L = np.log(0.5 * xs)
        r = np.ones_like(xs)
        total = -(L + EULER_GAMMA)
        abssum = np.abs(total)
        hk = 0.0
        for k in range(1, 400):
            r *= (0.25 * xs * xs) / (k * k)
            hk += 1.0 / k
            term = -r * (L + EULER_GAMMA - hk)
            total += term
            abssum += np.abs(term)
            if r.max() < 1e-18:
                break
        out[row, k0[row]] = total
        est = 4.0 * _EPS * abssum / np.maximum(np.abs(total), 1e-300) + 1e-15
        worst[row] = max(worst[row], float(est.max()))


# the series' term cap: a row whose r_k is still above 1e-17 at k = 599
# stops there, flagged
_SERIES_CAP = 600


def _term_table(nu: np.ndarray, qmax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (term x row) divisors d_k = k |k + i nu| and phases th_k of the
    rearranged series at the orders nu, each row up to its first k > 3
    whose r_k = prod_{j<=k} qmax / d_j is below 1e-17 (r_k grows with
    q = x^2/4, so the row's largest q fixes its last term); and whether
    that k came before the _SERIES_CAP-term cap.  Past a row's last term
    its divisors are inf and its phases 0, so its r_k and terms there are
    exact zeros that leave its sums unchanged.

    The table grows _SERIES_BLOCK terms at a time for the rows still
    running, carrying their r_k and phases into the next block as its first
    row.  The entries come from math.hypot and math.atan2 (numpy's differ
    in the last bit), and the cumulative products and sums along the term
    axis keep the order of the term-by-term recurrence, so each row gets
    the bits of its own scalar recurrence."""
    stop = np.full(nu.size, _SERIES_CAP - 1)
    done = np.zeros(nu.size, dtype=bool)
    live = np.arange(nu.size)
    r = np.ones(nu.size)
    th = -loggamma(1.0 + 1j * nu).imag  # th_0 = arg 1/Gamma(1 + i nu)
    divisors, phases = [], [th[None, :]]
    for k0 in range(1, _SERIES_CAP, _SERIES_BLOCK):
        ks = np.arange(k0, min(k0 + _SERIES_BLOCK, _SERIES_CAP), dtype=float)
        m = ks.size
        k_flat = np.repeat(ks, live.size).tolist()
        nu_flat = nu[live].tolist() * m
        hyp = np.fromiter(map(math.hypot, k_flat, nu_flat), float, len(k_flat))
        d = ks[:, None] * hyp.reshape(m, live.size)
        rb = np.empty((m + 1, live.size))
        rb[0] = r
        np.divide(qmax[live], d, out=rb[1:])
        np.multiply.accumulate(rb, axis=0, out=rb)
        tb = np.empty((m + 1, live.size))
        tb[0] = th
        at = np.fromiter(map(math.atan2, nu_flat, k_flat), float, len(k_flat))
        np.negative(at.reshape(m, live.size), out=tb[1:])
        np.add.accumulate(tb, axis=0, out=tb)
        d_block = np.full((m, nu.size), np.inf)
        d_block[:, live] = d
        th_block = np.zeros((m, nu.size))
        th_block[:, live] = tb[1:]
        divisors.append(d_block)
        phases.append(th_block)
        hit = (rb[1:] < 1e-17) & (ks > 3)[:, None]
        ends = hit.any(axis=0)
        stop[live[ends]] = k0 + hit.argmax(axis=0)[ends]
        done[live[ends]] = True
        live, r, th = live[~ends], rb[m, ~ends], tb[m, ~ends]
        if not live.size:
            break
    n_terms = int(stop.max())
    past = np.arange(1, n_terms + 1)[:, None] > stop
    div = np.where(past, np.inf, np.concatenate(divisors)[:n_terms])
    pha = np.concatenate(phases)[:n_terms + 1]
    pha[1:][past] = 0.0
    return div, pha, done


def _row_groups(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows holding points of the 2-D mask, and where each row's points
    start in x[mask] and how many there are."""
    per_row = np.count_nonzero(mask, axis=1)
    ids = np.flatnonzero(per_row)
    counts = per_row[ids]
    return ids, np.cumsum(counts) - counts, counts


def _row_max(values: np.ndarray, ids: np.ndarray, starts: np.ndarray,
             worst: np.ndarray) -> None:
    """worst[ids[i]] = max(worst[ids[i]], values[starts[i]:starts[i + 1]])."""
    worst[ids] = np.maximum(worst[ids], np.maximum.reduceat(values, starts))


def _series_rows(nu: np.ndarray, x: np.ndarray, ser: np.ndarray,
                 out: np.ndarray, worst: np.ndarray) -> None:
    """The power series at the points ser of x, each row at its own order."""
    ids, starts, counts = _row_groups(ser)
    group = np.repeat(np.arange(ids.size), counts)
    xs = x[ser]
    q = 0.25 * xs * xs
    orders = nu[ids]
    div, pha, done = _term_table(orders, np.maximum.reduceat(q, starts))
    # cut off at the term cap (nu >~ 900 near x = nu)
    worst[ids[~done]] = math.inf
    n_terms = pha.shape[0]
    phi = orders[group] * np.log(0.5 * xs)
    # term x point, in blocks of terms that carry the running product and
    # sums from one block to the next as their first row: cumulative
    # products and sums along the term axis keep the order of the
    # term-by-term recurrence (a sum along an axis may be reduced pairwise),
    # and the blocks bound the arrays however many points share the call
    total = np.sin(phi + pha[0, group])
    abssum = r_last = np.ones(xs.size)  # r_0 = 1
    size = min(_SERIES_BLOCK, n_terms - 1)
    r = np.empty((size + 1, xs.size))
    t = np.empty((size + 1, xs.size))
    for k in range(1, n_terms, size):
        m = min(size, n_terms - k)
        rb, tb = r[:m + 1], t[:m + 1]
        rb[0] = r_last
        np.take(div[k - 1:k - 1 + m], group, axis=1, out=rb[1:], mode="clip")
        np.divide(q, rb[1:], out=rb[1:])
        np.multiply.accumulate(rb, axis=0, out=rb)
        r_last = rb[m].copy()
        np.take(pha[k:k + m], group, axis=1, out=tb[1:], mode="clip")
        tb[1:] += phi
        np.sin(tb[1:], out=tb[1:])
        tb[1:] *= rb[1:]
        tb[0] = total
        total = np.add.accumulate(tb, axis=0, out=tb)[m].copy()
        rb[0] = abssum
        abssum = np.add.accumulate(rb, axis=0, out=rb)[m].copy()
    # the scaled prefactor -sqrt(2 pi / (nu (1 - e^{-2 pi nu})))
    scale = np.array([-math.exp(0.5 * (math.log(2.0 * math.pi) - math.log(n)
                                       - math.log1p(-math.exp(-2.0 * math.pi * n))))
                      for n in orders.tolist()])
    out[ser] = scale[group] * total
    denom = np.maximum(np.abs(total), 1e-300)
    _row_max(4.0 * _EPS * abssum / denom, ids, starts, worst)


def _debye_oscillatory_rows(nu: np.ndarray, x: np.ndarray, osc: np.ndarray,
                            out: np.ndarray, worst: np.ndarray) -> None:
    """The oscillatory Debye form at the points osc of x (x < nu, W >= 8):
    e^{pi nu/2} K = sqrt(2 pi/W) [S_even cos(Psi) - S_odd sin(Psi)],
    Psi = nu arccosh(nu/x) - W - pi/4, W = sqrt(nu^2 - x^2)."""
    xs = x[osc]
    n = np.broadcast_to(nu[:, None], x.shape)[osc]
    w = np.sqrt((n - xs) * (n + xs))
    theta = np.arccosh(n / xs)
    p2 = (n / w) ** 2
    # Horner for all orders at once; an order's leading zeros keep s = 0
    s = np.zeros((_DEBYE_TERMS, xs.size))
    for j in range(_DEBYE_TERMS - 1, -1, -1):
        s = s * p2 + _DEBYE_TABLE[:, j:j + 1]
    # w**k row by row: numpy squares for k = 2 but calls pow otherwise
    u = s / np.array([w**k for k in range(_DEBYE_TERMS)])
    s_even = np.add.accumulate(u[0::2], axis=0)[-1]
    s_odd = np.add.accumulate(u[1::2], axis=0)[-1]
    last = np.abs(u[-1])
    phase = n * theta
    psi = phase - w - 0.25 * math.pi
    val = s_even * np.cos(psi) - s_odd * np.sin(psi)
    out[osc] = np.sqrt(2.0 * math.pi / w) * val
    denom = np.maximum(np.abs(val), 1e-300)
    # plus the rounding of Psi's two large terms, which cancel in Psi (2 eps |Psi| misses it)
    rounding = 2.0 * _EPS * (phase + w)
    ids, starts, _counts = _row_groups(osc)
    _row_max((4.0 * last + rounding) / denom, ids, starts, worst)


def bessel_k_scaled_rows(nu: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized e^{pi nu/2} K_{i nu}(x) row by row: row r of the 2-D x at
    order nu[r].  Returns (values, worst) with worst[r] the worst relative
    error estimate of row r, at least 1e-15.

    Used by the spatial-overlap quadratures, one row per Kronrod panel, so
    that many panels of many overlaps cost one call.  Points outside the
    vectorizable comfort zones (x >= nu beyond the small-x region, and the
    turning band) fall back to the scalar selector.

    Each vectorized branch works on (term x point) arrays.  The power series
    takes as many terms as its row's largest argument needs (r_k grows with
    x), forms the r_k by cumulative products and sums the terms by
    cumulative sums along the term axis, a block of terms at a time; the
    oscillatory Debye branch runs Horner's rule for all u_k at once on a
    zero-padded coefficient table.  Both keep the term-by-term order of
    their recurrences, so a row's values and estimate do not depend on the
    other rows of the call.  They do depend on the row's own points: a larger
    argument in the row adds series terms, which can move the other values
    in the last bit.
    """
    x = np.asarray(x, dtype=float)
    nu = np.abs(np.asarray(nu, dtype=float))
    if x.ndim != 2 or nu.shape != x.shape[:1]:
        raise ValueError("x must be 2-D with one order per row")
    if np.any(x <= 0):
        raise ValueError("x must be positive")
    out = np.empty_like(x)
    worst = np.full(nu.shape, 1e-15)
    order = nu[:, None]

    # large orders: the oscillatory Debye branch wherever it exists (series
    # cancellation grows with x there); otherwise the series covers x < nu
    # and the small-x region, everything else goes through the scalar selector
    large = order >= 60.0
    below = x < order
    osc = large & below & ((order - x) * (order + x) >= 64.0)
    ser = ~osc & ((x * x <= 12.0 * np.sqrt(1.0 + order * order)) | (~large & below))
    rest = ~(ser | osc)

    k0 = ser & (order < 1e-8)
    ser &= ~k0
    for branch, mask in ((_k0_rows, k0), (_series_rows, ser), (_debye_oscillatory_rows, osc)):
        if mask.any():
            branch(nu, x, mask, out, worst)
    for r, c in zip(*np.nonzero(rest)):
        log_scaled, sign, est, _m = _k_log_scaled(float(nu[r]), float(x[r, c]))
        out[r, c] = sign * math.exp(min(log_scaled, _LOG_MAX)) if sign else 0.0
        worst[r] = max(worst[r], est)
    return out, worst


def bessel_k_scaled_values(nu: float, x: np.ndarray) -> tuple[np.ndarray, float]:
    """bessel_k_scaled_rows for one order over an array of arguments of any
    shape: (values, worst relative error estimate).  The values depend on
    which points share the call: the series takes as many terms as the
    largest argument needs, so adding a larger argument can move the others
    in the last bit."""
    x = np.asarray(x, dtype=float)
    vals, worst = bessel_k_scaled_rows(np.array([nu], dtype=float), x.reshape(1, -1))
    return vals.reshape(x.shape), float(worst[0])

# ----------------------------------------------------------------------
# |Gamma(i y)|^2 and the resonance kernel
# ----------------------------------------------------------------------

def gamma_abs_sq_imag(y: float) -> float:
    """|Gamma(i y)|^2 = pi / (y sinh(pi y)) for y > 0."""
    if not y > 0:
        raise ValueError("y must be positive")
    if math.pi * y > 700.0:
        raise SpecialFunctionRangeError(
            f"|Gamma(i {y})|^2 underflows double precision (pi y > 700)")
    return 2.0 * math.pi * math.exp(-math.pi * y) / (y * -math.expm1(-2.0 * math.pi * y))


def resonance_kernel(x, t):
    """sin^2(x t / 2) / x^2 with the x -> 0 limit t^2/4.  Accepts arrays in x."""
    if (t < 0) if isinstance(t, float) else np.any(np.asarray(t) < 0):
        raise ValueError("duration t must be nonnegative")
    if np.ndim(x) == 0:
        x = float(x)
        u = 0.5 * x * t
        if abs(u) < 1e-8:  # series limit; also dodges subnormal squaring
            return 0.25 * t * t * (1.0 - u * u / 3.0)
        s = math.sin(u)
        return (s * s) / (x * x)
    x = np.asarray(x, dtype=float)
    u = 0.5 * x * t
    tiny = np.abs(u) < 1e-8
    safe = np.where(tiny, 1.0, x)
    s = np.sin(u)
    return np.where(tiny, 0.25 * t * t * (1.0 - u * u / 3.0), (s * s) / (safe * safe))
