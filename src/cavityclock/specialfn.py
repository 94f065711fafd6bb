"""Special functions for the decay integrals.

* K_{i nu}(x), the modified Bessel function of the second kind with purely
  imaginary order, which no mainstream float library evaluates.  The row
  kernel bessel_k_scaled_rows takes each point to one of three vectorized
  methods (_branch_masks), each with its own relative error estimate:

  - power-series: the ascending series of I_{+-i nu} rearranged so every
    term is real with bounded trig factors, the 1/sinh(pi nu) prefactor
    absorbed analytically; x < nu below order 60, and small x.  One pass
    per block of terms builds the block's divisors and phases and adds it
    into every point; the estimate counts the rounding of the sum and of
    each sine's argument.
  - asymptotic: the oscillatory Debye form, x < nu from order 60 below the
    turning band |x - nu| < 9 nu^{1/3}; its u_k polynomials come exactly
    from the standard recurrence at import time.
  - integral-representation: the steepest-descent contour integral (Gil,
    Segura & Temme 2004) as a fixed Gauss-Legendre rule, for the band and
    every other x >= nu; in log form where the scaled value underflows.

  The scalar front end bessel_k_imag_order[_log] is a one-point row call,
  tagged with its method.  Magnitudes reach e^{-pi nu/2}, far below double
  range, so log/sign and e^{pi nu/2}-scaled forms are the internal currency.

* Gamma on the lines i y and 1 + i nu: |Gamma(i y)|^2 = pi / (y sinh(pi y)),
  and log Gamma(1 + i nu), whose phase arg 1/Gamma(1 + i nu) starts the
  power series; the phase from Stirling's series (DLMF 5.11.1) at 9 + i nu,
  shifted back by Gamma(z + 1) = z Gamma(z), the modulus from the closed form
  |Gamma(1 + i nu)|^2 = pi nu / sinh(pi nu).

* The resonance kernel sin^2(x t / 2) / x^2 with its removable singularity."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import SpecialFunctionRangeError

EULER_GAMMA = 0.5772156649015328606
# the accuracy a row's worst estimate is counted against (the benchmark's
# specialfn.bessel_batch.within_tol_frac)
DEFAULT_BESSEL_TOL = 1e-10

_LOG_MAX = math.log(np.finfo(float).max)          # ~709.78
_LOG_MIN = math.log(np.finfo(float).tiny)         # ~-708.40
_EPS = float(np.finfo(float).eps)


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


# terms per block of the batched series (_series_rows)
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
    """The power series at the points ser of x, each row at its own order:
    e^{pi nu/2} K = -s(nu) sum_k r_k sin(nu ln(x/2) + th_k), with q = x^2/4,
    r_k = prod_{j<=k} q / d_j, d_k = k |k + i nu|, th_0 = arg 1/Gamma(1 + i nu)
    and th_k = th_{k-1} - atan2(nu, k).  Each pass of one loop builds the next
    _SERIES_BLOCK divisors and phases of the rows still running and sums them
    into the points.  A row's last term is its first k > 3 whose r_k at its
    largest q is below 1e-17 (or the cap, flagged inf); past it its divisors
    are inf, so its terms are exact zeros.  The entries come from math.hypot
    and math.atan2 (numpy's differ in the last bit), and products and sums
    run cumulatively along the term axis, each block carrying them into the
    next as its first row (a sum along an axis may be reduced pairwise), so
    each row gets the bits of its own scalar recurrence.  The estimate counts
    the rounding of the sum and of each sine's argument a_k:
    2 eps sum_k r_k (2 + |a_k|) / |sum|."""
    ids, starts, counts = _row_groups(ser)
    group = np.repeat(np.arange(ids.size), counts)
    xs = x[ser]
    q = 0.25 * xs * xs
    orders = nu[ids]
    qmax = np.maximum.reduceat(q, starts)
    phi = orders[group] * np.log(0.5 * xs)
    th = -_arg_gamma_one_plus_i(orders)
    total = np.sin(phi + th[group])
    bound = 2.0 + np.abs(phi + th[group])
    # each row's r_k at its qmax, and its last term (the cap while running)
    r_top, stop = np.ones(ids.size), np.full(ids.size, _SERIES_CAP)
    r, t, u = np.empty((3, _SERIES_BLOCK + 1, xs.size))
    r[0] = 1.0  # r_0, and then the r_k each block carries into the next
    for k0 in range(1, _SERIES_CAP, _SERIES_BLOCK):
        ks = np.arange(k0, min(k0 + _SERIES_BLOCK, _SERIES_CAP), dtype=float)[:, None]
        kk, nn = np.repeat(ks, ids.size, axis=1), np.tile(orders, (ks.size, 1))
        run = np.repeat([stop == _SERIES_CAP], ks.size, axis=0)
        d = np.full(kk.shape, np.inf)
        d[run] = kk[run] * np.fromiter(map(math.hypot, kk[run].tolist(), nn[run].tolist()), float)
        rt = np.multiply.accumulate(np.vstack([r_top, qmax / d]), axis=0)
        hit = (rt[1:] < 1e-17) & (ks > 3) & run
        stop = np.where(hit.any(axis=0), k0 + hit.argmax(axis=0), stop)
        # the phases only up to each row's last term
        past = ks > stop
        at = np.zeros(kk.shape)
        at[~past] = np.fromiter(map(math.atan2, nn[~past].tolist(), kk[~past].tolist()), float)
        tt = np.add.accumulate(np.vstack([th, -at]), axis=0)
        d[past], tt[1:][past] = np.inf, 0.0
        r_top, th = rt[-1], tt[-1]
        # the block at every point, up to the last term of any row in it
        m = min(ks.size, int(stop.max()) - k0 + 1)
        rb, tb, ub = r[:m + 1], t[:m + 1], u[:m + 1]
        np.take(d[:m], group, axis=1, out=rb[1:], mode="clip")
        np.divide(q, rb[1:], out=rb[1:])
        np.multiply.accumulate(rb, axis=0, out=rb)
        np.take(tt[1:m + 1], group, axis=1, out=tb[1:], mode="clip")
        tb[1:] += phi
        np.sin(tb[1:], out=ub[1:])
        ub[1:] *= rb[1:]
        ub[0] = total
        total = np.add.accumulate(ub, axis=0, out=ub)[m].copy()
        np.abs(tb[1:], out=tb[1:])
        tb[1:] += 2.0
        tb[1:] *= rb[1:]
        tb[0] = bound
        bound = np.add.accumulate(tb, axis=0, out=tb)[m].copy()
        r[0] = r[m]
        if stop.max() < _SERIES_CAP:
            break
    # the rows cut off at the cap (nu >~ 900 near x = nu; the row kernel sends no order >= 60 here)
    worst[ids[stop == _SERIES_CAP]] = math.inf
    # the scaled prefactor -sqrt(2 pi / (nu (1 - e^{-2 pi nu})))
    scale = np.array([-math.exp(0.5 * (math.log(2.0 * math.pi) - math.log(n)
                                       - math.log1p(-math.exp(-2.0 * math.pi * n))))
                      for n in orders.tolist()])
    out[ser] = scale[group] * total
    denom = np.maximum(np.abs(total), 1e-300)
    _row_max(2.0 * _EPS * bound / denom, ids, starts, worst)


def _debye_oscillatory_rows(nu: np.ndarray, x: np.ndarray, osc: np.ndarray,
                            out: np.ndarray, worst: np.ndarray) -> None:
    """The oscillatory Debye form at the points osc of x (x < nu, W >> 8):
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


# the contour rule takes the turning band |x - nu| < _BAND nu^{1/3} from
# order 60, at whose edge the Debye form is off by 1.4e-12 of the envelope
# sqrt(2 pi/W) (1e-11 at 8 nu^{1/3}); a tail ends where its exponent has
# fallen by _DROP; Newton finds u0 in 6 steps for nu/x up to 1e8
_BAND, _DROP, _NEWTON_STEPS = 9.0, 40.0, 7
_END_GRID = 2.0 ** (np.arange(23) / 2.0 - 8.0)  # w = 2^-8 .. 8, steps of sqrt(2)
_SINH_TAYLOR = [1.0 / math.factorial(2 * k + 1) for k in range(9, 0, -1)]


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [0, 1]: leggauss's nodes (off by a
    few eps, its weights by more) polished by a Newton step on P_n in
    extended precision, with P_n' carried along by Legendre's equation."""
    t = leggauss(n)[0].astype(np.longdouble)
    p_prev, p = np.ones_like(t), t
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
    dp = n * (p_prev - t * p) / (1 - t * t)
    step = -p / dp
    dp += step * (2 * t * dp - n * (n + 1) * p) / (1 - t * t)
    t += step
    return (0.5 * (t + 1)).astype(float), (1 / ((1 - t * t) * dp * dp)).astype(float)


# each piece returns its first rule and estimates from the difference to the second
_TAIL_RULES = (_gauss_legendre(40), _gauss_legendre(30))
_OSC_RULES = (_gauss_legendre(72), _gauss_legendre(56))


def _sinh_minus(u: np.ndarray) -> np.ndarray:
    """sinh u - u for u >= 0, by its Taylor series below u = 1."""
    s = np.zeros_like(u)
    for c in _SINH_TAYLOR:
        s = s * u * u + c
    return np.where(u < 1.0, s * u ** 3, np.sinh(u) - u)


def _rules(f, rules, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integrals over [0, length[i]] of f (of the (point x node)
    abscissae) by both rules, each point's nodes reduced on their own."""
    (t1, w1), (t2, w2) = rules
    v = f(length[:, None] * np.concatenate([t1, t2]))
    return (length * np.matmul(v[:, None, :t1.size], w1[:, None]).ravel(),
            length * np.matmul(v[:, None, t1.size:], w2[:, None]).ravel())


def _contour_rows(nu: np.ndarray, x: np.ndarray, cont: np.ndarray,
                  out: np.ndarray, worst: np.ndarray) -> np.ndarray:
    """The steepest-descent contour integral (Gil, Segura & Temme, ACM TOMS
    30 (2004) 145-164) at the points cont of x; returns their log|value|,
    finite where the value underflows (to a zero of its sign).  On the path
    t = u + iv, sin v = nu u / (x sinh u), K = Re int e^{i nu t - x cosh t} dt
    has a positive integrand: e^{pi nu/2} K = int_{u0}^inf e^E du
    + int_0^{u0} cos(nu u - x sinh u) du, E = nu (pi/2 - v) - x cosh u cos v,
    with u0 = 0 for x >= nu, else the root of x sinh u0 = nu u0.  E falls
    from its start e0; the tail puts u = u0 + w^2 and ends where E has fallen
    by _DROP.  Each point takes its own nodes and sums."""
    n, xs = np.broadcast_to(nu[:, None], x.shape)[cont], x[cont]
    d = n - xs
    ob, oa = np.flatnonzero(d > 0.0), np.flatnonzero(d <= 0.0)
    # u0 by Newton from the right on the convex x (sinh u - u) - d u, which
    # is positive at sqrt(6 d/x) and at L + log(L + 1) + 1, L = log(2 nu/x)
    xb, db, big = xs[ob], d[ob], np.log(2.0 * n[ob] / xs[ob])
    ub = np.minimum(np.sqrt(6.0 * db / xb), big + np.log(big + 1.0) + 1.0)
    for _ in range(_NEWTON_STEPS if ob.size else 0):
        ub -= (xb * _sinh_minus(ub) - db * ub) / (xb * (np.cosh(ub) - 1.0) - db)
    # the start: pi/2 - v = delta0 = acos(nu/x), e0 = nu delta0 - sqrt(x^2 - nu^2)
    u0, delta0, e0 = (np.zeros_like(xs) for _ in range(3))
    u0[ob] = ub
    delta0[oa] = 2.0 * np.arcsin(np.sqrt(-d[oa] / (2.0 * xs[oa])))
    e0[oa] = n[oa] * delta0[oa] - np.sqrt(-d[oa] * (xs[oa] + n[oa]))

    def drop(w):
        """e0 - E at u = u0 + w^2, one row per point."""
        u = u0[:, None] + w * w
        # pi/2 - v = delta0 + 2 half, and x (cosh u sin delta - sin delta0)
        # - nu (delta - delta0), in forms free of cancellation for x > nu
        gap = (xs[:, None] * _sinh_minus(u) - d[:, None] * u) / (xs[:, None] * np.sinh(u))
        half = np.arcsin(np.sqrt(0.5 * np.clip(gap, 0.0, 1.0))) - 0.5 * delta0[:, None]
        sh = np.sinh(0.5 * u)
        return (2.0 * xs[:, None] * (sh * sh * np.sin(delta0[:, None] + 2.0 * half)
                                     + np.cos(delta0[:, None] + half) * np.sin(half))
                - 2.0 * n[:, None] * half)

    with np.errstate(all="ignore"):
        # between the grid points around _DROP the drop grows like a power
        # of w: solve in log-log (without a drop below, take the upper point)
        drops = drop(_END_GRID)
        j = np.maximum(np.argmax(drops >= _DROP, axis=1), 1)
        lo, hi = drops[np.arange(xs.size), j - 1], drops[np.arange(xs.size), j]
        w_end = _END_GRID[j - 1] * (_DROP / lo) ** (0.5 * math.log(2.0) / np.log(hi / lo))
        w_end = np.where((lo > 0.0) & (w_end > 0.0), w_end, _END_GRID[j])
        tail, tail_coarse = _rules(lambda w: 2.0 * w * np.exp(-drop(w)), _TAIL_RULES, w_end)
        osc, osc_coarse = np.zeros_like(xs), np.zeros_like(xs)
        osc[ob], osc_coarse[ob] = _rules(
            lambda u: np.cos(db[:, None] * u - xb[:, None] * _sinh_minus(u)), _OSC_RULES, ub)
        total = tail + osc
        # and the rounding of the exponents, whose terms reach nu + x and |e0|
        est = (np.abs(tail - tail_coarse) + np.abs(osc - osc_coarse)
               + 2.0 * _EPS * (n + xs - e0) * (tail + u0)) / np.maximum(np.abs(total), 1e-300)
        log_abs = e0 + np.log(np.abs(total))
        out[cont] = np.copysign(np.exp(log_abs), total)
    ids, starts, _counts = _row_groups(cont)
    _row_max(est, ids, starts, worst)
    return log_abs


def _branch_masks(nu: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
    """The points of the 2-D x (row r at order nu[r]) each of _BRANCHES takes:
    the Debye form x < nu below the turning band from order 60 (series
    cancellation grows with x there), the series x < nu below order 60 and
    small x, the contour rule the rest."""
    order = nu[:, None]
    large = order >= 60.0
    band = large & (np.abs(x - order) < _BAND * np.cbrt(order))
    osc = large & (x < order) & ~band
    ser = ~osc & ~band & ((x * x <= 12.0 * np.sqrt(1.0 + order * order)) | (x < order))
    k0 = ser & (order < 1e-8)
    return [k0, ser & ~k0, osc, ~(ser | osc)]


_BRANCHES = ((BesselMethod.POWER_SERIES, _k0_rows), (BesselMethod.POWER_SERIES, _series_rows),
             (BesselMethod.ASYMPTOTIC, _debye_oscillatory_rows),
             (BesselMethod.INTEGRAL_REPRESENTATION, _contour_rows))


# the domain of the row kernel and the scalar front end: x >= 1e-320, where
# ln(x/2) stays finite, and from the Debye form's order 60 also x >= 1e-308 nu,
# where nu/x does; nu <= 1e17 and x <= 1e150, where the squares of x, nu and
# x -+ nu stay finite, and so does the contour rule, which gives inf from about
# nu = 4e18 at x = 1e34 (a scan of nu and x)
_NU_MAX, _X_MIN, _X_MAX = 1e17, 1e-320, 1e150


def _check_domain(nu: np.ndarray, x: np.ndarray) -> None:
    """ValueError for x <= 0, SpecialFunctionRangeError outside the domain."""
    x_lo, x_hi, nu_hi = x.min(initial=math.inf), x.max(initial=0.0), nu.max(initial=0.0)
    if not x_lo > 0.0:
        raise ValueError("x must be positive")
    if not (nu_hi <= _NU_MAX and _X_MIN <= x_lo and x_hi <= _X_MAX
            and (nu_hi < 60.0 or 1e-308 * nu_hi <= x_lo)):
        raise SpecialFunctionRangeError(
            f"K_(i nu)(x) at nu up to {nu_hi:.3g}, x in [{x_lo:.3g}, {x_hi:.3g}]: outside "
            f"nu <= {_NU_MAX:.0e}, {_X_MIN:.0e} <= x <= {_X_MAX:.0e} (x >= 1e-308 nu from 60)")


def bessel_k_scaled_rows(nu: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized e^{pi nu/2} K_{i nu}(x) row by row: row r of the 2-D x at
    order nu[r].  Returns (values, worst) with worst[r] the worst relative
    error estimate of row r, at least 1e-15.  Points outside the domain
    (_check_domain) are refused.

    Used by the spatial-overlap quadratures, one row per Kronrod panel, so
    that many panels of many overlaps cost one call.  Each point goes to one
    branch (_branch_masks) on (term or node x point) arrays; the series and
    the Debye form keep the term-by-term order of their recurrences, the
    contour rule sums each point's nodes on their own, so a row's values and
    estimate do not depend on the other rows.  They do on the row's own
    points: a larger argument adds series terms, which can move the others
    in the last bit."""
    x = np.asarray(x, dtype=float)
    nu = np.abs(np.asarray(nu, dtype=float))
    if x.ndim != 2 or nu.shape != x.shape[:1]:
        raise ValueError("x must be 2-D with one order per row")
    _check_domain(nu, x)
    out = np.empty_like(x)
    worst = np.full(nu.shape, 1e-15)
    for (_method, branch), mask in zip(_BRANCHES, _branch_masks(nu, x)):
        if mask.any():
            branch(nu, x, mask, out, worst)
    return out, worst


def bessel_k_scaled_values(nu: float, x: np.ndarray) -> tuple[np.ndarray, float]:
    """bessel_k_scaled_rows for one order over an array of arguments of any
    shape: (values, worst relative error estimate), the values as one row."""
    x = np.asarray(x, dtype=float)
    vals, worst = bessel_k_scaled_rows(np.array([nu], dtype=float), x.reshape(1, -1))
    return vals.reshape(x.shape), float(worst[0])


def bessel_k_imag_order_log(nu: float, x: float) -> LogBesselEval:
    """K_{i nu}(x) in log/sign form at any order of the domain: the row
    kernel's branch at the one point (nu, x), tagged; where e^{pi nu/2} K
    underflows (x >> nu), the contour rule's log form keeps log_abs finite."""
    nu_, x_ = np.array([abs(float(nu))]), np.array([[float(x)]])
    _check_domain(nu_, x_)
    out, worst = np.empty((1, 1)), np.full(1, 1e-15)
    method, branch = next(b for b, m in zip(_BRANCHES, _branch_masks(nu_, x_)) if m[0, 0])
    with np.errstate(all="ignore"):
        log_abs = branch(nu_, x_, np.ones((1, 1), dtype=bool), out, worst)
    value = float(out[0, 0])
    log_scaled = (float(log_abs[0]) if log_abs is not None
                  else math.log(abs(value)) if value else -math.inf)
    return LogBesselEval(log_scaled - 0.5 * math.pi * float(nu_[0]), math.copysign(1.0, value),
                         float(worst[0]), method)


def bessel_k_imag_order(nu: float, x: float) -> BesselEval:
    """K_{i nu}(x) as a plain float; raises SpecialFunctionRangeError when the
    value leaves double range (the log variant then still works)."""
    ev = bessel_k_imag_order_log(nu, x)
    if ev.log_abs > _LOG_MAX or ev.log_abs < _LOG_MIN:
        raise SpecialFunctionRangeError(
            f"K_(i {nu})({x}) has log-magnitude {ev.log_abs:.1f}, outside double "
            "range; use bessel_k_imag_order_log")
    value = ev.sign * math.exp(ev.log_abs)
    return BesselEval(value, abs(value) * ev.rel_error_estimate, ev.method)


# ----------------------------------------------------------------------
# Gamma on the imaginary axis and on 1 + i nu, and the resonance kernel
# ----------------------------------------------------------------------

# Stirling's series log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2
# + sum_k c_k z^(1 - 2k), c_k = B_2k / (2k (2k - 1)) (DLMF 5.11.1), taken to 8
# terms at z = 9 + i nu, where the next one is below 1.2e-17
_STIRLING = [Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260), Fraction(-1, 1680),
             Fraction(1, 1188), Fraction(-691, 360360), Fraction(1, 156),
             Fraction(-3617, 122400)]
# as columns, the last term first: c_k and the powers 1 - 2k
_STIRLING_C = np.array([float(c) for c in reversed(_STIRLING)])[:, None]
_STIRLING_POWERS = np.arange(1.0 - 2.0 * len(_STIRLING), 0.0, 2.0)[:, None]
# j = 1 .. 9: the factors j + i nu that Gamma(z + 1) = z Gamma(z) takes off, then z
_SHIFT = np.arange(1.0, len(_STIRLING) + 2.0)[:, None]


def _arg_gamma_one_plus_i(nu: np.ndarray) -> np.ndarray:
    """Im log Gamma(1 + i nu), continuous from nu = 0, at the 1-D orders
    nu >= 0: Stirling's series at z = 9 + i nu, less arg(j + i nu) for
    j = 1 .. 8.  With theta = arg z and L = log|z|, the series' imaginary
    part is 8.5 theta + nu (L - 1) + sum_k c_k sin((1 - 2k) theta) e^{(1 - 2k) L}.
    The terms are summed along the term axis (a matrix product may sum them
    in another order for another number of orders), so each order gets the
    bits it gets alone."""
    n_terms = len(_STIRLING)
    ang = np.arctan2(nu, _SHIFT)
    log_mod = np.log(np.hypot(nu, _SHIFT[-1]))
    t = np.empty((2 * n_terms + 2, nu.size))
    np.multiply(np.sin(_STIRLING_POWERS * ang[-1]), np.exp(_STIRLING_POWERS * log_mod),
                out=t[:n_terms])
    t[:n_terms] *= _STIRLING_C
    np.negative(ang[n_terms - 1::-1], out=t[n_terms:-2])
    np.multiply(ang[-1], len(_STIRLING) + 0.5, out=t[-2])
    np.multiply(nu, log_mod - 1.0, out=t[-1])
    return np.add.accumulate(t, axis=0, out=t)[-1]


def log_gamma_one_plus_i(nu) -> np.ndarray:
    """log Gamma(1 + i nu) for real nu >= 0 (an array or a scalar, returned
    as a complex array of its shape), on the branch continuous from
    log Gamma(1) = 0, which is scipy's loggamma.  The imaginary part comes
    from Stirling's series, within a few eps (nu |ln nu| + nu + 1) of the
    exact phase; the real part from the closed form
    log |Gamma(1 + i nu)| = -log(sinh(pi nu) / (pi nu)) / 2, whose log1p
    keeps it to a few eps relative near nu = 0."""
    nu = np.asarray(nu, dtype=float)
    flat = nu.reshape(-1)
    if np.any(flat < 0.0):
        raise ValueError("nu must be nonnegative")
    x = math.pi * flat
    # log(sinh x / x): from sinh x - x below x = 1, else x + log((1 - e^{-2x}) / 2x)
    small = np.minimum(x, 1.0)
    large = np.maximum(x, 1.0)
    log_ratio = np.where(x < 1.0,
                         np.log1p(_sinh_minus(small) / np.maximum(small, 1e-300)),
                         large + np.log(-np.expm1(-2.0 * large) / (2.0 * large)))
    return (-0.5 * log_ratio + 1j * _arg_gamma_one_plus_i(flat)).reshape(nu.shape)


def gamma_abs_sq_imag(y: float) -> float:
    """|Gamma(i y)|^2 = pi / (y sinh(pi y)) for y > 0."""
    if not y > 0:
        raise ValueError("y must be positive")
    if math.pi * y > 700.0:
        raise SpecialFunctionRangeError(
            f"|Gamma(i {y})|^2 underflows double precision (pi y > 700)")
    return 2.0 * math.pi * math.exp(-math.pi * y) / (y * -math.expm1(-2.0 * math.pi * y))


def resonance_kernel(x, t):
    """sin^2(x t / 2) / x^2 with the x -> 0 limit t^2/4, elementwise on
    arrays; a Python float for scalar x and t."""
    if (t < 0) if isinstance(t, float) else np.any(np.asarray(t) < 0):
        raise ValueError("duration t must be nonnegative")
    x = np.asarray(x, dtype=float)
    u = 0.5 * x * t
    # the limit t^2/4 (1 - u^2/3), which rounds to t^2/4; also dodges subnormal squaring
    tiny = np.abs(u) < 1e-8
    safe = np.where(tiny, 1.0, x)
    s = np.sin(u)
    out = np.where(tiny, 0.25 * t * t, (s * s) / (safe * safe))
    return out if out.ndim else float(out)
