"""Adaptive Gauss-Kronrod integration over finite and truncated semi-infinite intervals.

The engine is a plain globally adaptive bisection scheme on 7-15 Gauss-Kronrod
panels.  It exists instead of scipy.integrate.quad because the decay integrals
need guarantees quad does not give:

* declared removable singularities are placed on panel boundaries and are
  therefore never sampled (Kronrod nodes are interior),
* resonance peaks of width ~1/t are pre-split before refinement starts,
* results are bitwise deterministic for a fixed config (panel values and
  errors are summed exactly, so their order does not matter),
* evaluation counts and a converged flag are reported.

Integrands are called with a 1-D numpy array of abscissae and should return an
array of the same shape; plain scalar callables are detected and wrapped.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import IntegrandError

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12
DEFAULT_MAX_SUBDIVISIONS = 20_000

# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full 15-node layout, ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK_FULL = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and domain annotations for the adaptive integrator.

    singular_points lists abscissae where the integrand is only defined by a
    finite limit; they become panel boundaries and are never evaluated.
    resonance_points lists (center, width) pairs; the domain is pre-split at
    center +- k*width for k in (1, 4, 16).  domain_cutoff replaces an infinite
    upper limit; the caller owns the tail bound that justifies it.
    """

    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS
    domain_cutoff: float | None = None
    singular_points: tuple[float, ...] = ()
    resonance_points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def with_resonance(self, center: float, width: float) -> "QuadratureConfig":
        return replace(self, resonance_points=self.resonance_points + ((center, width),))


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _as_vector_fn(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    probed: dict[str, bool | None] = {"vectorized": None}

    def call(xs: np.ndarray) -> np.ndarray:
        if probed["vectorized"] is None:
            try:
                out = np.asarray(f(xs), dtype=float)
                if out.shape == xs.shape:
                    probed["vectorized"] = True
                    return out
            except (TypeError, ValueError):
                pass
            probed["vectorized"] = False
        if probed["vectorized"]:
            return np.asarray(f(xs), dtype=float)
        return np.array([float(f(float(x))) for x in xs])

    return call


def _panel(fv: np.ndarray, a: float, b: float) -> tuple[float, float]:
    """Kronrod value and QUADPACK-style error estimate for one panel."""
    half = 0.5 * (b - a)
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


def _add_exact(partials: list[float], xs) -> None:
    """Add the numbers xs to a sum held as Shewchuk's non-overlapping
    partials, the error-free scheme math.fsum runs internally:
    math.fsum(partials) is then the correctly rounded sum of everything
    added, in any order."""
    for x in xs:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]


def _breakpoints(a: float, b: float, cfg: QuadratureConfig) -> list[float]:
    pts = {a, b}
    for s in cfg.singular_points:
        if a < s < b:
            pts.add(float(s))
    for center, width in cfg.resonance_points:
        if width <= 0:
            raise ValueError("resonance width must be positive")
        for k in (1.0, 4.0, 16.0):
            for p in (center - k * width, center + k * width):
                if a < p < b:
                    pts.add(float(p))
        if a < center < b:
            pts.add(float(center))
    out = sorted(pts)
    # drop breakpoints closer than machine resolution to their neighbour
    kept = [out[0]]
    for p in out[1:]:
        if p - kept[-1] > 1e-15 * max(1.0, abs(p), abs(kept[-1])):
            kept.append(p)
    if kept[-1] != b:
        kept[-1] = b
    return kept


def _checked_panel(xs: np.ndarray, fv: np.ndarray, a: float, b: float) -> tuple[float, float]:
    """_panel() of the values fv at the abscissae xs, refusing non-finite values."""
    if not np.isfinite(fv).all():
        x_bad = float(xs[int(np.argmin(np.isfinite(fv)))])
        raise IntegrandError(f"non-finite integrand value at x = {x_bad!r}")
    return _panel(fv, a, b)


def _adaptive(a: float, b: float, cfg: QuadratureConfig | None):
    """The adaptive loop as a generator.  It yields the abscissae of the
    panels it needs next as a list of 15-point arrays, one per panel, takes
    the integrand's values back as a sequence of arrays in the same order,
    and returns the IntegralResult.  integrate() and integrate_rows() drive it."""
    cfg = cfg or QuadratureConfig()
    if math.isinf(b):
        if cfg.domain_cutoff is None:
            raise ValueError("infinite upper limit requires cfg.domain_cutoff")
        b = cfg.domain_cutoff
    if not (b > a):
        if b == a:
            return IntegralResult(0.0, 0.0, 0, True)
        raise ValueError("integration limits must satisfy a <= b")

    pts = _breakpoints(a, b, cfg)
    xss = [0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo) for lo, hi in zip(pts[:-1], pts[1:])]
    fvs = yield xss
    heap: list[tuple[float, float, float, float, float]] = []  # (-err, a, b, value, err)
    for lo, hi, xs, fv in zip(pts[:-1], pts[1:], xss, fvs):
        value, err = _checked_panel(xs, fv, lo, hi)
        heapq.heappush(heap, (-err, lo, hi, value, err))

    # exact running sums of the heap's panel values and errors (see _add_exact)
    values: list[float] = []
    errors: list[float] = []
    _add_exact(values, [item[3] for item in heap])
    _add_exact(errors, [item[4] for item in heap])
    subdivisions = 0
    while True:
        total = math.fsum(values)
        total_err = math.fsum(errors)
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            converged = True
            break
        if subdivisions >= cfg.max_subdivisions:
            converged = False
            break
        _neg_err, lo, hi, value, err = heap[0]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at machine resolution; give up
            converged = False
            break
        heapq.heappop(heap)
        xs_lo = 0.5 * (mid - lo) * _NODES + 0.5 * (mid + lo)
        xs_hi = 0.5 * (hi - mid) * _NODES + 0.5 * (hi + mid)
        fv_lo, fv_hi = yield [xs_lo, xs_hi]
        v_lo, e_lo = _checked_panel(xs_lo, fv_lo, lo, mid)
        v_hi, e_hi = _checked_panel(xs_hi, fv_hi, mid, hi)
        heapq.heappush(heap, (-e_lo, lo, mid, v_lo, e_lo))
        heapq.heappush(heap, (-e_hi, mid, hi, v_hi, e_hi))
        _add_exact(values, (-value, v_lo, v_hi))
        _add_exact(errors, (-err, e_lo, e_hi))
        subdivisions += 1

    evaluations = _NODES.size * (len(pts) - 1 + 2 * subdivisions)
    return IntegralResult(total, total_err, evaluations, converged)


def integrate(f: Callable, a: float, b: float, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate f over [a, b]; b may be math.inf if cfg.domain_cutoff is set.

    Returns the best estimate with converged=False when the tolerance was not
    reached within max_subdivisions.  Non-finite samples abort with
    IntegrandError naming the abscissa (declared singular points are never
    sampled, so they cannot trigger this).  f gets one panel's 15 abscissae
    per call.
    """
    fvec = _as_vector_fn(f)
    loop = _adaptive(a, b, cfg)
    try:
        xss = next(loop)
        while True:
            xss = loop.send([fvec(xs) for xs in xss])
    except StopIteration as done:
        return done.value


def integrate_rows(f: Callable, intervals, cfg: QuadratureConfig | None = None) -> list[IntegralResult]:
    """integrate() over many intervals in lockstep, with one call of f per
    round: f(ids, xs) gets the (panels x 15) abscissae that the unfinished
    integrals need next, ids[p] naming the interval of panel p, and returns
    the values in that shape.  Each integral takes the steps integrate()
    takes, so its result is integrate()'s whenever f's value at a panel does
    not depend on the other panels of the call.
    """
    loops = [_adaptive(a, b, cfg) for a, b in intervals]
    results: list[IntegralResult | None] = [None] * len(loops)
    pending = {}
    for i, loop in enumerate(loops):
        try:
            pending[i] = next(loop)
        except StopIteration as done:
            results[i] = done.value
    while pending:
        ids = np.repeat(list(pending), [len(xss) for xss in pending.values()])
        fv = np.asarray(f(ids, np.array([xs for xss in pending.values() for xs in xss])),
                        dtype=float)
        start, waiting = 0, {}
        for i, xss in pending.items():
            try:
                waiting[i] = loops[i].send(fv[start:start + len(xss)])
            except StopIteration as done:
                results[i] = done.value
            start += len(xss)
        pending = waiting
    return results


def truncation_point(tail_bound: Callable[[float], float], start: float,
                     budget: float, growth: float = 2.0, max_doublings: int = 60) -> float:
    """Smallest cutoff in the geometric sequence start * growth^k whose
    caller-supplied tail bound falls below budget."""
    c = start
    for _ in range(max_doublings):
        if tail_bound(c) <= budget:
            return c
        c *= growth
    return c
