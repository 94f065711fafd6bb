"""Adaptive Gauss-Kronrod integration over finite intervals.

The engine is a plain globally adaptive bisection scheme on 7-15 Gauss-Kronrod
panels.  It exists instead of scipy.integrate.quad because the decay integrals
need guarantees quad does not give:

* declared removable singularities are placed on panel boundaries and are
  therefore never sampled (Kronrod nodes are interior),
* resonance peaks of width ~1/t are pre-split before refinement starts,
* the domain (limits, singular points, resonances) is an argument of each
  call, so it cannot leak into other integrals; an infinite limit is refused,
  the caller truncates it (truncation_point) and owns the tail bound,
* results are bitwise deterministic for a fixed call (panel values and
  errors are summed exactly, so their order does not matter),
* evaluation counts and a converged flag are reported.

Each refinement round costs one integrand call: integrate() passes f a 1-D
numpy array with every abscissa of the round, in panel order (all initial
panels in the first round, both halves of the bisected panel after that), and
f returns one value per abscissa; integrate_rows() does the same for many
integrals at once.  The results are those of calling f panel by panel
whenever f works point by point, its value at a point not depending on which
other points share the call.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
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
    """The caller's tolerances for the adaptive integrator: a result converges
    when its error estimate is at most max(abs_tol, rel_tol * |value|) within
    max_subdivisions bisections.  The domain is not part of the config; it is
    given to each integrate() call."""

    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


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


def _breakpoints(a: float, b: float, singular=(), resonances=()) -> list[float]:
    pts = {a, b}
    for s in singular:
        if a < s < b:
            pts.add(float(s))
    for center, width in resonances:
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
    kept[-1] = b
    return kept


def _round_values(fv, xs: np.ndarray) -> np.ndarray:
    """The integrand's values fv at one round's abscissae xs, refused unless
    there is one finite value per abscissa; a non-finite one is named by the
    first abscissa, in panel order, where it occurs."""
    fv = np.asarray(fv, dtype=float)
    if fv.shape != xs.shape:
        raise ValueError(f"integrand returned shape {fv.shape} for abscissae of shape "
                         f"{xs.shape}; it must return one value per abscissa")
    finite = np.isfinite(fv)
    if not finite.all():
        x_bad = float(xs.flat[int(np.argmin(finite))])
        raise IntegrandError(f"non-finite integrand value at x = {x_bad!r}")
    return fv


def _adaptive(a: float, b: float, cfg: QuadratureConfig | None, *,
              singular=(), resonances=()):
    """The adaptive loop as a generator.  Each round it yields the abscissae
    of the panels it needs next as a list of 15-point arrays, one per panel,
    takes the integrand's values back as a (panels x 15) array, and at the
    end returns the IntegralResult.  integrate() and integrate_rows() drive
    it and check the values (_round_values)."""
    cfg = cfg or QuadratureConfig()
    if math.isinf(a) or math.isinf(b):
        raise ValueError("integration limits must be finite (see truncation_point)")
    if not (b > a):
        if b == a:
            return IntegralResult(0.0, 0.0, 0, True)
        raise ValueError("integration limits must satisfy a <= b")

    pts = _breakpoints(a, b, singular, resonances)
    if len(pts) < 2:  # [a, b] is below the breakpoints' resolution
        return IntegralResult(0.0, 0.0, 0, True)
    fv = yield [0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo) for lo, hi in zip(pts[:-1], pts[1:])]
    heap: list[tuple[float, float, float, float, float]] = []  # (-err, a, b, value, err)
    for lo, hi, row in zip(pts[:-1], pts[1:], fv):
        value, err = _panel(row, lo, hi)
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
        fv_lo, fv_hi = yield [0.5 * (mid - lo) * _NODES + 0.5 * (mid + lo),
                              0.5 * (hi - mid) * _NODES + 0.5 * (hi + mid)]
        v_lo, e_lo = _panel(fv_lo, lo, mid)
        v_hi, e_hi = _panel(fv_hi, mid, hi)
        heapq.heappush(heap, (-e_lo, lo, mid, v_lo, e_lo))
        heapq.heappush(heap, (-e_hi, mid, hi, v_hi, e_hi))
        _add_exact(values, (-value, v_lo, v_hi))
        _add_exact(errors, (-err, e_lo, e_hi))
        subdivisions += 1

    evaluations = _NODES.size * (len(pts) - 1 + 2 * subdivisions)
    return IntegralResult(total, total_err, evaluations, converged)


def integrate(f: Callable, a: float, b: float, cfg: QuadratureConfig | None = None, *,
              singular=(), resonances=()) -> IntegralResult:
    """Integrate f over the finite interval [a, b].

    singular lists abscissae where f is only defined by a finite limit; they
    become panel boundaries and are never evaluated.  resonances lists
    (center, width) pairs; [a, b] is pre-split at center and center +-
    k*width for k in (1, 4, 16).

    Returns the best estimate with converged=False when the tolerance was not
    reached within max_subdivisions.  Non-finite samples abort with
    IntegrandError naming the first such abscissa in panel order (declared
    singular points are never sampled, so they cannot trigger this).

    f is called once per refinement round, with every abscissa of the round
    as one 1-D array in panel order: 15 per initial panel in the first call,
    then 30, the two halves of the bisected panel.  It must return one value
    per abscissa (ValueError otherwise).  The result equals that of calling f
    panel by panel whenever f's value at a point does not depend on which
    other points share the call.
    """
    loop = _adaptive(a, b, cfg, singular=singular, resonances=resonances)
    try:
        xss = next(loop)
        while True:
            xs = np.concatenate(xss)
            xss = loop.send(_round_values(f(xs), xs).reshape(len(xss), _NODES.size))
    except StopIteration as done:
        return done.value


def integrate_rows(f: Callable, intervals, cfg: QuadratureConfig | None = None) -> list[IntegralResult]:
    """integrate() over many intervals in lockstep, with one call of f per
    round: f(ids, xs) gets the (panels x 15) abscissae that the unfinished
    integrals need next, ids[p] naming the interval of panel p, and returns
    one value per abscissa, in that shape.  Each integral takes the steps
    integrate() takes with no breakpoints, so its result is integrate()'s
    whenever f's value at a panel does not depend on the other panels.
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
        xs = np.array([row for xss in pending.values() for row in xss])
        fv = _round_values(f(ids, xs), xs)
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
                     budget: float) -> float:
    """Smallest cutoff in the sequence start * 2^k, k < 60, whose
    caller-supplied tail bound falls below budget (start * 2^60 if none)."""
    c = start
    for _ in range(60):
        if tail_bound(c) <= budget:
            return c
        c *= 2.0
    return c
