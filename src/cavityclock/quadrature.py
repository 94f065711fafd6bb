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

Each refinement round costs one integrand call and one panel reduction.
The adaptive loop (_adaptive) yields the bounds of the panels it needs; the
driver evaluates f at every abscissa of the round at once (integrate()
passes f a 1-D numpy array in panel order: all initial panels in the first
round, both halves of the bisected panel after that; integrate_rows() does
the same for many integrals at once), reduces all of the round's panels
with one _panels() call and sends each panel's (value, error) back.
_panels() gives every panel the bits it gets when reduced alone, so the
results are those of calling f panel by panel whenever f works point by
point, its value at a point not depending on which other points share the
call.
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


# the Kronrod and Gauss weights as two columns, and the Kronrod column alone:
# np.matmul of a (1 x 15) row with a (15 x 1) column is numpy's dot of the
# two, the call `weights @ row` makes, so every panel of a batch gets the
# bits it gets alone (a matrix-vector product need not sum in that order)
_W_KG = np.stack([_WK_FULL, _WG_FULL])[:, :, None]
_W_K = _WK_FULL[:, None]


def _panels(fv: np.ndarray, half: list[float]) -> list[tuple[float, float]]:
    """Kronrod value and QUADPACK-style error estimate of each panel: row p of
    the (panels x 15) values fv on a panel of half-width half[p]."""
    kg = np.matmul(fv[:, None, None, :], _W_KG).reshape(-1, 2)
    dev = fv - 0.5 * kg[:, :1]
    np.abs(dev, out=dev)
    asc = np.matmul(dev[:, None, :], _W_K).ravel().tolist()
    out = []
    for (resk, resg), a, h in zip(kg.tolist(), asc, half):
        diff = abs(resk - resg) * h
        resasc = a * h
        # a float power per panel: np.power differs from it in the last bit
        err = (resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
               if resasc != 0.0 and diff != 0.0 else diff)
        out.append((resk * h, err))
    return out


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
    """The adaptive loop as a generator.  Each round it yields the panels it
    needs next as a list of (lo, hi) bounds, takes back one (value, error)
    pair per panel, in that order, and at the end returns the
    IntegralResult.  integrate() and integrate_rows() drive it: they evaluate
    and check the integrand (_round_values) and reduce each round's panels
    (_panels)."""
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
    bounds = list(zip(pts[:-1], pts[1:]))
    panels = yield bounds
    heap: list[tuple[float, float, float, float, float]] = []  # (-err, a, b, value, err)
    for (lo, hi), (value, err) in zip(bounds, panels):
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
        (v_lo, e_lo), (v_hi, e_hi) = yield [(lo, mid), (mid, hi)]
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
        bounds = next(loop)
        while True:
            # a round has two panels after the first: per-panel abscissae
            # cost less than building them in numpy from the bounds
            xs = np.concatenate([0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)
                                 for lo, hi in bounds])
            fv = _round_values(f(xs), xs).reshape(len(bounds), _NODES.size)
            bounds = loop.send(_panels(fv, [0.5 * (hi - lo) for lo, hi in bounds]))
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
        counts = [len(bounds) for bounds in pending.values()]
        ids = np.repeat(list(pending), counts)
        lo, hi = np.array([p for bounds in pending.values() for p in bounds]).T
        half = 0.5 * (hi - lo)
        xs = half[:, None] * _NODES + (0.5 * (hi + lo))[:, None]
        panels = _panels(_round_values(f(ids, xs), xs), half.tolist())
        start, waiting = 0, {}
        for i, n in zip(pending, counts):
            try:
                waiting[i] = loops[i].send(panels[start:start + n])
            except StopIteration as done:
                results[i] = done.value
            start += n
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
