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

The integrals refine in rounds (_drive), each costing one integrand call,
which gets every abscissa of the round at once (integrate() passes f a 1-D
numpy array; integrate_rows() a (panels x 15) array for many integrals),
and one panel reduction (_panels()).  The first round holds the initial
panels of every integral.  After each round, an integral whose error sum is
at most max(abs_tol, rel_tol * |total|) has converged; each other one
bisects its panel of largest error and then every panel whose error alone
is above that tolerance (the sum cannot meet it while one is left), and the
next round evaluates their halves; at max_subdivisions, or with its largest
panel at machine resolution, it ends unconverged.  The result is that of
one bisection per round unless |total| grows within a round or the cap is
reached mid-round, and that of calling f panel by panel whenever f's value
at a point does not depend on the other points of the call (_panels() gives
each panel the bits it gets alone).  evaluations counts the abscissae f got.
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


def _fixed(x: float) -> int:
    """x exactly, as an integer multiple of 2^-1074, the smallest subnormal:
    integer sums of these are exact, and dividing one by 1 << 1074 rounds it
    correctly, as math.fsum would."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


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
    first abscissa, in round order, where it occurs."""
    fv = np.asarray(fv, dtype=float)
    if fv.shape != xs.shape:
        raise ValueError(f"integrand returned shape {fv.shape} for abscissae of shape "
                         f"{xs.shape}; it must return one value per abscissa")
    finite = np.isfinite(fv)
    if not finite.all():
        x_bad = float(xs.flat[int(np.argmin(finite))])
        raise IntegrandError(f"non-finite integrand value at x = {x_bad!r}")
    return fv


def _initial_bounds(a: float, b: float, singular=(), resonances=()) -> list[tuple[float, float]]:
    """(lo, hi) bounds of the initial panels of [a, b], split at its
    breakpoints: none when a == b or [a, b] is below their resolution."""
    if math.isinf(a) or math.isinf(b):
        raise ValueError("integration limits must be finite (see truncation_point)")
    if not (b > a):
        if b == a:
            return []
        raise ValueError("integration limits must satisfy a <= b")
    pts = _breakpoints(a, b, singular, resonances)
    return list(zip(pts[:-1], pts[1:]))


def _tolerance(cfg: QuadratureConfig, total: float) -> float:
    """The error a result of value total converges at."""
    return max(cfg.abs_tol, cfg.rel_tol * abs(total))


def _abscissae(bounds) -> tuple[np.ndarray, list[float]]:
    """The (panels x 15) Kronrod abscissae of the panels with these (lo, hi)
    bounds, and each panel's half-width."""
    half = [0.5 * (hi - lo) for lo, hi in bounds]
    mid = [0.5 * (hi + lo) for lo, hi in bounds]
    return np.array(half)[:, None] * _NODES + np.array(mid)[:, None], half


def _drive(evaluate: Callable, starts: list[list[tuple[float, float]]],
           cfg: QuadratureConfig) -> list[IntegralResult]:
    """The quadratures of integrals whose initial panels have the bounds
    starts[i], in rounds: evaluate(asked, xs) returns the checked values at
    the (panels x 15) abscissae xs that the running integrals ask for, asked
    mapping each of them, in id order, to the bounds of its panels there.
    No panels: 0, no evaluation."""
    unit = 1 << 1074
    results = [IntegralResult(0.0, 0.0, 0, True)] * len(starts)
    # integral -> [heap of (-err, lo, hi, value, err), values, errors, evaluations,
    # bisections left], value and err as _fixed integers: the running sums are exact
    state = {i: [[], 0, 0, 0, cfg.max_subdivisions] for i, bounds in enumerate(starts) if bounds}
    asked = {i: starts[i] for i in state}
    while asked:
        xs, half = _abscissae([p for bounds in asked.values() for p in bounds])
        panels = iter(_panels(evaluate(asked, xs), half))
        running = {}
        for i, bounds in asked.items():
            heap, values, errors, evaluations, left = state[i]
            new = [next(panels) for _ in bounds]
            evaluations += _NODES.size * len(bounds)
            if not heap:  # new panels only (initial, mostly): fsum rounds as int sums do
                total, total_err = map(math.fsum, zip(*new))
                if total_err <= _tolerance(cfg, total):
                    results[i] = IntegralResult(total, total_err, evaluations, True)
                    continue
            for (lo, hi), (value, err) in zip(bounds, new):
                v, e = _fixed(value), _fixed(err)
                heapq.heappush(heap, (-err, lo, hi, v, e))
                values, errors = values + v, errors + e
            total, total_err = values / unit, errors / unit
            tol = _tolerance(cfg, total)
            request = []
            # the top panel, then each next one whose error is above tol
            while (total_err > tol and heap and len(request) < 2 * left
                   and (not request or heap[0][0] < -tol)):
                _neg_err, lo, hi, value, err = heap[0]
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break  # panel at machine resolution
                heapq.heappop(heap)
                values, errors = values - value, errors - err
                request += [(lo, mid), (mid, hi)]
            if request:
                running[i] = request
                state[i] = [heap, values, errors, evaluations, left - len(request) // 2]
            else:
                results[i] = IntegralResult(total, total_err, evaluations, total_err <= tol)
        asked = running
    return results


def integrate(f: Callable, a: float, b: float, cfg: QuadratureConfig | None = None, *,
              singular=(), resonances=()) -> IntegralResult:
    """Integrate f over the finite interval [a, b].

    singular lists abscissae where f is only defined by a finite limit; they
    become panel boundaries and are never evaluated.  resonances lists
    (center, width) pairs; [a, b] is pre-split at center and center +-
    k*width for k in (1, 4, 16).

    Returns the best estimate with converged=False when the tolerance was not
    reached within max_subdivisions.  Non-finite samples abort with
    IntegrandError naming the first such abscissa in round order (declared
    singular points are never sampled, so they cannot trigger this).

    f is called once per round (see the module docstring) with the round's
    abscissae as one 1-D array, 15 per panel: the initial panels, then the
    halves, lower first, of each panel the round bisects, largest error
    first.  f must return one value per abscissa (ValueError otherwise); a
    call that raises or gives a non-finite value ends the integral with it.
    """
    def evaluate(_asked, xs):
        flat = xs.ravel()
        return _round_values(f(flat), flat).reshape(xs.shape)

    return _drive(evaluate, [_initial_bounds(a, b, singular, resonances)],
                  cfg or QuadratureConfig())[0]


def integrate_rows(f: Callable, intervals, cfg: QuadratureConfig | None = None) -> list[IntegralResult]:
    """integrate() over many intervals in lockstep, with one call of f per
    round: f(ids, xs) gets the (panels x 15) abscissae that the unfinished
    integrals need next, ids[p] naming the interval of panel p (ascending),
    and returns one value per abscissa, in that shape.  The first round
    holds one panel per interval of nonzero width.  Each integral takes
    integrate()'s rounds, so its result is integrate()'s whenever f's value
    at a panel does not depend on the other panels.  A failing round raises
    its first failure in panel order."""
    def evaluate(asked, xs):
        ids = np.repeat(list(asked), [len(bounds) for bounds in asked.values()])
        return _round_values(f(ids, xs), xs)

    return _drive(evaluate, [_initial_bounds(a, b) for a, b in intervals],
                  cfg or QuadratureConfig())


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
