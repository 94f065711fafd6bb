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

Each refinement round costs one integrand call, which gets every abscissa
of the round at once (integrate() passes f a 1-D numpy array in panel
order; integrate_rows() a (panels x 15) array for many integrals), and one
panel reduction (_panels()).  The first round (_first_round) holds the
initial panels of every integral of the call.  An integral whose initial
panels meet the tolerance ends there, from math.fsum of their values and
errors (most overlaps do); only the others start the adaptive loop
(_adaptive), a generator that bisects the panel of largest error, one per
step, yields the bounds of the panels it needs and takes back each panel's
(value, error) from the driver.  After the first, a round holds the halves
of the panel the next step bisects and, looking ahead, those of every
other panel whose error is above the current tolerance: the loop cannot
converge before it bisects them, so it keeps their halves, and the steps
that bisect them cost no round.  A round that looked ahead and failed (f
raised or gave a non-finite value) is asked again without the look-ahead,
and the integral looks ahead no more, so a failure is raised from the
panels that one bisection per round fails on.  _panels() gives every panel
the bits it gets when reduced alone, so the results are those of calling f
panel by panel, one bisection at a time, whenever f works point by point,
its value at a point not depending on which other points share the call.
evaluations counts the panels the loop used: halves looked ahead for a
panel it never bisects, because it stopped at max_subdivisions or |total|
grew past that panel's error first, are not counted (the benchmark's
workloads showed none).
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


def _must_bisect(heap, tol: float, limit: int, halves: dict) -> list[tuple[float, float]]:
    """Bounds of up to limit panels below the root of heap that the adaptive
    loop must bisect before it can converge, leaving out those whose halves
    are on hand and those at machine resolution.  A panel with an error
    above tol keeps the exact error sum above tol, so the loop bisects it
    unless |total| grows by err / tol first or the loop stops unconverged.
    No entry at or under tol has a descendant above it, so the walk from the
    root visits only the entries above tol and their children."""
    found = []
    stack = [1, 2]
    n, neg_tol = len(heap), -tol
    while stack and len(found) < limit:
        i = stack.pop()
        if i < n and heap[i][0] < neg_tol:
            stack += (2 * i + 1, 2 * i + 2)
            _neg_err, lo, hi, _value, _err = heap[i]
            if lo < 0.5 * (lo + hi) < hi and (lo, hi) not in halves:
                found.append((lo, hi))
    return found


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


def _adaptive(bounds: list[tuple[float, float]], panels: list[tuple[float, float]],
              cfg: QuadratureConfig):
    """The adaptive loop as a generator, for an integral whose initial
    panels, with these bounds and (value, error) pairs, miss the tolerance.
    Each round it yields the panels it needs next as a list of (lo, hi)
    bounds, takes back one (value, error) pair per panel, in that order, and
    at the end returns the IntegralResult.  integrate() and
    integrate_rows() drive it: they evaluate and check the integrand
    (_round_values) and reduce each round's panels (_panels).

    Each step bisects the panel of largest error.  When its halves are not
    on hand, the round asks for them first and then for the halves of every
    other panel the loop must still bisect (_must_bisect), which it keeps
    for the steps that bisect those panels; a step whose halves are on hand
    asks for nothing.  The bisection sequence, and so the result, is that
    of one bisection per round.  A driver whose round looked ahead and
    failed sends None instead of the pairs: the loop then asks for the
    step's two halves alone and looks ahead no more."""
    # (-err, a, b, value, err), value and err as _fixed integers, so that the
    # running sums of the heap's values and errors are exact
    heap: list[tuple[float, float, float, int, int]] = []
    for (lo, hi), (value, err) in zip(bounds, panels):
        heapq.heappush(heap, (-err, lo, hi, _fixed(value), _fixed(err)))
    values = sum(item[3] for item in heap)
    errors = sum(item[4] for item in heap)
    unit = 1 << 1074
    halves = {}  # (lo, hi) -> the (value, error) pairs of its halves, looked ahead
    ahead = True
    subdivisions = 0
    while True:
        total = values / unit
        total_err = errors / unit
        tol = _tolerance(cfg, total)
        if total_err <= tol:
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
        pair = halves.pop((lo, hi), None)
        if pair is None:
            # at most as many as the bisections left after this one
            later = (_must_bisect(heap, tol, cfg.max_subdivisions - subdivisions - 1, halves)
                     if ahead else [])
            request = []
            for p_lo, p_hi in [(lo, hi), *later]:
                p_mid = 0.5 * (p_lo + p_hi)
                request += [(p_lo, p_mid), (p_mid, p_hi)]
            reply = yield request
            if reply is None:
                ahead, later = False, []
                reply = yield request[:2]
            for k, key in enumerate(later, 1):
                halves[key] = reply[2 * k:2 * k + 2]
            pair = reply[:2]
        (v_lo, e_lo), (v_hi, e_hi) = pair
        lo_half = (-e_lo, lo, mid, _fixed(v_lo), _fixed(e_lo))
        hi_half = (-e_hi, mid, hi, _fixed(v_hi), _fixed(e_hi))
        heapq.heapreplace(heap, lo_half)
        heapq.heappush(heap, hi_half)
        values += lo_half[3] + hi_half[3] - value
        errors += lo_half[4] + hi_half[4] - err
        subdivisions += 1

    evaluations = _NODES.size * (len(bounds) + 2 * subdivisions)
    return IntegralResult(total, total_err, evaluations, converged)


def _abscissae(bounds) -> tuple[np.ndarray, list[float]]:
    """The (panels x 15) Kronrod abscissae of the panels with these (lo, hi)
    bounds, and each panel's half-width."""
    half = [0.5 * (hi - lo) for lo, hi in bounds]
    mid = [0.5 * (hi + lo) for lo, hi in bounds]
    return np.array(half)[:, None] * _NODES + np.array(mid)[:, None], half


def _first_round(evaluate: Callable, starts: list[list[tuple[float, float]]],
                 cfg: QuadratureConfig) -> tuple[list, dict, dict]:
    """The first round of the adaptive quadratures of integrals whose
    initial panels have the bounds starts[i]: one call evaluate(ids, xs)
    returns the checked integrand values at the (panels x 15) abscissae xs
    of every integral's initial panels, ids[p] naming the integral of panel
    p.  An integral whose panels meet the tolerance ends there, from
    math.fsum of their values and errors, and one without panels ends at 0
    with no evaluation; only the others start an _adaptive loop.

    Returns (results, loops, pending): results[i] is integral i's
    IntegralResult, or None while it runs; loops maps each running integral
    to its loop, and pending to the bounds of the panels the loop asks for
    next."""
    counts = [len(bounds) for bounds in starts]
    flat = [p for bounds in starts for p in bounds]
    panels = []
    if flat:
        xs, half = _abscissae(flat)
        panels = _panels(evaluate(np.repeat(np.arange(len(starts)), counts), xs), half)
    results: list[IntegralResult | None] = [None] * len(starts)
    loops, pending, start = {}, {}, 0
    for i, (bounds, n) in enumerate(zip(starts, counts)):
        first = panels[start:start + n]
        start += n
        total = math.fsum(value for value, _err in first)
        total_err = math.fsum(err for _value, err in first)
        if total_err <= _tolerance(cfg, total):
            # most overlaps end here: no heap and no exact running sums
            results[i] = IntegralResult(total, total_err, _NODES.size * n, True)
            continue
        loops[i] = _adaptive(bounds, first, cfg)
        try:
            pending[i] = next(loops[i])
        except StopIteration as done:
            results[i] = done.value
    return results, loops, pending


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
    evaluations counts 15 abscissae per panel the loop used: the initial
    panels and both halves of each bisected panel.

    f is called once per refinement round, with every abscissa of the round
    as one 1-D array in panel order: 15 per initial panel in the first call,
    then 30 per panel whose halves the round asks for (see the module
    docstring): the panel of largest error first, then every other panel
    whose error is above the current tolerance.  When a round of more than
    one such panel fails, it is asked again with the first alone, and a
    failure there is raised.  f must return one value per abscissa
    (ValueError otherwise).  The result equals that of calling f panel by
    panel, one bisection at a time, whenever f's value at a point does not
    depend on which other points share the call.
    """
    def evaluate(_ids, xs):
        flat = xs.ravel()
        return _round_values(f(flat), flat).reshape(xs.shape)

    cfg = cfg or QuadratureConfig()
    (result,), loops, pending = _first_round(
        evaluate, [_initial_bounds(a, b, singular, resonances)], cfg)
    if not pending:
        return result
    loop, bounds = loops[0], pending[0]
    try:
        while True:
            xs, half = _abscissae(bounds)
            try:
                fv = evaluate(None, xs)
            except Exception:
                if len(bounds) == 2:  # the round did not look ahead
                    raise
                bounds = loop.send(None)
                continue
            bounds = loop.send(_panels(fv, half))
    except StopIteration as done:
        return done.value


def integrate_rows(f: Callable, intervals, cfg: QuadratureConfig | None = None) -> list[IntegralResult]:
    """integrate() over many intervals in lockstep, with one call of f per
    round: f(ids, xs) gets the (panels x 15) abscissae that the unfinished
    integrals need next, ids[p] naming the interval of panel p, and returns
    one value per abscissa, in that shape.  The first round holds one panel
    per interval of nonzero width; the intervals it meets the tolerance for
    end there, and only the others go on to bisect.  Each integral takes
    the steps integrate() takes with no breakpoints, looking ahead as it
    does, so its result is integrate()'s whenever f's value at a panel does
    not depend on the other panels.  When a round in which some integral
    looked ahead fails, every unfinished integral is asked again for its
    step alone and none looks ahead any more; if several integrals would
    fail, the one raised need not be the one that integrate() one by one
    meets first.
    """
    def evaluate(ids, xs):
        return _round_values(f(ids, xs), xs)

    results, loops, pending = _first_round(
        evaluate, [_initial_bounds(a, b) for a, b in intervals], cfg or QuadratureConfig())
    while pending:
        counts = [len(bounds) for bounds in pending.values()]
        ids = np.repeat(list(pending), counts)
        xs, half = _abscissae([p for bounds in pending.values() for p in bounds])
        try:
            fv = evaluate(ids, xs)
        except Exception:
            if max(counts) <= 2:  # no integral looked ahead
                raise
            pending = {i: loops[i].send(None) for i in pending}
            continue
        panels = _panels(fv, half)
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
