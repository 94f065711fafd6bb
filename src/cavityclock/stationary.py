"""Decay of the resting cavity clock.

The lowest cavity mode decays into the massive external field.  At first
order the probability is a single wavenumber integral,

    P = (4 lam^2 / l^2) int dK cos^2(K l/2) sin^2((Om_K - pi/l) t/2)
        / [(Om_K - pi/l)^2 (K^2 - pi^2/l^2)^2 Om_K],      Om_K = sqrt(K^2 + M^2),

with removable singularities at K = +-pi/l and, for pi/l > M, a resonance at
Om_K = pi/l that sharpens as t grows.  Internally the integral is evaluated in
units of l (variables u = K l, m = M l, t/l) for conditioning, over the half
line and doubled (the integrand is even), with the exact rewrite
cos^2(K l/2) = sin^2((K - pi/l) l/2) that makes K = pi/l an ordinary point.

In the long-time limit the kernel concentrates and the rate has the closed
form implemented in decay_rate_stationary_longtime, which vanishes for
pi/l <= M and approaches lam^2 l^3 / (4 pi^2) per unit time for small cavities.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (DecayResult, FieldParams, REGIME_LONG, classify_regime)
from .errors import NearThresholdError
from .kinematics import CavityGeometry
from .quadrature import QuadratureConfig, integrate, truncation_point
from .specialfn import resonance_kernel

NEAR_THRESHOLD_GUARD = 1e-6


def _integrand_scaled(u: np.ndarray, m: float, ts: float) -> np.ndarray:
    """Integrand of P / (8 lam^2 l^4) over u = K l >= 0, time in units of l.

    cos^2(u/2) = sin^2((u - pi)/2) exactly, so the u = pi point is evaluated
    through sinc with no 0/0."""
    u = np.asarray(u, dtype=float)
    om = np.hypot(u, m)
    ker = resonance_kernel(om - math.pi, ts)
    half = 0.5 * (u - math.pi)
    sinc = np.sinc(half / math.pi)
    return 0.25 * sinc * sinc * ker / ((u + math.pi) ** 2 * om)


def _cutoff(m: float, ts: float, abs_tol_scaled: float) -> float:
    """Truncation of the u integral: past the resonance the integrand is
    bounded by min(ts^2, 4/(u-pi)^2) / (4 (u-pi)^2 (u+pi)^2 u) and the tail
    beyond uc is below uc * bound(uc)."""
    def tail(uc: float) -> float:
        env = min(ts * ts, 4.0 / (uc - math.pi) ** 2) / (
            4.0 * (uc - math.pi) ** 2 * (uc + math.pi) ** 2 * uc)
        return uc * env

    start = max(4.0 * math.pi, 2.0 * m, 8.0)
    return truncation_point(tail, start, abs_tol_scaled / 10.0)


def decay_probability_stationary(geometry: CavityGeometry, fields: FieldParams,
                                 t: float, cfg: QuadratureConfig | None = None) -> DecayResult:
    """Finite-time decay probability of the resting clock (first order)."""
    if geometry.alpha != 0.0:
        raise ValueError("stationary probability requires a resting cavity (alpha = 0)")
    if not 0.0 <= t < math.inf:
        raise ValueError("duration t must be finite and nonnegative")
    l, M, lam = geometry.l, fields.M, fields.lam
    regime = classify_regime(t, math.pi / l - M)
    ts = t / l
    if not ts < math.inf:
        raise OverflowError(f"t / l = {t!r} / {l!r} overflows")
    if ts == 0.0 or lam == 0.0:  # also where t / l underflows
        return DecayResult(0.0, "probability", 0.0, regime, {"evaluations": 0})

    cfg = cfg or QuadratureConfig()
    m = M * l
    # integrate at unit coupling and multiply by lam^2 afterwards, so the
    # first-order scaling is exact; abs_tol refers to the unit-coupling P
    scale = 8.0 * l**4
    unit = cfg.scaled(scale)
    uc = _cutoff(m, ts, unit.abs_tol)

    resonances = ()
    if math.pi > m:
        u_res = math.sqrt(math.pi**2 - m * m)
        resonances = ((u_res, (2.0 * math.pi / ts) * (math.pi / u_res)),)

    with np.errstate(over="ignore", invalid="ignore"):  # integrate() refuses inf and NaN
        res = integrate(lambda u: _integrand_scaled(u, m, ts), 0.0, uc,
                        unit, singular=(math.pi,), resonances=resonances)
    lam2 = lam * lam
    return DecayResult(lam2 * scale * res.value, "probability",
                       lam2 * scale * res.error_estimate, regime,
                       {"evaluations": res.evaluations, "cutoff": uc / l,
                        "converged": res.converged})


def decay_rate_stationary_longtime(geometry: CavityGeometry, fields: FieldParams) -> DecayResult:
    """Long-time decay rate of the resting clock:

        rate = 4 lam^2 pi cos^2(kappa l/2) / (l^2 M^4 kappa),
        kappa = sqrt(pi^2/l^2 - M^2),

    for pi/l > M and exactly zero otherwise (no resonant external mode below
    threshold).  Diverges at threshold, hence the relative guard."""
    l, M, lam = geometry.l, fields.M, fields.lam
    thr = math.pi / l
    if abs(thr - M) <= NEAR_THRESHOLD_GUARD * thr:
        raise NearThresholdError(
            f"pi/l - M = {thr - M:.3e} within guard {NEAR_THRESHOLD_GUARD * thr:.3e}: "
            "long-time rate diverges; use the finite-time probability")
    if M >= thr:
        return DecayResult(0.0, "rate", 0.0, REGIME_LONG, {"below_threshold": True})
    kappa = math.sqrt(thr * thr - M * M)
    denom = l * l * M**4 * kappa
    # where M^4 underflows the rate, ~1/M^4, is past double range (refused as inf)
    rate = (4.0 * lam * lam * math.pi * math.cos(0.5 * kappa * l) ** 2 / denom
            if denom else math.inf)
    return DecayResult(rate, "rate", 8.0 * float(np.finfo(float).eps) * rate,
                       REGIME_LONG, {"kappa": kappa})
