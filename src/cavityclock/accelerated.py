"""Decay of the uniformly accelerated cavity clock.

Worked in the co-moving Rindler frame.  The external-field Rindler modes have
spatial profile F_Omega(xi) built on K_{i Omega/alpha}((M/alpha) e^{alpha xi});
the Minkowski vacuum seen by the cavity is a two-mode squeezed state over the
wedges with tanh r = e^{-pi Omega/alpha}, which injects the thermal weight
sinh^2 r = 1/(e^{2 pi Omega/alpha} - 1) into the decay probability:

    P = (4 lam^2/pi^2) int_0^inf dOm/Om |Gamma(i Om/alpha)|^-2 |J(Om)|^2
        [ ker(Om - w1) + sinh^2 r (ker(Om - w1) + ker(Om + w1)) ],

    J(Om) = int_{xi_-}^{xi_+} K_{i Om/alpha}((M/alpha) e^{alpha xi})
            sin(w1 (xi - xi_-)) dxi.

Individually |Gamma|^-2 grows like e^{pi Om/alpha} while |J|^2 shrinks like
e^{-pi Om/alpha}; everything here is arranged around the scaled overlap
J_s = e^{pi Om/(2 alpha)} J, for which those exponentials cancel exactly:

    integrand = (2 lam^2/(pi^3 alpha)) J_s^2 [ ker(Om - w1)
                + e^{-2 pi Om/alpha} ker(Om + w1) ],

finite at Om -> 0 and overflow-free at any acceleration.  The long-time rate
is lam^2 J_s(w1)^2 / (pi^2 alpha).

The rate oscillates in alpha (a boundary-condition effect whose frequency
diverges as alpha -> 0); averaging over a narrow acceleration window yields
the smooth envelope, which for alpha -> 0 reproduces the resting-clock rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import loggamma

from .core import DecayResult, FieldParams, REGIME_LONG, classify_regime
from .errors import UndefinedRatioError
from .kinematics import CavityGeometry, cavity_geometry
from .quadrature import QuadratureConfig, integrate, truncation_point
from .specialfn import (bessel_k_imag_order_log, bessel_k_scaled_values,
                        resonance_kernel)
from .stationary import decay_rate_stationary_longtime

DEFAULT_AVG_RELATIVE_HALFWIDTH = 0.05
DEFAULT_AVG_SAMPLES = 64

OMEGA_FLOOR_FRACTION = 1e-8  # lower endpoint of the Omega integral, in units of w1


@dataclass(frozen=True)
class SqueezingFactor:
    """Two-mode squeezing of a Rindler frequency: tanh r = e^{-pi Omega/alpha},
    thermal weight sinh^2 r = 1/(e^{2 pi Omega/alpha} - 1)."""

    omega: float
    alpha: float
    r: float
    thermal_weight: float


def squeezing_factor(Omega: float, alpha: float) -> SqueezingFactor:
    if not (Omega > 0 and alpha > 0):
        raise ValueError("Omega and alpha must be positive")
    theta = math.pi * Omega / alpha
    e = math.exp(-theta)
    r = math.atanh(e) if e < 1.0 else math.inf
    weight = math.exp(-2.0 * theta) / -math.expm1(-2.0 * theta)
    return SqueezingFactor(Omega, alpha, r, weight)


@dataclass(frozen=True)
class AveragingWindow:
    """Uniform acceleration window alpha in [center (1-delta), center (1+delta)]."""

    center_alpha: float
    relative_halfwidth: float = DEFAULT_AVG_RELATIVE_HALFWIDTH
    samples: int = DEFAULT_AVG_SAMPLES

    def __post_init__(self):
        if not self.center_alpha > 0:
            raise ValueError("center_alpha must be positive")
        if not 0.0 < self.relative_halfwidth < 1.0:
            raise ValueError("relative_halfwidth must be in (0, 1)")
        if self.samples < 8:
            raise ValueError("need at least 8 samples")

    def alphas(self) -> np.ndarray:
        return np.linspace(self.center_alpha * (1.0 - self.relative_halfwidth),
                           self.center_alpha * (1.0 + self.relative_halfwidth),
                           self.samples)


def rindler_mode_spatial(Omega: float, xi: float, M: float, alpha: float) -> complex:
    """F_Omega(xi) = (M/2alpha)^{i Omega/2alpha} K_{i Omega/alpha}((M/alpha) e^{alpha xi})
    / (sqrt(pi Omega) Gamma(i Omega/alpha)).

    The e^{-pi Omega/2 alpha} of K cancels against 1/|Gamma|, so the modulus is
    always representable and is assembled in log space."""
    if not (Omega > 0 and alpha > 0 and M > 0):
        raise ValueError("Omega, alpha and M must be positive")
    nu = Omega / alpha
    z = (M / alpha) * math.exp(alpha * xi)
    kv = bessel_k_imag_order_log(nu, z)
    if kv.sign == 0.0:
        return 0.0 + 0.0j
    lg = loggamma(complex(0.0, nu))
    log_mod = kv.log_abs - lg.real - 0.5 * math.log(math.pi * Omega)
    phase = 0.5 * nu * math.log(0.5 * M / alpha) - lg.imag
    return kv.sign * math.exp(log_mod) * complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True)
class SpatialOverlap:
    """The overlap J = int K_{i Om/alpha} sin(w1 (xi - xi_-)) dxi over the cavity.

    scaled_value = e^{pi Om/(2 alpha)} J stays O(1) where J itself underflows;
    value = scaled_value * e^{scale_log} and may underflow to 0.0 harmlessly.
    converged is False when the quadrature stopped short of its tolerance.
    """

    value: float
    scaled_value: float
    scale_log: float
    error_estimate: float
    evaluations: int
    converged: bool


def spatial_overlap(Omega: float, geometry: CavityGeometry, M: float,
                    cfg: QuadratureConfig | None = None) -> SpatialOverlap:
    """Adaptive quadrature of the cavity-window overlap at Rindler frequency Omega."""
    if geometry.alpha <= 0:
        raise ValueError("spatial_overlap needs an accelerated cavity (alpha > 0)")
    if not (Omega > 0 and M > 0):
        raise ValueError("Omega and M must be positive")
    alpha = geometry.alpha
    nu = Omega / alpha
    w1 = geometry.omega1
    xi_m, xi_p = geometry.xi_minus, geometry.xi_plus
    worst_est = [0.0]

    def integrand(xi: np.ndarray) -> np.ndarray:
        z = (M / alpha) * np.exp(alpha * np.asarray(xi, dtype=float))
        vals, est = bessel_k_scaled_values(nu, z)
        worst_est[0] = max(worst_est[0], est)
        return vals * np.sin(w1 * (np.asarray(xi) - xi_m))

    res = integrate(integrand, xi_m, xi_p, cfg)
    scale_log = -0.5 * math.pi * nu
    err = res.error_estimate + abs(res.value) * worst_est[0]
    value = res.value * math.exp(scale_log)  # exp underflows to 0.0 harmlessly
    return SpatialOverlap(value, res.value, scale_log, err, res.evaluations,
                          res.converged)


def _overlap_cfg(cfg: QuadratureConfig | None) -> QuadratureConfig:
    base = cfg or QuadratureConfig()
    # the overlap is an inner integral; its own tolerances are relative only
    return replace(base, abs_tol=1e-300, domain_cutoff=None,
                   singular_points=(), resonance_points=())


def decay_probability_accelerated(geometry: CavityGeometry, fields: FieldParams,
                                  tau: float, cfg: QuadratureConfig | None = None) -> DecayResult:
    """Finite-proper-time decay probability of the accelerated clock."""
    alpha = geometry.alpha
    if alpha <= 0:
        raise ValueError("accelerated probability requires alpha > 0")
    if tau < 0:
        raise ValueError("proper duration tau must be nonnegative")
    M, lam = fields.M, fields.lam
    w1 = geometry.omega1
    regime = classify_regime(tau, w1)
    if tau == 0.0 or lam == 0.0:
        return DecayResult(0.0, "probability", 0.0, regime, {"evaluations": 0})

    cfg = cfg or QuadratureConfig()
    inner = _overlap_cfg(cfg)
    # integrate the unit-coupling shape and multiply by lam^2 pref afterwards,
    # so first-order scaling is exact; abs_tol refers to the unit-coupling P
    pref = 2.0 / (math.pi**3 * alpha)
    budget = cfg.abs_tol / pref
    overlap_est = [0.0]
    overlap_evals = [0]
    overlaps_converged = [True]

    def point(om: float) -> float:
        ov = spatial_overlap(om, geometry, M, inner)
        overlap_est[0] = max(overlap_est[0], ov.error_estimate /
                             max(abs(ov.scaled_value), 1e-300))
        overlap_evals[0] += ov.evaluations
        overlaps_converged[0] = overlaps_converged[0] and ov.converged
        js2 = ov.scaled_value * ov.scaled_value
        therm = math.exp(-2.0 * math.pi * om / alpha)
        return js2 * (resonance_kernel(om - w1, tau)
                      + therm * resonance_kernel(om + w1, tau))

    def integrand(oms: np.ndarray) -> np.ndarray:
        return np.array([point(float(om)) for om in np.atleast_1d(oms)])

    om_lo = OMEGA_FLOOR_FRACTION * w1

    # tail decays faster than 1/Om^3; probe a short stencil to dodge overlap nodes
    def tail(om_c: float) -> float:
        probe = max(point(om_c * f) for f in (1.0, 1.031, 1.072, 1.113))
        return probe * om_c / 2.0

    om_hi = truncation_point(tail, max(4.0 * w1, 2.0 * M, 8.0 * alpha),
                             budget / 10.0)

    work = replace(cfg.with_resonance(w1, 2.0 * math.pi / tau),
                   abs_tol=budget, domain_cutoff=None)
    res = integrate(integrand, om_lo, om_hi, work)
    lam2_pref = lam * lam * pref
    err = lam2_pref * (res.error_estimate + 2.0 * overlap_est[0] * abs(res.value))
    return DecayResult(lam2_pref * res.value, "probability", err, regime,
                       {"evaluations": res.evaluations,
                        "overlap_evaluations": overlap_evals[0],
                        "omega_cutoff": om_hi,
                        "converged": res.converged and overlaps_converged[0],
                        "worst_overlap_rel_est": overlap_est[0]})


def decay_rate_accelerated_longtime(geometry: CavityGeometry, fields: FieldParams,
                                    cfg: QuadratureConfig | None = None) -> DecayResult:
    """Long-time decay rate lam^2 e^{pi w1/alpha} |J(w1)|^2 / (pi^2 alpha),
    evaluated as lam^2 J_s(w1)^2 / (pi^2 alpha) so the squeezing exponential
    cancels exactly instead of overflowing."""
    alpha = geometry.alpha
    if alpha <= 0:
        raise ValueError("long-time accelerated rate requires alpha > 0")
    ov = spatial_overlap(geometry.omega1, geometry, fields.M, _overlap_cfg(cfg))
    rate = fields.lam**2 * ov.scaled_value**2 / (math.pi**2 * alpha)
    rel = ov.error_estimate / max(abs(ov.scaled_value), 1e-300)
    return DecayResult(rate, "rate", 2.0 * rel * rate, REGIME_LONG,
                       {"overlap_evaluations": ov.evaluations,
                        "scaled_overlap": ov.scaled_value,
                        "converged": ov.converged})


def averaged_decay_rate(geometry: CavityGeometry, fields: FieldParams,
                        window: AveragingWindow | None = None,
                        cfg: QuadratureConfig | None = None) -> DecayResult:
    """Uniform-weight mean of the long-time rate over the acceleration window.

    Horizon crossing at any sampled alpha aborts (HorizonError from the
    geometry).  Diagnostics carry the min/max sampled rate, which bounds the
    oscillation the averaging removes."""
    window = window or AveragingWindow(geometry.alpha)
    rates = []
    errs = []
    converged = True
    for a in window.alphas():
        g = cavity_geometry(geometry.l, float(a))
        r = decay_rate_accelerated_longtime(g, fields, cfg)
        rates.append(r.value)
        errs.append(r.error_estimate)
        converged = converged and r.diagnostics["converged"]
    value = float(np.mean(rates))
    return DecayResult(value, "rate", float(np.mean(errs)), REGIME_LONG,
                       {"alpha_window": (float(window.alphas()[0]), float(window.alphas()[-1])),
                        "samples": window.samples,
                        "rate_min": float(np.min(rates)),
                        "rate_max": float(np.max(rates)),
                        "converged": converged})


def ideal_clock_deviation(geometry: CavityGeometry, fields: FieldParams,
                          window: AveragingWindow | None = None,
                          cfg: QuadratureConfig | None = None) -> float:
    """Signed relative deviation of the averaged accelerated rate from the
    resting-clock rate; zero means proper time alone fixes the clock rate.
    The coupling cancels in the ratio."""
    resting = cavity_geometry(geometry.l, 0.0)
    stat = decay_rate_stationary_longtime(resting, fields)
    if stat.value == 0.0:
        raise UndefinedRatioError(
            "stationary rate vanishes (pi/l <= M); deviation undefined")
    acc = averaged_decay_rate(geometry, fields, window, cfg)
    return acc.value / stat.value - 1.0
