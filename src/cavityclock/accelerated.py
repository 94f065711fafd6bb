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

from .core import DecayResult, FieldParams, REGIME_LONG, classify_regime
from .errors import UndefinedRatioError
from .kinematics import CavityGeometry, cavity_geometry
from .quadrature import QuadratureConfig, integrate, integrate_rows, truncation_point
# bessel_k_scaled_values is not called here, but perfbench's traced run
# wraps it under this module's name
from .specialfn import (bessel_k_imag_order_log, bessel_k_scaled_rows,
                        bessel_k_scaled_values, log_gamma_one_plus_i, resonance_kernel)
from .stationary import decay_rate_stationary_longtime

DEFAULT_AVG_RELATIVE_HALFWIDTH = 0.05
DEFAULT_AVG_SAMPLES = 64

OMEGA_FLOOR_FRACTION = 1e-8  # lower endpoint of the Omega integral, in units of w1


@dataclass(frozen=True)
class AveragingWindow:
    """Uniform acceleration window alpha in [center (1-delta), center (1+delta)]."""

    center_alpha: float
    relative_halfwidth: float = DEFAULT_AVG_RELATIVE_HALFWIDTH
    samples: int = DEFAULT_AVG_SAMPLES

    def __post_init__(self):
        if not 0.0 < self.center_alpha < math.inf:
            raise ValueError("center_alpha must be positive and finite")
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
    # log Gamma(i nu) = log Gamma(1 + i nu) - ln nu - i pi/2
    lg = complex(log_gamma_one_plus_i(nu))
    log_mod = kv.log_abs - (lg.real - math.log(nu)) - 0.5 * math.log(math.pi * Omega)
    phase = 0.5 * nu * math.log(0.5 * M / alpha) - (lg.imag - 0.5 * math.pi)
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


def spatial_overlaps(omegas, geometries, M: float,
                     cfg: QuadratureConfig | None = None) -> list[SpatialOverlap]:
    """Cavity-window overlaps at Rindler frequency omegas[i] in geometries[i],
    refined in lockstep: each round of the adaptive quadratures costs one
    row-batched Bessel call, one row per panel.  Each result is the one a
    quadrature of that overlap alone returns."""
    omegas = np.array(omegas, dtype=float)
    geometries = list(geometries)
    if omegas.shape != (len(geometries),):
        raise ValueError("need one geometry per frequency")
    alpha = np.array([g.alpha for g in geometries])
    if not alpha.all():
        raise ValueError("spatial_overlap needs an accelerated cavity (alpha > 0)")
    if not (M > 0 and (omegas > 0).all()):
        raise ValueError("Omega and M must be positive")
    with np.errstate(over="ignore"):  # the row kernel refuses an inf order or argument
        nu = omegas / alpha
        zscale = M / alpha
    w1 = np.array([g.omega1 for g in geometries])
    xi_m = np.array([g.xi_minus for g in geometries])
    worst_est = np.zeros(len(omegas))

    def integrand(ids: np.ndarray, xi: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            z = zscale[ids, None] * np.exp(alpha[ids, None] * xi)
        vals, est = bessel_k_scaled_rows(nu[ids], z)
        np.maximum.at(worst_est, ids, est)
        return vals * np.sin(w1[ids, None] * (xi - xi_m[ids, None]))

    results = integrate_rows(integrand, [(g.xi_minus, g.xi_plus) for g in geometries], cfg)
    overlaps = []
    for res, n, worst in zip(results, nu, worst_est):
        scale_log = -0.5 * math.pi * float(n)
        err = res.error_estimate + abs(res.value) * float(worst)
        value = res.value * math.exp(scale_log)  # exp underflows to 0.0 harmlessly
        overlaps.append(SpatialOverlap(value, res.value, scale_log, err,
                                       res.evaluations, res.converged))
    return overlaps


def spatial_overlap(Omega: float, geometry: CavityGeometry, M: float,
                    cfg: QuadratureConfig | None = None) -> SpatialOverlap:
    """Adaptive quadrature of the cavity-window overlap at Rindler frequency Omega."""
    return spatial_overlaps([Omega], [geometry], M, cfg)[0]


def _overlap_cfg(cfg: QuadratureConfig | None) -> QuadratureConfig:
    # the overlap is an inner integral; its own tolerances are relative only
    return replace(cfg or QuadratureConfig(), abs_tol=1e-300)


def decay_probability_accelerated(geometry: CavityGeometry, fields: FieldParams,
                                  tau: float, cfg: QuadratureConfig | None = None) -> DecayResult:
    """Finite-proper-time decay probability of the accelerated clock."""
    alpha = geometry.alpha
    if alpha <= 0:
        raise ValueError("accelerated probability requires alpha > 0")
    if not 0.0 <= tau < math.inf:
        raise ValueError("proper duration tau must be finite and nonnegative")
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
    unit = cfg.scaled(pref)
    overlap_est = [0.0]
    overlap_evals = [0]
    overlaps_converged = [True]

    def integrand(oms) -> np.ndarray:
        oms = np.asarray(oms, dtype=float)
        overlaps = spatial_overlaps(oms, [geometry] * oms.size, M, inner)
        for ov in overlaps:
            overlap_est[0] = max(overlap_est[0], ov.error_estimate /
                                 max(abs(ov.scaled_value), 1e-300))
            overlap_evals[0] += ov.evaluations
            overlaps_converged[0] = overlaps_converged[0] and ov.converged
        js = np.array([ov.scaled_value for ov in overlaps])
        # math.exp, not np.exp: the two differ in the last bit on some arguments
        therm = np.array([math.exp(-2.0 * math.pi * om / alpha) for om in oms.tolist()])
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN past double range
            return js * js * (resonance_kernel(oms - w1, tau)
                              + therm * resonance_kernel(oms + w1, tau))

    om_lo = OMEGA_FLOOR_FRACTION * w1

    # tail decays faster than 1/Om^3; probe a short stencil to dodge overlap nodes
    def tail(om_c: float) -> float:
        probe = float(integrand([om_c * f for f in (1.0, 1.031, 1.072, 1.113)]).max())
        return probe * om_c / 2.0

    om_hi = truncation_point(tail, max(4.0 * w1, 2.0 * M, 8.0 * alpha),
                             unit.abs_tol / 10.0)

    res = integrate(integrand, om_lo, om_hi, unit,
                    resonances=((w1, 2.0 * math.pi / tau),))
    lam2_pref = lam * lam * pref
    err = lam2_pref * (res.error_estimate + 2.0 * overlap_est[0] * abs(res.value))
    return DecayResult(lam2_pref * res.value, "probability", err, regime,
                       {"evaluations": res.evaluations,
                        "overlap_evaluations": overlap_evals[0],
                        "omega_cutoff": om_hi,
                        "converged": res.converged and overlaps_converged[0],
                        "worst_overlap_rel_est": overlap_est[0]})


def _longtime_rate(ov: SpatialOverlap, alpha: float, lam: float) -> DecayResult:
    """The long-time rate lam^2 J_s(w1)^2 / (pi^2 alpha) from the overlap at w1."""
    rate = lam**2 * ov.scaled_value**2 / (math.pi**2 * alpha)
    rel = ov.error_estimate / max(abs(ov.scaled_value), 1e-300)
    return DecayResult(rate, "rate", 2.0 * rel * rate, REGIME_LONG,
                       {"overlap_evaluations": ov.evaluations,
                        "scaled_overlap": ov.scaled_value,
                        "converged": ov.converged})


def decay_rate_accelerated_longtime(geometry: CavityGeometry, fields: FieldParams,
                                    cfg: QuadratureConfig | None = None) -> DecayResult:
    """Long-time decay rate lam^2 e^{pi w1/alpha} |J(w1)|^2 / (pi^2 alpha),
    evaluated as lam^2 J_s(w1)^2 / (pi^2 alpha) so the squeezing exponential
    cancels exactly instead of overflowing."""
    ov = spatial_overlap(geometry.omega1, geometry, fields.M, _overlap_cfg(cfg))
    return _longtime_rate(ov, geometry.alpha, fields.lam)


def averaged_decay_rate(geometry: CavityGeometry, fields: FieldParams,
                        window: AveragingWindow | None = None,
                        cfg: QuadratureConfig | None = None) -> DecayResult:
    """Uniform-weight mean of the long-time rate over the acceleration window,
    with the overlaps of all samples refined in lockstep.

    Horizon crossing at any sampled alpha aborts (HorizonError from the
    geometry).  Diagnostics carry the min/max sampled rate, which bounds the
    oscillation the averaging removes."""
    window = window or AveragingWindow(geometry.alpha)
    geometries = [cavity_geometry(geometry.l, float(a)) for a in window.alphas()]
    overlaps = spatial_overlaps([g.omega1 for g in geometries], geometries, fields.M,
                                _overlap_cfg(cfg))
    samples = [_longtime_rate(ov, g.alpha, fields.lam)
               for ov, g in zip(overlaps, geometries)]
    rates = [r.value for r in samples]
    value = float(np.mean(rates))
    return DecayResult(value, "rate", float(np.mean([r.error_estimate for r in samples])),
                       REGIME_LONG,
                       {"alpha_window": (float(window.alphas()[0]), float(window.alphas()[-1])),
                        "samples": window.samples,
                        "rate_min": float(np.min(rates)),
                        "rate_max": float(np.max(rates)),
                        "converged": all(r.diagnostics["converged"] for r in samples)})


def ideal_clock_deviation_result(geometry: CavityGeometry, fields: FieldParams,
                                 window: AveragingWindow | None = None,
                                 cfg: QuadratureConfig | None = None) -> DecayResult:
    """Signed relative deviation of the averaged accelerated rate from the
    resting-clock rate (kind='deviation'); zero means proper time alone fixes
    the clock rate.  The coupling cancels in the ratio.  The error estimate
    adds the two rates' estimates relative to the resting rate; the
    diagnostics are the averaged rate's."""
    resting = cavity_geometry(geometry.l, 0.0)
    stat = decay_rate_stationary_longtime(resting, fields)
    if stat.value == 0.0:
        raise UndefinedRatioError(
            "stationary rate vanishes (pi/l <= M); deviation undefined")
    acc = averaged_decay_rate(geometry, fields, window, cfg)
    return DecayResult(acc.value / stat.value - 1.0, "deviation",
                       (acc.error_estimate + stat.error_estimate) / stat.value,
                       REGIME_LONG, acc.diagnostics)


def ideal_clock_deviation(geometry: CavityGeometry, fields: FieldParams,
                          window: AveragingWindow | None = None,
                          cfg: QuadratureConfig | None = None) -> float:
    """The deviation alone: ideal_clock_deviation_result(...).value."""
    return ideal_clock_deviation_result(geometry, fields, window, cfg).value
