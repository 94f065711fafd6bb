"""Self-contained verification checks behind the CLI `verify` subcommand.

Five groups: |Gamma(i y)|^2 and arg Gamma(1 + i y) against frozen mpmath values,
the imaginary-order Bessel (the scalar front end and the row kernel the
observables use) against a brute-force integral oracle and frozen
turning-band values, the Rindler mode against its differential equation,
the long-time consistency of the stationary probability, and the
small-acceleration recovery of the resting rate.  Each check returns a
CheckResult; the CLI renders them as a table, and the acceptance suite
reports criteria 1-4 and 8 from the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accelerated import AveragingWindow, averaged_decay_rate, rindler_mode_spatial
from .core import FieldParams
from .kinematics import cavity_geometry
from .quadrature import QuadratureConfig
from .specialfn import (bessel_k_imag_order, bessel_k_imag_order_log, bessel_k_scaled_rows,
                        gamma_abs_sq_imag, log_gamma_one_plus_i)
from .stationary import decay_probability_stationary, decay_rate_stationary_longtime

CHECK_GROUPS = ("gamma", "bessel", "ode", "longtime", "recovery")


@dataclass(frozen=True)
class CheckResult:
    group: str
    passed: bool
    worst: float
    bound: float
    detail: str


def _oracle_bessel_k(nu: float, x: float) -> float:
    """Brute-force int_0^inf cos(nu t) e^{-x cosh t} dt on a fixed fine grid in
    extended precision; independent of the row kernel's branches."""
    dt = np.longdouble
    tmax = float(np.arccosh(dt(2400.0) / dt(min(x, 2400.0)))) + 1.5
    n = max(int(tmax * 640), 1200)
    t = np.linspace(dt(0), dt(tmax), n + 1)
    f = np.cos(dt(nu) * t) * np.exp(-dt(x) * np.cosh(t))
    f[0] *= dt(0.5)
    f[-1] *= dt(0.5)
    return float(f.sum() * (t[1] - t[0]))


# (y, |Gamma(i y)|^2, arg Gamma(1 + i y)): mpmath's gamma and loggamma at 50
# digits, met to 2.2e-31 at 30 digits
GAMMA_FROZEN = [(0.05, 398.35978880896505, -0.028810762236441047),
                (0.1, 98.37381145220664, -0.05732294041671972),
                (0.2, 23.427797395635302, -0.11230222264418367),
                (0.35, 6.724037306735132, -0.18585061224912341),
                (0.5, 2.7302778013234312, -0.24405829890542777),
                (1.0, 0.27202905498213314, -0.3016403204675332),
                (2.0, 0.005866764826350946, 0.12964631630978832),
                (3.5, 3.0115812576895465e-05, 1.6461926242688762),
                (5.0, 1.8937737604793762e-07, 3.8158985746149243),
                (7.0, 2.5260814603617403e-10, 7.39485629843627),
                (10.0, 1.426974886361381e-14, 13.802912974229901),
                (20.0, 1.6204020944434922e-28, 40.695876620339895)]


def check_gamma() -> CheckResult:
    ys, abs_sq, phases = np.array(GAMMA_FROZEN).T
    worst = 0.0
    for y, ref, mine_phase, ref_phase in zip(ys, abs_sq, log_gamma_one_plus_i(ys).imag, phases):
        mine = gamma_abs_sq_imag(float(y))
        worst = max(worst, abs(mine / ref - 1.0), abs(mine_phase / ref_phase - 1.0))
    return CheckResult("gamma", worst < 1e-10, worst, 1e-10,
                       "|Gamma(iy)|^2 and arg Gamma(1+iy) vs frozen mpmath values, "
                       f"{len(GAMMA_FROZEN)} points in y in [0.05, 20]")


# (nu, x, e^{pi nu/2} K_{i nu}(x)) in the turning band, where the brute-force
# integral cancels: mpmath's besselk at 50 digits, met to 2.6e-29 at 30 digits
BAND_FROZEN = [(60.0, 58.0, 0.5123675568882435), (60.0, 61.0, 0.27595661843828967),
               (100.0, 99.5, 0.33294566624082583), (100.0, 103.0, 0.1428507038249871),
               (150.0, 147.825, 0.35814368892302006), (150.0, 153.766, 0.11433571413317636),
               (300.0, 296.0, 0.3073981180189975), (300.0, 301.0, 0.18123913475856895),
               (500.0, 497.0, 0.23516297275187845), (500.0, 505.0, 0.08533927633278668)]


def check_bessel() -> CheckResult:
    """The scalar front end and the row kernel (one row per order) on one
    grid against the brute-force integral, and in the turning band against
    frozen values."""
    nus = np.linspace(0.0, 10.0, 20)
    xs = np.geomspace(0.1, 20.0, 20)
    rows, _worst = bessel_k_scaled_rows(nus, np.tile(xs, (nus.size, 1)))
    worst = 0.0
    for nu, row in zip(nus, rows):
        for x, scaled in zip(xs, row):
            ref = _oracle_bessel_k(float(nu), float(x))
            scalar = bessel_k_imag_order(float(nu), float(x)).value
            batched = float(scaled) * math.exp(-0.5 * math.pi * float(nu))
            worst = max(worst, abs(scalar / ref - 1.0), abs(batched / ref - 1.0))
    nus, xs, refs = np.array(BAND_FROZEN).T
    band, _worst = bessel_k_scaled_rows(nus, xs[:, None])
    for nu, x, ref, batched in zip(nus, xs, refs, band[:, 0]):
        ev = bessel_k_imag_order_log(nu, x)
        scalar = ev.sign * math.exp(ev.log_abs + 0.5 * math.pi * nu)
        worst = max(worst, abs(scalar / ref - 1.0), abs(batched / ref - 1.0))
    return CheckResult("bessel", worst < 1e-8, worst, 1e-8,
                       "K_{i nu}(x), scalar and rows, vs brute-force integral, 20x20 grid, "
                       f"and {len(BAND_FROZEN)} frozen turning-band values")


def check_ode() -> CheckResult:
    """Central-difference residual of F'' + (Om^2 - M^2 e^{2 alpha xi}) F = 0."""
    Om, alpha, M = 1.0, 0.5, 1.0
    h = 1e-3
    worst = 0.0
    for xi in np.linspace(-1.0, 1.0, 41):
        f0 = rindler_mode_spatial(Om, float(xi), M, alpha)
        fp = rindler_mode_spatial(Om, float(xi) + h, M, alpha)
        fm = rindler_mode_spatial(Om, float(xi) - h, M, alpha)
        second = (fp - 2.0 * f0 + fm) / (h * h)
        term = (Om**2 - M**2 * math.exp(2.0 * alpha * xi)) * f0
        denom = max(abs(Om**2 * f0), abs(M**2 * math.exp(2.0 * alpha * xi) * f0))
        worst = max(worst, abs(second + term) / denom)
    return CheckResult("ode", worst < 1e-4, worst, 1e-4,
                       "Rindler mode vs its wave equation (Om=1, alpha=0.5, M=1)")


def check_longtime() -> CheckResult:
    geom = cavity_geometry(1.0, 0.0)
    fields = FieldParams(M=1.0, lam=1.0)
    cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-9)
    ts = np.array([50.0, 100.0, 200.0])
    ps = np.array([decay_probability_stationary(geom, fields, float(t), cfg).value
                   for t in ts])
    slope = float(np.polyfit(ts, ps, 1)[0])
    rate = decay_rate_stationary_longtime(geom, fields).value
    err = abs(slope / rate - 1.0)
    return CheckResult("longtime", err < 0.02, err, 0.02,
                       f"P(t) slope {slope:.6g} vs rate {rate:.6g} (l=1, M=1)")


def check_recovery() -> CheckResult:
    fields = FieldParams(M=1.0, lam=1.0)
    geom = cavity_geometry(1.0, 0.02)
    acc = averaged_decay_rate(geom, fields, AveragingWindow(0.02)).value
    stat = decay_rate_stationary_longtime(cavity_geometry(1.0, 0.0), fields).value
    err = abs(acc / stat - 1.0)
    return CheckResult("recovery", err < 0.10, err, 0.10,
                       f"averaged rate {acc:.6g} at alpha=0.02 vs resting {stat:.6g}")


def run_checks(only: str | None = None) -> list[CheckResult]:
    table = {
        "gamma": check_gamma,
        "bessel": check_bessel,
        "ode": check_ode,
        "longtime": check_longtime,
        "recovery": check_recovery,
    }
    if only is not None:
        if only not in table:
            raise ValueError(f"unknown check group {only!r}; choose from {CHECK_GROUPS}")
        return [table[only]()]
    return [table[g]() for g in CHECK_GROUPS]
