"""Worldline utilities: proper time, Rindler maps and accelerated-cavity
geometry.  Natural units, c = 1, 1+1 dimensions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HorizonError, SuperluminalPathError, WedgeDomainError
from .quadrature import IntegralResult, QuadratureConfig, integrate


@dataclass(frozen=True)
class Trajectory:
    """Timelike worldline given by its velocity history v(t), |v| < 1.

    velocity is a callable over lab time accepting floats or numpy arrays,
    so quadrature picks its own abscissae.
    """

    velocity: Callable

    @classmethod
    def constant_velocity(cls, v: float) -> "Trajectory":
        if abs(v) >= 1.0:
            raise SuperluminalPathError(f"|v| = {abs(v)} >= 1")
        return cls(lambda t: np.full_like(np.asarray(t, dtype=float), v))

    @classmethod
    def sinusoidal(cls, amplitude: float, omega: float) -> "Trajectory":
        """x(t) = A sin(omega t): v = A omega cos(omega t)."""
        A, w = float(amplitude), float(omega)
        return cls(lambda t: A * w * np.cos(w * np.asarray(t, dtype=float)))


def proper_time(traj: Trajectory, t0: float, t1: float,
                cfg: QuadratureConfig | None = None) -> IntegralResult:
    """integral of sqrt(1 - v^2) dt over [t0, t1]; integrate() refuses t1 < t0."""

    def integrand(t):
        v = np.asarray(traj.velocity(t), dtype=float)
        superluminal = np.abs(v) >= 1.0
        if np.any(superluminal):
            t_bad = float(t[int(np.argmax(superluminal))])
            raise SuperluminalPathError(f"|v(t)| >= 1 at t = {t_bad!r}")
        return np.sqrt(1.0 - v * v)

    return integrate(integrand, t0, t1, cfg)


def rindler_from_minkowski(x: float, t: float, alpha: float) -> tuple[float, float]:
    """(xi, tau) of the lab event (x, t); requires the right wedge x > |t|."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if x <= abs(t):
        raise WedgeDomainError(f"({x}, {t}) outside the right wedge x > |t|")
    xi = math.log(alpha * math.sqrt((x - t) * (x + t))) / alpha
    tau = math.atanh(t / x) / alpha
    return xi, tau


def minkowski_from_rindler(xi: float, tau: float, alpha: float) -> tuple[float, float]:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rho = math.exp(alpha * xi) / alpha
    return rho * math.cosh(alpha * tau), rho * math.sinh(alpha * tau)


@dataclass(frozen=True)
class CavityGeometry:
    """Cavity of proper length l whose center rides at proper acceleration
    alpha: its lowest mode frequency omega1 and its walls' Rindler positions
    xi_-+, derived once by cavity_geometry.  At rest (alpha = 0) omega1 = pi/l
    and xi_-+ = -+l/2.  For alpha > 0 the walls sit at lab positions
    sigma_-+ = 1/alpha -+ l/2 at t = 0, xi_-+ = ln(alpha sigma_-+)/alpha and
    omega1 = alpha pi / ln(sigma_+/sigma_-), taken in the closed forms
    xi_-+ = log1p(-+alpha l/2)/alpha and ln(sigma_+/sigma_-) = 2 atanh(alpha l/2),
    which keep full precision as alpha l -> 0."""

    l: float
    alpha: float
    omega1: float
    xi_minus: float
    xi_plus: float


def cavity_geometry(l: float, alpha: float) -> CavityGeometry:
    """Build the cavity geometry; alpha l >= 2 puts the left wall at or behind
    the Rindler horizon and raises HorizonError, and an omega1 that is not
    finite (ln(sigma_+/sigma_-) rounds to 0, or pi/l overflows) ValueError."""
    l, alpha = float(l), float(alpha)
    if not 0.0 < l < math.inf:
        raise ValueError("proper length l must be positive and finite")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative")
    if alpha * l >= 2.0:
        raise HorizonError(f"alpha*l = {alpha * l} >= 2: left wall at or behind the horizon")
    if alpha == 0.0:
        omega1, xi_minus, xi_plus = math.pi / l, -0.5 * l, 0.5 * l
    else:
        half = 0.5 * alpha * l
        h = 2.0 * math.atanh(half)
        omega1 = alpha * math.pi / h if h > 0.0 else math.inf
        xi_minus, xi_plus = math.log1p(-half) / alpha, math.log1p(half) / alpha
    if not omega1 < math.inf:
        raise ValueError(f"omega1 is not finite at l = {l!r}, alpha = {alpha!r}")
    return CavityGeometry(l, alpha, omega1, xi_minus, xi_plus)
