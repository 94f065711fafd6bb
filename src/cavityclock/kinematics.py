"""Worldline utilities: proper time, Rindler maps and accelerated-cavity
geometry.  Natural units, c = 1, 1+1 dimensions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """integral of sqrt(1 - v^2) dt over [t0, t1]."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")

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
    """Cavity of proper length l whose center rides at proper acceleration alpha.

    alpha = 0 is the resting cavity.  For alpha > 0 the walls sit at lab
    positions sigma_-+ = 1/alpha -+ l/2 at t = 0 (equivalently Rindler
    positions xi_-+), and the mode frequencies become
    omega_n = alpha n pi / ln(sigma_+/sigma_-).
    """

    l: float
    alpha: float
    sigma_minus: float
    sigma_plus: float
    xi_minus: float | None = field(default=None)
    xi_plus: float | None = field(default=None)

    def mode_frequency(self, n: int) -> float:
        if n < 1:
            raise ValueError("mode index n must be >= 1")
        if self.alpha == 0.0:
            return n * math.pi / self.l
        return self.alpha * n * math.pi / math.log(self.sigma_plus / self.sigma_minus)

    @property
    def omega1(self) -> float:
        return self.mode_frequency(1)


def cavity_geometry(l: float, alpha: float) -> CavityGeometry:
    """Build the cavity geometry; alpha l >= 2 puts the left wall at or behind
    the Rindler horizon and raises HorizonError."""
    if l <= 0:
        raise ValueError("proper length l must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0.0:
        return CavityGeometry(l, 0.0, -0.5 * l, 0.5 * l)
    if alpha * l >= 2.0:
        raise HorizonError(f"alpha*l = {alpha * l} >= 2: left wall at or behind the horizon")
    sigma_minus = 1.0 / alpha - 0.5 * l
    sigma_plus = 1.0 / alpha + 0.5 * l
    xi_minus = math.log(alpha * sigma_minus) / alpha
    xi_plus = math.log(alpha * sigma_plus) / alpha
    return CavityGeometry(l, alpha, sigma_minus, sigma_plus, xi_minus, xi_plus)
