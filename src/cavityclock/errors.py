"""Exception types shared across the package."""


class SuperluminalPathError(ValueError):
    """Trajectory velocity reached or exceeded the speed of light."""


class WedgeDomainError(ValueError):
    """Point lies outside the right Rindler wedge x > |t|."""


class HorizonError(ValueError):
    """Cavity wall at or behind the Rindler horizon (alpha * l >= 2)."""


class NearThresholdError(ValueError):
    """pi/l too close to M: the long-time rate formula diverges there."""


class UndefinedRatioError(ZeroDivisionError):
    """Deviation requested against a vanishing stationary rate."""


class SpecialFunctionRangeError(OverflowError):
    """Value outside the double range, or no method evaluates it."""


class IntegrandError(RuntimeError):
    """Integrand returned a non-finite value away from declared singular points."""
