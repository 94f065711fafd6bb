"""Decay rate of a cavity-confined particle clock, at rest and uniformly
accelerated, in 1+1 dimensional flat spacetime (natural units, c = hbar = 1,
lengths as the base unit)."""

from .accelerated import (AveragingWindow, SpatialOverlap, averaged_decay_rate,
                          decay_probability_accelerated,
                          decay_rate_accelerated_longtime, ideal_clock_deviation,
                          ideal_clock_deviation_result, rindler_mode_spatial,
                          spatial_overlap, spatial_overlaps)
from .core import DecayResult, FieldParams
from .errors import (HorizonError, IntegrandError, NearThresholdError,
                     SpecialFunctionRangeError, SuperluminalPathError,
                     UndefinedRatioError, WedgeDomainError)
from .kinematics import (CavityGeometry, Trajectory, cavity_geometry,
                         minkowski_from_rindler, proper_time, rindler_from_minkowski)
from .quadrature import (IntegralResult, QuadratureConfig, integrate,
                         integrate_rows)
from .specialfn import (BesselEval, BesselMethod, LogBesselEval,
                        bessel_k_imag_order, bessel_k_imag_order_log,
                        gamma_abs_sq_imag, resonance_kernel)
from .stationary import decay_probability_stationary, decay_rate_stationary_longtime

__version__ = "0.1.0"
