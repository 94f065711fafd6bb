"""Decay rate of a cavity-confined particle clock, at rest and uniformly
accelerated, in 1+1 dimensional flat spacetime (natural units, c = hbar = 1,
lengths as the base unit)."""

from .accelerated import (AveragingWindow, SpatialOverlap, SqueezingFactor,
                          averaged_decay_rate, decay_probability_accelerated,
                          decay_rate_accelerated_longtime, ideal_clock_deviation,
                          rindler_mode_spatial, spatial_overlap, spatial_overlaps,
                          squeezing_factor)
from .core import DecayResult, FieldParams
from .errors import (HorizonError, IntegrandError, NearThresholdError,
                     SpecialFunctionRangeError, SuperluminalPathError,
                     UndefinedRatioError, WedgeDomainError)
from .kinematics import (CavityGeometry, Trajectory, acceleration_invariant,
                         cavity_geometry, minkowski_from_rindler, proper_time,
                         rindler_from_minkowski)
from .quadrature import (IntegralResult, QuadratureConfig, integrate,
                         integrate_rows)
from .specialfn import (BesselEval, BesselMethod, LogBesselEval,
                        bessel_k_imag_order, bessel_k_imag_order_log,
                        gamma_abs_sq_imag, gamma_abs_sq_imag_log,
                        resonance_kernel)
from .stationary import (cavity_mode, decay_probability_stationary,
                         decay_rate_stationary_longtime, plane_wave_mode)

__version__ = "0.1.0"
