"""Shared parameter and result containers for the decay computations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

REGIME_SHORT = "short-time"
REGIME_GENERIC = "generic"
REGIME_LONG = "long-time"

# heuristic bounds on t * |detuning scale| separating the t^2 regime from the
# linear regime; anything between is tagged generic
SHORT_TIME_BOUND = 0.1
LONG_TIME_BOUND = 100.0


@dataclass(frozen=True)
class FieldParams:
    """External-field mass M (> 0; the massless case is infrared-divergent and
    unsupported) and coupling lam; first-order probabilities scale as lam^2."""

    M: float
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.M < math.inf:
            raise ValueError("external-field mass M must be positive and finite")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("coupling lam must be finite and nonnegative")


@dataclass(frozen=True)
class DecayResult:
    """A decay probability, rate or deviation (kind) with its numerical error
    estimate, heuristic regime tag and solver diagnostics; every observable
    with a value or estimate that is not finite is refused here (OverflowError)."""

    value: float
    kind: str
    error_estimate: float
    regime: str
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.error_estimate)):
            raise OverflowError(f"{self.kind} {self.value!r} +- {self.error_estimate!r} "
                                "is not finite")


def classify_regime(duration: float, detuning_scale: float) -> str:
    """Tag by duration * |detuning|; the boundaries are heuristics, not physics."""
    q = duration * abs(detuning_scale)
    if q < SHORT_TIME_BOUND:
        return REGIME_SHORT
    if q > LONG_TIME_BOUND:
        return REGIME_LONG
    return REGIME_GENERIC
