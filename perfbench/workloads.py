"""The benchmark's three workloads: seeded op streams, per-op checks, anchors.

Every workload draws its inputs from a randomly shifted Kronecker sequence
(the R_d low-discrepancy sequence), seeded by --seed.  Any prefix of such a
sequence covers its box evenly, so the share of expensive inputs that a
time-bounded run completes barely depends on the seed, while the inputs
themselves do.  The rare expensive ops cost many times the median one, and
plain random draws would let their count swing from run to run.

Each workload fixes the percentile that op_tail_ms reports: the highest of
50, 75, 90, 95, 99 and 99.9 with at least ten ops beyond it in a 30 s run at
the commit that defined the benchmark.  It stays fixed so that a change that
completes more ops in a run is compared at the same percentile.

Import this module only after src/ is on sys.path (run.py does that).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cavityclock as cc
from cavityclock.core import FieldParams
from cavityclock.quadrature import QuadratureConfig

# frozen references, as in tests/test_acceptance.py and tests/test_accelerated.py
CRITERION_9_FROZEN = {0.02: 0.06731538134850501, 0.2: 0.6742484770260255,
                      1.9: 16.179205712651385}
OVERLAP_SCALED_REF = -0.0774116137450397
RATE_L1_M1 = 0.028103438618244724


@dataclass(frozen=True)
class Op:
    """One call into the library; `args` are what the workload's execute() takes."""

    args: tuple
    group: int = -1          # ops of one geometry group (accel-probability)
    large_m_alpha: bool = False


@dataclass
class Outcome:
    """What an op returned: `values` are compared bit for bit between the
    untraced and the traced run; `failure` names the first check it failed."""

    values: tuple = ()
    failure: str | None = None


@dataclass
class Accuracy:
    """The accuracy a workload states: an op fails if its error estimate is
    above max(abs_tol, rel_tol * |value|)."""

    rel_tol: float
    abs_tol: float

    def met(self, value: float, error: float) -> bool:
        return error <= max(self.abs_tol, self.rel_tol * abs(value))


def kronecker(rng: np.random.Generator, dim: int):
    """Endless R_d sequence in [0, 1)^dim with a random shift drawn from rng."""
    phi = 2.0
    for _ in range(64):  # root of x^(d+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    step = phi ** -np.arange(1.0, dim + 1.0)
    shift = rng.random(dim)
    for i in itertools.count(1):
        yield (shift + i * step) % 1.0


def checked(result, accuracy: Accuracy) -> Outcome:
    """Outcome of a DecayResult against the checks every op gets."""
    values = (result.value, result.error_estimate)
    if not all(math.isfinite(v) for v in values):
        return Outcome(values, "nonfinite")
    if result.diagnostics.get("converged") is False:
        return Outcome(values, "unconverged")
    if not accuracy.met(result.value, result.error_estimate):
        return Outcome(values, "estimate")
    return Outcome(values)


@dataclass
class Anchor:
    """A frozen reference checked once per run; check() returns whether it held."""

    name: str
    check: Callable[[], bool]


class DeviationSweep:
    """averaged_decay_rate over a 5%/64-sample window and the deviation from
    the resting rate, at l = 1; every fifth op in the large-M/alpha box.

    The large box stops at alpha = 0.08: below about alpha = 0.07 the rate
    near the turning-point hole reports estimates up to 10x its value, or
    runs for minutes (see README.md), and a workload must be one on which
    no op fails."""

    name = "deviation-sweep"
    op_span = "accelerated.op"
    deadline_s = 2.0
    list_ops = 160
    tail_percentile = 99.0
    accuracy = Accuracy(rel_tol=1e-6, abs_tol=1e-12)
    normal_box = ((0.2, 2.8), (0.1, 1.9))      # (M, alpha)
    large_box = ((2.8, 3.1), (0.08, 0.1))

    def ops(self, rng: np.random.Generator):
        normal, large = kronecker(rng, 2), kronecker(rng, 2)
        for i in itertools.count():
            is_large = i % 5 == 4
            (m_lo, m_hi), (a_lo, a_hi) = self.large_box if is_large else self.normal_box
            u = next(large if is_large else normal)
            yield Op((m_lo + (m_hi - m_lo) * u[0], a_lo + (a_hi - a_lo) * u[1]),
                     large_m_alpha=is_large)

    def execute(self, M: float, alpha: float) -> Outcome:
        fields = FieldParams(M)
        acc = cc.averaged_decay_rate(cc.cavity_geometry(1.0, alpha), fields)
        rest = cc.decay_rate_stationary_longtime(cc.cavity_geometry(1.0, 0.0), fields)
        out = checked(acc, self.accuracy)
        out.values += (acc.value / rest.value - 1.0,)
        return out

    def warmup(self) -> None:
        self.execute(1.0, 0.5)

    def anchors(self) -> list[Anchor]:
        def deviation(alpha):
            got = cc.ideal_clock_deviation(cc.cavity_geometry(1.0, alpha), FieldParams(1.0))
            return abs(got / CRITERION_9_FROZEN[alpha] - 1.0) <= 1e-6

        def overlap():
            rate = cc.decay_rate_accelerated_longtime(cc.cavity_geometry(1.0, 0.5),
                                                      FieldParams(1.0))
            return abs(rate.diagnostics["scaled_overlap"] / OVERLAP_SCALED_REF - 1.0) <= 1e-9

        return ([Anchor(f"criterion 9 deviation at alpha={a}", lambda a=a: deviation(a))
                 for a in CRITERION_9_FROZEN]
                + [Anchor("scaled overlap at alpha=0.5", overlap)])

    def check_groups(self, records) -> int:
        return 0


class AccelProbability:
    """decay_probability_accelerated over tau sweeps of 4 values, one per
    quarter of the log range 0.05..50, on seeded geometries.

    The range starts at tau = 0.05: at smaller tau, P is so small that the
    error estimate is set by abs_tol, which the nested estimate exceeds 2-3
    times, so ops there fail the stated accuracy."""

    name = "accel-probability"
    op_span = "accelerated.op"
    deadline_s = 20.0
    list_ops = 48
    tail_percentile = 75.0
    cfg = QuadratureConfig(rel_tol=1e-5, abs_tol=1e-9)
    # the nested estimate adds twice the inner overlap's relative error to
    # the outer one, about 3x the requested rel_tol; see perfbench/README.md
    accuracy = Accuracy(rel_tol=1e-4, abs_tol=1e-9)
    taus_per_group = 4
    tau_range = (0.05, 50.0)
    box = ((0.5, 2.0), (0.2, 1.5))             # (M, alpha)

    def ops(self, rng: np.random.Generator):
        (m_lo, m_hi), (a_lo, a_hi) = self.box
        log_lo, log_hi = (math.log(t) for t in self.tau_range)
        n = self.taus_per_group
        for group, u in enumerate(kronecker(rng, 2 + n)):
            M, alpha = m_lo + (m_hi - m_lo) * u[0], a_lo + (a_hi - a_lo) * u[1]
            for k in range(n):
                tau = math.exp(log_lo + (log_hi - log_lo) * (k + u[2 + k]) / n)
                yield Op((M, alpha, tau), group=group)

    def execute(self, M: float, alpha: float, tau: float) -> Outcome:
        res = cc.decay_probability_accelerated(cc.cavity_geometry(1.0, alpha),
                                               FieldParams(M), tau, self.cfg)
        return checked(res, self.accuracy)

    def warmup(self) -> None:
        self.execute(1.0, 1.0, 5.0)

    def anchors(self) -> list[Anchor]:
        return []

    def check_groups(self, records) -> int:
        """P >= 0, and P nondecreasing in tau within each group up to the two
        error estimates.  A violation fails the later op; returns their number."""
        last, missed = {}, 0
        for rec in records:
            if not rec.outcome.values:
                continue
            p, err = rec.outcome.values
            prev = last.get(rec.op.group)
            if p < 0.0 or (prev is not None and p + err + prev[1] < prev[0]):
                rec.outcome.failure = rec.outcome.failure or "anchor"
                missed += 1
            last[rec.op.group] = (p, err)
        return missed


class StationaryProbability:
    """decay_probability_stationary at default tolerances across threshold."""

    name = "stationary-probability"
    op_span = "stationary.op"
    deadline_s = 4.0
    list_ops = 400
    tail_percentile = 99.0
    accuracy = Accuracy(rel_tol=QuadratureConfig.rel_tol, abs_tol=QuadratureConfig.abs_tol)
    l_range = (0.5, 2.0)
    threshold_range = (0.2, 1.3)               # M l / pi
    t_over_l_range = (0.005, 400.0)

    def ops(self, rng: np.random.Generator):
        (l_lo, l_hi), (q_lo, q_hi) = self.l_range, self.threshold_range
        log_lo, log_hi = (math.log(t) for t in self.t_over_l_range)
        for u in kronecker(rng, 3):
            l = l_lo + (l_hi - l_lo) * u[0]
            M = (q_lo + (q_hi - q_lo) * u[1]) * math.pi / l
            t = l * math.exp(log_lo + (log_hi - log_lo) * u[2])
            yield Op((l, M, t))

    def execute(self, l: float, M: float, t: float) -> Outcome:
        res = cc.decay_probability_stationary(cc.cavity_geometry(l, 0.0), FieldParams(M), t)
        return checked(res, self.accuracy)

    def warmup(self) -> None:
        self.execute(1.0, 1.0, 1.0)

    def anchors(self) -> list[Anchor]:
        resting = cc.cavity_geometry(1.0, 0.0)
        fields = FieldParams(1.0)

        def slope():
            cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-9)
            ts = np.array([50.0, 100.0, 200.0])
            ps = [cc.decay_probability_stationary(resting, fields, float(t), cfg).value
                  for t in ts]
            return abs(float(np.polyfit(ts, ps, 1)[0]) / RATE_L1_M1 - 1.0) < 0.02

        def quadratic():
            pa = cc.decay_probability_stationary(resting, fields, 0.01).value
            pb = cc.decay_probability_stationary(resting, fields, 0.005).value
            return abs(pa / pb / 4.0 - 1.0) < 0.01

        return [Anchor("criterion 4 slope vs RATE_L1_M1", slope),
                Anchor("criterion 5 short-time ratio", quadratic)]

    def check_groups(self, records) -> int:
        return 0


WORKLOADS = {w.name: w for w in (DeviationSweep, AccelProbability, StationaryProbability)}
