"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9's strongest
acceleration point uses alpha = 1.9: with l = 1 the nominal alpha = 2.0 puts
the left wall on the Rindler horizon (alpha*l = 2), which the geometry
rejects by construction, and the 5% averaging window must also stay below
alpha*l < 2; 1.9 is the largest center satisfying both.  Criterion 10 is
implemented exactly as stated; see the module docstring of
cavityclock.accelerated for why the finite-time probability carries a
duration-independent offset that this configuration cannot beat at
tau = 400/omega_1 (the differential slope does match the long-time rate,
which test_accelerated.py::TestDecayProbability covers).
"""

import math
import subprocess
import sys

import numpy as np
import pytest

import cavityclock as cc
from cavityclock import verify
from cavityclock.core import FieldParams
from cavityclock.quadrature import QuadratureConfig

FIELDS = FieldParams(M=1.0, lam=1.0)
RATE_L1_M1 = 0.028103438618244724


def report(num, name, passed, detail):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def report_check(num, name, result):
    report(num, name, result.passed,
           f"{result.detail}: worst {result.worst:.2e} (bound {result.bound:g})")


def test_criterion_01_gamma_identity():
    report_check(1, "gamma identity", verify.check_gamma())


def test_criterion_02_bessel_oracle():
    report_check(2, "Bessel vs brute-force integral", verify.check_bessel())


def test_criterion_03_rindler_mode_ode_residual():
    report_check(3, "Rindler mode ODE residual", verify.check_ode())


def test_criterion_04_stationary_longtime_consistency():
    rate = cc.decay_rate_stationary_longtime(cc.cavity_geometry(1.0, 0.0), FIELDS).value
    assert rate == pytest.approx(RATE_L1_M1, rel=1e-12)
    report_check(4, "stationary slope vs long-time rate", verify.check_longtime())


def test_criterion_05_short_time_quadratic_law():
    geom = cc.cavity_geometry(1.0, 0.0)
    pa = cc.decay_probability_stationary(geom, FIELDS, 0.01).value
    pb = cc.decay_probability_stationary(geom, FIELDS, 0.005).value
    err = abs(pa / pb / 4.0 - 1.0)
    report(5, "short-time quadratic law", err < 0.01,
           f"P(0.01)/P(0.005) = {pa / pb:.5f} (want 4 within 1%)")


def test_criterion_06_small_cavity_limit():
    geom = cc.cavity_geometry(0.01, 0.0)
    rate = cc.decay_rate_stationary_longtime(geom, FIELDS).value
    ratio = rate * 4.0 * math.pi**2 / 0.01**3
    report(6, "small-cavity limit", 0.95 <= ratio <= 1.05,
           f"rate * 4 pi^2 / l^3 = {ratio:.6f} (want within [0.95, 1.05])")


def test_criterion_07_threshold_behavior():
    geom = cc.cavity_geometry(1.0, 0.0)
    rate = cc.decay_rate_stationary_longtime(geom, FieldParams(M=4.0)).value
    report(7, "threshold behavior", rate == 0.0, f"rate at M=4 is {rate!r} (want exactly 0)")


def test_criterion_08_inertial_recovery():
    report_check(8, "inertial recovery at alpha=0.02", verify.check_recovery())


def test_criterion_09_deviation_exists_and_grows():
    # alpha = 1.9 stands in for the nominal 2.0, which is horizon-excluded
    # for l = 1 (see module docstring); regression values frozen from the
    # first verified build of this artifact
    devs = {}
    for alpha in (0.02, 0.2, 1.9):
        geom = cc.cavity_geometry(1.0, alpha)
        devs[alpha] = cc.ideal_clock_deviation(geom, FIELDS)
    ok = (abs(devs[1.9]) > 0.25
          and abs(devs[1.9]) > abs(devs[0.2]) > abs(devs[0.02]))
    frozen = {0.02: 0.06731538134850501, 0.2: 0.6742484770260255, 1.9: 16.179205712651385}
    ok = ok and all(devs[a] == pytest.approx(frozen[a], rel=1e-6) for a in frozen)
    report(9, "ideal-clock deviation grows with acceleration", ok,
           "deviation(alpha) = " + ", ".join(f"{a}: {devs[a]:+.4f}" for a in sorted(devs)))


def test_criterion_10_longtime_vs_finite_time_accelerated():
    geom = cc.cavity_geometry(1.0, 0.5)
    rate = cc.decay_rate_accelerated_longtime(geom, FIELDS).value
    tau = 400.0 / geom.omega1
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)
    p = cc.decay_probability_accelerated(geom, FIELDS, tau, cfg).value
    err = abs((p / tau) / rate - 1.0)
    report(10, "accelerated long-time vs finite-time", err < 0.03,
           f"P(tau)/tau = {p / tau:.6g} vs rate {rate:.6g}, rel diff {err:.2%} "
           f"(bound 3%; the pointwise rate at alpha=0.5 sits near a node of its "
           f"oscillation in alpha, so the duration-independent offset of P(tau) "
           f"dominates at tau*omega_1 = 400; the differential slope dP/dtau does "
           f"match the rate to 3%, see test_accelerated.py)")


def test_criterion_11_kinematics():
    r08 = cc.proper_time(cc.Trajectory.constant_velocity(0.6), 0.0, 1.0).value
    ok = abs(r08 - 0.8) < 1e-12
    rng = np.random.default_rng(42)
    worst_rt = 0.0
    for _ in range(50):
        alpha = rng.uniform(0.1, 3.0)
        xi = rng.uniform(-2, 2)
        tau = rng.uniform(-2, 2)
        if abs(alpha * tau) > 3.0:  # inverse map conditioning ~ e^{2 alpha tau}
            tau = math.copysign(3.0 / alpha, tau)
        x, t = cc.minkowski_from_rindler(xi, tau, alpha)
        xi2, tau2 = cc.rindler_from_minkowski(x, t, alpha)
        worst_rt = max(worst_rt, abs(xi2 - xi), abs(tau2 - tau))
    ok = ok and worst_rt < 1e-12
    tau_sin = cc.proper_time(cc.Trajectory.sinusoidal(1e-4, 100.0), 0.0, 10.0).value
    # agreement with the (A w)^2/4 law up to the partial-period remainder
    # of cos^2, which is bounded by (A w)^2 / (2 w)
    leading = 10.0 * (1.0 - (1e-2) ** 2 / 4.0)
    ok = ok and abs(tau_sin - leading) < (1e-2) ** 2 / 200.0
    report(11, "kinematics", ok,
           f"const-v {r08:.15f}, round-trip worst {worst_rt:.1e}, "
           f"sinusoidal {tau_sin:.12f} vs {leading:.12f}")


def test_criterion_12_sweep_determinism(tmp_path):
    args = [sys.executable, "-m", "cavityclock.cli", "accelerated", "--rate",
            "--mass", "1", "--l", "1", "--alpha", "0.3",
            "--sweep", "alpha:0.25:0.45:6:lin"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = subprocess.run(args + ["--output", str(path)],
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    report(12, "sweep determinism", outs[0] == outs[1] and len(outs[0]) > 0,
           f"two runs byte-identical ({len(outs[0])} bytes)")
