#!/usr/bin/env python3
"""Check that this checkout of cavityclock computes the same bits as another.

    python scripts/bitcheck.py --against ../other-checkout --seeds 11 12 13

Each checkout runs in its own subprocess, since two copies of the package
cannot share one process.  Both run:

* the first ops of every perfbench workload for each seed, drawn by this
  checkout's perfbench/workloads.py (imported, never changed); an op's values
  are compared as float.hex, together with the name of the check it failed;
* the values behind the deviation-sweep anchors: the criterion-9 deviations
  and the scaled overlap at alpha = 0.5;
* one accelerated probability (l = 1, M = 1, alpha = 0.5, tau = 5): its value
  and estimate as float.hex and its diagnostics (evaluations, overlap
  evaluations, Omega cutoff, worst overlap estimate), which count the steps
  of the nested quadrature; and the evaluations of one stationary
  probability (l = 1, M = 1, t = 200);
* the worst value of each verify check (criteria 1-4 and 8), which runs the
  scalar Bessel selector, and criterion 11's proper times (value and error
  estimate), which run integrate() outside the observables;
* the exception text of two failing integrals, whose failure is first met
  after several rounds: the proper time of a path that is superluminal only
  near t = 1, and integrate() of an integrand that is NaN on a narrow band;
* four CLI sweeps, whose CSV output is compared byte for byte: criterion 12's
  alpha sweep of the accelerated rate, a t_or_tau sweep of the accelerated
  and of the stationary probability, and the README's deviation sweep.

Prints what was compared and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OPS = {"stationary-probability": 600, "accel-probability": 40, "deviation-sweep": 300}
SWEEPS = {
    "criterion-12 alpha sweep": ["accelerated", "--rate", "--mass", "1", "--l", "1",
                                 "--alpha", "0.3", "--sweep", "alpha:0.25:0.45:6:lin"],
    "accelerated t_or_tau sweep": ["accelerated", "--mass", "1", "--l", "1", "--alpha", "0.5",
                                   "--sweep", "t_or_tau:1:50:4:log"],
    "stationary t_or_tau sweep": ["stationary", "--mass", "1", "--l", "1",
                                  "--sweep", "t_or_tau:0.01:400:20:log"],
    "deviation alpha sweep": ["deviation", "--l", "1", "--mass", "1", "--alpha", "0.02",
                              "--sweep", "alpha:0.02:1.9:20:log"],
}


def raised(call) -> str:
    """The type and text of the exception call() raises."""
    try:
        call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no exception"


def emit(root: Path, seeds: list[int]) -> dict:
    """Everything compared, computed with the package in root/src."""
    sys.path[:0] = [str(root / "src"), str(ROOT / "perfbench")]
    import cavityclock as cc
    from cavityclock import verify
    from cavityclock.cli import main as cli_main
    from cavityclock.core import FieldParams
    from workloads import CRITERION_9_FROZEN, WORKLOADS

    if Path(cc.__file__).resolve().parent != root / "src" / "cavityclock":
        raise SystemExit(f"bitcheck: imported {cc.__file__}, not {root}'s package")
    ops = {}
    for name, n in OPS.items():
        workload = WORKLOADS[name]()
        for seed in seeds:
            stream = workload.ops(np.random.default_rng(seed))
            ops[f"{name} seed {seed}"] = [
                [list(map(float.hex, out.values)), out.failure]
                for out in (workload.execute(*op.args) for op in itertools.islice(stream, n))]
    anchors = {f"deviation alpha={a}": cc.ideal_clock_deviation(cc.cavity_geometry(1.0, a),
                                                                FieldParams(1.0)).hex()
               for a in CRITERION_9_FROZEN}
    rate = cc.decay_rate_accelerated_longtime(cc.cavity_geometry(1.0, 0.5), FieldParams(1.0))
    anchors["scaled overlap alpha=0.5"] = rate.diagnostics["scaled_overlap"].hex()
    p = cc.decay_probability_accelerated(cc.cavity_geometry(1.0, 0.5), FieldParams(1.0), 5.0)
    anchors["accelerated P tau=5"] = [
        p.value.hex(), p.error_estimate.hex(), p.diagnostics["evaluations"],
        p.diagnostics["overlap_evaluations"], float(p.diagnostics["omega_cutoff"]).hex(),
        float(p.diagnostics["worst_overlap_rel_est"]).hex()]
    p = cc.decay_probability_stationary(cc.cavity_geometry(1.0, 0.0), FieldParams(1.0), 200.0)
    anchors["stationary P t=200 evaluations"] = p.diagnostics["evaluations"]
    for check in verify.run_checks():
        anchors[f"verify {check.group} worst"] = float(check.worst).hex()
    for name, traj, t1 in [("constant velocity", cc.Trajectory.constant_velocity(0.6), 1.0),
                           ("sinusoidal", cc.Trajectory.sinusoidal(1e-4, 100.0), 10.0)]:
        tau = cc.proper_time(traj, 0.0, t1)
        anchors[f"proper time {name}"] = [tau.value.hex(), tau.error_estimate.hex()]
    superluminal = cc.Trajectory(lambda t: 1.2 * np.exp(-((np.asarray(t) - 1.0) / 0.1) ** 2))
    anchors["superluminal proper time error"] = raised(
        lambda: cc.proper_time(superluminal, 0.0, 3.0))
    anchors["NaN band integrate error"] = raised(lambda: cc.integrate(
        lambda x: np.where(np.abs(x - 0.8) < 0.01, np.nan,
                           np.sin(40.0 * x) / ((x - 0.3) ** 2 + 1e-5)), -1.0, 2.0))
    csvs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in SWEEPS.items():
            path = Path(tmp) / "out.csv"
            code = cli_main(argv + ["--output", str(path)])
            csvs[name] = [code, path.read_text()]
    return {"ops": ops, "anchors": anchors, "csvs": csvs}


def run_checkout(root: Path, seeds: list[int]) -> dict:
    cmd = [sys.executable, __file__, "--emit", str(root), "--seeds", *map(str, seeds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def compare(mine: dict, theirs: dict) -> int:
    """Prints one line per compared item; returns the number of differences."""
    differences = 0
    for key, ops in mine["ops"].items():
        other = theirs["ops"][key]
        differ = sum(a != b for a, b in zip(ops, other)) + abs(len(ops) - len(other))
        n_values = sum(len(values) for values, _failure in ops)
        failed = sum(failure is not None for _values, failure in ops)
        print(f"{key}: {len(ops)} ops ({n_values} values, {failed} failed), {differ} differ")
        differences += differ
    differ = [k for k in mine["anchors"] if mine["anchors"][k] != theirs["anchors"][k]]
    print(f"anchor values: {len(mine['anchors'])}, {len(differ)} differ"
          + "".join(f"\n  differs: {k}" for k in differ))
    differences += len(differ)
    for name, (code, text) in mine["csvs"].items():
        same = [code, text] == theirs["csvs"][name]
        print(f"{name}: exit {code}, {len(text.encode())} bytes, "
              f"{'identical' if same else 'DIFFERENT'}")
        differences += not same
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13])
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        json.dump(emit(args.emit.resolve(), args.seeds), sys.stdout)
        return 0
    if args.against is None:
        parser.error("--against is required")
    differences = compare(run_checkout(ROOT, args.seeds),
                          run_checkout(args.against.resolve(), args.seeds))
    print(f"bitcheck: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
