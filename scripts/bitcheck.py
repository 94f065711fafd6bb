#!/usr/bin/env python3
"""Check that this checkout of cavityclock computes the same bits as another.

    python scripts/bitcheck.py --against ../other-checkout --seeds 11 12 13

Each checkout runs in its own subprocess, since two copies of the package
cannot share one process.  Both run:

* the first ops of every perfbench workload for each seed, drawn by this
  checkout's perfbench/workloads.py (imported, never changed); an op's values
  are compared as float.hex, together with the name of the check it failed;
* the evaluations and converged flag of the first STATIONARY_STEPS
  stationary-probability ops of each seed, from decay_probability_stationary
  called with each op's args;
* the values behind the deviation-sweep anchors: the criterion-9 deviations
  and the scaled overlap at alpha = 0.5;
* one accelerated probability (l = 1, M = 1, alpha = 0.5, tau = 5): its value
  and estimate as float.hex and its diagnostics (evaluations, overlap
  evaluations, Omega cutoff, worst overlap estimate), which count the steps
  of the nested quadrature; and the evaluations of one stationary
  probability (l = 1, M = 1, t = 200);
* one bessel_k_scaled_rows call, values and per-row worst estimates as
  float.hex, on one Kronrod panel per row at mixed orders: the K_0 and
  power series rows from 4 to 62 terms (among them one order at rising,
  falling and repeated arguments, and rows that end on either side of a
  16-term block's edge), oscillatory Debye, the contour rule beyond the
  series, in the turning band at nu = 150, 500 and 2000, and far above the
  order, where the scaled values underflow;
* the worst value of each verify check (criteria 1-4 and 8), which runs the
  scalar Bessel front end, and criterion 11's proper times (value and error
  estimate), which run integrate() outside the observables;
* the exception text of two failing integrals, whose failure is first met
  after several rounds: the proper time of a path that is superluminal only
  near t = 1, and integrate() of an integrand that is NaN on a narrow band;
* four CLI sweeps, whose CSV output is compared byte for byte: criterion 12's
  alpha sweep of the accelerated rate, a t_or_tau sweep of the accelerated
  and of the stationary probability, and the README's deviation sweep.

Prints what was compared and exits 1 on any difference.  For each ops item
it also prints how many ops changed their failure name (passing counts as
one), and its last line gives both totals, so that a change that moves last
bits can show that its failures did not move.  It also prints,
without comparing them, the integrand calls (quadrature rounds) of the
stationary probability at t = 200 and of the accelerated one at tau = 5,
so that a change to the rounds shows beside equal evaluations.  For every item
that differs it prints the largest relative move of its values and of its
error estimates.
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
STATIONARY_STEPS = 100
# (order, panel) rows of the row-kernel call; the comment gives the branch
KERNEL_ROWS = [
    (0.0, (0.05, 3.0)),            # K_0 series
    (2.0, (1e-4, 2e-3)),           # series, 4 terms
    (6.15, (0.5, 8.0)),            # series, 21 terms
    (40.0, (2.0, 35.0)),           # series, 43 terms
    (59.9, (20.0, 59.0)),          # series, 62 terms
    (30.0, (1.0, 29.9)),           # series, 41 terms
    # one order at rising, falling and repeated ranges, whose rows end in
    # the first and the second 16-term block of the series
    (6.15, (0.01, 0.1)),           # series, 5 terms
    (6.15, (0.5, 3.0)),            # series, 13 terms
    (6.15, (2.0, 8.5)),            # series, 22 terms
    (6.15, (2.0, 8.5)),            # series, 22 terms
    (6.15, (0.5, 3.0)),            # series, 13 terms
    (6.15, (0.01, 0.1)),           # series, 5 terms
    (6.15, (1.0, 4.6)),            # series, 16 terms: ends on the first block's last term
    (6.15, (1.0, 5.2)),            # series, 17 terms: ends on the second block's first term
    (150.0, (10.0, 110.0)),        # oscillatory Debye, contour rule above x = 102
    (2.0, (3.0, 9.0)),             # series and contour rule
    (150.0, (149.8, 149.99)),      # turning band, contour rule
    (500.0, (470.0, 530.0)),       # turning band across x = nu, contour rule
    (2000.0, (1999.98, 1999.999)),  # turning band, contour rule
    (2.0, (700.0, 900.0)),         # x >> nu, contour rule, values underflow
]
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


def integrand_calls(module, call) -> dict:
    """The calls of each integrand that module passes to integrate() and
    integrate_rows() while call() runs: {function name: calls}."""
    counts = {}

    def counting(name, run):
        def counted(f, *args, **kwargs):
            def g(*xs):
                counts[name] += 1
                return f(*xs)
            return run(g, *args, **kwargs)
        return counted

    originals = {name: getattr(module, name) for name in ("integrate", "integrate_rows")
                 if hasattr(module, name)}
    for name, run in originals.items():
        counts[name] = 0
        setattr(module, name, counting(name, run))
    try:
        call()
    finally:
        for name, run in originals.items():
            setattr(module, name, run)
    return counts


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
    workload, evaluations = WORKLOADS["stationary-probability"](), {}
    for seed in seeds:
        stream = workload.ops(np.random.default_rng(seed))
        steps = []
        for op in itertools.islice(stream, STATIONARY_STEPS):
            l, M, t = op.args
            try:
                p = cc.decay_probability_stationary(cc.cavity_geometry(l, 0.0), FieldParams(M), t)
                steps.append([int(p.diagnostics["evaluations"]), bool(p.diagnostics["converged"])])
            except Exception as exc:
                steps.append(f"{type(exc).__name__}: {exc}")
        evaluations[f"stationary P evaluations, seed {seed}"] = steps
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
    from cavityclock import accelerated, stationary
    calls = {
        "stationary P t=200": integrand_calls(stationary, lambda: cc.decay_probability_stationary(
            cc.cavity_geometry(1.0, 0.0), FieldParams(1.0), 200.0)),
        "accelerated P tau=5": integrand_calls(accelerated, lambda: cc.decay_probability_accelerated(
            cc.cavity_geometry(1.0, 0.5), FieldParams(1.0), 5.0)),
    }
    from cavityclock.quadrature import _NODES
    from cavityclock.specialfn import bessel_k_scaled_rows
    panels = [0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo) for _nu, (lo, hi) in KERNEL_ROWS]
    values, worst = bessel_k_scaled_rows(np.array([nu for nu, _panel in KERNEL_ROWS]),
                                         np.array(panels))
    anchors["row kernel values"] = [list(map(float.hex, row.tolist())) for row in values]
    anchors["row kernel worst"] = list(map(float.hex, worst.tolist()))
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
    return {"ops": ops, "anchors": anchors, "csvs": csvs,
            "evaluations": evaluations, "calls": calls}


def run_checkout(root: Path, seeds: list[int]) -> dict:
    cmd = [sys.executable, __file__, "--emit", str(root), "--seeds", *map(str, seeds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def move(a, b) -> float:
    """The largest relative difference between the floats that a and b,
    nested alike, hold as float.hex (inf where one is not finite); other
    entries count as no move."""
    if isinstance(a, list) and isinstance(b, list):
        return max((move(x, y) for x, y in zip(a, b)), default=0.0)
    try:
        x, y = float.fromhex(a), float.fromhex(b)
    except (TypeError, ValueError):
        return 0.0
    if x == y:
        return 0.0
    relative = abs(x - y) / max(abs(x), abs(y))
    return relative if relative == relative else float("inf")


def compare(mine: dict, theirs: dict) -> tuple[int, int]:
    """Prints one line per compared item; returns the number of differences
    and, among the ops, the number whose failure name changed."""
    differences = failure_changes = 0
    for key, ops in mine["ops"].items():
        other = theirs["ops"][key]
        differ = sum(a != b for a, b in zip(ops, other)) + abs(len(ops) - len(other))
        changed = sum(a[1] != b[1] for a, b in zip(ops, other))
        n_values = sum(len(values) for values, _failure in ops)
        failed = sum(failure is not None for _values, failure in ops)
        line = f"{key}: {len(ops)} ops ({n_values} values, {failed} failed), {differ} differ"
        if differ:
            # an op's values are (value, error estimate[, deviation])
            pairs = [(a, b) for (a, _f), (b, _g) in zip(ops, other)]
            values = max(move(a[:1] + a[2:], b[:1] + b[2:]) for a, b in pairs)
            estimates = max(move(a[1:2], b[1:2]) for a, b in pairs)
            line += f"; largest move: values {values:.2e}, estimates {estimates:.2e}"
        print(line)
        print(f"  {key}: {changed} ops changed their failure name")
        differences += differ
        failure_changes += changed
    for key, steps in mine["evaluations"].items():
        differ = sum(a != b for a, b in zip(steps, theirs["evaluations"][key]))
        print(f"{key}: {len(steps)} ops (evaluations, converged), {differ} differ")
        differences += differ
    differ = [k for k in mine["anchors"] if mine["anchors"][k] != theirs["anchors"][k]]
    print(f"anchor values: {len(mine['anchors'])}, {len(differ)} differ"
          + "".join(f"\n  differs: {k} (largest move "
                    f"{move(mine['anchors'][k], theirs['anchors'][k]):.2e})" for k in differ))
    differences += len(differ)
    for name, (code, text) in mine["csvs"].items():
        same = [code, text] == theirs["csvs"][name]
        print(f"{name}: exit {code}, {len(text.encode())} bytes, "
              f"{'identical' if same else 'DIFFERENT'}")
        differences += not same
    for name, counts in mine["calls"].items():
        print(f"{name}: integrand calls " + ", ".join(
            f"{fn} {n} (against {theirs['calls'][name][fn]})" for fn, n in counts.items()))
    return differences, failure_changes


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
    differences, failure_changes = compare(run_checkout(ROOT, args.seeds),
                                           run_checkout(args.against.resolve(), args.seeds))
    print(f"bitcheck: {differences} differences, {failure_changes} failure changes")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
