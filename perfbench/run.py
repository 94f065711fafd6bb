"""Benchmark of cavityclock: one workload, one seed, one run.

    python3 perfbench/run.py --workload deviation-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
run is one client in a closed loop: it calls the library in-process, one op
after another, for --seconds seconds, with BLAS/OpenMP pinned to one thread.
Every op is checked (see workloads.py); an op that runs past the workload's
deadline is stopped, failed and timed at the deadline.

The speed the machine gives a process is not steady: the share of time it
runs slow drifts by a quarter and more from one minute to the next, and it
moves every op alike.  So the run times a fixed reference computation
(calibrate.py) between ops and between cold starts, and reports each
end-to-end time scaled by REFERENCE_S over the mean reference time measured
around it: as it would read with the reference taking REFERENCE_S.  The
unscaled times are printed above the JSON line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs ops untraced for
half of --seconds, replays the same ops with the layer wrappers of spans.py
installed, requires bit-identical op values, and prints the per-layer
metrics.  The last line of standard output is one JSON object; the lines
before it are for people.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
COLD_STARTS = 9
IMPORT_PROFILES = 3
# mean reference time of calibrate.py on the machine that defined the
# benchmark (2-vCPU VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
REFERENCE_S = 1.5e-3
CALIBRATE_EVERY_S = 0.1     # loop time between two reference samples
SAMPLES_PER_COLD_START = 5
WARMUP_SAMPLES = 20


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM inside an op that ran past its deadline.  A
    BaseException, so that no handler inside the library swallows it."""


class OpTimer:
    """Runs one op under a SIGALRM deadline and times it."""

    def __init__(self):
        self._armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, _signum, _frame):
        if self._armed:
            self._armed = False
            raise DeadlineExceeded

    def run(self, fn, args, deadline_s):
        from workloads import Outcome
        start = perf_counter()
        try:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            try:
                outcome = fn(*args)
            finally:
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        except DeadlineExceeded:
            outcome = Outcome(failure="deadline")
        except Exception as exc:  # a failed op, not a failed run
            outcome = Outcome(failure=f"raised {type(exc).__name__}")
        return perf_counter() - start, outcome


@dataclass
class Record:
    op: object
    latency_s: float
    outcome: object


class Calibration:
    """Times the reference computation of calibrate.py, in this process,
    between ops.  `spent_s` adds up the wall time sampling took, which loop
    times leave out."""

    def __init__(self):
        from calibrate import reference
        self._reference = reference
        for _ in range(WARMUP_SAMPLES):
            reference()
        self.samples: list[float] = []
        self.spent_s = 0.0

    def sample(self) -> None:
        start = perf_counter()
        self._reference()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def scale(self, first: int = 0) -> float:
        """REFERENCE_S over the mean of samples[first:].  The mean, not the
        median: the machine flips between a fast and a slow state many times
        a second, so single samples come out near one of two values, and
        only their mean follows the share of time spent in each."""
        return REFERENCE_S / statistics.fmean(self.samples[first:])


def run_ops(ops, seconds, timer, call, deadline_s, cal):
    """Closed loop: start ops until `seconds` of loop time have passed,
    sampling the reference every CALIBRATE_EVERY_S; returns the records and
    the loop's wall time without the sampling."""
    records = []
    start, spent = perf_counter(), cal.spent_s
    next_sample = start
    for op in ops:
        now = perf_counter()
        if now - start - (cal.spent_s - spent) >= seconds:
            break
        if now >= next_sample:
            cal.sample()
            next_sample = now + CALIBRATE_EVERY_S
        latency, outcome = timer.run(call, op.args, deadline_s)
        records.append(Record(op, latency, outcome))
    return records, perf_counter() - start - (cal.spent_s - spent)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_start_s(workload: str, env: dict) -> float:
    """Fresh interpreter to the warm-up op's result: interpreter start,
    `import cavityclock` and one op."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "coldstart.py"), workload],
                          env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ok":
        raise RuntimeError(f"cold start of {workload} failed")
    return elapsed


def import_profile(env: dict) -> dict[str, float]:
    """Self import time by top-level package, from `python -X importtime`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cavityclock"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    self_us = Counter()
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _cumulative, module = line[len("import time:"):].split("|")
        self_us[module.strip().split(".")[0]] += int(own)
    return {pkg: self_us[pkg] / 1e6 for pkg in ("numpy", "scipy", "cavityclock")}


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p))


def failures(records) -> Counter:
    return Counter(r.outcome.failure for r in records if r.outcome.failure)


def run_anchors(workload, timer) -> list[str]:
    """Names of the anchors that were missed."""
    missed = []
    for anchor in workload.anchors():
        _latency, outcome = timer.run(anchor.check, (), workload.deadline_s)
        if outcome is not True:
            missed.append(anchor.name)
    return missed


def describe(workload, records, wall_s) -> list[str]:
    n = len(records)
    seen, reused = set(), 0
    for r in records:
        key = r.op.args[:2] if r.op.group >= 0 else r.op.args
        reused += key in seen
        seen.add(key)
    large = sum(r.op.large_m_alpha for r in records)
    slowest = max((r.latency_s for r in records if r.outcome.failure is None), default=0.0)
    return [f"# {workload.name}: {n} ops in {wall_s:.2f} s, slowest op that passed "
            f"{slowest:.3f} s, deadline {workload.deadline_s:g} s",
            f"# large-M/alpha share {large / max(n, 1):.3f}, geometry reuse share "
            f"{reused / max(n, 1):.3f}",
            "# failed ops by reason: " + (", ".join(
                f"{k} {v}" for k, v in sorted(failures(records).items())) or "none")]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, records, setup_s, setup_scale, loop_scale, anchors_missed,
               n_anchors):
    """The end-to-end metrics, their times multiplied by the calibration
    scale measured around them, and lines for people with the unscaled
    times."""
    latencies_ms = [r.latency_s * 1e3 for r in records]
    p_tail = workload.tail_percentile
    failed = sum(failures(records).values()) + len(anchors_missed)
    attempted = len(records) + n_anchors
    raw = {"setup_s": setup_s,
           "wall_s": statistics.fmean(latencies_ms) * workload.list_ops / 1e3,
           "op_p50_ms": percentile(latencies_ms, 50.0),
           "op_tail_ms": percentile(latencies_ms, p_tail)}
    metrics = {
        "setup_s": metric(raw["setup_s"] * setup_scale, "s"),
        "wall_s": metric(raw["wall_s"] * loop_scale, "s"),
        "op_p50_ms": metric(raw["op_p50_ms"] * loop_scale, "ms"),
        "op_tail_ms": metric(raw["op_tail_ms"] * loop_scale, "ms"),
        "ok_frac": metric(1.0 - failed / attempted, "fraction"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = sum(lat > raw["op_tail_ms"] for lat in latencies_ms)
    notes = [f"# op_tail_ms is p{p_tail:g} over {len(records)} ops, {beyond} beyond it; "
             f"wall_s is the time for a list of {workload.list_ops} ops at the run's "
             f"mean op latency",
             f"# calibration scale {loop_scale:.4f} in the loop, {setup_scale:.4f} around "
             f"the cold starts (reference {REFERENCE_S * 1e3:.3f} ms over the median sample); "
             f"unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())]
    return metrics, attempted, failed, notes


def per_layer(tracer, records, traced_wall_s, trace_overhead, env):
    """The per-layer metrics, and lines for people with each layer's self
    time in seconds.  A layer's self time is reported as its share of the
    traced wall time, so that a layer a workload never calls reads a share
    of 0 rather than a time of 0; the shares times bench.traced_wall_s plus
    bench.other_s add up to bench.traced_wall_s."""
    from spans import (ACC_INTEGRAND, ACC_OP, BESSEL, INTEGRATE, KERNEL, OVERLAP,
                       STAT_INTEGRAND, STAT_OP, TRUNCATION)
    spans = tracer.summary()
    counts = tracer.counts
    bessel, integ = spans[BESSEL], spans[INTEGRATE]
    ops = max(len(records), 1)
    profiles = [import_profile(env) for _ in range(IMPORT_PROFILES)]
    self_total = sum(s["self_s"] for s in spans.values())

    def imported(pkg):
        return statistics.median(p[pkg] for p in profiles)

    def share(name):
        return metric(spans[name]["self_s"] / traced_wall_s, "fraction")

    m = {
        "specialfn.bessel_batch.calls": metric(bessel["calls"], "count"),
        "specialfn.bessel_batch.points": metric(counts["bessel.points"], "count"),
        "specialfn.bessel_batch.self_share": share(BESSEL),
        "specialfn.bessel_batch.points_per_s": metric(
            counts["bessel.points"] / bessel["self_s"] if bessel["self_s"] > 0 else 0.0, "1/s"),
        "specialfn.bessel_batch.within_tol_frac": metric(
            counts["bessel.within_tol"] / bessel["calls"] if bessel["calls"] else 0.0, "fraction"),
        "specialfn.resonance_kernel.calls": metric(spans[KERNEL]["calls"], "count"),
        "specialfn.resonance_kernel.self_share": share(KERNEL),
        "quadrature.integrate.calls": metric(integ["calls"], "count"),
        "quadrature.integrate.evals": metric(counts["integrate.evals"], "count"),
        "quadrature.integrate.evals_per_call": metric(
            counts["integrate.evals"] / integ["calls"] if integ["calls"] else 0.0, "count"),
        "quadrature.integrate.self_share": share(INTEGRATE),
        "quadrature.integrate.unconverged": metric(counts["integrate.unconverged"], "count"),
        "quadrature.truncation_point.calls": metric(spans[TRUNCATION]["calls"], "count"),
        "quadrature.truncation_point.self_share": share(TRUNCATION),
        "accelerated.overlap.calls": metric(spans[OVERLAP]["calls"], "count"),
        "accelerated.overlap.calls_per_op": metric(spans[OVERLAP]["calls"] / ops, "count"),
        "accelerated.overlap.self_share": share(OVERLAP),
        "accelerated.integrand.self_share": share(ACC_INTEGRAND),
        "accelerated.op.self_share": share(ACC_OP),
        "stationary.integrand.self_share": share(STAT_INTEGRAND),
        "stationary.op.self_share": share(STAT_OP),
        "cli.import.numpy_s": metric(imported("numpy"), "s"),
        "cli.import.scipy_s": metric(imported("scipy"), "s"),
        "cli.import.cavityclock_self_s": metric(imported("cavityclock"), "s"),
        "bench.other_s": metric(traced_wall_s - self_total, "s"),
        "bench.trace_overhead": metric(trace_overhead, "fraction"),
        "bench.traced_wall_s": metric(traced_wall_s, "s"),
    }
    lines = [f"# self time {name}: {s['self_s']:.4f} s" for name, s in spans.items()]
    lines.append(f"# self times {self_total:.4f} s + bench.other_s "
                 f"{m['bench.other_s']['value']:.4f} s = traced wall {traced_wall_s:.4f} s")
    return m, lines


def measure(args, workload, timer, cal):
    """One run: returns the lines for people, the metrics, and correct,
    attempted and failed."""
    env = child_env()
    workload.warmup()
    ops = workload.ops(np.random.default_rng(args.seed))
    # a traced run splits its time between the untraced pass and the replay
    seconds = args.seconds / 2 if args.trace else args.seconds
    records, wall_s = run_ops(ops, seconds, timer, workload.execute, workload.deadline_s, cal)
    loop_scale = cal.scale()
    anchors_missed = run_anchors(workload, timer)
    group_misses = workload.check_groups(records)
    n_anchors = len(workload.anchors())
    lines = describe(workload, records, wall_s)
    correct = not anchors_missed and not group_misses

    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        first = len(cal.samples)
        with tracer.installed():
            call = tracer.wrap(workload.op_span, workload.execute)

            def execute(*op_args):
                before = tracer.counts["integrate.unconverged"]
                outcome = call(*op_args)
                if outcome.failure is None and tracer.counts["integrate.unconverged"] > before:
                    outcome.failure = "unconverged"
                return outcome

            traced, traced_wall_s = run_ops([r.op for r in records], math.inf, timer,
                                            execute, workload.deadline_s, cal)
        (HERE / "out").mkdir(exist_ok=True)
        tracer.save(HERE / "out" / f"trace-{workload.name}-seed{args.seed}.npz")
        group_misses = workload.check_groups(traced)
        compared = [(a, b) for a, b in zip(records, traced)
                    if a.outcome.values and b.outcome.values]
        mismatched = sum(list(map(float.hex, a.outcome.values))
                         != list(map(float.hex, b.outcome.values)) for a, b in compared)
        correct = correct and not group_misses and mismatched == 0
        overhead = (traced_wall_s * cal.scale(first)) / (wall_s * loop_scale) - 1.0
        metrics, notes = per_layer(tracer, traced, traced_wall_s, overhead, env)
        lines += notes
        failed = sum(failures(traced).values()) + len(anchors_missed)
        attempted = len(traced) + n_anchors
        lines.append("# traced replay, " + describe(workload, traced, traced_wall_s)[2][2:])
        lines.append(f"# traced values bit-identical on {len(compared) - mismatched} "
                     f"of {len(compared)} ops compared")
    else:
        first, cold = len(cal.samples), []
        for _ in range(COLD_STARTS):
            for _ in range(SAMPLES_PER_COLD_START):
                cal.sample()
            cold.append(cold_start_s(workload.name, env))
        for _ in range(SAMPLES_PER_COLD_START):
            cal.sample()
        metrics, attempted, failed, notes = end_to_end(
            workload, records, statistics.median(cold), cal.scale(first), loop_scale,
            anchors_missed, n_anchors)
        lines += notes
    lines += [f"# anchor missed: {name}" for name in anchors_missed]
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return lines, metrics, correct, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cavityclock" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'cavityclock'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cavityclock
    if Path(cavityclock.__file__).resolve().parent != SRC / "cavityclock":
        print(f"perfbench: imported {cavityclock.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    timer = OpTimer()

    lines, metrics, correct, attempted, failed = measure(args, workload, timer, Calibration())
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
