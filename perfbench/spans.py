"""Span tracer for the traced benchmark run.

The layers of cavityclock call each other through module-level names
(``accelerated.integrate``, ``accelerated.spatial_overlap``, ...).  The
tracer swaps those names for wrappers that record one span per call: its
name, start, end and parent.  Spans live in one flat array while the run
goes and are reduced to self time per layer when it ends; a layer's self
time is the span's duration minus the part of it covered by child spans, so
a span that recurses into itself (the inner ``integrate`` under the outer
one) is counted once.

An op that runs past its deadline is stopped by an exception raised from a
signal handler, which can land between any two bytecodes of a wrapper.  So
a span is recorded by one array extend, each wrapper cuts the stack of open
spans back to its own depth on exit, and a span that was never closed
counts as zero length.

The wrappers pass arguments and results through untouched, so traced op
values are bit-identical to untraced ones.  Import this module only after
src/ is on sys.path (run.py does that).
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from cavityclock import accelerated, stationary
from cavityclock.specialfn import DEFAULT_BESSEL_TOL

# span names, in report order
BESSEL = "specialfn.bessel_batch"
KERNEL = "specialfn.resonance_kernel"
INTEGRATE = "quadrature.integrate"
TRUNCATION = "quadrature.truncation_point"
OVERLAP = "accelerated.overlap"
ACC_INTEGRAND = "accelerated.integrand"
ACC_OP = "accelerated.op"
STAT_INTEGRAND = "stationary.integrand"
STAT_OP = "stationary.op"
SPAN_NAMES = (BESSEL, KERNEL, INTEGRATE, TRUNCATION, OVERLAP, ACC_INTEGRAND,
              ACC_OP, STAT_INTEGRAND, STAT_OP)


class Tracer:
    """Records spans and the counters that belong to them."""

    def __init__(self):
        self._name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._spans = array("d")   # (name id, parent index, start, end) per span
        self._stack = [-1]         # indices of the open spans
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args) runs inside the span."""
        nid = float(self._name_id[name])
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            depth = len(stack)
            idx = len(spans) // 4
            spans.extend((nid, stack[-1], perf_counter(), -1.0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                spans[4 * idx + 3] = perf_counter()
                del stack[depth:]

        return traced

    # -- layer wrappers ---------------------------------------------------

    def _bessel(self, fn):
        def after(result, args):
            self.counts["bessel.points"] += int(np.size(args[1]))
            self.counts["bessel.within_tol"] += int(result[1] <= DEFAULT_BESSEL_TOL)
        return self.wrap(BESSEL, fn, after)

    def _integrate(self, fn, integrand_name: str):
        def after(result, _args):
            self.counts["integrate.evals"] += result.evaluations
            self.counts["integrate.unconverged"] += int(not result.converged)

        traced = self.wrap(INTEGRATE, fn, after)

        def call(f, *args, **kwargs):
            return traced(self.wrap(integrand_name, f), *args, **kwargs)

        return call

    @contextlib.contextmanager
    def installed(self):
        """Swap the module-level names for traced wrappers, restore on exit."""
        patches = [
            (accelerated, "bessel_k_scaled_values", self._bessel(accelerated.bessel_k_scaled_values)),
            (accelerated, "spatial_overlap", self.wrap(OVERLAP, accelerated.spatial_overlap)),
            (accelerated, "integrate", self._integrate(accelerated.integrate, ACC_INTEGRAND)),
            (stationary, "integrate", self._integrate(stationary.integrate, STAT_INTEGRAND)),
            (accelerated, "resonance_kernel", self.wrap(KERNEL, accelerated.resonance_kernel)),
            (stationary, "resonance_kernel", self.wrap(KERNEL, stationary.resonance_kernel)),
            (accelerated, "truncation_point", self.wrap(TRUNCATION, accelerated.truncation_point)),
            (stationary, "truncation_point", self.wrap(TRUNCATION, stationary.truncation_point)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        for mod, attr, wrapper in patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    # -- reduction --------------------------------------------------------

    def _columns(self):
        """name id, parent index, start, end; an unclosed span ends at its start."""
        table = np.frombuffer(self._spans, dtype=float).reshape(-1, 4)
        name, parent, start, end = table.T
        return (name.astype(np.int64), parent.astype(np.int64), start,
                np.where(end < 0.0, start, end))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and total self time in seconds."""
        name, parent, start, end = self._columns()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = np.bincount(name, weights=dur - covered, minlength=len(SPAN_NAMES))
        calls = np.bincount(name, minlength=len(SPAN_NAMES))
        return {n: {"calls": int(calls[i]), "self_s": float(self_time[i])}
                for i, n in enumerate(SPAN_NAMES)}

    def save(self, path) -> None:
        """Write every span (name, parent, start, end) to an .npz file."""
        name, parent, start, end = self._columns()
        np.savez_compressed(path, names=np.array(SPAN_NAMES), name=name,
                            parent=parent, start=start, end=end)
