"""In-memory spans and counters at the module boundaries of mflqg.

Tracing is switched on by ``Tracer.installed()``, which replaces, for
the duration of a ``with`` block, the names one module of the package
imports from another (and the names the benchmark imports from the
package) by timing wrappers.  Nothing under ``src/`` changes: every
wrapper sits at the importing module, so each span lies on a module
boundary.  A span records its name, start, end, parent span and task;
a layer's self time is its spans' durations minus their child spans.
Counters are taken from arguments and returned objects after the
timed call, except the count of right-hand-side calls, which a thin
wrapper around ``rhs`` keeps inside the integrator's span; what the
wrappers cost is reported as ``trace.overhead_s``.

Every per-layer metric depends on the wrapped names in ``_targets``;
a rename in the package shows up here as an AttributeError at install
time, not as a silent speed-up.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

import mflqg.operators
import mflqg.perturbation
import mflqg.riccati
import mflqg.synthesis


def _segments(times) -> int:
    """Segments of a boundary/midpoint partition."""
    return (len(times) - 1) // 2


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent, task]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._task = -1
        self.tasks = 0

    @contextlib.contextmanager
    def task(self, name: str):
        """Root span of one task; every span inside belongs to it."""
        self._task = self.tasks
        self.tasks += 1
        with self.span("task." + name):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, parent, self._task]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(result, *args)`` after."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(out, *args, **kwargs)
            return out
        return traced

    def _counted(self, rhs):
        """``rhs`` counting its calls as ``integrate.rhs_calls``."""
        counts = self.counts

        def counted(t, y):
            counts["integrate.rhs_calls"] += 1
            return rhs(t, y)
        return counted

    # -- the wrapped boundaries ---------------------------------------

    def _targets(self, bench_module):
        """(module, attribute, replacement) for every traced boundary."""
        c = self.counts
        per, ric, syn, ops = (mflqg.perturbation, mflqg.riccati,
                              mflqg.synthesis, mflqg.operators)

        def integrate(fn):
            @functools.wraps(fn)
            def traced(rhs, *args, **kwargs):
                with self.span("integrate.backward"):
                    out = fn(self._counted(rhs), *args, **kwargs)
                c["integrate.partition_samples"] += len(out[0])
                return out
            return traced

        def time_arrays(cls):
            def count(out, spec, times, *a, **k):
                c["integrate.time_arrays_samples"] += len(times)
            return self.wrap("integrate.time_arrays", cls, count)

        def moments(out, spec, law, x0):
            c["synthesis.moment_runs"] += 1
            c["synthesis.moment_segments"] += _segments(law.times)

        def mc(out, spec, law, x0, *a, **k):
            c["synthesis.mc_path_steps"] += out.paths * (len(law.times) - 1)

        def verify(out, *a, **k):
            # the base value plus four sizes per direction
            c["synthesis.verify_bumps"] += 1 + 4 * len(out.stationarity)

        def distances(out, spec, laws, x):
            bounds = np.unique(np.concatenate([law[0][::2] for law in laws]))
            c["perturbation.distance_segments"] += len(bounds) - 1

        tracer = self

        class _SectionEngine(ops._MomentEngine):
            """The moment engine as build_section sees it."""

            def run(self, x0, v, record=False):
                with tracer.span("synthesis.moments"):
                    out = super().run(x0, v, record)
                c["synthesis.moment_runs"] += 1
                c["synthesis.moment_segments"] += _segments(self.times)
                c["operators.moment_batches"] += 1
                c["operators.functional_evals"] += v.shape[0]
                return out

        w = self.wrap
        return [
            (ric, "integrate_backward", integrate(ric.integrate_backward)),
            (ric, "_TimeArrays", time_arrays(ric._TimeArrays)),
            (syn, "_TimeArrays", time_arrays(syn._TimeArrays)),
            (per, "_TimeArrays", time_arrays(per._TimeArrays)),
            (per, "_solve_pairs", w("riccati.solve", per._solve_pairs)),
            (per, "build_feedback",
             w("synthesis.feedback", per.build_feedback)),
            (per, "evaluate_functional",
             w("synthesis.moments", per.evaluate_functional, moments)),
            (per, "verify_saddle",
             w("synthesis.verify", per.verify_saddle, verify)),
            (per, "_chain_distances",
             w("perturbation.distance", per._chain_distances, distances)),
            (ops, "_MomentEngine", _SectionEngine),
            (bench_module, "solve_riccati_pair",
             w("riccati.solve", bench_module.solve_riccati_pair)),
            (bench_module, "solve_control_riccati",
             w("riccati.solve", bench_module.solve_control_riccati)),
            (bench_module, "build_feedback",
             w("synthesis.feedback", bench_module.build_feedback)),
            (bench_module, "evaluate_functional",
             w("synthesis.moments", bench_module.evaluate_functional,
               moments)),
            (bench_module, "evaluate_functional_mc",
             w("synthesis.mc", bench_module.evaluate_functional_mc, mc)),
            (bench_module, "classify_family",
             w("perturbation.classify", bench_module.classify_family)),
            (bench_module, "build_section",
             w("operators.section", bench_module.build_section)),
            (bench_module, "check_necessary_condition",
             w("operators.certify", bench_module.check_necessary_condition)),
            (bench_module, "solve_section_saddle",
             w("operators.certify", bench_module.solve_section_saddle)),
        ]

    @contextlib.contextmanager
    def installed(self, bench_module):
        """Trace every boundary inside the block, then restore them."""
        targets = self._targets(bench_module)
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for mod, attr, new in targets:
                setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, old in saved:
                setattr(mod, attr, old)

    # -- results --------------------------------------------------------

    def overhead(self) -> float:
        """Seconds the wrappers added to the traced tasks, in total.

        Every span and every counted rhs call is charged the cost of
        one such wrapper around a no-op, measured here; the median of
        five timings of 20000 calls each.
        """
        probe = Tracer()

        def noop(t=0.0, y=None):
            return y

        def cost(wrapped, calls=20000):
            def clock(fn):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn(0.0, None)
                return time.perf_counter() - t0
            return statistics.median(
                (clock(wrapped) - clock(noop)) / calls for _ in range(5))

        per_span = cost(probe.wrap("probe", noop))
        per_rhs = cost(probe._counted(noop))
        return (len(self.spans) * per_span
                + self.counts["integrate.rhs_calls"] * per_rhs)

    def self_times(self) -> dict:
        """Seconds per span name, each span minus its direct children."""
        child = defaultdict(float)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def write(self, path, header: dict) -> None:
        """Dump the header and every span as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
