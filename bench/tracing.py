"""Span recorder for the benchmark's traced runs.

The package is not edited.  `Tracer.install` swaps module attributes for
timing wrappers and `Tracer.uninstall` puts the originals back.  Each
wrapper sits on the attribute the caller looks up, because
`from .x import y` binds `y` at import time: `verify.sample_paths` is
wrapped, not `simulate.sample_paths`.

A span holds its name, start, end and parent.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the part
of it that its child spans cover, and every span name maps to one layer
metric (`layer_of`), so a call's self times add up to the call's time.

This module imports nothing from numpy or the package, so a process can
load it before its set-up clock starts.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import Counter, defaultdict

# Sub-layers of rng that are only counted: they run inside rng.normals,
# once per replicate, and a span each would add overhead for no new split.
_COUNT_ONLY = {"rng.stream": "rng.streams_opened"}

_RHS = {
    "verify.rhs_formula_ensemble",
    "verify.rhs_formula",
    "verify.rhs_formula_coupled",
    "verify.trapezoid_target_ensemble",
    "verify.trapezoid_target",
}
_REFERENCE = {
    "verify.head_reference_moments",
    "verify.ito_term_variance",
    "verify.formula_reference_moments",
}
_FACTOR = {"kernels.build_cov_matrix", "simulate.factorize", "simulate.cached_factor"}

# Every metric `layer_of` can return: warm-call time per layer.
CALL_LAYERS = (
    "cli.config_s",
    "simulate.warm_factor_s",
    "rng.normals_s",
    "simulate.sample_paths_self_s",
    "simulate.sample_brownian_self_s",
    "sums.s",
    "stats.s",
    "verify.rhs_s",
    "verify.reference_s",
    "report.write_s",
    "verify.self_s",
)


def layer_of(name):
    """Per-layer time metric that a span's self time belongs to in a warm call."""
    if name == "cli.ExperimentConfig.from_dict":
        return "cli.config_s"
    if name in _FACTOR:
        return "simulate.warm_factor_s"
    if name.startswith("rng."):
        return "rng.normals_s"
    if name == "simulate.sample_paths":
        return "simulate.sample_paths_self_s"
    if name == "simulate.sample_brownian":
        return "simulate.sample_brownian_self_s"
    if name.startswith("sums."):
        return "sums.s"
    if name.startswith("stats."):
        return "stats.s"
    if name in _RHS:
        return "verify.rhs_s"
    if name in _REFERENCE:
        return "verify.reference_s"
    if name == "verify.ExperimentReport.write":
        return "report.write_s"
    # The experiment bodies, draw_ensemble, the cli dispatch and the
    # benchmark's root span: whatever no named layer covers.
    return "verify.self_s"


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


def _report_counts(args, result):
    report = args[0]
    return {
        "report.rows": len(report.replicate_rows),
        "report.bytes": sum(os.path.getsize(path) for path in result),
    }


def wrap_table(lab):
    """(owner, attribute, span name, count hook) for every traced entry point.

    A count hook maps (args, result) to counter increments.
    """
    cli, rng, simulate, stats, sums, verify = (
        lab.cli, lab.rng, lab.simulate, lab.stats, lab.sums, lab.verify
    )
    table = [
        (simulate, "build_cov_matrix", "kernels.build_cov_matrix",
         lambda a, r: {"kernels.cov_bytes": r.nbytes}),
        (simulate, "factorize", "simulate.factorize",
         lambda a, r: {"simulate.factorizations": 1,
                       "simulate.factor_bytes": r.matrix_l.nbytes,
                       "simulate.jittered": int(r.jittered)}),
        (verify, "cached_factor", "simulate.cached_factor", None),
        (verify, "sample_paths", "simulate.sample_paths", None),
        (verify, "sample_brownian", "simulate.sample_brownian", None),
        (rng, "derive_key", "rng.derive_key", None),
        (rng, "normals", "rng.normals", lambda a, r: {"rng.normals_drawn": r.size}),
        (rng, "stream", "rng.stream", None),
        (cli, "run_experiment", "cli.run_experiment", None),
        (cli.ExperimentConfig, "from_dict", "cli.ExperimentConfig.from_dict", None),
        (verify.ExperimentReport, "write", "verify.ExperimentReport.write", _report_counts),
    ]
    table += [(sums, name, f"sums.{name}", None) for name in _public_functions(sums)]
    table += [(stats, name, f"stats.{name}", None) for name in _public_functions(stats)]
    table += [
        (verify, name, f"verify.{name}", None)
        for name in _public_functions(verify)
        if name not in ("cached_factor", "sample_paths", "sample_brownian")
    ]
    return table


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index into Tracer.spans, or None for a root


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        # A span opened on a pool thread belongs to the main thread's
        # innermost open span, which is waiting on the pool.
        parent_stack = stack or self._main_stack
        span = Span(name, time.perf_counter(), parent_stack[-1] if parent_stack else None)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrapper(self, func, name, hook):
        counter = _COUNT_ONLY.get(name)
        if counter is not None:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                self.counts[counter] += 1
                return func(*args, **kwargs)
            return counted

        calls = name + ".calls"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            self.counts[calls] += 1
            if hook is not None:
                self.counts.update(hook(args, result))
            return result
        return traced

    def install(self, lab):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, hook in wrap_table(lab):
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrapper(raw.__func__, name, hook))
            else:
                wrapped = self._wrapper(raw, name, hook)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self):
        """Every span as a JSON-ready [name, start, end, parent] list."""
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


def self_times(spans, first=0):
    """Self time of every span in spans[first:], in order.

    Children are merged as intervals, so children that overlap (a thread
    pool) are not subtracted twice.
    """
    children = defaultdict(list)
    for index in range(first, len(spans)):
        parent = spans[index].parent
        if parent is not None and parent >= first:
            children[parent].append(spans[index])
    out = []
    for index in range(first, len(spans)):
        span = spans[index]
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def nesting_errors(spans, first=0, tol=1e-9):
    """Descriptions of spans that are open, escape their parent or have negative self time."""
    errors = []
    for index, own in zip(range(first, len(spans)), self_times(spans, first)):
        span = spans[index]
        if span.end is None:
            errors.append(f"{span.name}: never closed")
            continue
        if span.parent is not None and span.parent >= first:
            parent = spans[span.parent]
            if span.start < parent.start - tol or span.end > parent.end + tol:
                errors.append(f"{span.name}: outside its parent {parent.name}")
        if own < -tol:
            errors.append(f"{span.name}: negative self time {own}")
    return errors


def layer_totals(spans, first=0):
    """Self time per layer metric (see `layer_of`) over spans[first:]."""
    totals = defaultdict(float)
    for index, own in zip(range(first, len(spans)), self_times(spans, first)):
        totals[layer_of(spans[index].name)] += own
    return dict(totals)
