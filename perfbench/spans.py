"""In-memory span tracing around specbound's layer entry points.

A Tracer replaces module and class attributes of specbound with wrappers
for the duration of a ``with tracer.installed():`` block and restores the
originals afterwards.  Each wrapper records one span: name, start, end, the
span that caused it, the benchmark call it belongs to and, for sampling and
solving, the MC trial it belongs to.  Spans stay in memory; ``dump`` writes
them out once the run ends.

A call into the same span name from inside that span (for example
``build_pattern`` calling ``band``) records no second span, so a layer's
time is never counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import sys
import threading
import time

# (module, attribute, span name); "Class.method" patches a class attribute.
# A function is replaced in every loaded specbound module that holds it, so
# names imported with "from .sampling import sample_matrix" are wrapped too.
TARGETS = (
    ("specbound.coeffs", "wigner", "coeffs.build"),
    ("specbound.coeffs", "diagonal", "coeffs.build"),
    ("specbound.coeffs", "band", "coeffs.build"),
    ("specbound.coeffs", "band_cyclic", "coeffs.build"),
    ("specbound.coeffs", "block_diagonal", "coeffs.build"),
    ("specbound.coeffs", "build_pattern", "coeffs.build"),
    ("specbound.coeffs", "CoefficientMatrix.upper_triangle", "coeffs.upper_triangle"),
    ("specbound.sampling", "sample_matrix", "sampling.sample"),
    ("specbound.specnorm", "spectral_norm", "specnorm.solve"),
    ("specbound.specnorm", "max_row_norm", "specnorm.max_row_norm"),
    ("specbound.experiments", "phase_scan", "experiments.call"),
    ("specbound.experiments", "bounds_vs_empirical_report", "experiments.call"),
    ("specbound.experiments", "estimate_expected_norm", "experiments.call"),
    ("specbound.bounds", "lower_bound_estimate", "bounds.lower_estimate"),
    ("specbound.bounds", "bound_main", "bounds.closed_form"),
    ("specbound.bounds", "bound_rect", "bounds.closed_form"),
    ("specbound.bounds", "bound_reference", "bounds.closed_form"),
    ("specbound.bounds", "bound_dimfree", "bounds.closed_form"),
    ("specbound.bounds", "bound_seginer", "bounds.closed_form"),
    ("specbound.bounds", "bound_rademacher", "bounds.closed_form"),
    ("specbound.cli", "main", "cli.main"),
    ("specbound.cli", "_write_manifest_echo", "cli.io"),
    ("specbound.experiments", "PhaseGridResult.write_csv", "cli.io"),
)


def _sample_attrs(span, args, out):
    if hasattr(out, "indptr"):
        span["bytes"] = int(out.data.nbytes + out.indices.nbytes + out.indptr.nbytes)
    else:
        span["bytes"] = int(getattr(out, "nbytes", 0))


def _solve_attrs(span, args, out):
    span["method"] = out.method
    span["iterations"] = int(out.iterations)
    span["rel_error_bound"] = float(out.rel_error_bound)
    # the diagonal shortcut also reports dense_eig, but with a zero bound
    sparse = hasattr(args[0], "tocsr")
    span["densified"] = bool(sparse and out.method == "dense_eig" and out.rel_error_bound > 0)


_RESULT_HOOKS = {"sampling.sample": _sample_attrs, "specnorm.solve": _solve_attrs}


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.call_id = 0  # the benchmark call in progress; set by the caller
        self.missing = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a worker thread's first span was caused by whatever the main
        # thread is running, e.g. phase_scan dispatching trials to a pool
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def _wrap(self, name, fn):
        hook = _RESULT_HOOKS.get(name)
        starts_trial = name == "sampling.sample"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            parent = self._parent(stack)
            if starts_trial:
                self._local.trial = next(self._ids)
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": parent["id"] if parent else None,
                "call": self.call_id,
                "trial": getattr(self._local, "trial", None),
                "thread": threading.get_ident(),
            }
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if hook is not None:
                hook(span, args, out)
            return out

        return wrapper

    def _count_variates(self, fn):
        """Adds the variates drawn to the sampling span that draws them."""

        @functools.wraps(fn)
        def wrapper(dist, rng, size):
            stack = self._stack()
            if stack:
                n = math.prod(size) if isinstance(size, tuple) else int(size)
                stack[-1]["variates"] = stack[-1].get("variates", 0) + n
            return fn(dist, rng, size)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists in the loaded specbound modules."""
        patches = []  # (owner, attribute, original)
        loaded = [m for name, m in sys.modules.items() if name.startswith("specbound")]
        # draw_entries gets a counter, not a span: drawing is sampling's own work
        plan = list(TARGETS) + [("specbound.sampling", "draw_entries", None)]
        for mod_name, attr, span_name in plan:
            module = sys.modules.get(mod_name)
            if module is None:  # e.g. specbound.cli outside the CLI workload
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if span_name is None:
                wrapped = self._count_variates(original)
            else:
                wrapped = self._wrap(span_name, original)
            if owner_name:
                patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapped)
                continue
            for m in loaded:
                if getattr(m, leaf, None) is original:
                    patches.append((m, leaf, original))
                    setattr(m, leaf, wrapped)
        try:
            yield self
        finally:
            for owner, leaf, original in reversed(patches):
                setattr(owner, leaf, original)

    def extend(self, spans, call_id):
        """Adopt spans recorded by a child process, re-keyed to ``call_id``."""
        offset = next(self._ids)
        for s in spans:
            s = dict(s, call=call_id, id=s["id"] + offset)
            if s["parent"] is not None:
                s["parent"] += offset
            if s.get("trial") is not None:
                s["trial"] += offset
            self.spans.append(s)
        top = max((s["id"] for s in self.spans), default=0)
        self._ids = itertools.count(top + 1)

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans), fh)
            fh.write("\n")


# -- analysis ---------------------------------------------------------------


def duration(span):
    return span["end"] - span["start"]


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def self_times(spans):
    """id -> duration minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[s["id"]] = duration(s) - union_length(covered)
    return out


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list; 0.0 when empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(spans, ops):
    """Per-layer metrics of a traced run; see README.md for each definition.

    Spans with call 0 belong to the in-process set-up, call -1 to the CLI
    reference run at --threads 1, and calls >= 1 to the traced timed phase,
    which completed ``ops`` ops.  Per-op figures divide totals over the
    timed phase by ``ops``; a layer that a workload never calls reads 0.
    """
    ops = max(ops, 1)
    timed = [s for s in spans if s["call"] >= 1]
    selfs = self_times(timed)
    by = {}
    for s in timed:
        by.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(duration(s) for s in by.get(name, ()))

    def self_total(name):
        return sum(selfs[s["id"]] for s in by.get(name, ()))

    def durations(name, source=timed):
        return [duration(s) for s in source if s["name"] == name]

    samples = by.get("sampling.sample", [])
    solves = by.get("specnorm.solve", [])
    solved = [s for s in solves if "error" not in s]
    reference = [s for s in spans if s["call"] == -1]
    ref_solve = quantile(durations("specnorm.solve", reference), 0.5)
    return {
        "coeffs.build_s": sum(duration(s) for s in spans if s["call"] == 0 and s["name"] == "coeffs.build"),
        "coeffs.upper_triangle.calls": len(by.get("coeffs.upper_triangle", ())) / ops,
        "coeffs.upper_triangle_s": total("coeffs.upper_triangle") / ops,
        "sampling.calls": len(samples) / ops,
        "sampling.sample_s.p50": quantile(durations("sampling.sample"), 0.5),
        "sampling.sample_s.p90": quantile(durations("sampling.sample"), 0.9),
        "sampling.self_s": self_total("sampling.sample") / ops,
        "sampling.variates": sum(s.get("variates", 0) for s in samples) / ops,
        "sampling.bytes_out": sum(s.get("bytes", 0) for s in samples) / ops,
        "specnorm.solve_s.p50": quantile(durations("specnorm.solve"), 0.5),
        "specnorm.solve_s.p90": quantile(durations("specnorm.solve"), 0.9),
        "specnorm.self_s": self_total("specnorm.solve") / ops,
        "specnorm.iterations.mean": sum(s["iterations"] for s in solved) / len(solved) if solved else 0.0,
        "specnorm.iterations.max": max((s["iterations"] for s in solved), default=0),
        "specnorm.rel_error_bound.max": max((s["rel_error_bound"] for s in solved), default=0.0),
        "specnorm.densified": sum(s["densified"] for s in solved) / ops,
        "specnorm.method.dense_eig": sum(s["method"] == "dense_eig" for s in solved) / ops,
        "specnorm.method.lanczos": sum(s["method"] == "lanczos" for s in solved) / ops,
        "specnorm.nonconverged": sum(s.get("error") == "NonConvergenceError" for s in solves) / ops,
        "specnorm.max_row_norm_s": total("specnorm.max_row_norm") / ops,
        "experiments.wall_s": total("experiments.call") / ops,
        "experiments.self_s": self_total("experiments.call") / ops,
        "experiments.solve_inflation": (
            quantile(durations("specnorm.solve"), 0.5) / ref_solve if ref_solve > 0 else 0.0
        ),
        "bounds.lower_estimate_s": total("bounds.lower_estimate") / ops,
        "bounds.closed_form_s": total("bounds.closed_form") / ops,
        "cli.import_s": quantile(durations("cli.import"), 0.5),
        "cli.io_s": total("cli.io") / ops,
        "cli.self_s": self_total("cli.main") / ops,
    }
