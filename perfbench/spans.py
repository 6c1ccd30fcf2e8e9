"""Spans around the public aaatrig layers, recorded from outside the package.

``Tracer.install`` replaces each layer function listed in ``LAYERS`` by a
wrapper in every aaatrig module that binds it (``aaatrig.solver`` binds
``min_singular_direction`` as well as ``aaatrig.numerics``), so a call is
recorded whichever module it comes from.  ``uninstall`` puts the original
functions back, so untraced passes run the package exactly as shipped.

A span is ``[name, start, end, parent, n]``: perf_counter seconds, the index
of the enclosing span (-1 at the root) and a work count for the layers that
have one.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _size(args, kwargs, out):
    return out.size


def _length(args, kwargs, out):
    return len(out)


def _model_m(args, kwargs, out):
    return out.m


def _cleanup_dropped(args, kwargs, out):
    return args[0].m - out.m


def _loewner_cells(args, kwargs, out):
    return out.matrix.size


def _poles_found(args, kwargs, out):
    return len(out.poles)


def _table_rows(args, kwargs, out):
    return len(args[2])


PACKAGE = "aaatrig"

# (module, function, work count or None).  The span name is
# "<module>.<function>".
LAYERS = (
    ("cli", "main", None),
    ("cli", "ingest", _size),
    ("cli", "read_points", _length),
    ("cli", "write_table", _table_rows),
    ("cli", "read_model", None),
    ("cli", "write_model", None),
    ("solver", "fit", _model_m),
    ("solver", "cleanup", _cleanup_dropped),
    ("solver", "assemble_loewner", _loewner_cells),
    ("solver", "append_far_field_rows", None),
    ("numerics", "min_singular_direction", None),
    ("numerics", "generalized_eig", None),
    ("trigbary", "evaluate_batch", _size),
    ("polezero", "poles_and_zeros", _poles_found),
    ("polezero", "partial_fractions", None),
    ("calculus", "derivative_at", None),
    ("calculus", "diff_matrix", None),
    ("baselines", "aaa_fit", _model_m),
    ("lightning", "solve_flow_demo", None),
    ("lightning", "compress", None),
    ("lightning", "evaluate_lightning", None),
)

# SampleSet.from_data is a classmethod, patched on the class itself.
SAMPLESET_SPAN = "trigbary.sampleset"


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _record(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, attr, count in LAYERS:
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(home, attr)
            wrapper = self._record(f"{module_name}.{attr}", original, count)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
        sample_set = sys.modules[f"{PACKAGE}.trigbary"].SampleSet
        original = sample_set.__dict__["from_data"]
        wrapper = self._record(SAMPLESET_SPAN, original.__func__, _size)
        sample_set.from_data = classmethod(wrapper)
        self._patched.append((sample_set, "from_data", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an operation of a pass)."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart\tend\tn\n")
            for i, (name, start, end, parent, n) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\t{n}\n")


def layer_totals(spans, first: int, last: int) -> dict:
    """Per span name over spans[first:last]: calls, total, self time and n.

    Self time is a span's duration minus the durations of its direct
    children.  Also returns ``steps``, the assemble_loewner spans opened
    directly by a fit (greedy iterations), and ``final_m``, the orders the
    fits return less what a cleanup called outside a fit drops from them
    (a fit's own cleanup is already in the order it returns).
    """
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[first:last]:
        if parent >= first:
            child[parent] += end - start
    rows = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "n": 0})
    steps = final_m = 0
    for i in range(first, last):
        name, start, end, parent, n = spans[i]
        row = rows[name]
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child[i]
        row["n"] += n
        in_fit = parent >= 0 and spans[parent][0] == "solver.fit"
        if name == "solver.assemble_loewner" and in_fit:
            steps += 1
        elif name == "solver.fit":
            final_m += n
        elif name == "solver.cleanup" and not in_fit:
            final_m -= n
    return dict(rows), steps, final_m


def layer_metrics(rows: dict, steps: int, final_m: int) -> dict:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""

    def get(name, key):
        if name not in rows:
            return 0 if key in ("calls", "n") else 0.0
        return rows[name][key]

    batch_s = get("trigbary.evaluate_batch", "total")
    return {
        "solver.assemble_loewner.s": (get("solver.assemble_loewner", "self"), "s"),
        "solver.loewner_cells": (get("solver.assemble_loewner", "n"), "count"),
        "numerics.min_singular_direction.s": (get("numerics.min_singular_direction", "self"), "s"),
        "numerics.min_singular_direction.calls": (get("numerics.min_singular_direction", "calls"), "count"),
        "solver.fit.self_s": (get("solver.fit", "self"), "s"),
        "solver.fit.calls": (get("solver.fit", "calls"), "count"),
        "solver.steps": (steps, "count"),
        "solver.cleanup.s": (get("solver.cleanup", "self"), "s"),
        "solver.cleanup.dropped": (get("solver.cleanup", "n"), "count"),
        "solver.useful_step_ratio": (final_m / steps if steps else 0.0, "ratio"),
        "trigbary.evaluate_batch.s": (get("trigbary.evaluate_batch", "self"), "s"),
        "trigbary.evaluate_batch.pts": (get("trigbary.evaluate_batch", "n"), "count"),
        "trigbary.evaluate_batch.pts_per_s": (
            get("trigbary.evaluate_batch", "n") / batch_s if batch_s else 0.0, "1/s"),
        "trigbary.sampleset.s": (get(SAMPLESET_SPAN, "self"), "s"),
        "polezero.poles_and_zeros.s": (get("polezero.poles_and_zeros", "self"), "s"),
        "polezero.poles_and_zeros.calls": (get("polezero.poles_and_zeros", "calls"), "count"),
        "polezero.poles_found": (get("polezero.poles_and_zeros", "n"), "count"),
        "numerics.generalized_eig.s": (get("numerics.generalized_eig", "self"), "s"),
        "calculus.derivative_at.s": (get("calculus.derivative_at", "self"), "s"),
        "calculus.derivative_at.calls": (get("calculus.derivative_at", "calls"), "count"),
        "calculus.diff_matrix.s": (get("calculus.diff_matrix", "self"), "s"),
        "cli.ingest.s": (get("cli.ingest", "self"), "s"),
        "cli.read_points.s": (get("cli.read_points", "self"), "s"),
        "cli.write_table.s": (get("cli.write_table", "self"), "s"),
        "cli.model_io.s": (get("cli.read_model", "self") + get("cli.write_model", "self"), "s"),
        "cli.rows": (get("cli.ingest", "n") + get("cli.read_points", "n")
                     + get("cli.write_table", "n"), "count"),
        "baselines.aaa_fit.s": (get("baselines.aaa_fit", "self"), "s"),
        "lightning.solve_flow_demo.s": (get("lightning.solve_flow_demo", "self"), "s"),
        "lightning.compress.s": (get("lightning.compress", "self"), "s"),
        "lightning.evaluate_lightning.s": (get("lightning.evaluate_lightning", "self"), "s"),
    }


def median_metrics(per_pass: list[dict]) -> dict:
    """Median over passes of each (value, unit) metric."""
    return {
        key: (statistics.median(p[key][0] for p in per_pass), unit)
        for key, (_, unit) in per_pass[0].items()
    }
