"""Spans around the layers' public functions, kept in memory.

Nothing inside ``src/`` is traced.  ``Tracer.bound()`` replaces each
layer function listed in ``LAYERS`` by a wrapper that records one span
(name, start, end, parent) per call, and restores the originals on exit.
A layer's self time is its span's duration minus the durations of the
wrapped spans directly under it.

``from .polymat import pm_mul`` copies the binding into ``series``,
``orderbasis``, ``nullspace``, ``oracle`` and the package namespace, so a
function is rebound in every ``polynull`` module that holds it; patching
``polymat`` alone would silently miss the calls made from the other
modules.  Modules are reached through ``sys.modules`` because the
attribute ``polynull.nullspace`` is the re-exported function, not the
module.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = {
    "polymat": (
        "mat_mul_mod",
        "pm_mul",
        "pm_mul_mod",
        "const_inv",
        "const_rank",
        "independent_columns",
        "is_row_reduced",
    ),
    "series": ("left_quotient_series",),
    "orderbasis": ("sigma_basis",),
    "nullspace": ("nullspace", "rows_annihilate"),
}

# Exact work counts taken from the arguments of a wrapped call.
WORK = {
    "polymat.mat_mul_mod": ("macs", lambda a, b, p: a.shape[0] * a.shape[1] * b.shape[1]),
    "series.left_quotient_series": ("order_sum", lambda b, a, eta: eta),
    "orderbasis.sigma_basis": ("steps", lambda g, order, t: order * g.cols),
}

# Per-layer metrics of a traced run, with their units, in report order.
PER_LAYER = {
    "polymat.mat_mul_mod.calls": "count",
    "polymat.mat_mul_mod.self_s": "s",
    "polymat.mat_mul_mod.macs": "count",
    "polymat.pm_mul.calls": "count",
    "polymat.pm_mul.self_s": "s",
    "polymat.pm_mul_mod.calls": "count",
    "polymat.pm_mul_mod.self_s": "s",
    "polymat.const_inv.calls": "count",
    "polymat.const_inv.self_s": "s",
    "polymat.const_rank.self_s": "s",
    "polymat.independent_columns.self_s": "s",
    "polymat.is_row_reduced.self_s": "s",
    "series.left_quotient_series.calls": "count",
    "series.left_quotient_series.total_s": "s",
    "series.left_quotient_series.order_sum": "count",
    "orderbasis.sigma_basis.calls": "count",
    "orderbasis.sigma_basis.self_s": "s",
    "orderbasis.sigma_basis.steps": "count",
    "nullspace.nullspace.self_s": "s",
    "nullspace.rows_annihilate.total_s": "s",
    "nullspace.attempts": "count",
    "nullspace.attempt_ok_ratio": "ratio",
    "trace.calls": "count",
    "trace.solve_s_p50": "s",
    "trace.untraced_solve_s_p50": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Span recorder; ``bound()`` installs it, ``layer_metrics()`` sums it up."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: Counter = Counter()
        self._open = [-1]

    def _wrap(self, name: str, fn):
        names, start, end, parent, counts, open_ = (
            self.names, self.start, self.end, self.parent, self.counts, self._open
        )
        work = WORK.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if work is not None:
                counts[f"{name}.{work[0]}"] += work[1](*args, **kwargs)
            idx = len(names)
            names.append(name)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()

        return traced

    def _count_attempts(self, fn):
        counts = self.counts

        def attempt(*args, **kwargs):
            counts["nullspace.attempts"] += 1
            result = fn(*args, **kwargs)
            counts["nullspace.attempts_ok"] += 1
            return result

        return attempt

    @contextmanager
    def bound(self):
        """Rebind every layer function in every ``polynull`` module, then restore."""
        modules = [m for k, m in list(sys.modules.items()) if k == "polynull" or k.startswith("polynull.")]
        wrappers = {}
        for layer, functions in LAYERS.items():
            owner = sys.modules[f"polynull.{layer}"]
            for fn_name in functions:
                fn = getattr(owner, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        # nullspace() looks _nullspace_once up in its module globals on every
        # attempt, so rebinding it counts attempts.  It records no span, so
        # an attempt's own work stays in nullspace.nullspace self time.
        once = sys.modules["polynull.nullspace"]._nullspace_once
        wrappers[id(once)] = (once, self._count_attempts(once))

        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Per-name calls, total_s and self_s, plus the exact work counts."""
        n = len(self.names)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(n)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        self_time = dur - child
        out: dict[str, float] = Counter()
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += float(dur[i])
            out[f"{name}.self_s"] += float(self_time[i])
        out.update(self.counts)
        attempts = self.counts["nullspace.attempts"]
        out["nullspace.attempt_ok_ratio"] = (
            self.counts["nullspace.attempts_ok"] / attempts if attempts else 0.0
        )
        return out


def self_time_table(metrics: dict[str, float]) -> list[tuple[str, float]]:
    """(layer, self seconds) for every wrapped layer, largest first."""
    rows = [
        (f"{layer}.{fn}", metrics.get(f"{layer}.{fn}.self_s", 0.0))
        for layer, functions in LAYERS.items()
        for fn in functions
    ]
    return sorted(rows, key=lambda row: -row[1])


def per_layer_report(metrics: dict[str, float], traced: list[float], untraced: list[float]) -> dict:
    """The ``PER_LAYER`` metrics of a traced run, each with its unit."""
    values = dict(metrics)
    values["trace.calls"] = len(traced)
    values["trace.solve_s_p50"] = statistics.median(traced)
    values["trace.untraced_solve_s_p50"] = statistics.median(untraced)
    values["trace.overhead_ratio"] = values["trace.solve_s_p50"] / values["trace.untraced_solve_s_p50"]
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
