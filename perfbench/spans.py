"""Outside-in tracing for the bitmimo benchmark.

`installed(tracer)` replaces the public functions that `bitmimo.harness` and
`bitmimo.cli` import (plus the two internal calls the per-layer metrics need:
`combiner.equalizing_unitary` and `statistics.lmmse_transform`) with wrappers
that record one span per call, and puts every original back when the block
exits. Nothing under `src/` is edited; an untraced run never sees a wrapper.

A span holds its name, start, end, parent span and op id, plus a few numbers
read off the call (iterations of a solve, bytes written, saturation). The
operator apply/adjoint callables handed to `fista` run hundreds of times per
solve, so they are timed as counters on the enclosing `recovery.fista` span
instead of as spans of their own.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs", "inner")

    def __init__(self, sid, name, start, parent, op):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = {}
        self.inner = 0.0  # seconds spent in counted (span-less) children

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "inner": self.inner, **self.attrs}


class Tracer:
    """In-memory span recorder for one thread.

    A span opened with op=True starts a new op (one unit of completed work);
    spans opened inside it carry its op id, spans outside carry None.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._ops = 0

    @contextmanager
    def span(self, name, op=False):
        outer_op = self._op
        if op:
            self._ops += 1
            self._op = self._ops
        parent = self._stack[-1].id if self._stack else None
        rec = Span(len(self.spans), name, perf_counter(), parent, self._op)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()
            self._op = outer_op


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the part of it covered by its child spans
    (and minus its counted children)."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ()) if c.end > s.start and c.start < s.end)
        out[s.id] = max(s.duration - covered - s.inner, 0.0)
    return out


# -- wrappers -----------------------------------------------------------------

def _wrap(tracer, name, fn, note=None, op=False):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, op=op) as rec:
            result = fn(*args, **kwargs)
            if note is not None:
                rec.attrs.update(note(result, args, kwargs))
            return result
    return traced


def _note_dictionary(d, args, kwargs):
    return {"phi_bytes": 0 if d.Phi is None else int(d.Phi.nbytes)}


def _note_quantize(result, args, kwargs):
    return {"saturation": float(result[1])} if isinstance(result, tuple) else {}


def _note_filter_export(result, args, kwargs):
    return {"bytes": os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])}


def _wrap_fista(tracer, fista):
    @functools.wraps(fista)
    def traced(apply_a, apply_at, s_hat, spec, lipschitz=None, return_info=False):
        with tracer.span("recovery.fista") as rec:
            count = {"applies": 0, "apply_s": 0.0, "adjoints": 0, "adjoint_s": 0.0}

            def counted(fn, calls, secs):
                def inner(v):
                    t0 = perf_counter()
                    out = fn(v)
                    count[secs] += perf_counter() - t0
                    count[calls] += 1
                    return out
                return inner

            x, info = fista(counted(apply_a, "applies", "apply_s"),
                            counted(apply_at, "adjoints", "adjoint_s"),
                            s_hat, spec, lipschitz=lipschitz, return_info=True)
            rec.inner = count["apply_s"] + count["adjoint_s"]
            rec.attrs.update(count, iterations=int(info["iterations"]),
                             max_iter=int(spec.max_iter), rows=int(np.size(s_hat)),
                             cols=int(x.shape[0]))
        return (x, info) if return_info else x
    return traced


def _targets():
    """(owner, attribute, span name, note, starts an op) for every boundary."""
    from bitmimo import cli, combiner, dictionary, harness, statistics
    trials = [(harness, name, "harness.trial", None, True)
              for name in ("run_bilimo_trial", "run_task_ignorant_trial",
                           "run_noquan_dr_trial", "run_noquan_lmmse_trial")]
    return trials + [
        (harness, "sample_scene", "model.sample_scene", None, False),
        (harness, "scene_to_sparse_vector", "model.scene_to_sparse_vector", None, False),
        (harness, "build_dictionary", "dictionary.build", _note_dictionary, False),
        (dictionary.SteeringDictionary, "apply_cells", "dictionary.apply_cells", None, False),
        (harness, "apply_fbar", "dictionary.fbar", None, False),
        (harness, "build_covariances", "statistics.covariances", None, False),
        (cli, "build_covariances", "statistics.covariances", None, False),
        (harness, "build_compression_matrix", "statistics.compression", None, False),
        (cli, "build_compression_matrix", "statistics.compression", None, False),
        (harness, "lmmse_transform", "statistics.lmmse", None, False),
        (statistics, "lmmse_transform", "statistics.lmmse", None, False),
        (harness, "design_multitone", "combiner.design", None, False),
        (cli, "design_multitone", "combiner.design", None, False),
        (combiner, "equalizing_unitary", "combiner.equalizer", None, False),
        (cli, "write_filter_response_csv", "combiner.filter_export",
         _note_filter_export, False),
        (cli, "save_design", "combiner.save", None, False),
        (combiner.AcquisitionDesign, "apply_combiner", "combiner.combine", None, False),
        (harness, "quantize_complex_vector", "adc.quantize", _note_quantize, False),
        (harness, "fista", "recovery.fista", None, False),
        (harness, "power_iteration_lipschitz", "recovery.lipschitz", None, False),
        (harness, "run_sweep", "harness.run_sweep", None, False),
        (harness, "write_csv", "harness.write_csv", None, False),
        (cli, "main", "cli.main", None, True),
    ]


@contextmanager
def installed(tracer):
    """Trace every boundary of `_targets()` while the block runs."""
    saved = []
    try:
        for owner, attr, name, note, op in _targets():
            original = vars(owner)[attr]
            if getattr(original, "__wrapped__", None) is not None:
                raise RuntimeError(f"{owner.__name__}.{attr} is already wrapped")
            saved.append((owner, attr, original))
            if name == "recovery.fista":
                wrapper = _wrap_fista(tracer, original)
            else:
                wrapper = _wrap(tracer, name, original, note, op)
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------------

UNITS = {"ms": "ms", "ms_tail": "ms", "mb": "MB", "calls": "count",
         "rate": "ratio", "frac": "ratio", "iters_mean": "count",
         "per_solve": "count", "gflops": "GFLOP/s", "pct": "%"}


def unit(metric):
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix in sorted(UNITS, key=len, reverse=True):
        if metric.endswith("_" + suffix) or metric.endswith("." + suffix):
            return UNITS[suffix]
    raise KeyError(metric)


def tail(values):
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; the maximum (percentile 100) when there are ten or fewer."""
    v = sorted(values)
    if not v:
        return 0.0, 0.0
    if len(v) <= 10:
        return v[-1], 100.0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


def layer_metrics(spans, ops):
    """Per-layer numbers from the spans of a traced phase that completed `ops`
    ops. Times are milliseconds; a boundary the workload never reached reads 0."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)

    def durs(name):
        return [s.duration * 1e3 for s in by_name.get(name, ())]

    def mean(xs):
        return float(np.mean(xs)) if len(xs) else 0.0

    def median(xs):
        return float(np.median(xs)) if len(xs) else 0.0

    def self_ms(name):
        return [selfs[s.id] * 1e3 for s in by_name.get(name, ())]

    def attr(name, key):
        return [s.attrs[key] for s in by_name.get(name, ()) if key in s.attrs]

    per_op = 1.0 / ops if ops else 0.0
    solves = by_name.get("recovery.fista", ())
    fista_ms = durs("recovery.fista")
    fista_tail, fista_pct = tail(fista_ms)
    applies = sum(s.attrs["applies"] for s in solves)
    adjoints = sum(s.attrs["adjoints"] for s in solves)
    apply_s = sum(s.attrs["apply_s"] for s in solves)
    adjoint_s = sum(s.attrs["adjoint_s"] for s in solves)
    flop = sum(8.0 * s.attrs["rows"] * s.attrs["cols"] * (s.attrs["applies"] + s.attrs["adjoints"])
               for s in solves)
    shapes = {(s.attrs["rows"], s.attrs["cols"]) for s in solves}
    return {
        "model.scene_ms": (sum(durs("model.sample_scene"))
                           + sum(durs("model.scene_to_sparse_vector"))) * per_op,
        "dictionary.build_ms": mean(durs("dictionary.build")),
        "dictionary.phi_mb": mean(attr("dictionary.build", "phi_bytes")) / 1e6,
        "dictionary.apply_cells_ms": mean(durs("dictionary.apply_cells")),
        "dictionary.fbar_ms": mean(durs("dictionary.fbar")),
        "statistics.covariances_ms": mean(durs("statistics.covariances")),
        "statistics.compression_ms": mean(durs("statistics.compression")),
        "statistics.lmmse_ms": mean(durs("statistics.lmmse")),
        "combiner.design_ms": mean(durs("combiner.design")),
        "combiner.design_self_ms": mean(self_ms("combiner.design")),
        "combiner.equalizer_ms": mean(durs("combiner.equalizer")),
        "combiner.equalizer_calls": len(durs("combiner.equalizer")),
        "combiner.filter_export_ms": mean(durs("combiner.filter_export")),
        "combiner.filter_export_mb": mean(attr("combiner.filter_export", "bytes")) / 1e6,
        "combiner.save_ms": mean(durs("combiner.save")),
        "combiner.combine_ms": mean(durs("combiner.combine")),
        "adc.quantize_ms": mean(durs("adc.quantize")),
        "adc.quantize_calls": len(durs("adc.quantize")),
        "adc.saturation_rate": mean(attr("adc.quantize", "saturation")),
        "recovery.fista_ms": median(fista_ms),
        "recovery.fista_ms_tail": fista_tail,
        "recovery.fista_tail_pct": fista_pct,
        "recovery.fista_calls": len(fista_ms),
        "recovery.fista_self_ms": median(self_ms("recovery.fista")),
        "recovery.iters_mean": mean(attr("recovery.fista", "iterations")),
        "recovery.capped_frac": mean([float(s.attrs["iterations"] >= s.attrs["max_iter"])
                                      for s in solves]),
        "recovery.applies_per_solve": (applies + adjoints) / len(solves) if solves else 0.0,
        "recovery.apply_ms": apply_s * 1e3 / applies if applies else 0.0,
        "recovery.adjoint_ms": adjoint_s * 1e3 / adjoints if adjoints else 0.0,
        "recovery.apply_gflops": flop / (apply_s + adjoint_s) / 1e9 if flop else 0.0,
        "recovery.operator_mb": sum(16.0 * r * c for r, c in shapes) / 1e6,
        "recovery.lipschitz_ms": mean(durs("recovery.lipschitz")),
        "harness.trial_ms": mean(durs("harness.trial")),
        "harness.trial_self_ms": mean(self_ms("harness.trial")),
        "harness.self_ms": sum(self_ms("harness.run_sweep")) * per_op,
        "harness.write_ms": mean(durs("harness.write_csv")),
        "cli.main_ms": mean(durs("cli.main")),
        "cli.self_ms": mean(self_ms("cli.main")),
    }
