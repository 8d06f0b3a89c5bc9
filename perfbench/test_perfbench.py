"""Tests for the benchmark's own machinery: self-time arithmetic, wrapper
restoration, and that tracing leaves the solver's results bitwise unchanged."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from bitmimo import harness  # noqa: E402
from bitmimo.recovery import RecoverySpec, fista  # noqa: E402


def _span(sid, name, start, end, parent=None, inner=0.0):
    s = spans.Span(sid, name, start, parent, None)
    s.end = end
    s.inner = inner
    return s


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping: union 4) and
    # [9, 12] (sticks out: only 1 counts); grandchild [1.5, 2.5] under the
    # first child; a solver span [6, 8] with 0.5 s of counted applies.
    tree = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, parent=0),
        _span(2, "b", 2.0, 5.0, parent=0),
        _span(3, "c", 9.0, 12.0, parent=0),
        _span(4, "a.child", 1.5, 2.5, parent=1),
        _span(5, "solve", 6.0, 8.0, parent=0, inner=0.5),
    ]
    got = spans.self_times(tree)
    assert got[0] == pytest.approx(10.0 - 4.0 - 1.0 - 2.0)
    assert got[1] == pytest.approx(1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)
    assert got[5] == pytest.approx(1.5)


def test_tracer_nesting_and_op_ids():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("op", op=True):
            with tracer.span("inner"):
                pass
        with tracer.span("after"):
            pass
    outer, op, inner, after = tracer.spans
    assert (outer.parent, op.parent, inner.parent, after.parent) == (None, 0, 1, 0)
    assert (outer.op, op.op, inner.op, after.op) == (None, 1, 1, None)
    assert outer.start <= op.start <= inner.start <= inner.end <= op.end <= after.start


def test_tail_percentile():
    assert spans.tail([]) == (0.0, 0.0)
    assert spans.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = spans.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)  # ten samples (90..99) lie beyond it


def test_wrappers_restore_every_attribute():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in spans._targets()]
    with pytest.raises(ZeroDivisionError):
        with spans.installed(spans.Tracer()):
            for owner, attr, original in before:
                assert vars(owner)[attr] is not original
            1 / 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original
    assert harness.fista is fista


def test_traced_fista_is_bitwise_identical():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((12, 40)) + 1j * rng.standard_normal((12, 40))
    s = A[:, [3, 17]] @ np.array([1.0 + 0.5j, -0.7j])
    pair = harness._operator_pair(A)
    spec = RecoverySpec(max_iter=60)
    plain = fista(*pair, s, spec)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = harness.fista(*pair, s, spec)
        traced_info = harness.fista(*pair, s, spec, return_info=True)
    assert traced.tobytes() == plain.tobytes()
    assert traced_info[0].tobytes() == plain.tobytes()
    solve = tracer.spans[0]
    assert solve.name == "recovery.fista"
    assert solve.attrs["iterations"] == traced_info[1]["iterations"]
    assert solve.attrs["applies"] > 0 and solve.attrs["adjoints"] > 0
    assert (solve.attrs["rows"], solve.attrs["cols"]) == (12, 40)


def test_benchmark_json_lists_what_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_names = set(spans.layer_metrics([], 1)) | {"trace.overhead_frac"}
    assert {m["name"] for m in bench["per_layer"]} == layer_names
    for m in bench["per_layer"]:
        assert spans.unit(m["name"]) == m["unit"]
