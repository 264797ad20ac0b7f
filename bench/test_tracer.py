"""Self-tests of the benchmark's tracer.

    python3 -m pytest -q bench/test_tracer.py
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def _installed():
    fh = run.fresh_frachelm()
    tracer = Tracer()
    tracer.enabled = True
    layers.install(tracer, fh)
    return fh, tracer


def test_restore_puts_every_original_back():
    fh, tracer = _installed()
    patched = [(owner, attr, original) for owner, attr, original in tracer._patched]
    assert patched and all(getattr(o, a) is not f for o, a, f in patched)
    tracer.op = 0
    fh.scattering.green_eval_batch(fh.Problem(3, 0.3, 1.0), 0.0, np.array([1.0, 2.0]))
    tracer.restore()
    assert all(getattr(o, a) is f for o, a, f in patched)
    assert not tracer._patched


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.op = 0
    with tracer.span("root"):              # [0, 10]
        with tracer.span("a"):             # [1, 4]
            with tracer.span("a.1"):       # [2, 3]
                pass
        with tracer.span("b"):             # [4, 6]
            pass
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0), Span("x", 1.0, 5.0, parent=0),
             Span("y", 3.0, 12.0, parent=0)]
    assert self_times(spans)[0] == 1.0


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    with tracer.span("ignored"):
        pass
    assert tracer.spans == []


def test_counts_for_a_2d_batch():
    fh, tracer = _installed()
    radii = np.array([0.5, 1.0, 2.0])
    tracer.op = 0
    try:
        fh.scattering.green_eval_batch(fh.Problem(2, 0.3, 1.0), 0.0, radii)
    finally:
        tracer.restore()
    m = layers.summarize(tracer.spans, fh.QuadratureSpec().max_subdiv)
    assert m["quadrature.bessel_transform.calls"] == radii.size
    assert m["green.batch.calls.n2"] == 1
    assert m["green.batch.radii.n2"] == radii.size
    assert m["specfun.bessel_j0.points"] == m["quadrature.bessel_transform.evaluations"] > 0
    assert m["specfun.struve.calls"] == 0           # s = 0.3 is not on the integer branch
    assert 0 < m["quadrature.adaptive.max_panels"] <= fh.QuadratureSpec().max_subdiv


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
