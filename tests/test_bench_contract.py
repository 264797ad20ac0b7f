"""Smoke test of what the benchmark in bench/ needs from the library.

The benchmark's traced run wraps library attributes by name and its
workloads call the public API; both break silently when a name moves.  These
tests use the already-imported package: ``bench/run.py``'s
``fresh_frachelm`` would purge ``sys.modules`` and split the exception
classes that other tests catch.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import frachelm
import frachelm.diagnostics  # noqa: F401  (bench/layers.py wraps names there)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_traced_run_wraps_existing_attributes():
    tracer = Tracer()
    before = frachelm.diagnostics.green_eval_batch
    try:
        layers.install(tracer, frachelm)    # AttributeError names a missing one
        assert frachelm.diagnostics.green_eval_batch is not before
    finally:
        tracer.restore()
    assert frachelm.diagnostics.green_eval_batch is before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_unit_runs_without_failures(name):
    wl = WORKLOADS[name](frachelm, 1, Tracer())
    wl.warm_up()
    res = wl.run_unit(0)
    assert res.attempted > 0
    assert res.failed == 0, res.failures


def test_traced_scatter_unit_attributes_cell_weight():
    # the layer metrics read cell_weight and the _green_total_at calls under it
    tracer = Tracer()
    tracer.enabled = True
    try:
        layers.install(tracer, frachelm)
        res = WORKLOADS["scatter-3d"](frachelm, 1, tracer).run_unit(0)
    finally:
        tracer.restore()
    assert res.failed == 0, res.failures
    metrics = layers.summarize(tracer.spans, frachelm.QuadratureSpec().max_subdiv)
    assert metrics["scattering.cell_weight.calls"] > 0
    assert metrics["scattering.cell_weight.radii_requested"] > 0
    # green.batch counts requested radii, exp_weighted the tail columns left
    # after the radial table
    assert 0 < metrics["quadrature.exp_weighted.columns"] < metrics["green.batch.radii.n3"]


def test_traced_2d_batch_counts_j0_table_misses(cold_panels):
    # bench/layers.py wraps frachelm.quadrature.bessel_j0, which the J0 panel
    # table calls on each miss; an empty table must show up in the count.  The
    # 3-radius call reads tail panels, so the tail panel cache starts empty
    # too: panels an earlier test built would leave no J0 work to count
    frachelm.quadrature._j0_panels.panels.clear()
    tracer = Tracer()
    tracer.enabled = True
    tracer.op = 0
    try:
        layers.install(tracer, frachelm)
        frachelm.green.green_eval_batch(frachelm.Problem(2, 0.3, 1.0), 0.0,
                                        np.array([0.5, 1.0, 2.0]))
    finally:
        tracer.restore()
    metrics = layers.summarize(tracer.spans, frachelm.QuadratureSpec().max_subdiv)
    assert metrics["specfun.bessel_j0.points"] > 0
