"""Quadrature engine tests: known values, linearity, error honesty."""

import dataclasses
import heapq
import math

import numpy as np
import pytest

import frachelm.quadrature as quad
from frachelm.errors import AccuracyError, DomainError
from frachelm.quadrature import (
    QuadratureSpec, QuadResult, _adaptive_batch, _exp_weighted_batch,
    integrate_bessel_transform, integrate_partitioned,
)
from frachelm.specfun import iterated_average


def _exp_weighted(f):
    """int_0^inf e^{-y} f(y) dy from the batched engine green uses, with its
    default head cut y_cut = 10."""
    val, err, evals = _exp_weighted_batch(f, QuadratureSpec(), 10.0)
    return QuadResult(complex(val[0]), float(err.max()), evals)


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=bad)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=bad)


@pytest.mark.parametrize("field, value", [
    ("max_subdiv", float("nan")), ("max_subdiv", 0),
    ("max_subdiv", 2.5), ("max_subdiv", True),
])
def test_spec_counts_must_be_integers_in_range(field, value):
    with pytest.raises(DomainError):
        QuadratureSpec(**{field: value})


def test_spec_holds_no_partition():
    # partitions belong to their callers: the transform's constant and the
    # oracle's own ``intervals``
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == [
        "rel_tol", "abs_tol", "max_subdiv"]
    assert quad._BESSEL_INTERVALS == 30


def test_adaptive_trivial_examples():
    assert integrate_partitioned(lambda x: x ** 2, [0, 1]).value == pytest.approx(1 / 3, rel=1e-12)
    assert integrate_partitioned(np.log, [0, 1]).value == pytest.approx(-1.0, abs=1e-8)
    res = integrate_partitioned(lambda x: 1 / np.sqrt(x), [0, 1])
    assert res.value == pytest.approx(2.0, abs=1e-8)


def test_adaptive_domain():
    with pytest.raises(DomainError):
        integrate_partitioned(lambda x: x, [1.0, 1.0])
    # an integrand returns (points,) or (points, columns), nothing of more axes
    with pytest.raises(DomainError, match="integrand returned shape"):
        integrate_partitioned(lambda x: np.ones((x.size, 2, 2)), [0.0, 1.0])


def test_adaptive_max_subdiv():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_subdiv=8)
    with pytest.raises(AccuracyError) as exc:
        integrate_partitioned(lambda x: 1 / np.sqrt(x), [0, 1], spec)
    assert exc.value.value is not None   # best estimate is carried


def test_adaptive_batch_ranks_panels_by_each_columns_tolerance():
    # the large smooth column is within its tolerance after one panel; its
    # round-off sits far above the small column's whole error, so ranking
    # panels by absolute error would bisect it until max_subdiv
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-30)
    both = lambda x: np.stack([1e8 * np.exp(x), 1e-8 * np.sqrt(x)], axis=1)
    val, err, evals = _adaptive_batch(both, 0.0, 1.0, spec)
    _, _, alone = _adaptive_batch(lambda x: 1e-8 * np.sqrt(x), 0.0, 1.0, spec)
    assert evals == alone
    assert np.all(err <= spec.rel_tol * np.abs(val))
    assert val[1] == pytest.approx(2e-8 / 3, rel=1e-12)


def test_exp_weighted_trivial_examples():
    assert _exp_weighted(lambda y: np.ones_like(y)).value == pytest.approx(1.0, rel=1e-10)
    assert _exp_weighted(lambda y: y).value == pytest.approx(1.0, rel=1e-10)
    assert _exp_weighted(lambda y: y ** -0.5).value == pytest.approx(
        np.sqrt(np.pi), rel=1e-8)


def test_exp_weighted_moments():
    for n in (2, 3, 5):
        res = _exp_weighted(lambda y, n=n: y ** n)
        assert res.value == pytest.approx(math.factorial(n), rel=1e-10)


def test_linearity():
    f = lambda y: np.sin(y)
    g = lambda y: y ** 2
    a, b = 0.3, -1.7
    lhs = _exp_weighted(lambda y: a * f(y) + b * g(y))
    rf, rg = _exp_weighted(f), _exp_weighted(g)
    combined_err = abs(a) * rf.err_estimate + abs(b) * rg.err_estimate + lhs.err_estimate
    assert abs(lhs.value - (a * rf.value + b * rg.value)) <= combined_err + 1e-14


_BATTERY = [
    # (engine, integrand, args, exact value)
    ("fin", lambda x: x ** 3, (0.0, 2.0), 4.0),
    ("fin", lambda x: np.exp(x), (0.0, 1.0), np.e - 1.0),
    ("fin", lambda x: np.sin(x), (0.0, np.pi), 2.0),
    ("fin", lambda x: 1.0 / (1.0 + x ** 2), (0.0, 1.0), np.pi / 4.0),
    ("fin", np.log, (0.0, 1.0), -1.0),
    ("fin", lambda x: 1 / np.sqrt(x), (0.0, 4.0), 4.0),
    ("fin", lambda x: x ** -0.25, (0.0, 1.0), 4.0 / 3.0),
    ("fin", lambda x: np.cos(10 * x), (0.0, 1.0), np.sin(10.0) / 10.0),
    ("fin", lambda x: np.sqrt(x), (0.0, 1.0), 2.0 / 3.0),
    ("fin", lambda x: x * np.log(x), (0.0, 1.0), -0.25),
    ("fin", lambda x: np.exp(-x ** 2), (0.0, 10.0), 0.5 * np.sqrt(np.pi)),
    ("fin", lambda x: 1.0 / (1.0 + x) ** 2, (0.0, 100.0), 100.0 / 101.0),
    ("exp", lambda y: np.ones_like(y), None, 1.0),
    ("exp", lambda y: y ** 4, None, 24.0),
    ("exp", lambda y: y ** -0.5, None, np.sqrt(np.pi)),
    ("exp", lambda y: np.sin(y), None, 0.5),
    ("exp", lambda y: 1.0 / (1.0 + y), None, 0.596347362323194),   # e E1(1)
    ("exp", lambda y: np.cos(2 * y), None, 0.2),
    ("exp", lambda y: y ** 1.5, None, 0.75 * np.sqrt(np.pi)),   # Gamma(5/2)
    ("exp", lambda y: np.exp(-y), None, 0.5),
]


def test_error_estimate_honesty_battery():
    # true error within 10x the reported estimate in >= 95% of cases
    honest = 0
    for kind, f, args, exact in _BATTERY:
        if kind == "fin":
            res = integrate_partitioned(f, args)
        else:
            res = _exp_weighted(f)
        true_err = abs(res.value - exact)
        if true_err <= 10.0 * res.err_estimate + 1e-14:
            honest += 1
    assert honest >= math.ceil(0.95 * len(_BATTERY))


def test_gamma_2p5_frozen():
    # Gamma(5/2) = 3 sqrt(pi) / 4, used to sanity-pin the battery entry above
    res = _exp_weighted(lambda y: y ** 1.5)
    assert res.value == pytest.approx(0.75 * np.sqrt(np.pi), rel=1e-9)


def test_bessel_transform_laplace_moment():
    # int_0^inf J0(rho r) rho e^{-rho} drho = (1+r^2)^{-3/2}
    # series-summation oracle at r = 1/2 (inside the convergence radius):
    r = 0.5
    acc = 0.0
    for j in range(60):
        acc += (-(r * r) / 4.0) ** j * math.factorial(2 * j + 1) / math.factorial(j) ** 2
    assert acc == pytest.approx((1 + r * r) ** -1.5, rel=1e-13)
    res = integrate_bessel_transform(lambda rho: rho * np.exp(-rho), r)
    assert res.value == pytest.approx(acc, abs=1e-9)
    # and the closed form validated above, exercised at r = 1
    res1 = integrate_bessel_transform(lambda rho: rho * np.exp(-rho), 1.0)
    assert res1.value == pytest.approx(2.0 ** -1.5, abs=1e-9)


def test_bessel_transform_compact_support_consistency():
    a = 3.0
    g = lambda rho: np.where(rho <= a, rho * (a - rho), 0.0)
    res = integrate_bessel_transform(g, 1.3)
    from frachelm.specfun import bessel_j0
    ref = integrate_partitioned(lambda rho: bessel_j0(1.3 * rho) * g(rho), [0.0, a])
    assert res.value == pytest.approx(ref.value, abs=1e-10)


def test_bessel_transform_slow_tail_doubling(monkeypatch):
    # rho/(rho^2+a^2) tail: doubling the interval count changes the value by
    # no more than the reported estimate
    g = lambda rho: rho / (rho ** 2 + 2.0)
    base = integrate_bessel_transform(g, 1.0)
    monkeypatch.setattr(quad, "_BESSEL_INTERVALS", 60)
    fine = integrate_bessel_transform(g, 1.0)
    assert abs(base.value - fine.value) <= base.err_estimate + fine.err_estimate


def test_bessel_transform_vanishing_integrand():
    # rho * F~_1 at s = 1/2 is identically zero, so its transform is zero
    from frachelm.kernels import F_tilde_m
    res = integrate_bessel_transform(
        lambda rho: rho * F_tilde_m(rho, 1.0 + 0j, 0.5, 1), 1.0)
    assert abs(res.value) < 1e-11


def test_bessel_transform_insufficient_decay():
    with pytest.raises(AccuracyError):
        integrate_bessel_transform(lambda rho: rho ** 2, 1.0)


def test_bessel_transform_domain():
    with pytest.raises(DomainError):
        integrate_bessel_transform(lambda rho: rho, 0.0)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(DomainError):
            integrate_bessel_transform(lambda rho: rho * np.exp(-rho), np.array([1.0, bad]))


def test_bessel_transform_radii_are_columns():
    # int_0^inf J0(rho r) rho e^{-rho} drho = (1+r^2)^{-3/2}, one column per r,
    # each with its own error estimate
    radii = np.array([0.01, 0.5, 1.0, 30.0])
    res = integrate_bessel_transform(lambda rho: rho * np.exp(-rho), radii)
    assert res.value.shape == res.err_estimate.shape == radii.shape
    assert np.all(np.abs(res.value - (1 + radii ** 2) ** -1.5) <= 1e-9)
    for i, r in enumerate(radii):
        single = integrate_bessel_transform(lambda rho: rho * np.exp(-rho), r)
        assert abs(res.value[i] - single.value) <= res.err_estimate[i] + single.err_estimate


def test_bessel_transform_decay_check_per_column():
    # a growing column trips the check even beside a well-behaved one
    g = lambda rho: np.stack([rho[:, 0] * np.exp(-rho[:, 0]), rho[:, 1] ** 2], axis=1)
    with pytest.raises(AccuracyError):
        integrate_bessel_transform(g, np.array([0.5, 1.0]))


def test_bessel_transform_tabulates_j0_once_per_panel(monkeypatch):
    # the partition and its bisections are fixed in t = rho r, so a repeated
    # call reads every J0 panel from the table and calls bessel_j0 no more;
    # the panels one integrand call misses take one bessel_j0 call
    import frachelm.quadrature as quad
    from frachelm.specfun import bessel_j0
    calls = []
    monkeypatch.setattr(quad, "bessel_j0", lambda x: calls.append("j0") or bessel_j0(x))
    quad._j0_panels.panels.clear()
    g = lambda rho: rho * np.exp(-rho)
    radii = np.array([0.3, 1.0, 4.0])
    first = integrate_bessel_transform(lambda rho: calls.append("f") or g(rho), radii)
    assert "j0" in calls and ("j0", "j0") not in zip(calls, calls[1:])
    calls.clear()
    second = integrate_bessel_transform(g, radii)
    assert calls == []
    assert np.array_equal(first.value, second.value)
    for i, r in enumerate(radii):
        ref = integrate_partitioned(lambda rho: bessel_j0(r * rho) * g(rho), [0.0, 60.0])
        assert abs(second.value[i] - ref.value) <= second.err_estimate[i] + ref.err_estimate
    table = list(quad._j0_panels.panels)
    assert 0 < len(table) <= quad._j0_panels.size == quad._J0_PANELS
    # the e^{-y} engine takes no weight and leaves the table alone
    _exp_weighted(lambda y: 1.0 / (1.0 + y))
    assert list(quad._j0_panels.panels) == table


def test_oscillatory_cos_known_value():
    # int_0^inf cos(x)/(1+x^2) dx = pi/(2 e)
    res = integrate_partitioned(lambda x: np.cos(x) / (1 + x ** 2),
                                np.r_[0.0, (np.arange(1, 41) - 0.5) * np.pi])
    assert res.value == pytest.approx(np.pi / (2 * np.e), abs=1e-9)


def test_oscillatory_sin_known_value():
    # int_0^inf x sin(x)/(1+x^2) dx = pi/(2 e)
    res = integrate_partitioned(lambda x: x * np.sin(x) / (1 + x ** 2),
                                np.r_[0.0, np.arange(1, 61) * np.pi])
    assert res.value == pytest.approx(np.pi / (2 * np.e), abs=1e-8)


@pytest.mark.parametrize("breakpoints", [
    [1.0], [], [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf], [1.0, 0.0], [0.0, 1.0, 1.0],
    [0.0, 1j], ["0", "1"], [False, True],
])
def test_partitioned_breakpoint_validation(breakpoints):
    with pytest.raises(DomainError):
        integrate_partitioned(lambda x: x, breakpoints)


def test_partitioned_two_points_is_one_adaptive_interval():
    # [a, b] is the adaptive engine on one interval, bit for bit; a batched
    # integrand gets one value and one error per column
    spec = QuadratureSpec(rel_tol=1e-11)
    f = lambda x: np.stack([np.sqrt(x), np.cos(3.0 * x)], axis=1)
    val, err, evals = _adaptive_batch(f, 0.0, 2.0, spec)
    res = integrate_partitioned(f, [0.0, 2.0], spec)
    assert np.array_equal(res.value, val) and np.array_equal(res.err_estimate, err)
    assert res.evaluations == evals
    val, err, evals = _adaptive_batch(np.sqrt, 0.0, 2.0, spec)
    one = integrate_partitioned(np.sqrt, [0.0, 2.0], spec)
    assert (one.value, one.err_estimate, one.evaluations) == (val[0], err[0], evals)
    assert type(one.value) is complex and type(one.err_estimate) is float


def test_kronrod_panel_rule():
    # K15 is exact to degree 23, and its embedded G7 (the odd nodes) to
    # degree 13 with the nodes and weights of gauss_legendre(7)
    import frachelm.quadrature as quad
    from frachelm.specfun import gauss_legendre
    x = quad._KRONROD_NODES
    k15, diff = quad._KRONROD_WEIGHTS
    g7 = k15 - diff
    gx, gw = gauss_legendre(7)
    assert np.allclose(x[1::2], gx, rtol=0.0, atol=1e-15)
    assert np.allclose(g7[1::2], gw, rtol=0.0, atol=1e-15)
    assert np.all(g7[::2] == 0.0)
    exact = lambda d: 2.0 / (d + 1) if d % 2 == 0 else 0.0
    for d in range(24):
        assert abs(k15 @ x ** d - exact(d)) <= 1e-15
    for d in range(14):
        assert abs(g7 @ x ** d - exact(d)) <= 1e-15


# one integrand call per panel estimate: the engine before the lookahead, kept
# as the reference its panels, values and errors must match bit for bit

def _reference_panel(f, a, b, weight=None):
    x, half = quad._panel_nodes(a, b)
    fx = quad._as_batch(f(x), x.size)
    if weight is not None:
        fx = weight(np.array([a]), np.array([b]))[0][:, None] * fx
    val, diff = half * (quad._KRONROD_WEIGHTS @ fx)
    return val, np.abs(diff), x.size


def _reference_adaptive(f, a, b, spec, abs_tol=None, weight=None):
    rel = spec.rel_tol
    atol = spec.abs_tol if abs_tol is None else abs_tol
    val, err, evals = _reference_panel(f, a, b, weight)
    total_val, total_err = val.copy(), err.copy()
    tol = np.maximum(atol, rel * np.abs(total_val))
    counter = 0
    heap = [(-float((err / tol).max()), counter, a, b, val, err)]
    npanels = 1
    while not np.all(total_err <= tol):
        if npanels >= spec.max_subdiv or not heap:
            raise AccuracyError("no convergence", value=total_val,
                                err_estimate=float(total_err.max()))
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lval, lerr, ev1 = _reference_panel(f, pa, pm, weight)
        rval, rerr, ev2 = _reference_panel(f, pm, pb, weight)
        evals += ev1 + ev2
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        total_err = np.maximum(total_err, 0.0)
        tol = np.maximum(atol, rel * np.abs(total_val))
        counter += 1
        heapq.heappush(heap, (-float((lerr / tol).max()), counter, pa, pm, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-float((rerr / tol).max()), counter, pm, pb, rval, rerr))
        npanels += 1
    return total_val, total_err, evals


def _reference_partitioned(f, breakpoints, spec, weight=None):
    pts = np.asarray(breakpoints, dtype=float)
    per_panel_abs = spec.abs_tol / max(1, len(pts) - 1)
    cells, errs, evals = [], 0.0, 0
    for a, b in zip(pts[:-1], pts[1:]):
        v, e, ev = _reference_adaptive(f, a, b, spec, abs_tol=per_panel_abs, weight=weight)
        cells.append(v)
        errs = errs + e
        evals += ev
    cells = np.array(cells)
    head, tail = cells[0], cells[1:]
    limit, accel_err = iterated_average(np.cumsum(tail, axis=0))
    return head + limit, errs + accel_err, evals, np.abs(tail)


def _use_reference(monkeypatch, calls=None):
    """Route the engines through the reference loop; with a list, record one
    entry per integrand call of the adaptive engine."""
    def counted(f):
        return f if calls is None else (lambda x: calls.append(1) or f(x))
    monkeypatch.setattr(quad, "_adaptive_batch",
                        lambda f, *a, **k: _reference_adaptive(counted(f), *a, **k))
    monkeypatch.setattr(quad, "_integrate_partitioned",
                        lambda f, *a, **k: _reference_partitioned(counted(f), *a, **k))


def _recording(f, calls):
    """f, recording (points, columns) of each call."""
    def rec(x):
        out = f(x)
        calls.append((np.shape(x)[0], 1 if np.ndim(out) == 1 else np.shape(out)[1]))
        return out
    return rec


_TWO_COLUMNS = lambda x: np.stack([1e8 * np.exp(x), 1e-8 * np.sqrt(x)], axis=1)
_LOOKAHEAD_CASES = [
    # (integrand, interval, spec)
    (lambda x: 1.0 / np.sqrt(x), (0.0, 1.0), QuadratureSpec()),
    (_TWO_COLUMNS, (0.0, 1.0), QuadratureSpec(rel_tol=1e-12, abs_tol=1e-30)),
    (lambda x: np.log(x) * np.cos(x), (0.0, 3.0), QuadratureSpec(rel_tol=1e-12)),
]


@pytest.mark.parametrize("f, ab, spec", _LOOKAHEAD_CASES,
                         ids=["inv_sqrt", "two_columns", "log_cos"])
def test_adaptive_batch_estimates_the_left_end_cascade_ahead(f, ab, spec):
    # the same panels, values and errors as one call per panel, in fewer calls
    # of at most _CALL_POINTS point-columns; evaluations count every point
    calls = []
    val, err, evals = _adaptive_batch(_recording(f, calls), *ab, spec)
    ref_calls = []
    ref_val, ref_err, ref_evals = _reference_adaptive(_recording(f, ref_calls), *ab, spec)
    assert np.array_equal(val, ref_val) and np.array_equal(err, ref_err)
    assert evals == sum(n for n, _ in calls) >= ref_evals
    cols = calls[0][1]
    assert max(n * c for n, c in calls) <= max(30 * cols, quad._CALL_POINTS)
    assert 1 < len(calls) <= len(ref_calls) // 2


def test_exp_weighted_head_matches_one_call_per_panel(monkeypatch):
    # a y^{2s-1}-type singularity at y = 0, as in the 1D and 3D tails
    f = lambda y: np.stack([y ** -0.4, y ** 0.6 * np.cos(3.0 * y)], axis=1)
    spec = QuadratureSpec(rel_tol=1e-11)
    calls = []
    val, err, evals = _exp_weighted_batch(_recording(f, calls), spec, 10.0)
    assert evals == sum(n for n, _ in calls)
    _use_reference(monkeypatch)
    ref_val, ref_err, _ = _exp_weighted_batch(f, spec, 10.0)
    assert np.array_equal(val, ref_val) and np.array_equal(err, ref_err)


@pytest.mark.parametrize("nradii", [1, 3, 70, 200])
def test_bessel_transform_matches_one_call_per_panel(monkeypatch, nradii):
    # the J0-weighted partition: every cell's first panel in as few calls as
    # the budget allows, the head cell's cascade ahead; 70 radii take one
    # lookahead level per call, 200 one cell per call
    radii = np.geomspace(0.05, 40.0, nradii)
    g = lambda rho: rho ** 0.5 * np.exp(-rho)
    calls = []
    res = integrate_bessel_transform(_recording(g, calls), radii)
    assert res.evaluations == sum(n for n, _ in calls)
    assert max(n * c for n, c in calls) <= max(30 * nradii, quad._CALL_POINTS)
    _use_reference(monkeypatch)
    ref = integrate_bessel_transform(g, radii)
    assert np.array_equal(res.value, ref.value)
    assert np.array_equal(res.err_estimate, ref.err_estimate)


def test_green_rows_take_at_most_half_the_integrand_calls(monkeypatch, no_panels):
    # a green-sweep 1D row and a 2D transform at 3 radii, with the radial
    # table off: the adaptive engine calls the integrand at most half as often
    # as with one call per panel, and every value is the same
    from frachelm.green import green_eval_batch
    from frachelm.kernels import Problem
    rows = [(Problem(1, 0.3, 1.0), np.geomspace(10.0, 1e4, 9)),
            (Problem(2, 0.3, 1.0), np.array([0.3, 2.0, 15.0]))]
    estimate = quad._panel_estimates
    for p, radii in rows:
        calls, ref_calls = [], []
        with no_panels(), monkeypatch.context() as m:
            m.setattr(quad, "_panel_estimates",
                      lambda *a, **k: calls.append(1) or estimate(*a, **k))
            got = green_eval_batch(p, 0.0, radii)
        with no_panels(), monkeypatch.context() as m:
            _use_reference(m, ref_calls)
            ref = green_eval_batch(p, 0.0, radii)
        assert all(np.array_equal(u, v) for u, v in zip(got, ref))
        assert 0 < len(calls) <= len(ref_calls) // 2


def test_partitioned_cells_within_tolerance_skip_the_adaptive_loop(monkeypatch):
    # a cell whose first estimate meets its share of the tolerance is done
    # without the adaptive loop; values and errors as if it ran, and the
    # count is every point the integrand was called at
    f = lambda x: np.cos(x) / (1.0 + x ** 2)
    pts = np.r_[0.0, (np.arange(1, 41) - 0.5) * np.pi]
    ran, calls = [], []
    with monkeypatch.context() as m:
        m.setattr(quad, "_adaptive_batch",
                  lambda *a, **k: ran.append(1) or _adaptive_batch(*a, **k))
        got = integrate_partitioned(_recording(f, calls), pts)
    assert 0 < len(ran) < pts.size - 1
    assert got.evaluations == sum(n for n, _ in calls)
    _use_reference(monkeypatch)
    ref = integrate_partitioned(f, pts)
    assert got.value == ref.value and got.err_estimate == ref.err_estimate
