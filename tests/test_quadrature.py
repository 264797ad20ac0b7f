"""Quadrature engine tests: known values, linearity, error honesty."""

import math

import numpy as np
import pytest

from frachelm.errors import AccuracyError, DomainError
from frachelm.quadrature import (
    QuadratureSpec, QuadResult, _exp_weighted_batch, integrate_adaptive,
    integrate_bessel_transform, integrate_oscillatory,
)


def _exp_weighted(f):
    """int_0^inf e^{-y} f(y) dy from the batched engine green uses, with its
    default head cut y_cut = 10."""
    val, err, evals = _exp_weighted_batch(f, QuadratureSpec(), 10.0)
    return QuadResult(complex(val[0]), float(err.max()), evals)


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(laguerre_order=2)
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=bad)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=bad)


def test_adaptive_trivial_examples():
    assert integrate_adaptive(lambda x: x ** 2, 0, 1).value == pytest.approx(1 / 3, rel=1e-12)
    assert integrate_adaptive(np.log, 0, 1).value == pytest.approx(-1.0, abs=1e-8)
    assert integrate_adaptive(lambda x: 1 / np.sqrt(x), 0, 1).value == pytest.approx(2.0, abs=1e-8)


def test_adaptive_domain():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, 1.0, 1.0)


def test_adaptive_max_subdiv():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_subdiv=8)
    with pytest.raises(AccuracyError) as exc:
        integrate_adaptive(lambda x: 1 / np.sqrt(x), 0, 1, spec)
    assert exc.value.value is not None   # best estimate is carried


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
            res = integrate_adaptive(f, *args)
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
    ref = integrate_adaptive(lambda rho: bessel_j0(1.3 * rho) * g(rho), 0.0, a)
    assert res.value == pytest.approx(ref.value, abs=1e-10)


def test_bessel_transform_slow_tail_doubling():
    # rho/(rho^2+a^2) tail: doubling the interval count changes the value by
    # no more than the reported estimate
    g = lambda rho: rho / (rho ** 2 + 2.0)
    base = integrate_bessel_transform(g, 1.0, QuadratureSpec(bessel_intervals=30))
    fine = integrate_bessel_transform(g, 1.0, QuadratureSpec(bessel_intervals=60))
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


def test_oscillatory_cos_known_value():
    # int_0^inf cos(x)/(1+x^2) dx = pi/(2 e)
    res = integrate_oscillatory(lambda x: np.cos(x) / (1 + x ** 2), 1.0, "cos",
                                intervals=40)
    assert res.value == pytest.approx(np.pi / (2 * np.e), abs=1e-9)


def test_oscillatory_sin_known_value():
    # int_0^inf x sin(x)/(1+x^2) dx = pi/(2 e)
    res = integrate_oscillatory(lambda x: x * np.sin(x) / (1 + x ** 2), 1.0, "sin",
                                intervals=60)
    assert res.value == pytest.approx(np.pi / (2 * np.e), abs=1e-8)


def test_oscillatory_unknown_kind():
    with pytest.raises(DomainError):
        integrate_oscillatory(lambda x: x, 1.0, "sinc")
