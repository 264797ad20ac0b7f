"""Fourier-inversion oracle tests: dual-path agreement and self-consistency."""

import numpy as np
import pytest

from frachelm.errors import DomainError
from frachelm.green import green_eval
from frachelm.kernels import Problem, classify_regime, spectral_shift
from frachelm.oracle import fourier_invert, fourier_invert_detailed
from frachelm.quadrature import QuadratureSpec, integrate_partitioned
from frachelm.specfun import riesz_constant


def test_requires_positive_absorption():
    p = Problem(1, 0.75, 1.0)
    with pytest.raises(DomainError):
        fourier_invert(p, spectral_shift(p, 0.0), 1.0)
    with pytest.raises(DomainError):
        fourier_invert(p, None, 1.0)
    with pytest.raises(DomainError):
        fourier_invert(p, 0.0, 1.0)
    # a float epsilon is accepted as green_eval accepts it; radii are finite
    sh = spectral_shift(p, 0.3)
    assert fourier_invert(p, 0.3, 1.0) == fourier_invert(p, sh, 1.0)
    # one radius: an array of them, even of one, is not accepted
    for r in (np.inf, np.nan, np.array([1.0, 2.0]), np.array([1.0])):
        with pytest.raises(DomainError):
            fourier_invert(p, sh, r)
    # the radius and a float epsilon are real numbers: not text, a bool or complex
    for bad_r, bad_eps in (("2.0", "0.3"), (True, True), (np.array(2.0 + 0j), np.array(0.3 + 0j))):
        with pytest.raises(DomainError):
            fourier_invert(p, sh, bad_r)
        with pytest.raises(DomainError):
            fourier_invert(p, bad_eps, 1.0)
    # one epsilon: an array of them, even of one, is not accepted
    for bad_eps in (np.array([0.3, 0.4]), np.array([0.3])):
        with pytest.raises(DomainError):
            fourier_invert(p, bad_eps, 1.0)


@pytest.mark.parametrize("n,s", [(1, 0.75), (1, 0.25), (2, 0.3), (3, 0.5)])
def test_green_agreement_sample(n, s):
    p = Problem(n, s, 1.0)
    sh = spectral_shift(p, 0.3)
    for r in (0.5, 2.0):
        g = green_eval(p, sh, r)
        o = fourier_invert(p, sh, r)
        assert abs(g.total - o) / abs(g.total) < 1e-6


@pytest.mark.parametrize("count", [True, 4.5, 3, -3])
def test_intervals_must_be_an_integer_of_at_least_4(count):
    p = Problem(2, 0.75, 1.0)
    with pytest.raises(DomainError, match="intervals must be an integer >= 4"):
        fourier_invert_detailed(p, 0.3, 1.0, intervals=count)


def test_self_consistency_under_doubling():
    p = Problem(3, 0.3, 1.0)
    sh = spectral_shift(p, 0.3)
    a = fourier_invert_detailed(p, sh, 2.0, intervals=30)
    b = fourier_invert_detailed(p, sh, 2.0, intervals=60)
    assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate


def test_even_integrand_half_line_reduction():
    # (1/2pi) int_R e^{i xi r}/(|xi|^{2s}-kc) d xi computed from the two
    # exponential halves equals the cosine reduction
    p = Problem(1, 0.75, 1.0)
    sh = spectral_shift(p, 0.5)
    kc2s = p.k2s + 1j * sh.epsilon
    r = 1.3

    def via_exponentials(x):
        sym = 1.0 / (x.astype(complex) ** (2 * p.s) - kc2s)
        return (np.exp(1j * x * r) + np.exp(-1j * x * r)) * sym / 2.0

    res = integrate_partitioned(via_exponentials,
                                np.r_[0.0, (np.arange(1, 41) - 0.5) * np.pi / r])
    direct = fourier_invert_detailed(p, sh, r, intervals=40).value
    assert res.value / np.pi == pytest.approx(direct, rel=1e-9)


def test_large_absorption_against_plain_adaptive():
    # eps large: the pole sits far from the axis; a plain truncated adaptive
    # integral plus an analytic tail bound must agree with the accelerated path
    p = Problem(1, 0.75, 1.0)
    sh = spectral_shift(p, 5.0)
    kc2s = p.k2s + 1j * sh.epsilon
    r = 1.0
    cutoff = 2000.0

    def integrand(x):
        return np.cos(x * r) / (x.astype(complex) ** (2 * p.s) - kc2s)

    head = integrate_partitioned(integrand, [0.0, cutoff], QuadratureSpec(rel_tol=1e-10))
    # |tail| <= int_cutoff^inf x^{-2s} dx / pi-normalization margin
    tail_bound = cutoff ** (1 - 2 * p.s) / (2 * p.s - 1)
    accel = fourier_invert_detailed(p, sh, r)
    assert abs(head.value / np.pi - accel.value) <= \
        2.0 * (head.err_estimate + accel.err_estimate + tail_bound / np.pi)


def test_riesz_subtraction_respects_1d_integer_branch():
    # on the 1D 1/(2s)-integer branch the last Riesz add-back has no valid
    # closed form (2 s m = n); the oracle must still match green
    p = Problem(1, 0.25, 1.0)
    assert classify_regime(p.s).m == 2
    with pytest.raises(DomainError):
        riesz_constant(1, 0.25, 1)   # the invalid last term
    sh = spectral_shift(p, 0.3)
    g = green_eval(p, sh, 1.0)
    o = fourier_invert(p, sh, 1.0)
    assert abs(g.total - o) / abs(g.total) < 1e-7


def test_green_agreement_at_half_absorption():
    # extra absorption sample midway between the grid values
    for n in (1, 2, 3):
        for s in (0.3, 0.75):
            p = Problem(n, s, 1.0)
            sh = spectral_shift(p, 0.5)
            g = green_eval(p, sh, 1.0)
            o = fourier_invert(p, sh, 1.0)
            assert abs(g.total - o) / abs(g.total) < 1e-6


def test_extreme_orders_and_absorption():
    # deep LOW_INTEGER branch (s = 0.05, m = 10) and a strongly absorbing
    # HIGH-branch case; both must stay on the dual-path agreement contract
    p = Problem(1, 0.05, 1.0)
    assert classify_regime(0.05).m == 10
    sh = spectral_shift(p, 0.1)
    g = green_eval(p, sh, 0.7)
    assert abs(g.total - fourier_invert(p, sh, 0.7)) / abs(g.total) < 1e-6
    p = Problem(2, 0.9, 1.0)
    sh = spectral_shift(p, 50.0)
    g = green_eval(p, sh, 0.5)
    assert abs(g.total - fourier_invert(p, sh, 0.5)) / abs(g.total) < 1e-6
