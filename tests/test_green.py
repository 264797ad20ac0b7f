"""Green's-function assembly tests: closed forms, derivatives, asymptotics."""

import math
import warnings

import numpy as np
import pytest

from frachelm import green
from frachelm.errors import DomainError
from frachelm.green import (
    _helm_rel, green_closed_form_3d_half, green_eval, green_eval_batch, green_radial_derivative,
    src_residual,
)
from frachelm.kernels import Problem, classify_regime, helm_part, helm_part_dr, spectral_shift
from frachelm.quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_partitioned
from frachelm.specfun import bessel_j0, bessel_j1, expint_e1, hankel1_0, j0_zeros

# a looser spec than DEFAULT_SPEC, at which the derivative tests also run:
# the far series serves fewer bracket powers there, and a shared batch
# refines differently from a single radius
LOOSE_SPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-11)


# orders within 1e-12 of a 1/(2s)-integer boundary, which snap to the
# LOW_INTEGER branch (in 2D, the corrected kernel and the Struve term)
NEAR_INTEGER_BRANCH = tuple(s + d for s in (0.5, 0.25, 1.0 / 6.0) for d in (-5e-13, 5e-13))


def struve_h0_series(z, terms=60):
    acc = 0.0
    for k in range(terms):
        acc += (-1.0) ** k * (z / 2.0) ** (2 * k + 1) / math.gamma(k + 1.5) ** 2
    return acc


def green_closed_form_3d_half_dr(k, r):
    """Radial derivative of the s = 1/2, n = 3 closed form (test oracle)."""
    a = np.exp(1j * k * r) * expint_e1(1j * k * r)
    b = np.exp(-1j * k * r) * expint_e1(-1j * k * r)
    diff = a - b
    ddiff = 1j * k * (a + b)  # the 1/r terms from E1' cancel pairwise
    return complex(-1.0 / (np.pi ** 2 * r ** 3)
                   - 1j * k / (4.0 * np.pi ** 2) * (ddiff / r - diff / r ** 2)
                   + k * (1j * k / r - 1.0 / r ** 2) * np.exp(1j * k * r) / (2.0 * np.pi))


def test_low_integer_radius_near_the_window_edge_converges():
    # r/kc - 1 just inside the old 1e-3 Taylor-window edge, where the closed
    # form of F_m had lost 6e-10 and the adaptive engine ran out of panels
    p, r = Problem(2, 1.0 / 6.0, 1.3), np.array([2.9572463768115944])
    helm, riesz, tail, err = green_eval_batch(p, 0.0, r)
    total = helm + riesz + tail
    assert np.all(np.isfinite(total))
    assert err[0] <= QuadratureSpec().rel_tol * abs(total[0])


def test_closed_form_agreement_3d_half():
    p = Problem(3, 0.5, 1.0)
    for r in (0.1, 1.0, 10.0):
        g = green_eval(p, 0.0, r)
        c = green_closed_form_3d_half(1.0, r)
        assert abs(g.total - c) / abs(c) < 1e-8


def test_closed_form_small_r_riesz_dominates():
    k = 1.0
    for r in (1e-4, 1e-5):
        val = green_closed_form_3d_half(k, r)
        assert val.real == pytest.approx(1.0 / (2.0 * np.pi ** 2 * r ** 2), rel=1e-2)


def test_closed_form_nonhelm_decay_r4():
    # first two terms decay like r^{-4}: r^4 |part| bounded over [10, 1e4]
    from frachelm.specfun import expint_e1, hankel1_0
    k = 1.0
    prods = []
    for r in np.logspace(1, 4, 10):
        a = np.exp(1j * k * r) * expint_e1(1j * k * r)
        b = np.exp(-1j * k * r) * expint_e1(-1j * k * r)
        part = 1.0 / (2 * np.pi ** 2 * r ** 2) - 1j * k / (4 * np.pi ** 2 * r) * (a - b)
        prods.append(abs(part) * r ** 4)
    prods = np.array(prods)
    assert np.max(prods) / prods[0] < 10.0


def test_decomposition_additivity():
    p = Problem(2, 0.3, 1.0)
    g = green_eval(p, 0.3, 1.3)
    assert g.total == g.helm + g.riesz_sum + g.j_tail


def test_riesz_sum_zero_on_high_branch_and_1d():
    g = green_eval(Problem(2, 0.75, 1.0), 0.0, 1.0)
    assert g.riesz_sum == 0.0
    g = green_eval(Problem(1, 0.25, 1.0), 0.0, 1.0)
    assert g.riesz_sum == 0.0


def test_batch_matches_scalar():
    # s covers LOW_INTEGER, LOW_GENERIC, the Struve-only s = 1/2 case and HIGH
    radii = np.array([0.5, 1.0, 2.0])
    for n in (1, 2, 3):
        for s in (0.25, 0.3, 0.5, 0.75):
            p = Problem(n, s, 1.0)
            helm, riesz, jt, err = green_eval_batch(p, 0.0, radii)
            for i, r in enumerate(radii):
                g = green_eval(p, 0.0, float(r))
                assert g.total == pytest.approx(complex(helm[i] + riesz[i] + jt[i]),
                                                rel=1e-8), (n, s, r)


@pytest.mark.parametrize("s", [0.25, 0.3, 0.75])
def test_2d_wide_batch_matches_per_radius(s):
    # the worst column drives the shared refinement; every column must still
    # agree with its own single-radius evaluation within the two estimates
    p = Problem(2, s, 1.0)
    radii = np.logspace(-3, 4, 25)
    _, _, jt, err = green_eval_batch(p, 0.0, radii)
    for i, r in enumerate(radii):
        _, _, jt1, err1 = green_eval_batch(p, 0.0, np.array([r]))
        assert abs(jt[i] - jt1[0]) <= err[i] + err1[0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_derivative_array_matches_scalar(n):
    # a shared batch refines differently from a single radius, within the
    # tolerance
    p = Problem(n, 0.3, 1.0)
    radii = np.array([0.3, 1.0, 1.0005, 4.0])
    for spec in (DEFAULT_SPEC, LOOSE_SPEC):
        d = green_radial_derivative(p, 0.0, radii, spec)
        assert d.shape == radii.shape
        for i, r in enumerate(radii):
            assert d[i] == pytest.approx(green_radial_derivative(p, 0.0, float(r), spec),
                                         rel=spec.rel_tol)


def test_domain_errors():
    p = Problem(1, 0.3, 1.0)
    with pytest.raises(DomainError):
        green_eval(p, 0.0, -1.0)
    with pytest.raises(DomainError):
        green_eval(p, 0.0, 0.0)
    # non-finite radii are rejected up front, never integrated
    for n in (1, 2, 3):
        p = Problem(n, 0.3, 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                green_eval_batch(p, 0.0, np.array([1.0, bad]))
            with pytest.raises(DomainError):
                green_radial_derivative(p, 0.0, bad)
            with pytest.raises(DomainError):
                green_radial_derivative(p, 0.0, np.array([1.0, bad]))
            with pytest.raises(DomainError):
                src_residual(p, bad)
        # green_eval takes one radius, not an array; src_residual takes one
        # radius or a 1-D array of them, not a 2-D one
        for bad in (np.array([1e2, 1e3]), np.array([1e2]), np.array([[1e2]])):
            with pytest.raises(DomainError):
                green_eval(p, 0.0, bad)
        with pytest.raises(DomainError):
            src_residual(p, np.array([[1e2]]))
        for radii in (np.array([1e2, 1e3]), np.array([1e2])):
            g = sum(green_eval_batch(p, 0.0, radii)[:3]).tolist()
            dg = green_radial_derivative(p, 0.0, radii).tolist()
            assert src_residual(p, radii).tolist() == [
                r ** ((n - 1) / 2.0) * abs(d - 1j * p.k * v)
                for r, v, d in zip(radii.tolist(), g, dg)]
        # a 0-d array is one radius
        assert green_eval(p, 0.0, np.array(2.0)) == green_eval(p, 0.0, 2.0)
        # radii and shifts are real numbers: a string is not parsed, a bool
        # is not 1, and a complex radius does not lose its imaginary part
        # (a DomainError, before any NumPy warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in ("2.0", True, np.True_, np.array(2.0 + 0j)):
                for call in (green_eval, green_radial_derivative):
                    with pytest.raises(DomainError):
                        call(p, 0.0, bad)
                    with pytest.raises(DomainError):
                        call(p, bad, 2.0)
                with pytest.raises(DomainError):
                    src_residual(p, bad)
            for bad in (["1", "2"], np.array([True, True]), np.array([1.0 + 1j, 2.0]),
                        np.array([1.0, None], dtype=object)):
                with pytest.raises(DomainError):
                    green_eval_batch(p, 0.0, bad)
                with pytest.raises(DomainError):
                    green_radial_derivative(p, 0.0, bad)
            # a ragged list, as radius or shift, is refused before NumPy reads it
            ragged = [[1.0, 2.0], [3.0]]
            for call in (green_eval, green_eval_batch, green_radial_derivative, src_residual):
                with pytest.raises(DomainError):
                    call(p, 0.0, ragged) if call is not src_residual else call(p, ragged)
            with pytest.raises(DomainError):
                green_eval(p, ragged, 2.0)
            with pytest.raises(DomainError):
                green_eval_batch(p, ragged, np.array([1.0, 2.0]))
        # integers are real numbers
        assert green_eval(p, 0, 2) == green_eval(p, 0.0, 2.0)
        # the batch entry points take a nonempty 1-D array
        for bad in (np.array([[1.0, 2.0]]), np.array([])):
            with pytest.raises(DomainError):
                green_eval_batch(p, 0.0, bad)
            with pytest.raises(DomainError):
                green_radial_derivative(p, 0.0, bad)
    # so are a non-finite wavenumber or radius of the s = 1/2 closed form
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            green_closed_form_3d_half(bad, 1.0)
        with pytest.raises(DomainError):
            green_closed_form_3d_half(1.0, bad)


@pytest.mark.parametrize("n,s", [(1, 0.3), (1, 0.75), (2, 0.5), (2, 0.75),
                                 (3, 0.25), (3, 0.6)])
def test_radial_derivative_vs_finite_difference(n, s):
    p = Problem(n, s, 1.0)
    r, h = 2.0, 1e-5
    d = green_radial_derivative(p, 0.0, r)
    fd = (green_eval(p, 0.0, r + h).total - green_eval(p, 0.0, r - h).total) / (2 * h)
    assert d == pytest.approx(fd, rel=1e-6)


def test_a_shift_must_be_the_problems_own():
    # a SpectralShift built for another k, or by hand, would be evaluated
    # with a k_eps that is not the problem's: every entry point refuses it
    from frachelm.kernels import SpectralShift
    from frachelm.oracle import fourier_invert
    p = Problem(2, 0.3, 2.0)
    calls = (lambda sh: green_eval(p, sh, 1.5),
             lambda sh: green_eval_batch(p, sh, np.array([1.5, 3.0])),
             lambda sh: green_radial_derivative(p, sh, 1.5),
             lambda sh: fourier_invert(p, sh, 1.5))
    for bad in (spectral_shift(Problem(2, 0.3, 1.0), 0.1), SpectralShift(0.1, 5.0 + 0j),
                SpectralShift(0.0, 1.0 + 0j)):
        for call in calls:
            with pytest.raises(DomainError):
                call(bad)
    # the problem's own shift, also that of another dimension, gives the
    # bits of its float epsilon
    for own in (spectral_shift(p, 0.1), spectral_shift(Problem(3, 0.3, 2.0), 0.1)):
        for call in calls:
            got, want = call(own), call(0.1)
            assert all(map(np.array_equal, got, want)) if isinstance(got, tuple) else got == want


def test_radial_derivative_absorption_case():
    p = Problem(2, 0.3, 1.0)
    sh = spectral_shift(p, 0.4)
    r, h = 1.5, 1e-5
    d = green_radial_derivative(p, sh, r)
    fd = (green_eval(p, sh, r + h).total - green_eval(p, sh, r - h).total) / (2 * h)
    assert d == pytest.approx(fd, rel=1e-6)


def test_derivative_3d_closed_form_half():
    p = Problem(3, 0.5, 1.0)
    for r in (0.5, 2.0):
        d = green_radial_derivative(p, 0.0, r)
        dref = green_closed_form_3d_half_dr(1.0, r)
        assert d == pytest.approx(dref, rel=1e-6)
    # the closed-form derivative itself against finite differences
    h = 1e-6
    fd = (green_closed_form_3d_half(1.0, 2.0 + h)
          - green_closed_form_3d_half(1.0, 2.0 - h)) / (2 * h)
    assert green_closed_form_3d_half_dr(1.0, 2.0) == pytest.approx(fd, rel=1e-8)


def test_helm_derivative_3d_closed_form_example():
    # d/dr [e^{ikr}/(4 pi r)] * k^{2-2s}/s = (ik/r - 1/r^2) e^{ikr} k^{2-2s}/(4 pi s)
    s, k, r = 0.75, 1.3, 2.1
    expect = k ** (2 - 2 * s) / s * (1j * k / r - 1.0 / r ** 2) \
        * np.exp(1j * k * r) / (4 * np.pi)
    assert helm_part_dr(3, s, complex(k), r) == pytest.approx(expect, rel=1e-12)


def test_src_residual_1d_helm_exactly_outgoing():
    # d_r e^{ikr} = ik e^{ikr}: the 1D helm part alone has zero SRC residual
    s, k = 0.3, 1.0
    for r in (1.0, 10.0, 100.0):
        h = helm_part(1, s, complex(k), r)
        dh = helm_part_dr(1, s, complex(k), r)
        assert abs(dh - 1j * k * h) < 1e-14 * abs(h)


def test_src_residual_decreasing():
    p = Problem(3, 0.5, 1.0)
    res = [src_residual(p, r) for r in (1e2, 1e3)]
    assert res[1] < res[0]


_SRC_RADII = np.geomspace(1e-3, 3e3, 15)
# (n, s, k, index into _SRC_RADII) where the far series serves the value
# (power 1) but not the derivative (power 2 misses its tolerance)
_SRC_SPLIT = ((1, 1.0 / 6.0, 0.7, 10), (1, 1.0 / 6.0, 2.0, 9), (3, 0.3, 2.0, 9))


def _two_call_src(p, r):
    g, dg = green_eval(p, 0.0, r), green_radial_derivative(p, 0.0, r)
    return r ** ((p.n - 1) / 2.0) * abs(dg - 1j * p.k * g.total)


def test_src_residual_is_one_pass_of_the_two_calls(monkeypatch):
    # one pass for G and dG/dr gives the bits of the value call and the
    # derivative call it replaces: near (in 2D the Bessel transform, kr < 20),
    # far, and where the series serves the value but not the derivative
    assert np.sum(2.0 * _SRC_RADII < 20.0) >= 9
    for n in (1, 2, 3):
        for s in (1.0 / 6.0, 0.25, 0.3, 0.5, 0.75):
            for k in (0.7, 2.0):
                p = Problem(n, s, k)
                for r in _SRC_RADII.tolist():
                    assert src_residual(p, r) == _two_call_src(p, r), (n, s, k, r)
    # at the split radii the value takes the power-1 series and the
    # derivative the e^{-y} engine, once per bracket power
    served, engine = [], []
    far_series, exp_weighted = green._far_series, green._exp_weighted_batch

    def spy_far(c, tail, spec, q, moment):
        out = far_series(c, tail, spec, q, moment)
        served.append((q, bool(out[2][0])))
        return out

    monkeypatch.setattr(green, "_far_series", spy_far)
    monkeypatch.setattr(green, "_exp_weighted_batch",
                        lambda *a: engine.append(a) or exp_weighted(*a))
    for n, s, k, i in _SRC_SPLIT:
        p, r = Problem(n, s, k), float(_SRC_RADII[i])
        want = _two_call_src(p, r)
        served.clear()
        engine.clear()
        assert src_residual(p, r) == want
        assert served == [(1, True), (2, False)] and len(engine) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_src_residual_makes_one_green_pass(monkeypatch, n):
    # at a far radius one src_residual call checks its radius and shift once,
    # forms the prefactors once and sums each bracket power's series once
    calls = []
    for name in ("_check_radii", "_shifted_wavenumber", "_exp_tail_terms", "_far_series"):
        def spy(*a, _f=getattr(green, name), _name=name):
            calls.append((_name, a[3] if _name == "_far_series" else None))
            return _f(*a)
        monkeypatch.setattr(green, name, spy)
    for s in (0.25, 0.3, 0.75):
        calls.clear()
        src_residual(Problem(n, s, 1.0), 1e3)
        assert sorted(calls, key=str) == [
            ("_check_radii", None), ("_exp_tail_terms", None), ("_far_series", 1),
            ("_far_series", 2), ("_shifted_wavenumber", None)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_src_residual_over_radii_is_one_pass_of_the_batch_calls(monkeypatch, n):
    # on an array each residual has the bits of the formula on the value and
    # derivative batch calls at the same radii, from one _green_batch pass
    radii = np.geomspace(1e-3, 3e3, 15)
    passes = []
    green_batch = green._green_batch
    for s in (1.0 / 6.0, 0.5, 0.75):
        p = Problem(n, s, 0.7)
        g = sum(green_eval_batch(p, 0.0, radii)[:3]).tolist()
        dg = green_radial_derivative(p, 0.0, radii).tolist()
        want = [r ** ((n - 1) / 2.0) * abs(d - 1j * p.k * v)
                for r, v, d in zip(radii.tolist(), g, dg)]
        monkeypatch.setattr(green, "_green_batch",
                            lambda *a: passes.append((a[2].size, a[4])) or green_batch(*a))
        got = src_residual(p, radii)
        monkeypatch.setattr(green, "_green_batch", green_batch)
        assert got.dtype == float and got.tolist() == want
    assert passes == [(15, (False, True))] * 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_front_end_pair_is_its_two_single_calls(n):
    # one _green_batch call for G and dG/dr gives, array for array and dtype
    # for dtype, the (helm, riesz_sum, j_tail, err) of the value call and of
    # the derivative call: at one radius (where the series serves the value
    # but not the derivative, and far), for a 9-radius tabled window and for
    # a call with four shifts
    cases = [(Problem(n, s, k), 0.0, [float(_SRC_RADII[i])])
             for m, s, k, i in _SRC_SPLIT if m == n]
    for s in (0.25, 0.3, 0.75):
        for k in (0.7, 2.0):
            p = Problem(n, s, k)
            cases += [(p, 0.0, [1e3]), (p, 0.0, np.geomspace(1e-3, 40.0, 9)),
                      (p, 0.3, np.geomspace(1e-3, 40.0, 9)),
                      (p, np.array(_LAP_EPS), np.full(4, 1.7))]
    for p, shift, r in cases:
        pair = green._green_batch(p, shift, r, DEFAULT_SPEC, (False, True))
        single = [green._green_batch(p, shift, r, DEFAULT_SPEC, (d,))[0] for d in (False, True)]
        assert len(pair) == 2
        for got, want in zip(pair, single):
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want)), \
                (p, shift, np.size(r))


def test_incoming_sign_flip_does_not_cancel():
    # |dG/dr + ikG| stays near 2k r^{(n-1)/2} |G_helm| at large r
    p = Problem(3, 0.5, 1.0)
    r = 200.0
    g = green_eval(p, 0.0, r)
    dg = green_radial_derivative(p, 0.0, r)
    anti = r ** ((p.n - 1) / 2.0) * abs(dg + 1j * p.k * g.total)
    ref = 2.0 * p.k * r ** ((p.n - 1) / 2.0) * abs(g.helm)
    assert 0.5 * ref < anti < 1.5 * ref
    assert src_residual(p, r) < 0.05 * anti


_LAP_EPS = (0.0, 1e-1, 1e-2, 1e-3)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [1.0 / 6.0, 0.25, 0.3, 0.5, 0.75])
def test_multi_shift_batch_matches_per_shift(n, s):
    # every (k_eps, r) pair is a column of one tail pass; each column agrees
    # with its own single-shift evaluation within the two estimates
    radii = np.tile([0.5, 2.0, 6.0], len(_LAP_EPS))
    shifts = np.repeat(_LAP_EPS, 3)
    for k in (0.7, 2.0):
        p = Problem(n, s, k)
        helm, riesz, jt, err = green_eval_batch(p, shifts, radii)
        for i, (eps, r) in enumerate(zip(shifts, radii)):
            g = green_eval(p, float(eps), float(r))
            assert abs(helm[i] + riesz[i] + jt[i] - g.total) <= err[i] + g.err_estimate, \
                (k, eps, r)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("size", [5, 60])
def test_one_repeated_shift_is_the_scalar_call(n, size):
    # an array of one distinct absorption takes the single-shift path, small
    # or tabled (more than _SMALL_BATCH radii, in one dyadic panel)
    p = Problem(n, 0.3, 1.0)
    radii = np.linspace(2.1, 3.9, size)
    assert (size > green._SMALL_BATCH) == (size == 60)
    for eps in (0.0, 0.1):
        got = green_eval_batch(p, np.full(size, eps), radii)
        want = green_eval_batch(p, eps, radii)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_large_multi_shift_batch_is_one_direct_call(monkeypatch, n):
    # more than _SMALL_BATCH radii with two shifts: one direct tail call over
    # every (k_eps, r) column, for a value and a derivative, and each result
    # within the two estimates of its own single-shift (tabled) call
    p, radii = Problem(n, 0.3, 1.0), np.linspace(2.1, 3.9, 60)
    shifts = np.where(np.arange(60) % 2 == 0, 0.1, 0.0)
    calls, tail = [], green._tail_batch
    for derivative in (False, True):
        with monkeypatch.context() as m:
            m.setattr(green, "_tail_batch", lambda *a, **k: calls.append(a[3]) or tail(*a, **k))
            helm, riesz, jt, err = green._green_batch(p, shifts, radii, DEFAULT_SPEC,
                                                      (derivative,))[0]
        assert len(calls) == 1 and np.array_equal(calls.pop(), radii), derivative
        for eps in (0.0, 0.1):
            at = shifts == eps
            one = green._green_batch(p, eps, radii[at], DEFAULT_SPEC, (derivative,))[0]
            miss = np.abs((helm + riesz + jt)[at] - sum(one[:3]))
            assert np.all(miss <= err[at] + one[3]), (derivative, eps)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [1.0 / 6.0, 0.25, 0.5])
def test_multi_shift_derivative_matches_per_shift(n, s):
    # the derivative takes the value's shifts: an absorption per radius, each
    # derivative within the two estimates of its own single-shift call
    radii = np.tile([0.5, 2.0, 6.0], len(_LAP_EPS))
    shifts = np.repeat(_LAP_EPS, 3)
    for k in (0.7, 2.0):
        p = Problem(n, s, k)
        helm, riesz, jt, err = green._green_batch(p, shifts, radii, DEFAULT_SPEC, (True,))[0]
        assert np.array_equal(helm + riesz + jt, green_radial_derivative(p, shifts, radii))
        for i, (eps, r) in enumerate(zip(shifts, radii)):
            one = green._green_batch(p, float(eps), [r], DEFAULT_SPEC, (True,))[0]
            assert abs(helm[i] + riesz[i] + jt[i] - sum(one[:3])[0]) <= err[i] + one[3][0], \
                (k, eps, r)
    with pytest.raises(DomainError):
        green_radial_derivative(p, np.array([0.0, 0.1]), np.array([1.0, 2.0, 3.0]))


def test_shift_array_guards(monkeypatch):
    def no_tail(*a, **k):
        raise AssertionError("tail work before the shifts were checked")

    monkeypatch.setattr(green, "_tail_batch", no_tail)
    monkeypatch.setattr(green, "_tabled_tail", no_tail)
    # arctan(1 / 1) = pi/4 is not < s pi = 0.1 pi
    p = Problem(1, 0.1, 1.0)
    with pytest.raises(DomainError):
        green_eval_batch(p, np.array([0.0, 1e-2, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        green_eval_batch(p, np.array([0.0, 1e-2]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        green_eval_batch(p, np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]))
    # a shift, scalar or per radius, is a real number: not a string, a bool
    # or a complex number; nor is a radius, checked before any tail work too
    with pytest.raises(DomainError):
        src_residual(p, "1e3")
    for bad in ("0.1", True, np.array(0.1 + 0j), ["0.0", "0.1", "0.1"],
                np.array([False, True, True]), np.array([0.0, 0.1j, 0.1])):
        with pytest.raises(DomainError):
            green_eval_batch(p, bad, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError):
            green_radial_derivative(p, bad, np.array([1.0, 2.0, 3.0]))


def test_limiting_absorption_differences_shrink():
    p = Problem(1, 0.3, 1.0)
    base = green_eval(p, 0.0, 2.0).total
    diffs = [abs(green_eval(p, e, 2.0).total - base) for e in (1e-1, 1e-2, 1e-3)]
    assert diffs[2] < diffs[1] < diffs[0]


def test_error_estimate_scale():
    p = Problem(2, 0.3, 1.0)
    g = green_eval(p, 0.0, 1.0)
    loose = green_eval(p, 0.0, 1.0, QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8))
    assert abs(loose.total - g.total) <= 10.0 * (loose.err_estimate + g.err_estimate)


@pytest.mark.parametrize("n,s,rate", [
    (1, 0.75, 2.5), (1, 0.3, 1.6), (3, 0.75, 4.5), (3, 0.3, 2.4),
])
def test_j_tail_decay_smoke(n, s, rate):
    # |j_tail| * r^rate bounded over a short far-field window
    p = Problem(n, s, 1.0)
    radii = np.logspace(1, 3, 5)
    _, _, jt, _ = green_eval_batch(p, 0.0, radii)
    prod = np.abs(jt) * radii ** rate
    assert np.max(prod) / prod[0] < 10.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wavenumber_scaling_identity(n):
    # G_k(r) = k^{n-2s} G_1(k r) exactly (substitute xi -> k eta in the symbol);
    # in 2D this exercises a genuinely different transform partition per k
    for s in (0.25, 0.3, 0.75):
        for k in (0.5, 2.0):
            r = 1.3
            a = green_eval(Problem(n, s, k), 0.0, r).total
            b = k ** (n - 2 * s) * green_eval(Problem(n, s, 1.0), 0.0, k * r).total
            assert a == pytest.approx(b, rel=1e-10)


def test_2d_integer_branch_split_equals_direct_kernel():
    # the corrected-kernel + Struve split must equal the direct (conditionally
    # convergent) transform of rho F_m, since the corrector identity is exact
    from frachelm.kernels import F_m
    from frachelm.quadrature import integrate_partitioned
    from frachelm.specfun import bessel_j0, j0_zeros
    s, r = 0.25, 1.3
    res = integrate_partitioned(
        lambda rho: bessel_j0(rho * r) * rho * np.atleast_1d(F_m(rho, 1.0 + 0j, s, 2)),
        np.r_[0.0, j0_zeros(60) / r])
    g = green_eval(Problem(2, s, 1.0), 0.0, r)
    assert abs(res.value / (2.0 * np.pi) - g.j_tail) < 1e-9


@pytest.mark.parametrize("s", [0.25, 0.3, 0.5, 0.75])
def test_2d_err_covers_the_hankel_crossover(s):
    # at eps = 0, Im G = (k^{2-2s}/s) J0(kr)/4 exactly: the Helmholtz part
    # carries all of it.  Across kr in [8, 14) the power series of hankel1_0
    # cancels, so err must cover the Hankel miss as well as the tail's
    mp = pytest.importorskip("mpmath")
    kr = np.linspace(8.0, 16.0, 401)
    with mp.workdps(30):
        j0 = np.array([float(mp.besselj(0, x)) for x in kr])
    for k in (0.7, 1.0, 2.0):
        helm, riesz, tail, err = green_eval_batch(Problem(2, s, k), 0.0, kr / k)
        exact = k ** (2.0 - 2.0 * s) / s * j0 / 4.0
        assert np.all(np.abs((helm + riesz + tail).imag - exact) <= err)


def test_2d_helm_charge_bounds_hankel_off_the_axis():
    # at eps > 0, z = k_eps r leaves the real axis, where the power series of
    # hankel1_0 (|z| < 14, |Im z| <= 2.5) cancels harder than on it; the
    # charge on the Helmholtz part must still bound its miss
    mp = pytest.importorskip("mpmath")
    x, y = np.meshgrid(np.linspace(0.02, 14.99, 300), np.linspace(0.0, 2.5, 26))
    z = (x + 1j * y).ravel()
    z = z[np.abs(z) < 15.0]
    with mp.workdps(30):
        exact = np.array([complex(mp.besselj(0, v) + 1j * mp.bessely(0, v))
                          for v in map(mp.mpc, z.real, z.imag)])
    charge = _helm_rel(Problem(2, 0.5, 1.0), z, np.ones(z.size))
    assert np.all(np.abs(hankel1_0(z) - exact) <= charge * np.abs(exact))
    # specfun picks the series here, as np.abs(kc * r) rounds below 14, and
    # abs(kc) * r does not; green must charge the path that ran
    p, r = Problem(2, 0.75, 2.0), 6.999883337222071
    helm, _, _, err = green_eval_batch(p, 0.02, [r])
    kc = spectral_shift(p, 0.02).k_eps
    with mp.workdps(30):
        h0 = complex(mp.hankel1(0, mp.mpc(kc * r)))
    assert abs(helm[0] - 1j * kc ** (2.0 - 2.0 * p.s) / (4.0 * p.s) * h0) <= err[0]


# ---------------------------------------------------------------------------
# The far branch of the tail: its Watson series against the e^{-y} engine and
# the 2D Bessel transform, the s = 1/2 closed form, mpmath and the far-field
# expansion
# ---------------------------------------------------------------------------

_FAR_S = (1.0 / 6.0, 0.25, 0.3, 0.5, 0.75)
_FAR_KR = np.array([30.0, 100.0, 1e3, 1e4])
# (spec, bracket power) of the value integral and the derivative's two
_FAR_INTEGRALS = ((DEFAULT_SPEC, 1), (LOOSE_SPEC, 1), (LOOSE_SPEC, 2))


def _quadrature_only(monkeypatch):
    """Send every tail column to the e^{-y} engine or the 2D Bessel transform
    and Struve term, as before the far branch."""
    monkeypatch.setattr(green, "_far_series", lambda c, *args: (
        np.zeros(c.shape, dtype=complex), np.zeros(c.shape), np.zeros(c.shape, dtype=bool)))


def _tail(p, shift, r, spec, derivative):
    """(values, errors) of the tail, or of its r-derivative."""
    kc = spectral_shift(p, shift).k_eps
    return green._tail_batch(p, classify_regime(p.s), kc, r, spec, outs=(derivative,))[0]


def _far_served(p, shift, r):
    """Which radii the series serves per bracket integral of
    ``_FAR_INTEGRALS``; a derivative radius takes it only where both of its
    integrals are served."""
    kc, regime = spectral_shift(p, shift).k_eps, classify_regime(p.s)
    _, _, c, tail = green._exp_tail_terms(p, regime, kc, r)
    return [green._far_series(c, tail, spec, power, green._MOMENT[p.n])[2]
            for spec, power in _FAR_INTEGRALS]


def _series_and_quadrature(monkeypatch, p, shift, r):
    """[(value, err), (derivative, err)] of the tail with the far branch, and
    the same with the quadrature alone."""
    def tails():
        return [_tail(p, shift, r, DEFAULT_SPEC, False),
                _tail(p, shift, r, LOOSE_SPEC, True)]
    got = tails()
    with monkeypatch.context() as m:
        _quadrature_only(m)
        return got, tails()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_far_series_agrees_with_the_quadrature(monkeypatch, n):
    for s in _FAR_S:
        for k in (0.7, 2.0):
            p, r = Problem(n, s, k), _FAR_KR / k
            assert all(np.all(served) for served in _far_served(p, 0.0, r)), (s, k)
            got, ref = _series_and_quadrature(monkeypatch, p, 0.0, r)
            for (v, e), (rv, re) in zip(got, ref):
                assert np.all(np.abs(v - rv) <= e + re), (s, k)


def test_far_series_with_absorption(monkeypatch):
    # at eps > 0, c = k_eps^{2s} r^{2s} leaves the real axis toward the ray
    # at +pi s, and the remainder bound follows its distance to that ray
    for n in (1, 2, 3):
        p, r = Problem(n, 0.3, 1.0), np.array([30.0, 100.0, 1e3])
        assert all(np.all(served) for served in _far_served(p, 0.5, r))
        got, ref = _series_and_quadrature(monkeypatch, p, 0.5, r)
        for (v, e), (rv, re) in zip(got, ref):
            assert np.all(np.abs(v - rv) <= e + re), n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_near_radii_never_take_the_far_series(monkeypatch, n):
    # kr <= 10: no column qualifies, and every value is the e^{-y} engine's
    # or the Bessel transform's, bit for bit
    for s in _FAR_S:
        for k in (0.7, 2.0):
            p, r = Problem(n, s, k), np.geomspace(1e-6, 10.0, 9) / k
            assert not any(np.any(served) for served in _far_served(p, 0.0, r)), (s, k)
            got = green_eval_batch(p, 0.0, r) + (green_radial_derivative(p, 0.0, r),)
            with monkeypatch.context() as m:
                _quadrature_only(m)
                ref = green_eval_batch(p, 0.0, r) + (green_radial_derivative(p, 0.0, r),)
            assert all(np.array_equal(u, v) for u, v in zip(got, ref)), (s, k)


@pytest.mark.parametrize("n, s, r", [(3, 0.5, 20.0), (1, 0.3, 22.0)])
def test_a_derivative_radius_takes_one_path_for_both_powers(monkeypatch, n, s, r):
    # the series serves the derivative's first bracket integral here but not
    # its second, so the radius takes the e^{-y} engine for both, bit for bit
    p, r = Problem(n, s, 1.0), np.array([r])
    _, one, two = _far_served(p, 0.0, r)
    assert one[0] and not two[0]
    got = _tail(p, 0.0, r, LOOSE_SPEC, True)
    with monkeypatch.context() as m:
        _quadrature_only(m)
        ref = _tail(p, 0.0, r, LOOSE_SPEC, True)
    assert all(np.array_equal(u, v) for u, v in zip(got, ref))


def test_far_series_against_the_3d_half_closed_form():
    for k in (0.7, 2.0):
        p, r = Problem(3, 0.5, k), _FAR_KR / k
        helm, riesz, jt, err = green_eval_batch(p, 0.0, r)
        ref = np.array([green_closed_form_3d_half(k, x) for x in r])
        assert np.all(np.abs(helm + riesz + jt - ref) <= err)
        # the derivative's error: its tail's, plus the closed parts' charge
        _, derr = _tail(p, 0.0, r, LOOSE_SPEC, True)
        dhelm, driesz = green._closed_parts(p, classify_regime(0.5), complex(k), r, True)
        derr = derr + green._CLOSED_FORM_REL * (np.abs(dhelm) + np.abs(driesz))
        dref = np.array([green_closed_form_3d_half_dr(k, x) for x in r])
        assert np.all(np.abs(green_radial_derivative(p, 0.0, r, LOOSE_SPEC) - dref) <= derr)


@pytest.mark.parametrize("n, s, kr", [(1, 0.3, 30.0), (1, 0.75, 100.0), (3, 1.0 / 6.0, 30.0),
                                      (3, 0.5, 100.0), (3, 0.75, 1e3)])
def test_far_series_against_mpmath(n, s, kr):
    # each bracket integral the series serves lies within its err of a
    # 30-digit quadrature of the same integral
    mp = pytest.importorskip("mpmath")
    k = 0.7
    _, _, c, tail = green._exp_tail_terms(Problem(n, s, k), classify_regime(s), complex(k),
                                          np.array([kr / k]))
    _, delta, a, b = tail
    for spec, power in _FAR_INTEGRALS:
        val, err, served = green._far_series(c, tail, spec, power, green._exp_moment)
        assert served[0]
        with mp.workdps(30):
            ep, cc, a_, b_ = mp.expjpi(s), mp.mpc(c[0]), mp.mpc(a), mp.mpc(b)
            f = lambda y: mp.exp(-y) * y ** delta * (a_ / (y ** (2 * s) * ep - cc) ** power
                                                     + b_ / (y ** (2 * s) / ep - cc) ** power)
            exact = complex(mp.quad(f, [0, 0.5, 2, 8, 30, 100, mp.inf]))
        assert abs(val[0] - exact) <= err[0], (spec, power)


def _far_field_expansion(n, s, k, r, derivative=False):
    """G - helm ~ -sum_{j>=1} k^{-2s(j+1)} C_n(2sj) r^{-n-2sj} (or its
    r-derivative), C_n(a) = 2^a pi^{-n/2} Gamma((n+a)/2) / Gamma(-a/2), the
    transform of |xi|^a (Stein, *Singular Integrals*, ch. V sec. 1).  With
    1/Gamma(-a/2) = -sin(pi a/2) Gamma(1 + a/2) / pi, term j is sin(pi s j)
    e^{L_j}, so the terms with 2sj even vanish; summed until they fall below
    1e-17 of the sum, as they do long before growing at kr >= 100."""
    total = 0.0
    for j in range(1, 400):
        a = 2.0 * s * j
        log_mag = (a * math.log(2.0) - 2.0 * s * (j + 1) * math.log(k) - (n + a) * math.log(r)
                   - (n / 2.0 + 1.0) * math.log(math.pi)
                   + math.lgamma((n + a) / 2.0) + math.lgamma(1.0 + a / 2.0))
        if total and log_mag < math.log(1e-17 * abs(total)):
            return total
        term = math.sin(math.pi * s * j) * math.exp(log_mag)
        total += -(n + a) / r * term if derivative else term
    raise AssertionError("the far-field expansion did not converge")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_far_field_expansion_within_err(n):
    # G - helm = riesz + j_tail against the expansion at kr in {100, 1e3}: a
    # check of the far series, for the value and the derivative
    for s in _FAR_S:
        for k in (0.7, 2.0):
            p, r = Problem(n, s, k), np.array([100.0, 1e3]) / k
            assert all(np.all(served) for served in _far_served(p, 0.0, r)), (s, k)
            _, riesz, jt, err = green_eval_batch(p, 0.0, r)
            ref = [_far_field_expansion(n, s, k, x) for x in r]
            assert np.all(np.abs(riesz + jt - ref) <= err), (s, k)
            djt, derr = _tail(p, 0.0, r, LOOSE_SPEC, True)
            _, driesz = green._closed_parts(p, classify_regime(s), complex(k), r, True)
            dref = [_far_field_expansion(n, s, k, x, derivative=True) for x in r]
            derr = derr + green._CLOSED_FORM_REL * np.abs(driesz)
            assert np.all(np.abs(driesz + djt - dref) <= derr), (s, k)


# ---------------------------------------------------------------------------
# The 2D far branch: the K0 form of the tail and its moments
# ---------------------------------------------------------------------------

def test_k0_moments_against_mpmath():
    # int_0^inf K0(y) y^mu dy = 2^{mu - 1} Gamma((1 + mu)/2)^2 (DLMF 10.43.19)
    mp = pytest.importorskip("mpmath")
    for mu in (0.0, 1.0 / 3.0, 2.5):
        with mp.workdps(20):
            ref = float(mp.quad(lambda y: mp.besselk(0, y) * y ** mu, [0, 1, mp.inf]))
        assert math.exp(green._k0_moment(mu, 0.0)) == pytest.approx(ref, rel=1e-14)


def _k0_rule(mp):
    """(y_i, w_i K0(y_i)) of an exp-sinh rule on [0, inf) at 30 digits: y =
    exp(pi/2 sinh t), trapezoid in t of step 1/32 on [-5, 2.3].  On these
    brackets it agrees with mp.quad to double precision."""
    with mp.workdps(30):
        t = [mp.mpf(i) / 32 - 5 for i in range(234)]
        y = [mp.exp(mp.pi / 2 * mp.sinh(v)) for v in t]
        return y, [mp.pi / 64 * u * mp.cosh(v) * mp.besselk(0, u) for u, v in zip(y, t)]


def _k0_form(mp, rule, p, kc, r):
    """(j_tail, d j_tail / dr) at radius r from the K0 form at 30 digits:
    pref int_0^inf K0(y) y^delta [a/(x+ - c) + b/(x- - c)] dy, x+- = y^{2s}
    e^{+-i pi s}, c = (k_eps r)^{2s}, pref = k_eps^{2sm} / (2i pi^2
    r^{2 - 2s(m+1)}), delta = 1 - 2sm, a = -e^{-i pi s m}, b = e^{i pi s m}."""
    s, m = p.s, classify_regime(p.s).m
    with mp.workdps(30):
        kc, r, ep, em = mp.mpc(kc), mp.mpf(r), mp.expjpi(s), mp.expjpi(s * m)
        a, b, c = -1 / em, em, (kc * r) ** (2 * s)
        i1 = i2 = 0
        for y, w in zip(*rule):
            x, g = y ** (2 * s), w * y ** (1 - 2 * s * m)
            u, v = x * ep - c, x / ep - c
            i1 += g * (a / u + b / v)
            i2 += g * (a / u ** 2 + b / v ** 2)
        expo = 2 - 2 * s * (m + 1)
        pref = kc ** (2 * s * m) / (2j * mp.pi ** 2 * r ** expo)
        return complex(pref * i1), complex(pref * (i2 * 2 * s * c - expo * i1) / r)


def test_2d_tail_against_its_k0_form():
    # the library's 2D tail, from the Bessel transform at kr = 3 and from the
    # far series beyond, within its err of a 30-digit K0 form, value and
    # derivative
    mp = pytest.importorskip("mpmath")
    rule = _k0_rule(mp)
    kr = np.array([3.0, 25.0, 40.0, 100.0, 1e3])
    for s in _FAR_S:
        for k in (0.7, 2.0):
            for eps in (0.0, 0.1):
                p, r = Problem(2, s, k), kr / k
                kc = spectral_shift(p, eps).k_eps
                val, err = _tail(p, eps, r, DEFAULT_SPEC, False)
                dval, derr = _tail(p, eps, r, LOOSE_SPEC, True)
                ref = np.array([_k0_form(mp, rule, p, kc, x) for x in r])
                assert np.all(np.abs(val - ref[:, 0]) <= err), (s, k, eps)
                assert np.all(np.abs(dval - ref[:, 1]) <= derr), (s, k, eps)


def test_2d_serve_boundary():
    # no kr <= 10 takes the far series, and every kr >= 50 does
    for s in _FAR_S + (0.1, 0.9):
        for k in (0.7, 2.0):
            for eps in (0.0, 0.1):
                p = Problem(2, s, k)
                near, far = np.geomspace(1e-3, 10.0, 20) / k, np.geomspace(50.0, 1e6, 20) / k
                assert not any(np.any(v) for v in _far_served(p, eps, near)), (s, k, eps)
                assert all(np.all(v) for v in _far_served(p, eps, far)), (s, k, eps)


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_2d_near_batches_take_the_transform(monkeypatch, s):
    # batches and cell weights whose radii all lie below the far series'
    # reach, as a 2D scatter builds them, are the transform's bit for bit,
    # and reject the series before computing any prefactor
    from frachelm.scattering import cell_weight
    p = Problem(2, s, 1.0)
    offsets = np.array([[0.0, 0.0], [0.25, 0.0], [0.25, 0.25], [0.5, 0.25]])

    def calls():
        out = [green_eval_batch(p, 0.0, np.geomspace(0.01, 6.0, size)) for size in (5, 60)]
        out.append((green_radial_derivative(p, 0.0, np.array([0.5, 6.0])),))
        return out + [(cell_weight(p, offsets, np.array([0.25, 0.25])),)]

    def no_prefactor(*args):
        raise AssertionError("a prefactor of a call that no radius qualifies for")
    with monkeypatch.context() as m:
        m.setattr(green, "_exp_tail_terms", no_prefactor)
        got = calls()
    with monkeypatch.context() as m:
        _quadrature_only(m)
        ref = calls()
    assert all(np.array_equal(u, v) for g, f in zip(got, ref) for u, v in zip(g, f))


def _im_helm(n, k, r):
    """Im G_Helm at eps = 0: cos(kr)/(2k), J0(kr)/4 and sin(kr)/(4 pi r) in
    1D, 2D and 3D."""
    return {1: np.cos(k * r) / (2.0 * k), 2: bessel_j0(k * r) / 4.0,
            3: np.sin(k * r) / (4.0 * np.pi * r)}[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_absorption_imaginary_part_through_the_table(n):
    # at eps = 0, Im G = (k^{2-2s}/s) Im G_Helm.  The run of 50 radii in [1.6,
    # 2) fills one dyadic panel of x = kr at both k, so it is tabled and the
    # panel cache's interpolants are held to it too; so are those of a
    # 9-radius call, tabled below the far reach, at the same kr for both k,
    # so that k = 10 reads the panels k = 0.1 built
    r = np.r_[np.logspace(-4.0, 4.0, 120), np.linspace(1.6, 1.99, 50)]
    kr = np.geomspace(1e-3, 20.0, 9)
    for s in (1.0 / 6.0, 0.25, 0.5, 0.75, *NEAR_INTEGER_BRANCH):
        for k in (0.1, 10.0):
            p = Problem(n, s, k)
            for radii in (r, kr / k):
                misses = green._tail_panel.cache_info().misses
                helm, riesz, jt, err = green_eval_batch(p, 0.0, radii)
                miss = np.abs((helm + riesz + jt).imag
                              - k ** (2.0 - 2.0 * s) / s * _im_helm(n, k, radii))
                assert np.all(miss <= err), (s, k)
            if k == 10.0:
                assert green._tail_panel.cache_info().misses == misses, s
            key = (Problem(n, s, 1.0), 1.0 + 0j, DEFAULT_SPEC, int(np.frexp(1.6 * k)[1]), False)
            misses = green._tail_panel.cache_info().misses
            assert green._tail_panel(*key) is not None, (s, k)
            assert green._tail_panel.cache_info().misses == misses, (s, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_absorption_imaginary_part_of_the_derivative(n):
    # at eps = 0, Im dG/dr = (k^{2-2s}/s) d/dr Im G_Helm: -sin(kr)/2,
    # -k J1(kr)/4 and (kr cos kr - sin kr)/(4 pi r^2) in 1D, 2D and 3D.  The
    # derivative returns no error estimate, so the bound is relative: 1e-11
    # is 30 times the worst miss on this grid (3.4e-13, 2D at kr near 12.6,
    # where the J1 series cancels) and 100 times below rel_tol, so a tail
    # with an imaginary part at the tolerance's size would fail it
    r = np.logspace(-3.0, 3.0, 31)
    for s in (1.0 / 6.0, 0.25, 0.3, 0.5, 0.75, 0.9, *NEAR_INTEGER_BRANCH):
        for k in (0.1, 0.7, 1.0, 2.0, 10.0):
            d = green_radial_derivative(Problem(n, s, k), 0.0, r)
            ref = {1: -np.sin(k * r) / 2.0, 2: -k * bessel_j1(k * r) / 4.0,
                   3: (k * r * np.cos(k * r) - np.sin(k * r)) / (4.0 * np.pi * r ** 2)}[n]
            miss = np.abs(d.imag - k ** (2.0 - 2.0 * s) / s * ref)
            assert np.all(miss <= 1e-11 * np.abs(d)), (s, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_absorption_tail_is_exactly_real(n):
    # at eps = 0 the tail runs in real arithmetic, so Im G = Im G_Helm holds
    # bit for bit, values and derivatives: for one radius near, mid-range and
    # far (the far series), a 9-radius call tabled below the far reach and
    # served by the series beyond it, and a 50-radius run read from one panel
    for s in (1.0 / 6.0, 0.25, 0.3, 0.5, 0.75):
        for k in (0.7, 2.0):
            p = Problem(n, s, k)
            calls = [np.array([x / k]) for x in (0.05, 1.3, 300.0)]
            calls += [np.geomspace(1e-3, 300.0, 9) / k, np.linspace(1.6, 1.99, 50) / k]
            for r in calls:
                for derivative in (False, True):
                    helm, riesz, jt, _ = green._green_batch(p, 0.0, r, DEFAULT_SPEC,
                                                            (derivative,))[0]
                    assert np.all(jt.imag == 0.0), (s, k, r.size, derivative)
                    assert np.array_equal((helm + riesz + jt).imag, helm.imag), (s, k, r.size)


# one regime branch each: HIGH, LOW_GENERIC, LOW_INTEGER, and in 2D the
# Struve-only tail of s = 1/2, whose corrected kernel vanishes
@pytest.mark.parametrize("s", [0.75, 0.3, 0.25, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_tail_agrees_with_the_complex_tail(n, s):
    # a k_eps per radius, all equal to the real k, keeps the complex path; the
    # real path of one float k_eps lies within both errors of it, for values
    # and derivatives at near radii (engines) and far ones (the far series)
    k, regime = 1.3, classify_regime(s)
    r = np.r_[np.geomspace(1e-3, 8.0, 12), 60.0, 400.0] / k
    for derivative in (False, True):
        (real, rerr), = green._tail_batch(Problem(n, s, k), regime, k, r, DEFAULT_SPEC,
                                          outs=(derivative,))
        (cplx, cerr), = green._tail_batch(Problem(n, s, k), regime, np.full(r.size, complex(k)),
                                          r, DEFAULT_SPEC, outs=(derivative,))
        assert real.dtype == np.float64 and cplx.dtype == complex
        assert np.all(np.abs(real - cplx) <= rerr + cerr), (derivative, np.abs(real - cplx) / (rerr + cerr))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tail_integrands_are_real_at_zero_absorption(monkeypatch, n):
    # the e^{-y} integrands (the bracket, and in 2D the Struve term's) and the
    # 2D transform integrand return float64 at eps = 0 and complex at eps > 0
    seen = []

    def exp_spy(f, *args):
        return exp_batch(lambda y: seen.append(("exp", f(y).dtype)) or f(y), *args)

    def transform_spy(g, *args):
        return transform(lambda rho: seen.append(("transform", g(rho).dtype)) or g(rho), *args)

    exp_batch, transform = green._exp_weighted_batch, green.integrate_bessel_transform
    monkeypatch.setattr(green, "_exp_weighted_batch", exp_spy)
    monkeypatch.setattr(green, "integrate_bessel_transform", transform_spy)
    for eps, dtype in ((0.0, np.float64), (0.3, complex)):
        seen.clear()
        for s in (0.25, 0.3):
            for r in (0.4, 2.0):
                green_eval(Problem(n, s, 1.0), eps, r)
                green_radial_derivative(Problem(n, s, 1.0), eps, r)
        kinds = {"exp"} | ({"transform"} if n == 2 else set())
        assert {kind for kind, _ in seen} == kinds and {d for _, d in seen} == {np.dtype(dtype)}, eps


# ---------------------------------------------------------------------------
# Struve functions of the second kind (the 2D LOW_INTEGER tail term)
# ---------------------------------------------------------------------------

def test_struve_k0_far_field_paper_bound():
    # K0(z) = 2/(pi z) + O(z^-2); at z=10 the deviation is below 0.02
    assert abs(green.struve_k0(np.array([10.0]))[0] - 2.0 / (10.0 * np.pi)) <= 0.02


def test_struve_k0_against_struve_weber_identity():
    # K0 = StruveH0 - Y0 on (0, inf); StruveH0 from its power series
    for z in (0.5, 1.0, 3.0):
        expect = struve_h0_series(z) - hankel1_0(z).imag
        assert green.struve_k0(np.array([z]))[0] == pytest.approx(expect, abs=1e-9)


def test_struve_k0_quadrature_oracle():
    # direct finite-interval quadrature of the defining integral plus an
    # averaged oscillatory tail, done with the generic engine only
    z = 1.0
    res = integrate_partitioned(lambda t: bessel_j0(t) / (t + z),
                                np.r_[0.0, j0_zeros(60)])
    assert green.struve_k0(np.array([z]))[0] == pytest.approx(2.0 / np.pi * res.value, abs=1e-9)


def test_struve_k0_real_positive():
    for z in (0.05, 0.5, 2.0, 25.0):
        val = green.struve_k0(np.array([z]))[0]
        assert abs(val.imag) < 1e-12
        assert val.real > 0.0


def test_struve_derivative_identity():
    # (K0(k(r+h)) - K0(k(r-h)))/(2h) ~ 2k/pi - k K1(kr) at r=2, k=1
    k, r, h = 1.0, 2.0, 1e-5
    fd = (green.struve_k0(np.array([k * (r + h)]))[0]
          - green.struve_k0(np.array([k * (r - h)]))[0]) / (2 * h)
    rhs = 2.0 * k / np.pi - k * green.struve_k1(np.array([k * r]))[0]
    assert fd == pytest.approx(rhs, abs=1e-7)


def test_struve_k1_far_field():
    assert green.struve_k1(np.array([40.0]))[0] == pytest.approx(2.0 / np.pi, abs=2e-3)


@pytest.mark.parametrize("phase", [0.0, 0.4])
def test_struve_array_matches_scalar(phase):
    # real z, and complex z as met at positive absorption; the array call
    # is one engine pass whose panels every z shares
    z = np.logspace(-3, 2, 30) * np.exp(1j * phase)
    k0, k1 = green.struve_k0(z)[0], green.struve_k1(z)[0]
    assert k0.shape == k1.shape == z.shape
    for i, zi in enumerate(z):
        assert k0[i] == pytest.approx(green.struve_k0(np.array([zi]))[0], rel=1e-13)
        assert k1[i] == pytest.approx(green.struve_k1(np.array([zi]))[0], rel=1e-13)


def test_struve_branch_cut():
    with pytest.raises(DomainError):
        green.struve_k0(np.array([-2.0 + 0.0j]))


@pytest.mark.parametrize("phase", [0.0, 0.4, 1.2, 0.5 * np.pi - 1e-12, -1.2])
def test_struve_errors_bound_the_miss(phase):
    # K0 = H0 - Y0 and K1 = H1 - Y1 against mpmath; each miss is within the
    # engine's err plus four roundings of the reference.  Past |arg z| = pi/4
    # the path turns off the real axis, and near the imaginary axis (k_eps
    # at the edge of the first quadrant) the real-axis integrand peaks like
    # (Re z)^{-3/2} for K1.  H and Y grow like e^{|Im z|} and cancel, so the
    # reference carries 30 digits beyond that
    mp = pytest.importorskip("mpmath")
    rounding = 4.0 * np.finfo(float).eps
    z = np.logspace(-8.0, 1.8, 30) * np.exp(1j * phase)
    k0, e0 = green.struve_k0(z)
    k1, e1 = green.struve_k1(z)
    for zi, v0, err0, v1, err1 in zip(z, k0, e0, k1, e1):
        with mp.workdps(30 + int(abs(zi.imag) / math.log(10.0))):
            zm = mp.mpc(zi.real, zi.imag)
            ref0 = complex(mp.struveh(0, zm) - mp.bessely(0, zm))
            ref1 = complex(mp.struveh(1, zm) - mp.bessely(1, zm))
        assert abs(v0 - ref0) <= err0 + rounding * abs(ref0), zi
        assert abs(v1 - ref1) <= err1 + rounding * abs(ref1), zi


def test_struve_domain():
    # the Laplace form needs Re z > 0; a scalar, an empty or a 2-D array is
    # refused too
    for z in (0.0, -2.0, 2.0j, np.nan, np.inf):
        for f in (green.struve_k0, green.struve_k1):
            with pytest.raises(DomainError):
                f(np.array([1.0, z]))
    for z in (1.0, np.array([], dtype=complex), np.ones((2, 2))):
        for f in (green.struve_k0, green.struve_k1):
            with pytest.raises(DomainError):
                f(z)
