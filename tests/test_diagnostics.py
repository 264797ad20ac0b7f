"""Diagnostics tests: rate fits with negative controls, radiation verdicts,
limiting-absorption slopes, convolution norms."""

import warnings

import numpy as np
import pytest

from frachelm import green, scattering
from frachelm.errors import AccuracyError, DomainError
from frachelm.diagnostics import (
    convolution_norm_check, decay_rate_check, green_radial_field,
    RadialField, hankel_incoming_field, hankel_outgoing_field, lap_differences, lap_slope,
    radiation_classify, singularity_rate_check,
)
from frachelm.green import green_eval_batch, green_radial_derivative
from frachelm.kernels import Problem
from frachelm.quadrature import QuadratureSpec
from frachelm.scattering import PotentialGrid
from frachelm.specfun import gauss_legendre, hankel1_0


def test_decay_check_examples_and_negative_control():
    p = Problem(1, 0.75, 1.0)
    fit = decay_rate_check(p, "j_tail", (10.0, 1e4), 2.5, n_points=9)
    assert fit.envelope_bounded
    assert fit.drift_ratio < 100.0          # sharp rate: tight two-sided drift
    fit = decay_rate_check(p, "j_tail", (10.0, 1e4), 3.5, n_points=9)
    assert not fit.envelope_bounded          # inflated by +1: product grows


def test_decay_check_3d_low_branch():
    p = Problem(3, 0.3, 1.0)
    fit = decay_rate_check(p, "j_tail", (10.0, 1e4), 3.0 - 2.0 * 0.3, n_points=9)
    assert fit.envelope_bounded
    assert fit.fitted_slope == pytest.approx(-(3.0 - 2.0 * 0.3), abs=0.1)


def test_singularity_check_examples():
    fit = singularity_rate_check(Problem(1, 0.3, 1.0), "j_tail", (1e-3, 0.5), 0.4)
    assert fit.envelope_bounded and fit.drift_ratio < 100.0
    fit = singularity_rate_check(Problem(1, 0.5, 1.0), "j_tail", (1e-3, 0.5),
                                 0.0, log_correction=True)
    assert fit.envelope_bounded
    fit = singularity_rate_check(Problem(3, 0.75, 1.0), "j_tail", (1e-3, 0.5), 1.5)
    assert fit.envelope_bounded and fit.drift_ratio < 100.0


def test_singularity_negative_control_two_sided():
    # sharp singular rates expose inflation through the two-sided drift
    fit = singularity_rate_check(Problem(1, 0.3, 1.0), "j_tail", (1e-3, 0.5), 1.4)
    assert fit.drift_ratio > 100.0


def test_rate_check_windows_validated():
    p = Problem(1, 0.3, 1.0)
    with pytest.raises(DomainError):
        decay_rate_check(p, "j_tail", (10.0, 5.0), 1.0)
    with pytest.raises(DomainError):
        singularity_rate_check(p, "j_tail", (0.1, 0.9), 1.0)
    with pytest.raises(DomainError):
        decay_rate_check(p, "nope", (10.0, 100.0), 1.0)
    # a degenerate grid, a non-integer point count or a non-finite rate
    # cannot be fitted
    for n_points in (1, 0, 2.5, 3.0):
        with pytest.raises(DomainError):
            decay_rate_check(p, "j_tail", (10.0, 100.0), 1.0, n_points=n_points)
        with pytest.raises(DomainError):
            singularity_rate_check(p, "j_tail", (1e-3, 0.5), 1.0, n_points=n_points)
    for rate in (np.nan, np.inf):
        with pytest.raises(DomainError):
            decay_rate_check(p, "j_tail", (10.0, 100.0), rate)
        with pytest.raises(DomainError):
            singularity_rate_check(p, "j_tail", (1e-3, 0.5), rate)


def test_radiation_battery():
    rep1 = radiation_classify(hankel_outgoing_field(1.0), 1.0, 10.0, 1e3, 0.75)
    assert (rep1.verdict_src, rep1.verdict_gsrc) == (True, True)
    rep2 = radiation_classify(hankel_incoming_field(1.0), 1.0, 10.0, 1e3, 0.75)
    assert (rep2.verdict_src, rep2.verdict_gsrc) == (False, False)
    p = Problem(3, 0.3, 1.0)
    rep3 = radiation_classify(green_radial_field(p), 1.0, 10.0, 1e3, 0.75)
    assert (rep3.verdict_src, rep3.verdict_gsrc) == (True, True)
    for rep in (rep1, rep2, rep3):
        assert rep.verdict_src == rep.verdict_gsrc


def test_radiation_gsrc_partial_nondecreasing():
    rep = radiation_classify(hankel_outgoing_field(1.0), 1.0, 10.0, 500.0, 0.8)
    cum = [v for _, v in rep.gsrc_partial]
    assert np.all(np.diff(cum) >= 0.0)
    assert rep.delta == 0.8


def test_radiation_requires_gradient():
    class NoGrad:
        n = 2

        def value(self, x):
            return 1.0

    with pytest.raises(DomainError):
        radiation_classify(NoGrad(), 1.0, 10.0, 100.0, 0.75)
    with pytest.raises(DomainError):
        radiation_classify(hankel_outgoing_field(1.0), 1.0, 10.0, 100.0, 0.4)
    for r0, r_max in ((10.0, np.inf), (10.0, np.nan), (np.nan, 100.0), ("10", 100.0), (10.0, "100"),
                      (np.array([10.0, 20.0]), 100.0)):
        with pytest.raises(DomainError):
            radiation_classify(hankel_outgoing_field(1.0), 1.0, r0, r_max, 0.75)
    with pytest.raises(DomainError):
        radiation_classify(hankel_outgoing_field(1.0), 1.0, 10.0, 100.0, "0.75")
    for k in (np.nan, np.inf, 0.0, -1.0, np.array([1.0]), True):
        with pytest.raises(DomainError):
            radiation_classify(hankel_outgoing_field(1.0), k, 10.0, 100.0, 0.75)
    h1 = hankel_outgoing_field(1.0)
    with pytest.raises(DomainError):
        radiation_classify(RadialField(4, h1.value_fn, h1.deriv_fn), 1.0, 10.0, 100.0, 0.75)


def test_radiation_classify_evaluates_field_once():
    field = hankel_outgoing_field(1.0)
    seen = {"value": [], "deriv": []}

    def counted(name, fn):
        def wrapper(r):
            seen[name].append(np.size(r))
            return fn(r)
        return wrapper

    field = RadialField(field.n, counted("value", field.value_fn),
                        counted("deriv", field.deriv_fn))
    rep = radiation_classify(field, 1.0, 10.0, 1e3, 0.75)
    # 7 profile radii plus 6 Gauss nodes in each of the 6 shells, in one call each
    assert seen == {"value": [43], "deriv": [43]}
    assert (rep.verdict_src, rep.verdict_gsrc) == (True, True)


def test_warm_rules_build_no_gauss_legendre():
    # a second radiation report and a second cosh-integral Hankel value reuse
    # the cached Gauss-Legendre rules
    for call in (lambda: radiation_classify(hankel_outgoing_field(1.0), 1.0, 10.0, 1e3, 0.75),
                 lambda: hankel1_0(3.0 + 10.0j)):
        call()
        misses = gauss_legendre.cache_info().misses
        call()
        assert gauss_legendre.cache_info().misses == misses


def test_radiation_green_profile_matches_tight_reference():
    p = Problem(1, 0.75, 1.0)
    rep = radiation_classify(green_radial_field(p), 1.0, 10.0, 1e3, 0.75)
    tight = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
    radii = np.array([r for r, _ in rep.src_profile])
    g = sum(green_eval_batch(p, 0.0, radii, tight)[:3])
    dg = green_radial_derivative(p, 0.0, radii, tight)
    ref = np.abs(dg - 1j * g)      # n = 1: the weight r^{(n-1)/2} is 1
    got = np.array([v for _, v in rep.src_profile])
    assert np.max(np.abs(got - ref) / ref) < 1e-8


def test_lap_slope_regimes():
    assert 0.8 <= lap_slope(Problem(1, 0.3, 1.0), 2.0, [1e-1, 1e-2, 1e-3]) <= 1.2
    assert 0.8 <= lap_slope(Problem(3, 0.75, 1.0), 1.0, [1e-1, 1e-2, 1e-3]) <= 1.2


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("eps", [[1e-1, 1e-2], [1e-1, 1e-2, 1e-3],
                                 [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]])
def test_lap_makes_one_tail_call(monkeypatch, n, eps):
    # eps = 0 and every eps are columns of one tail pass, whatever their number
    calls = {"tail": 0, "engine": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(green, "_tail_batch", counting("tail", green._tail_batch))
    for attr in ("_exp_weighted_batch", "integrate_bessel_transform"):
        monkeypatch.setattr(green, attr, counting("engine", getattr(green, attr)))
    slope, diffs = lap_differences(Problem(n, 0.3, 1.0), 2.0, eps)
    assert calls["tail"] == 1 and calls["engine"] <= 1
    assert diffs.shape == (len(eps),) and 0.8 <= slope <= 1.2


@pytest.mark.parametrize("s", [0.25, 0.5])
def test_2d_lap_evaluates_closed_forms_once(monkeypatch, s):
    # the Helmholtz part and the Struve term take every k_eps in one call
    import frachelm.kernels as kernels
    calls = {"hankel1_0": 0, "struve_k0": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(kernels, "hankel1_0", counting("hankel1_0", kernels.hankel1_0))
    monkeypatch.setattr(green, "struve_k0", counting("struve_k0", green.struve_k0))
    lap_differences(Problem(2, s, 1.0), 2.0, [1e-1, 1e-2, 1e-3])
    assert calls["hankel1_0"] == 1 and calls["struve_k0"] <= 1, calls


def test_lap_slope_guards():
    p = Problem(1, 0.3, 1.0)
    with pytest.raises(DomainError):
        lap_slope(p, 2.0, [1e-2, 1e-2])          # not strictly decreasing
    with pytest.raises(DomainError):
        lap_slope(p, 2.0, [0.0, 0.0])
    # differences below 10x the quadrature error are inconclusive
    with pytest.raises(AccuracyError):
        lap_slope(p, 2.0, [1e-5, 1e-6], QuadratureSpec(rel_tol=1e-4, abs_tol=1e-6))


@pytest.mark.parametrize("call", [
    lambda p: lap_differences(p, np.array([1.0, 2.0]), [1e-1, 1e-2]),   # one radius only
    lambda p: lap_differences(p, 2.0, np.array([[1e-1, 1e-2]])),       # a 2-D eps_list
    lambda p: lap_differences(p, "1.5", [1e-1, 1e-2]),                 # a radius as text
    lambda p: lap_differences(p, True, [1e-1, 1e-2]),
    lambda p: lap_differences(p, np.array(1.5 + 0j), [1e-1, 1e-2]),
    lambda p: lap_differences(p, 1.5, ["0.1", "0.01"]),                # eps as text
    lambda p: lap_differences(p, 1.5, np.array([0.1, 0.01 + 0j])),
    lambda p: lap_differences(p, 1.5, [[0.1], 0.01]),                  # a ragged eps list
    lambda p: decay_rate_check(p, "j_tail", (10.0, np.inf), 1.0),      # an infinite window
    lambda p: decay_rate_check(p, "j_tail", np.array([[10.0, 100.0]]), 1.0),
    lambda p: decay_rate_check(p, "j_tail", 0.5, 1.0),
    lambda p: decay_rate_check(p, "j_tail", [], 1.0),
    lambda p: decay_rate_check(p, "j_tail", [[10.0, 100.0], [1.0]], 1.0),
    lambda p: decay_rate_check(p, "j_tail", "abc", 1.0),
    lambda p: singularity_rate_check(p, "j_tail", np.array([[1e-3, 0.1]]), 1.0),
    lambda p: singularity_rate_check(p, "j_tail", 0.5, 1.0),
    lambda p: singularity_rate_check(p, "j_tail", [], 1.0),
    lambda p: convolution_norm_check(p, PotentialGrid.build([-1.0] * 2, [1.0] * 2, 2, 1.0),
                                     0.75, 2.0),                        # a 2D source for 1D
    lambda p: convolution_norm_check(p, PotentialGrid.build([-1.0], [1.0], 2, 1.0), "0.75", 2.0),
    lambda p: convolution_norm_check(p, PotentialGrid.build([-1.0], [1.0], 2, 1.0), 0.75, "2.0"),
], ids=["radius-array", "eps-2d", "radius-text", "radius-bool", "radius-complex", "eps-text",
        "eps-complex", "eps-ragged", "window-inf", "window-2d", "window-scalar", "window-empty",
        "window-ragged", "window-text",
        "singularity-window-2d", "singularity-window-scalar", "singularity-window-empty",
        "source-dim", "delta-text", "truncation-text"])
def test_bad_diagnostics_input_raises_domain_error(call):
    # as green_eval does for a non-scalar radius: a DomainError before any
    # NumPy error or warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(Problem(1, 0.3, 1.0))


def test_convolution_norm_single_cell_and_scaling():
    p = Problem(1, 0.3, 1.0)
    q = np.zeros(8)
    q[3] = 1.0
    src = PotentialGrid.build([-1.0], [1.0], 8, q)
    ratio = convolution_norm_check(p, src, 0.75, 10.0)
    assert np.isfinite(ratio) and ratio > 0.0
    src2 = PotentialGrid.build([-1.0], [1.0], 8, 2.0 * q)
    ratio2 = convolution_norm_check(p, src2, 0.75, 10.0)
    assert ratio2 == pytest.approx(ratio, rel=1e-12)


def test_convolution_norm_truncation_stability():
    p = Problem(1, 0.3, 1.0)
    src = PotentialGrid.build([-1.0], [1.0], 12, lambda x: np.exp(-4 * x[:, 0] ** 2))
    r20 = convolution_norm_check(p, src, 0.75, 20.0)
    r40 = convolution_norm_check(p, src, 0.75, 40.0)
    assert abs(r40 - r20) / r20 < 0.2


def test_chunked_convolution_builds_each_tail_panel_once(monkeypatch, cold_panels):
    # at radius 20 a 2D 8^2 source's 1.6M weight rows take 13 chunks of 2^17;
    # they build each tabled tail panel once, as one call over all rows does,
    # and give its value
    p = Problem(2, 0.3, 1.0)
    src = PotentialGrid.build([-1.0, -1.0], [1.0, 1.0], 8,
                              lambda x: np.exp(-2.0 * np.sum(x ** 2, axis=1)))
    chunks, weights = [], scattering._volume_weights
    monkeypatch.setattr(scattering, "_volume_weights", lambda *a:
                        chunks.append(1) or weights(*a))
    chunked = convolution_norm_check(p, src, 0.75, 20.0)
    misses = cold_panels.cache_info().misses
    cold_panels.cache_clear()
    monkeypatch.setattr(scattering, "_ROW_BUDGET", 2 ** 30)
    whole = convolution_norm_check(p, src, 0.75, 20.0)
    assert len(chunks) == 13 + 1 and misses >= 1
    assert cold_panels.cache_info().misses == misses
    assert abs(chunked - whole) <= 1e-13 * whole


def test_convolution_norm_guards():
    p = Problem(1, 0.3, 1.0)
    src = PotentialGrid.build([-1.0], [1.0], 8, 0.0)
    with pytest.raises(DomainError):
        convolution_norm_check(p, src, 0.75, 10.0)    # identically zero source
    src = PotentialGrid.build([-1.0], [1.0], 8, 1.0)
    with pytest.raises(DomainError):
        convolution_norm_check(p, src, 0.3, 10.0)     # delta outside (1/2, 1)


@pytest.mark.parametrize("radius, k", [(np.inf, 1.0), (np.nan, 1.0), (0.0, 1.0), (-5.0, 1.0)])
def test_convolution_norm_rejects_bad_truncation(radius, k):
    src = PotentialGrid.build([-1.0], [1.0], 8, 1.0)
    with pytest.raises(DomainError):
        convolution_norm_check(Problem(1, 0.3, k), src, 0.75, radius)
