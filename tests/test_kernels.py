"""Kernel building-block tests: regimes, F_m, F~_m, M, helm parts, tail terms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frachelm.errors import DomainError
from frachelm.green import _bracket, _exp_tail_terms
from frachelm.kernels import (
    HIGH, LOW_GENERIC, LOW_INTEGER, TAYLOR_WINDOW, Problem, classify_regime, dF_m_dr,
    dF_tilde_m_dr, F_m, F_tilde_m, helm_part, helm_part_dr, multiplier_M, spectral_shift,
)


# ---------------------------------------------------------------------------
# regimes and shifts
# ---------------------------------------------------------------------------

def test_classify_regime_examples():
    r = classify_regime(0.75)
    assert (r.branch, r.m) == (HIGH, 0)
    r = classify_regime(0.25)
    assert (r.branch, r.m) == (LOW_INTEGER, 2)
    r = classify_regime(0.3)
    assert (r.branch, r.m) == (LOW_GENERIC, 1)
    r = classify_regime(0.5)
    assert (r.branch, r.m) == (LOW_INTEGER, 1)


def test_classify_regime_snap_tolerance():
    r = classify_regime(0.25 + 1e-13)
    assert (r.branch, r.m) == (LOW_INTEGER, 2)
    r = classify_regime(0.5 - 1e-13)
    assert (r.branch, r.m) == (LOW_INTEGER, 1)
    r = classify_regime(0.25 + 1e-9)
    assert r.branch == LOW_GENERIC


def test_classify_regime_domain():
    for s in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            classify_regime(s)


@given(st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_regime_invariants(s):
    r = classify_regime(s)
    if r.branch == HIGH:
        assert s > 0.5 and r.m == 0
    else:
        assert r.m == int(np.floor(1.0 / (2.0 * s) + 1e-9))
        if r.branch == LOW_INTEGER:
            assert abs(2.0 * s * r.m - 1.0) < 1e-10


def test_problem_validation():
    with pytest.raises(DomainError):
        Problem(4, 0.3, 1.0)
    with pytest.raises(DomainError):
        Problem(2, 1.2, 1.0)
    with pytest.raises(DomainError):
        Problem(2, 0.3, -1.0)
    for k in (np.inf, np.nan, True, np.array([1.0])):
        with pytest.raises(DomainError):
            Problem(1, 0.5, k)
    with pytest.raises(DomainError):
        Problem(1, np.array([0.5]), 1.0)


@pytest.mark.parametrize("n", [True, 2.0])
def test_problem_dimension_must_be_an_integer(n):
    with pytest.raises(DomainError):
        Problem(n, 0.3, 1.0)
    assert Problem(np.int64(2), 0.3, 1.0).n == 2


def test_spectral_shift_admissibility():
    p = Problem(2, 0.25, 1.0)
    sh = spectral_shift(p, 0.3)
    assert 0.0 < np.angle(sh.k_eps) < np.pi / 2.0
    with pytest.raises(DomainError):
        spectral_shift(p, 1.0)        # boundary: arctan(1) == s pi exactly
    with pytest.raises(DomainError):
        spectral_shift(p, -0.1)
    assert spectral_shift(p, 0.0).k_eps == 1.0 + 0.0j
    # arctan(inf) = pi/2 < 0.75 pi would pass the admissibility test
    for eps in (np.inf, np.nan):
        with pytest.raises(DomainError):
            spectral_shift(Problem(1, 0.75, 1.0), eps)


# ---------------------------------------------------------------------------
# F_m and the corrector variant
# ---------------------------------------------------------------------------

def test_fm_m0_closed_form():
    s, k = 0.75, 1.3
    r = np.array([0.4, 2.2, 7.0])
    expect = 1.0 / (r ** (2 * s) - k ** (2 * s)) - k ** (2 - 2 * s) / (s * (r ** 2 - k ** 2))
    assert np.allclose(F_m(r, complex(k), s, 0), expect, rtol=1e-13)


def test_fm_value_at_k():
    # series value (1 - s - 2 s m) k^{-2s} / (2s), checked against the limit of
    # the closed form approached from outside the window
    for s, m in ((0.3, 1), (0.75, 0), (0.2, 2)):
        k = 1.4
        val = F_m(k, complex(k), s, m)
        expect = k ** (-2 * s) * (1 - s - 2 * s * m) / (2 * s)
        assert val == pytest.approx(expect, rel=1e-12)
        scale = k ** (-2 * s) / (2 * s)
        approach = F_m(k * (1 + 5e-3), complex(k), s, m)
        assert approach == pytest.approx(expect, abs=2e-2 * scale)


def test_fm_continuity_across_window():
    # |F_m(k +- h) - F_m(k)| -> 0 with observed order >= 1
    s, m, k = 0.3, 1, 1.0
    center = F_m(k, complex(k), s, m)
    hs = np.array([3e-2, 1.5e-2, 7.5e-3])     # straddle the 2e-2 k window edge
    errs = np.array([abs(F_m(k + h, complex(k), s, m) - center) for h in hs])
    assert np.all(np.diff(errs) < 0.0)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 0.9


def test_fm_derivative_series_vs_richardson():
    # the series window must match Richardson extrapolation of the direct
    # formula approached from outside the window: the mean of k + h and k - h
    # is exact up to O(h^2), which one extrapolation step removes
    s, m, k = 0.3, 1, 1.0
    window = dF_m_dr(k, complex(k), s, m)
    h1, h2 = 8e-2, 4e-2      # outside the 2e-2 k series window
    sym = lambda h: 0.5 * (dF_m_dr(k + h, complex(k), s, m) + dF_m_dr(k - h, complex(k), s, m))
    richardson = (4.0 * sym(h2) - sym(h1)) / 3.0
    assert window == pytest.approx(richardson, rel=1e-3)


# the window edge |u| = 2e-2, u = r/kc - 1, at kc = 1.3: largest relative
# errors against mpmath measured there (s = 1/6, 1/4, 0.3, 0.75), with margin
_EDGE_KC = 1.3
_EDGE_U = (-2.02e-2, -1.98e-2, 1.98e-2, 2.02e-2)


def _mp_kernels(s, m, kc=_EDGE_KC):
    """mpmath references of F_m, dF_m/dr and M(.; kc) at one radius."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    k, s_ = mp.mpmathify(kc), mp.mpf(s)

    def fm(r):
        return (k ** (2 * s_ * m) / (r ** (2 * s_ * m) * (r ** (2 * s_) - k ** (2 * s_)))
                - k ** (2 - 2 * s_) / (s_ * (r * r - k * k)))

    def mult(x):
        return ((k ** (2 * s_) * x ** (2 - 2 * s_) - k ** (2 - 2 * s_) * x ** (2 * s_))
                / (x ** (2 * s_) - k ** (2 * s_)))

    return lambda r: (complex(fm(mp.mpf(r))), complex(mp.diff(fm, mp.mpf(r))),
                      complex(mult(mp.mpf(r))))


def _kernel_errors(s):
    m = classify_regime(s).m
    ref = _mp_kernels(s, m)
    errs = []
    for u in _EDGE_U:
        r = _EDGE_KC * (1.0 + u)
        got = (F_m(r, _EDGE_KC + 0j, s, m), dF_m_dr(r, _EDGE_KC + 0j, s, m),
               multiplier_M(r, _EDGE_KC, s))
        errs.append([abs(g - e) / abs(e) for g, e in zip(got, ref(r))])
    return np.array(errs)          # (u, [F, dF, M])


@pytest.mark.parametrize("s", [1 / 6, 0.25, 0.3, 0.75])
def test_window_edge_against_mpmath(s):
    # just inside the edge is the series, just outside the closed form; the
    # closed form's cancellation r^{2s} - kc^{2s} costs the derivative most
    errs = _kernel_errors(s)
    assert np.all(errs[:, 0] <= 1e-11)
    assert np.all(errs[:, 1] <= 2e-9)
    assert np.all(errs[:, 2] <= 1e-13)
    inside = np.abs(_EDGE_U) < 2e-2
    assert np.all(errs[inside] <= 1e-15)


@pytest.mark.parametrize("s", [1 / 6, 0.25, 0.3, 0.75])
def test_closed_forms_off_window_against_mpmath(s):
    # the closed forms over twelve decades of real x, at real kc and at the
    # k_eps of eps = 0.3, within the bounds the kernels docstring states
    m = classify_regime(s).m
    for kc in (_EDGE_KC + 0j, spectral_shift(Problem(2, s, _EDGE_KC), 0.3).k_eps):
        x = np.logspace(-6, 6, 121)
        x = x[np.abs(x - kc) >= TAYLOR_WINDOW * abs(kc)]
        ref = _mp_kernels(s, m, kc)
        got = np.stack([F_m(x, kc, s, m), dF_m_dr(x, kc, s, m), multiplier_M(x, kc, s)], axis=1)
        want = np.array([ref(v) for v in x])
        errs = np.max(np.abs(got - want) / np.abs(want), axis=0)
        assert np.all(errs <= [1e-11, 2e-9, 1e-13])


def test_windowed_direct_takes_real_points(monkeypatch):
    # the closed forms raise the real points to real powers: _windowed hands
    # them the float array, with and without points in the Taylor window;
    # F_m and dF_m/dr return the dtype of (r, kc), M a complex
    import frachelm.kernels as kernels
    windowed, seen = kernels._windowed, []

    def spy(x, z, direct, series):
        def direct_spy(xx):
            seen.append(xx.dtype)
            return direct(xx)
        return windowed(x, z, direct_spy, series)

    monkeypatch.setattr(kernels, "_windowed", spy)
    for x in (np.array([0.5, 1.3, 2.0]), np.array([0.5, 2.0])):
        for kc in (1.3, 1.3 + 0j):
            outs = (F_m(x, kc, 0.3, 1), dF_m_dr(x, kc, 0.3, 1), multiplier_M(x, kc, 0.3))
            dtypes = (np.result_type(x, kc),) * 2 + (complex,)
            assert all(o.dtype == d and o.shape == x.shape for o, d in zip(outs, dtypes))
    assert len(seen) == 12 and all(d == np.float64 for d in seen)


def test_window_mask_is_the_disc_chord():
    # _windowed tests the disc |x - z| < TAYLOR_WINDOW |z| on the real axis as
    # its chord, in real arithmetic; on every float within 2,000 ulps of the
    # chord's ends it picks the points the complex test picks: at real kc,
    # and at the k_eps of eps = 0.3 for s = 0.75, k = 10 (a chord narrower
    # than the disc) and for s = 0.3, k = 1.3 (no chord, Im k_eps too large)
    import frachelm.kernels as kernels
    for kc in (_EDGE_KC, spectral_shift(Problem(2, 0.75, 10.0), 0.3).k_eps,
               spectral_shift(Problem(2, 0.3, _EDGE_KC), 0.3).k_eps):
        z = complex(kc)
        half = np.sqrt(max((TAYLOR_WINDOW * abs(z)) ** 2 - z.imag ** 2, 0.0))
        x = np.concatenate([e + np.arange(-2000.0, 2001.0) * np.spacing(e)
                            for e in (z.real - half, z.real + half)])
        near = kernels._windowed(x, kc, np.zeros_like, np.ones_like).real == 1.0
        assert np.array_equal(near, np.abs(x - kc) < TAYLOR_WINDOW * abs(kc)), kc


@pytest.mark.parametrize("s", [1 / 6, 0.25, 0.3, 0.75])
def test_window_series_truncation_at_edge(s, monkeypatch):
    # the 10-term series evaluated just outside its window, where the closed
    # form takes over: the truncation error it would carry there
    import frachelm.kernels as kernels
    monkeypatch.setattr(kernels, "TAYLOR_WINDOW", 1.0)
    errs = _kernel_errors(s)
    assert np.all(errs[:, [0, 2]] <= 1e-15)
    assert np.all(errs[:, 1] <= 1e-13)


def test_fm_decay_exponent():
    # F_m ~ r^{-min(2, 2s(m+1))} at infinity
    for s, m in ((0.3, 1), (0.75, 0)):
        expo = min(2.0, 2 * s * (m + 1))
        r = np.array([1e3, 1e4, 1e5])
        vals = np.abs(F_m(r, 1.0 + 0j, s, m)) * r ** expo
        assert np.max(vals) / np.min(vals) < 3.0


def test_f_tilde_zero_at_half():
    rng = np.random.default_rng(7)
    r = rng.uniform(0.01, 20.0, 100)
    vals = F_tilde_m(r, 1.3 + 0j, 0.5, 1)
    assert np.max(np.abs(vals)) < 1e-12


def test_f_tilde_small_r_behavior():
    # r^{1-2s} F~_m -> -k^{1-4s} as r -> 0 (real k)
    s, m, k = 0.25, 2, 1.7
    for r in (1e-6, 1e-8):
        val = F_tilde_m(r, complex(k), s, m) * r ** (1 - 2 * s)
        assert val == pytest.approx(-k ** (1 - 4 * s), rel=1e-2)


def test_f_tilde_removable_singularity_richardson():
    # centered averages kill odd orders; one Richardson step kills h^2:
    # the remaining O(h^4) sits well under the 1e-8 target
    s, m, k = 0.25, 2, 1.0
    center = F_tilde_m(k, complex(k), s, m)

    def centered(h):
        return 0.5 * (F_tilde_m(k + h, complex(k), s, m)
                      + F_tilde_m(k - h, complex(k), s, m))

    extrap = (4.0 * centered(4e-3) - centered(8e-3)) / 3.0
    assert extrap == pytest.approx(center, abs=1e-8)


def test_f_tilde_wrong_branch():
    with pytest.raises(DomainError):
        F_tilde_m(1.0, 1.0 + 0j, 0.3, 1)


# ---------------------------------------------------------------------------
# multiplier M
# ---------------------------------------------------------------------------

def test_multiplier_zero_at_half():
    xi = np.linspace(0.0, 50.0, 101)
    assert np.max(np.abs(multiplier_M(xi, 1.7 + 0.4j, 0.5))) == 0.0


def test_multiplier_limit_at_k():
    for s in (0.1, 0.3, 0.7, 0.9):
        k = 1.3
        lim = multiplier_M(k, complex(k), s)
        assert lim == pytest.approx((1 - 2 * s) * k ** (2 - 2 * s) / s, rel=1e-6)


def test_multiplier_factorization_identity():
    rng = np.random.default_rng(3)
    xi = np.concatenate([np.logspace(-2, 2, 40), rng.uniform(0.01, 100, 40)])
    for s in (0.1, 0.25, 0.4, 0.6, 0.85):
        for z in (1.0 + 0.0j, 0.8 + 0.6j, 2.0 + 0.1j):
            M = multiplier_M(xi, z, s)
            lhs = (xi ** (2 * s) - z ** (2 * s)) * (xi ** (2 - 2 * s) + z ** (2 - 2 * s) + M)
            rhs = xi ** 2 - z ** 2
            rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
            assert np.max(rel) < 1e-12


@given(st.floats(0.05, 0.95), st.floats(0.05, 3.0), st.floats(0.0, 1.4))
@settings(max_examples=150, deadline=None)
def test_multiplier_factorization_property(s, zr, zi):
    z = complex(zr, zi)
    xi = np.logspace(-1.5, 1.5, 9)
    M = multiplier_M(xi, z, s)
    lhs = (xi ** (2 * s) - z ** (2 * s)) * (xi ** (2 - 2 * s) + z ** (2 - 2 * s) + M)
    rhs = xi ** 2 - z ** 2
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-10


def test_multiplier_domain():
    with pytest.raises(DomainError):
        multiplier_M(1.0, 0.0, 0.3)
    with pytest.raises(DomainError):
        multiplier_M(-1.0, 1.0, 0.3)


# ---------------------------------------------------------------------------
# Helmholtz parts
# ---------------------------------------------------------------------------

def test_helm_part_formal_s1_is_classical():
    # with the s-dependent prefactor at s = 1 the 3D part is e^{ikr}/(4 pi r)
    k, r = 1.3, 0.7
    val = helm_part(3, 1.0, complex(k), r)
    assert val == pytest.approx(np.exp(1j * k * r) / (4 * np.pi * r), rel=1e-13)


def test_helm_part_1d_half():
    k, r = 1.0, 2.0
    assert helm_part(1, 0.5, complex(k), r) == pytest.approx(1j * np.exp(1j * k * r), rel=1e-13)


def test_helm_part_absorption_decay():
    p = Problem(3, 0.6, 1.0)
    kc = spectral_shift(p, 0.5).k_eps
    r = np.array([1.0, 5.0, 20.0])
    vals = np.abs(helm_part(3, 0.6, kc, r))
    expect = np.exp(-r * kc.imag) / (4 * np.pi * r) * abs(kc ** (2 - 2 * 0.6)) / 0.6
    assert np.allclose(vals, expect, rtol=1e-12)


def test_helm_part_derivative_fd():
    h = 1e-6
    for n in (1, 2, 3):
        kc = 1.2 + 0.3j
        s, r = 0.6, 1.7
        fd = (helm_part(n, s, kc, r + h) - helm_part(n, s, kc, r - h)) / (2 * h)
        assert helm_part_dr(n, s, kc, r) == pytest.approx(fd, rel=1e-8)


def test_helm_part_domain():
    with pytest.raises(DomainError):
        helm_part(3, 0.6, 1.0 + 0j, -1.0)
    with pytest.raises(DomainError):
        helm_part(3, 0.6, -1.0 + 0j, 1.0)
    for part in (helm_part, helm_part_dr):
        with pytest.raises(DomainError, match="dimension must be 1, 2 or 3"):
            part(4, 0.6, 1.0 + 0j, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_helm_parts_take_one_k_per_radius(n):
    # an array of k_eps is elementwise, bit for bit the scalar calls
    p = Problem(n, 0.3, 1.0)
    kc = np.array([spectral_shift(p, e).k_eps for e in (0.0, 1e-1, 1e-2, 1e-3, 0.5)])
    r = np.array([0.5, 2.0, 2.0, 6.0, 20.0])
    for part in (helm_part, helm_part_dr):
        got = part(n, p.s, kc, r)
        want = np.concatenate([part(n, p.s, complex(v), x) for v, x in zip(kc, r)])
        assert np.array_equal(got, want)
        for bad in (-1.0 + 0j, 1.0 - 1e-3j, 0j):
            with pytest.raises(DomainError):
                part(n, p.s, np.r_[kc[:2], bad], r[:3])


# (r, k_eps) with a bad radius, or a good radius and a non-finite k_eps
_BAD_ARGS = [pytest.param(r, 1.0 + 0j, id=str(r)) for r in (0.0, -1.0, np.nan, np.inf)] + [
    pytest.param(1.5, kc, id=f"kc-{kc}") for kc in (np.nan, np.inf, complex(1.0, np.nan))]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r, kc", _BAD_ARGS)
def test_helm_parts_reject_bad_radii(n, r, kc):
    # value and derivative share one check: a bad radius or k_eps raises,
    # never returns a number or NaN, alone or inside an array
    for part in (helm_part, helm_part_dr):
        for radii, kcs in ((r, kc), (np.array([1.0, r]), kc),
                           (np.array([1.0, r]), np.array([1.0 + 0j, kc]))):
            with pytest.raises(DomainError):
                part(n, 0.6, kcs, radii)


_SPECTRAL_KERNELS = {
    "F_m": lambda r, kc: F_m(r, kc, 0.3, 1),
    "dF_m_dr": lambda r, kc: dF_m_dr(r, kc, 0.3, 1),
    "F_tilde_m": lambda r, kc: F_tilde_m(r, kc, 0.25, 2),
    "dF_tilde_m_dr": lambda r, kc: dF_tilde_m_dr(r, kc, 0.25, 2),
    "multiplier_M": lambda xi, z: multiplier_M(xi, z, 0.3),
}


@pytest.mark.parametrize("name", sorted(_SPECTRAL_KERNELS))
@pytest.mark.parametrize("r, kc", [pytest.param(r, 1.0 + 0j, id=str(r))
                                   for r in (np.nan, np.inf, -np.inf)] + [
    pytest.param(1.5, kc, id=f"kc-{kc}") for kc in (np.nan, np.inf, -np.inf, complex(1.0, np.nan))])
def test_spectral_kernels_reject_non_finite_radii(name, r, kc):
    # a non-finite r (or xi), or a non-finite k_eps (or z), raises, never
    # returns nan+nanj, alone or inside an array
    for radii in (r, np.array([1.5, r])):
        with pytest.raises(DomainError):
            _SPECTRAL_KERNELS[name](radii, kc)


_KERNELS = {**_SPECTRAL_KERNELS, "helm_part": lambda r, kc: helm_part(2, 0.3, kc, r),
            "helm_part_dr": lambda r, kc: helm_part_dr(2, 0.3, kc, r)}


@pytest.mark.parametrize("name", sorted(_KERNELS))
@pytest.mark.parametrize("r", ["2.0", True, np.True_, 2.0 + 0j, [1.5, True],
                               np.array([1.5, None], dtype=object), [[1.0, 2.0], [3.0]]])
def test_kernels_reject_non_real_radii(name, r):
    # text is not parsed, a bool is not 1, a complex r keeps its imaginary
    # part and a ragged list does not reach NumPy
    with pytest.raises(DomainError):
        _KERNELS[name](r, 1.0)


# ---------------------------------------------------------------------------
# e^{-y} tail integrands (the prefactors and brackets the Green assembly uses)
# ---------------------------------------------------------------------------

def _tail_integrand(n, s, k, r, y):
    # pref(r) e^{-y} bracket(y), the complete integrand of the n = 1, 3 tail
    pref, _, c, tail = _exp_tail_terms(Problem(n, s, k), classify_regime(s),
                                       complex(k), np.array([r]))
    return pref[0] * np.exp(-y) * _bracket(y, c, *tail, 1)[:, 0]


def test_j_tail_integrand_1d_half_reduction():
    # n=1, s=1/2, real k: integrand reduces to (1/pi) y e^{-y} / (y^2 + k^2 r^2)
    k, r = 1.0, 2.0
    y = np.linspace(0.1, 8.0, 25)
    vals = _tail_integrand(1, 0.5, k, r, y)
    expect = y * np.exp(-y) / (np.pi * (y ** 2 + k ** 2 * r ** 2))
    assert np.allclose(vals, expect, rtol=1e-12)
    assert np.max(np.abs(np.imag(vals))) < 1e-15


def test_j_tail_integrand_3d_structure():
    # matches a hand-built bracket for n=3
    s, m, k, r = 0.3, 1, 1.0, 1.5
    y = np.array([0.5, 1.0, 3.0])
    c = k ** (2 * s) * r ** (2 * s)
    em = np.exp(1j * np.pi * s * m)
    ep = np.exp(1j * np.pi * s)
    bracket = em / (y ** (2 * s) / ep - c) - (1.0 / em) / (y ** (2 * s) * ep - c)
    pref = k ** (2 * s * m) / (4j * np.pi ** 2 * r ** (3 - 2 * s * (m + 1)))
    expect = pref * np.exp(-y) * y ** (1 - 2 * s * m) * bracket
    assert np.allclose(_tail_integrand(3, s, k, r, y), expect, rtol=1e-13)


def test_j_tail_integrand_bounded_by_p_lower_bound():
    # |integrand| <= |pref| e^{-y} y^{1-2sm} * 2 / sqrt(P_lb) pointwise
    s, m, k, r = 0.3, 1, 1.0, 2.0
    y = np.linspace(0.05, 15.0, 60)
    vals = np.abs(_tail_integrand(3, s, k, r, y))
    kr = k * r
    p_lb = (kr) ** (4 * s) * (1 - np.cos(np.pi * s) ** 2)
    pref = abs(k ** (2 * s * m) / (4 * np.pi ** 2 * r ** (3 - 2 * s * (m + 1))))
    bound = pref * np.exp(-y) * y ** (1 - 2 * s * m) * 2.0 / np.sqrt(p_lb)
    assert np.all(vals <= bound * (1 + 1e-12))


def test_helm_part_2d_log_singularity():
    # helm_part(n=2, r) / log(1/r) tends to a finite nonzero constant at 0
    s, k = 0.6, 1.0
    vals = []
    for r in (1e-4, 1e-6, 1e-8):
        vals.append(helm_part(2, s, complex(k), r) / np.log(1.0 / r))
    vals = np.array(vals)
    assert abs(vals[-1]) > 0.01
    assert abs(vals[-1] - vals[-2]) < 0.05 * abs(vals[-1])
