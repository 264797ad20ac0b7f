"""Special-function tests: anchors, dual-path overlap bands, identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frachelm.errors import DomainError
from frachelm import specfun as sf
from frachelm.quadrature import integrate_partitioned


# ---------------------------------------------------------------------------
# independent mini-oracles (kept deliberately naive)
# ---------------------------------------------------------------------------

def j0_series_oracle(x, terms=60):
    acc, term = 1.0, 1.0
    for j in range(1, terms):
        term *= -(x * x / 4.0) / (j * j)
        acc += term
    return acc


def y0_series_oracle(x, terms=60):
    gamma = 0.5772156649015328606
    acc, term, harm = 0.0, 1.0, 0.0
    for j in range(1, terms):
        term *= (x * x / 4.0) / (j * j)
        harm += 1.0 / j
        acc += (-1.0) ** (j + 1) * harm * term
    return 2.0 / np.pi * ((np.log(x / 2.0) + gamma) * j0_series_oracle(x) + acc)


# ---------------------------------------------------------------------------
# Riesz constants
# ---------------------------------------------------------------------------

def test_riesz_constant_anchor_3d_half():
    assert sf.riesz_constant(3, 0.5, 0) == pytest.approx(1.0 / (2.0 * np.pi ** 2), rel=1e-13)


def test_riesz_constant_derived_values():
    expect = math.gamma(0.75) / (4.0 ** 0.25 * np.pi * math.gamma(0.25))
    assert sf.riesz_constant(2, 0.25, 0) == pytest.approx(expect, rel=1e-13)
    assert sf.riesz_constant(3, 0.25, 1) == pytest.approx(1.0 / (2.0 * np.pi ** 2), rel=1e-13)


@given(st.sampled_from([1, 2, 3]), st.floats(0.05, 0.95), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_riesz_constant_positive(n, s, j):
    if 0.0 < s * (j + 1) < 0.5 * n:
        assert sf.riesz_constant(n, s, j) > 0.0
    else:
        with pytest.raises(DomainError):
            sf.riesz_constant(n, s, j)


@pytest.mark.parametrize("n, s, j", [(4, 0.3, 0), (2, 0.3, -1), (2, 0.3, 0.5)])
def test_riesz_constant_rejects_dimension_and_index(n, s, j):
    with pytest.raises(DomainError):
        sf.riesz_constant(n, s, j)


# ---------------------------------------------------------------------------
# Bessel / Hankel
# ---------------------------------------------------------------------------

def test_j0_at_zero_and_series_agreement():
    assert sf.bessel_j0(0.0) == 1.0
    for x in (0.3, 1.0, 4.0, 9.5):
        assert sf.bessel_j0(x) == pytest.approx(j0_series_oracle(x), abs=1e-13)


def test_j0_first_zero_by_bisection():
    # bisect the independent series oracle, then check the library value there
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if j0_series_oracle(lo) * j0_series_oracle(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(2.40482555769577, abs=1e-12)
    assert abs(sf.bessel_j0(root)) < 1e-12


def test_j0_large_argument_asymptotic():
    x = 50.0
    lead = np.sqrt(2.0 / (np.pi * x)) * np.cos(x - np.pi / 4.0)
    assert sf.bessel_j0(x) == pytest.approx(lead, abs=1e-3)


def test_j0_domain():
    with pytest.raises(DomainError):
        sf.bessel_j0(-1.0)


def test_series_asymptotic_overlap_band():
    # both evaluation paths agree on the crossover band (design decision)
    band = np.linspace(12.5, 15.5, 13)
    for x in band:
        series = j0_series_oracle(x, terms=80)
        asym = sf._hankel1_asym(np.complex128(x), 0).real
        assert abs(series - asym) < 1e-10
        y_series = y0_series_oracle(x, terms=80)
        y_asym = sf._hankel1_asym(np.complex128(x), 0).imag
        assert abs(y_series - y_asym) < 1e-10


def test_hankel1_0_against_series():
    z = 1.0
    expect = j0_series_oracle(z) + 1j * y0_series_oracle(z)
    assert sf.hankel1_0(z) == pytest.approx(expect, rel=1e-12)


def test_hankel1_0_conjugate_identity():
    for x in (0.7, 3.0, 11.0):
        h = sf.hankel1_0(x)
        assert np.conj(h) == pytest.approx(complex(j0_series_oracle(x), -y0_series_oracle(x)),
                                           rel=1e-10)


def test_hankel1_0_upper_half_plane_decay():
    # |H0^(1)(z)| ~ sqrt(2/(pi |z|)) e^{-Im z} in the upper half-plane
    for z in (20.0 + 5.0j, 8.0 + 8.0j, 30.0 + 1.0j):
        expect = np.sqrt(2.0 / (np.pi * abs(z))) * np.exp(-z.imag)
        assert abs(sf.hankel1_0(z)) == pytest.approx(expect, rel=0.2)


def test_hankel1_0_region_consistency():
    # series, cosh-integral and asymptotic regions must agree at shared points
    a = sf.hankel1_0(3.0 + 2.4999j)
    b = sf._hankel1_cosh_integral(3.0 + 2.4999j, 0)
    assert a == pytest.approx(b, rel=1e-11)
    a = sf.hankel1_0(12.0 + 10.0j)
    b = complex(sf._hankel1_asym(np.complex128(12.0 + 10.0j), 0))
    assert a == pytest.approx(b, rel=1e-9)


def _hankel_misses(z, nu):
    """Relative miss of hankel1_{nu} at the points z against mpmath at 30
    digits; at its default 15 it misstates H0(1 + 12i) by 4e-10."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        exact = np.array([complex(mp.hankel1(nu, mp.mpc(complex(v)))) for v in z])
    got = (sf.hankel1_0 if nu == 0 else sf.hankel1_1)(z)
    return np.abs(got - exact) / np.abs(exact)


# |z| < 14 with |Im z| > 2.5: neither the power series nor the asymptotic series
_X, _Y = np.meshgrid(np.linspace(0.1, 13.5, 12), np.linspace(2.6, 13.9, 8))
_OFF_SERIES = (_X + 1j * _Y).ravel()[np.abs(_X + 1j * _Y).ravel() < 14.0]


def test_hankel1_1_cosh_integral_branch():
    assert np.all(_hankel_misses(_OFF_SERIES, 1) <= 1e-12)


@pytest.mark.parametrize("nu", [0, 1])
def test_hankel1_lower_half_plane_reflection(nu):
    # H1(z) = 2 J(z) - conj(H1(conj z)): the J series adds round-off of about
    # eps e^{|z|} to a value of size e^{|Im z|}
    z = _OFF_SERIES.conj()
    bound = np.maximum(1e-12, 10.0 * np.finfo(float).eps * np.exp(np.abs(z) + z.imag))
    assert np.all(_hankel_misses(z, nu) <= bound)


@pytest.mark.parametrize("z", [1.67 - 13.9j, 13.7 - 2.6j, 1.67 - 13.91j])
def test_hankel1_0_rel_error_refuses_the_lower_half_plane(z):
    with pytest.raises(DomainError):
        sf.hankel1_0_rel_error(z)
    with pytest.raises(DomainError):
        sf.hankel1_0_rel_error(np.array([5.0 + 0.0j, z]))
    assert sf.hankel1_0_rel_error(np.conj(z)) >= 1e-12
    assert sf.hankel1_0_rel_error(complex(z.real, -0.0)) >= 1e-12


def test_hankel1_0_misses_its_mirror_bound_below_the_axis():
    # why the bound stops at the axis: the reflection below |z| = 14 and the
    # asymptotic series just above it miss by more than the mirror point's bound
    z = np.array([13.75 - 2.55j, 1.67 - 13.91j])
    assert np.all(_hankel_misses(z, 0) > sf.hankel1_0_rel_error(z.conj()))


# |z| < 15 with 0 <= Im z <= 2.5, the real axis included: the power series, the
# asymptotic series, and a band across their crossover at |z| = 14
_GX, _GY = np.meshgrid(np.linspace(0.05, 14.95, 40), np.linspace(0.0, 2.5, 9))
_CHARGED = np.concatenate([
    (_GX + 1j * _GY).ravel()[np.abs(_GX + 1j * _GY).ravel() < 15.0],
    np.multiply.outer([13.9, 13.999, 14.0, 14.04], np.exp(1j * np.linspace(0.0, 0.17, 6))).ravel()])


@pytest.mark.parametrize("nu", [0, 1])
def test_hankel_misses_stay_within_their_charge(nu):
    # green._helm_rel charges hankel1_0_rel_error(k_eps r) to the 2D Helmholtz
    # part and to its r-derivative, which takes hankel1_1; worst seen 0.83 (H0)
    # and 0.88 (H1) of the charge, both at z = 14
    assert np.all(_hankel_misses(_CHARGED, nu) <= sf.hankel1_0_rel_error(_CHARGED))


def _mixed_points(count):
    # |z| up to 20 at angles from -0.3 to 1.2: every path of _hankel1, and a
    # third of the points on the real axis
    rng = np.random.default_rng(count)
    z = rng.uniform(0.05, 20.0, count) * np.exp(1j * rng.uniform(-0.3, 1.2, count))
    z[::3] = z[::3].real
    return z


@pytest.mark.parametrize("count", [1, 2, 7, 64, 500])
@pytest.mark.parametrize("name", ["hankel1_0", "hankel1_1", "bessel_j0", "bessel_j1"])
def test_array_call_is_its_scalar_calls_bit_for_bit(name, count):
    # a point takes the same arithmetic alone and in any array, so the term
    # sums keep their order: a BLAS dot or a pairwise sum regroups them
    f = getattr(sf, name)
    z = _mixed_points(count)
    z = np.abs(z) if name.startswith("bessel") else z
    assert np.array_equal(f(z), np.array([f(v) for v in z]))


def test_hankel_branch_cut():
    with pytest.raises(DomainError):
        sf.hankel1_0(-1.0 + 0.0j)
    with pytest.raises(DomainError):
        sf.hankel1_0(0.0)


def test_hankel_amplitude_bounded():
    x = np.linspace(1.0, 200.0, 100)
    amp = np.abs(sf.hankel1_0(x.astype(complex))) * np.sqrt(x)
    assert np.max(amp) < 1.2   # sqrt(2/pi) ~ 0.798 plus small-x excess


def test_wronskian():
    # J0 Y0' - J0' Y0 = 2/(pi x), derivatives via J0' = -J1, Y0' = -Y1;
    # Y0, Y1 are the imaginary parts of H0^(1), H1^(1) on the real axis
    for x in (0.5, 1.0, 5.0, 20.0):
        w = (-sf.bessel_j0(x) * sf.hankel1_1(x).imag
             + sf.bessel_j1(x) * sf.hankel1_0(x).imag)
        assert w == pytest.approx(2.0 / (np.pi * x), abs=1e-10)


def test_wronskian_finite_difference():
    h = 1e-6
    for x in (1.0, 5.0):
        dy0 = (sf.hankel1_0(x + h).imag - sf.hankel1_0(x - h).imag) / (2 * h)
        dj0 = (sf.bessel_j0(x + h) - sf.bessel_j0(x - h)) / (2 * h)
        w = sf.bessel_j0(x) * dy0 - dj0 * sf.hankel1_0(x).imag
        assert w == pytest.approx(2.0 / (np.pi * x), abs=1e-4)


def _stage_cascade(partials):
    # iterated averaging stage by stage: average neighbours until one value is
    # left; the error is the change over the last stage
    t = np.asarray(partials, dtype=complex)
    if t.shape[0] == 1:
        return t[0], np.abs(t[0])
    while t.shape[0] > 1:
        prev = t[-1]
        t = 0.5 * (t[:-1] + t[1:])
    return t[0], np.abs(t[0] - prev)


@pytest.mark.parametrize("columns", [None, 14], ids=["1d", "2d"])
@pytest.mark.parametrize("count", [1, 2, 30])
def test_iterated_average_matches_the_stage_cascade(count, columns):
    # partial sums of an alternating series of slowly decaying complex cells
    rng = np.random.default_rng(count)
    shape = (count,) if columns is None else (count, columns)
    sign = (-1.0) ** np.arange(count).reshape((count,) + (1,) * (len(shape) - 1))
    cells = sign * (rng.uniform(0.5, 1.5, shape) + 1j * rng.uniform(-1.0, 1.0, shape)) \
        / np.sqrt(1.0 + np.arange(count)).reshape(sign.shape)
    partials = np.cumsum(cells, axis=0)
    limit, err = sf.iterated_average(partials)
    ref_limit, ref_err = _stage_cascade(partials)
    ulps = 4.0 * np.finfo(float).eps * np.max(np.abs(partials), axis=0)
    assert np.shape(limit) == np.shape(err) == shape[1:]
    assert np.all(np.abs(limit - ref_limit) <= ulps)
    assert np.all(np.abs(err - ref_err) <= ulps)


def test_j0_zeros_polish_as_one_zero_at_a_time(monkeypatch):
    # the array Newton pass over the zeros not cached yet gives the bits of
    # polishing each zero alone, whatever the order of the requests
    def one_at_a_time(count):
        zeros = []
        for ell in range(1, count + 1):
            beta = (ell - 0.25) * np.pi
            x = beta + 1.0 / (8.0 * beta) - 31.0 / (384.0 * beta ** 3)
            for _ in range(4):
                x += sf.bessel_j0(x) / sf.bessel_j1(x)
            zeros.append(x)
        return np.array(zeros)
    ref = one_at_a_time(70)
    monkeypatch.setattr(sf, "_J0_ZEROS_CACHE", [])
    for count in (1, 3, 3, 17, 64, 10, 70):
        assert np.array_equal(sf.j0_zeros(count), ref[:count])


def test_j0_zeros_are_roots():
    zs = sf.j0_zeros(12)
    assert np.all(np.abs(sf.bessel_j0(zs)) < 5e-12)
    assert np.all(np.diff(zs) > 3.0)


@pytest.mark.parametrize("order", range(1, 25))
def test_gauss_panels_exact_to_degree_2_order_minus_1(order):
    # on every panel of uneven edges the rule integrates x^d, d <= 2 order - 1,
    # to round-off; the nodes and weights come panel by panel
    edges = np.array([-1.3, -0.2, 0.05, 0.9, 2.7])
    x, w = sf.gauss_panels(edges, order)
    assert x.shape == w.shape == (4 * order,)
    x, w = x.reshape(4, order), w.reshape(4, order)
    assert np.all((x > edges[:-1, None]) & (x < edges[1:, None]))
    for d in range(2 * order):
        exact = (edges[1:] ** (d + 1) - edges[:-1] ** (d + 1)) / (d + 1)
        scale = np.sum(w * np.abs(x) ** d, axis=1)
        assert np.all(np.abs(np.sum(w * x ** d, axis=1) - exact) <= 1e-13 * scale), d


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

def test_e1_at_one_quadrature_oracle():
    qr = integrate_partitioned(lambda t: np.exp(-t) / t, [1.0, 60.0])
    assert qr.value.real == pytest.approx(0.219383934395520, abs=1e-12)
    assert sf.expint_e1(1.0) == pytest.approx(0.219383934395520, rel=1e-10)


def test_e1_large_argument_asymptotic():
    z = 50.0
    lead = np.exp(-z) / z * (1.0 + 1.0 / z)
    assert sf.expint_e1(z) == pytest.approx(lead, rel=1e-3)


def test_e1_derivative_identity():
    h = 1e-6
    for z in (0.8, 2.0 + 1.5j, 5.0j):
        fd = (sf.expint_e1(z + h) - sf.expint_e1(z - h)) / (2 * h)
        assert fd == pytest.approx(-np.exp(-z) / z, rel=1e-7)


def test_e1_series_cf_crossover():
    # both branches agree around |z| = 3
    # the derivative identity couples nearby points across the series/CF
    # boundary, so a mismatch between branches would show up here
    for z in (2.9, 3.1, 2.9j, 3.1j, 2.0 + 2.0j, 2.3 + 2.0j):
        direct = sf.expint_e1(z)
        h = 0.05
        fd = (sf.expint_e1(z + h) - sf.expint_e1(z - h)) / (2 * h)
        assert fd == pytest.approx(-np.exp(-z) / z, rel=2e-3)
        assert np.isfinite(direct.real) and np.isfinite(direct.imag)


def test_e1_domain():
    with pytest.raises(DomainError):
        sf.expint_e1(0.0)
    with pytest.raises(DomainError):
        sf.expint_e1(-3.0 + 0.0j)
