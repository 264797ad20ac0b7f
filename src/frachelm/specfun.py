"""Self-contained special functions used by the Green's-function formulas,
and the Gauss-Legendre rules every layer above integrates with.

Everything here except Gamma (Python's ``math.gamma``) is evaluated from first
principles (power series near the origin, Hankel asymptotic expansions at large
argument, and a contour-type integral representation in between), so the library
carries no special-function dependency.  The crossover radii are validated by
overlap-band tests.  ``gauss_legendre`` caches NumPy's rule per order and
``gauss_panels`` lays it on panels; no other module builds a Gauss-Legendre rule.
The Struve functions, e^{-y} integrals, live in ``green`` above ``quadrature``.

Branch convention: all complex powers/logs are principal, with the cut on
(-inf, 0].  Arguments on the cut raise :class:`DomainError`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606

# Crossover radii between evaluation regimes.  Chosen so series round-off and
# truncated-asymptotic error are both below ~1e-13 on the overlap band.
_ASYM_RADIUS = 14.0
_SERIES_IM_MAX = 2.5      # above this the J0+iY0 combination cancels too hard
_SERIES_TERMS = 48
_ASYM_TERMS = 16

_HARMONIC = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, _SERIES_TERMS + 2))])


# callers reuse a few orders and share the cached arrays, so none writes to them
gauss_legendre = lru_cache(maxsize=None)(leggauss)


def gauss_panels(edges, order):
    """Composite Gauss-Legendre rule with ``order`` nodes on each panel
    [edges[i], edges[i + 1]]: (nodes, weights), raveled panel by panel."""
    xg, wg = gauss_legendre(order)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * xg[None, :]).ravel(), (half * wg[None, :]).ravel()


def riesz_constant(n, s, j):
    """Riesz-potential constant c_{n,j} = Gamma(n/2 - s(j+1)) / (4^{s(j+1)} pi^{n/2} Gamma(s(j+1))).

    Defined when 0 < s(j+1) < n/2, which holds for every term retained by the
    m-selection rule.
    """
    if n not in (1, 2, 3):
        raise DomainError(f"dimension must be 1, 2 or 3, got {n}")
    if j < 0 or int(j) != j:
        raise DomainError(f"index j must be a nonnegative integer, got {j}")
    a = s * (j + 1)
    if not (0.0 < a < 0.5 * n):
        raise DomainError(f"riesz_constant needs 0 < s(j+1) < n/2; got s(j+1)={a}, n={n}")
    return math.gamma(0.5 * n - a) / (4.0 ** a * np.pi ** (0.5 * n) * math.gamma(a))


# ---------------------------------------------------------------------------
# Bessel functions of order 0 and 1 (series region)
# ---------------------------------------------------------------------------

def _j_series(z, nu):
    # J_nu(z) = (z/2)^nu sum_j (-z^2/4)^j / (j! (j + nu)!), nu in {0, 1}
    q = -0.25 * z * z
    term = np.ones_like(q)
    acc = np.ones_like(q)
    for j in range(1, _SERIES_TERMS):
        term = term * q / (j * (j + nu))
        acc = acc + term
    return acc if nu == 0 else 0.5 * z * acc


def _y0_series(z, j0):
    # (2/pi)[(ln(z/2)+gamma) J0 + sum_{j>=1} (-1)^{j+1} H_j (z^2/4)^j / (j!)^2],
    # j0 = _j_series(z, 0)
    q = 0.25 * z * z
    term = np.ones_like(q)
    acc = np.zeros_like(q)
    for j in range(1, _SERIES_TERMS):
        term = term * q / (j * j)
        sgn = -1.0 if (j % 2 == 0) else 1.0
        acc = acc + sgn * _HARMONIC[j] * term
    return (2.0 / np.pi) * ((np.log(0.5 * z) + EULER_GAMMA) * j0 + acc)


def _y1_series(z, j1):
    # DLMF 10.8.1 specialized to order 1, j1 = _j_series(z, 1)
    q = -0.25 * z * z
    term = np.ones_like(q)
    acc = (_HARMONIC[0] + _HARMONIC[1] - 2.0 * EULER_GAMMA) * term
    for j in range(1, _SERIES_TERMS):
        term = term * q / (j * (j + 1.0))
        acc = acc + (_HARMONIC[j] + _HARMONIC[j + 1] - 2.0 * EULER_GAMMA) * term
    return (2.0 / np.pi) * np.log(0.5 * z) * j1 - (2.0 / np.pi) / z \
        - (0.5 * z / np.pi) * acc


# ---------------------------------------------------------------------------
# Hankel asymptotic expansions, |z| large, -pi < arg z < 2 pi
# ---------------------------------------------------------------------------

def _hankel_asym_coeffs(nu):
    # a_k(nu) = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (k! 8^k)
    mu = 4.0 * nu * nu
    coeffs = [1.0]
    a = 1.0
    for k in range(1, _ASYM_TERMS):
        a *= (mu - (2 * k - 1) ** 2) / (k * 8.0)
        coeffs.append(a)
    return np.array(coeffs)


_A0 = _hankel_asym_coeffs(0)
_A1 = _hankel_asym_coeffs(1)


def _hankel1_asym(z, nu):
    coeffs = _A0 if nu == 0 else _A1
    acc = np.zeros_like(z)
    zinv = 1.0 / z
    p = np.ones_like(z)
    for k in range(_ASYM_TERMS):
        acc = acc + coeffs[k] * (1j ** k) * p
        p = p * zinv
    phase = z - 0.5 * nu * np.pi - 0.25 * np.pi
    return np.sqrt(2.0 / (np.pi * z)) * np.exp(1j * phase) * acc


# ---------------------------------------------------------------------------
# Real-argument J0 / J1 (vectorized; quadrature hot path)
# ---------------------------------------------------------------------------

def _real_bessel(x, nu):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < 0.0):
        raise DomainError("negative argument; callers must pass |x|")
    out = np.empty_like(x)
    small = x < _ASYM_RADIUS
    if np.any(small):
        out[small] = _j_series(x[small], nu)
    if np.any(~small):
        out[~small] = _hankel1_asym(x[~small].astype(complex), nu).real
    return float(out[0]) if scalar else out


def bessel_j0(x):
    """Bessel function J0 for real x >= 0 (scalar or ndarray)."""
    return _real_bessel(x, 0)


def bessel_j1(x):
    """Bessel function J1 for real x >= 0 (scalar or ndarray)."""
    return _real_bessel(x, 1)


# ---------------------------------------------------------------------------
# Hankel functions of complex argument
# ---------------------------------------------------------------------------

def _check_off_cut(z, name):
    z = np.asarray(z, dtype=complex)
    if np.any((z.real <= 0.0) & (z.imag == 0.0)):
        raise DomainError(f"{name} is not defined on the branch cut (-inf, 0]")
    return z


def _hankel1_cosh_integral(z, nu):
    # H0^(1)(z) = (2/(i pi)) int_0^inf e^{i z cosh t} dt,  Im z > 0.
    # H1^(1)(z) = -(2/pi)    int_0^inf e^{i z cosh t} cosh t dt.
    im = z.imag
    t_max = np.arccosh(1.0 + 46.0 / im)
    # panel count follows the total phase swing along the path
    cycles = (abs(z.real) * np.sinh(t_max) + im * (np.cosh(t_max) - 1.0)) / (2.0 * np.pi)
    npan = max(12, int(4 * cycles) + 4)
    t, w = gauss_panels(np.linspace(0.0, t_max, npan + 1), 16)
    ch = np.cosh(t)
    core = np.exp(1j * z * ch)
    if nu == 0:
        return (2.0 / (1j * np.pi)) * np.sum(w * core)
    return -(2.0 / np.pi) * np.sum(w * core * ch)


def _hankel1(z, nu):
    z = _check_off_cut(z, "hankel1")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty(z.shape, dtype=complex)
    big = np.abs(z) >= _ASYM_RADIUS
    if np.any(big):
        out[big] = _hankel1_asym(z[big], nu)
    series = ~big & (np.abs(z.imag) <= _SERIES_IM_MAX)
    if np.any(series):
        zs = z[series]
        jv = _j_series(zs, nu)
        out[series] = jv + 1j * (_y0_series(zs, jv) if nu == 0 else _y1_series(zs, jv))
    # |Im z| > _SERIES_IM_MAX inside the asymptotic radius: the cosh integral
    # above the real axis, and below it the reflection through H^(2),
    # H1(z) = 2 J(z) - conj(H1(conj z))
    for idx in np.flatnonzero(~big & ~series):
        zi = complex(z[idx])
        if zi.imag > 0.0:
            out[idx] = _hankel1_cosh_integral(zi, nu)
        else:
            jv = _j_series(np.complex128(zi), nu)
            out[idx] = 2.0 * complex(jv) - np.conj(_hankel1_cosh_integral(np.conj(zi), nu))
    return complex(out[0]) if scalar else out


def hankel1_0(z):
    """Hankel function H0^(1)(z) = J0(z) + i Y0(z) on C \\ (-inf, 0]."""
    return _hankel1(z, 0)


def hankel1_0_rel_error(z):
    """Relative error bound of ``hankel1_0(z)`` for Im z >= 0, by its path: on
    the power series (|z| < 14, Im z <= 2.5) eps e^{|z| + Im z}, as terms of
    about e^{|z|} sum to about e^{-Im z}; 3e-12 on the asymptotic series for
    |z| in [14, 15), measured against mpmath; at least 1e-12 everywhere.
    Raises :class:`DomainError` for Im z < 0: there the reflection and the
    asymptotic series miss by more than the bound of the mirror point z*
    (up to 2.4e-12 near 13.7 - 2.6i and 7.7e-12 just past |z| = 14 near the
    negative imaginary axis)."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0.0):
        raise DomainError("hankel1_0_rel_error bounds only Im z >= 0")
    az = np.abs(z)
    rel = np.full(z.shape, 1e-12)
    series = (az < _ASYM_RADIUS) & (z.imag <= _SERIES_IM_MAX)
    rel[series] = np.maximum(1e-12, np.finfo(float).eps * np.exp(az[series] + z.imag[series]))
    rel[(az >= _ASYM_RADIUS) & (az < 15.0)] = 3e-12
    return rel


def hankel1_1(z):
    """Hankel function H1^(1)(z) = -d/dz H0^(1)(z), used for radial derivatives."""
    return _hankel1(z, 1)


# ---------------------------------------------------------------------------
# Zeros of J0 and the averaging of cell series: the oscillatory partitions
# ---------------------------------------------------------------------------

_J0_ZEROS_CACHE: list[float] = []


def j0_zeros(count):
    """First `count` positive zeros of J0 (McMahon start + Newton polish)."""
    while len(_J0_ZEROS_CACHE) < count:
        ell = len(_J0_ZEROS_CACHE) + 1
        beta = (ell - 0.25) * np.pi
        x = beta + 1.0 / (8.0 * beta) - 31.0 / (384.0 * beta ** 3)
        for _ in range(4):
            x += bessel_j0(x) / bessel_j1(x)  # J0' = -J1
        _J0_ZEROS_CACHE.append(float(x))
    return np.array(_J0_ZEROS_CACHE[:count])


def iterated_average(partials):
    """Iterated averaging of partial sums along axis 0, column by column.

    Returns (limit estimate, error estimate); the error is the change between
    the last two averaging stages.  Resums the alternating cell series of the
    oscillatory partitions of the quadrature engine (the Bessel transform and
    the Fourier oracle's integrals).
    """
    t = np.asarray(partials, dtype=complex)
    if t.shape[0] == 1:
        return t[0], np.abs(t[0])
    while t.shape[0] > 1:
        prev = t[-1]
        t = 0.5 * (t[:-1] + t[1:])
    return t[0], np.abs(t[0] - prev)


# ---------------------------------------------------------------------------
# Exponential integral E1
# ---------------------------------------------------------------------------

_E1_SERIES_RADIUS = 3.0


def expint_e1(z):
    """Principal-branch exponential integral E1(z), z != 0, z not in (-inf, 0]."""
    z = complex(np.asarray(z, dtype=complex))
    if z == 0:
        raise DomainError("expint_e1 is singular at 0")
    _check_off_cut(z, "expint_e1")
    if abs(z) <= _E1_SERIES_RADIUS:
        # E1 = -gamma - ln z + sum_{k>=1} (-1)^{k+1} z^k / (k k!)
        acc = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for k in range(1, 120):
            term *= -z / k
            delta = -term / k
            acc += delta
            if abs(delta) < 1e-18 * (1.0 + abs(acc)):
                break
        return -EULER_GAMMA - np.log(z) + acc
    # modified-Lentz continued fraction: E1 = e^{-z} / (z + 1 - 1/(z+3 - 4/(z+5 - ...)))
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        a = -(i * i)
        b += 2.0
        d = a * d + b
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * np.exp(-z)
