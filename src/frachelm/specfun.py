"""Self-contained special functions used by the Green's-function formulas,
and the Gauss-Legendre rules every layer above integrates with.

Everything here except Gamma (Python's ``math.gamma``) is evaluated from first
principles (power series near the origin, Hankel asymptotic expansions at large
argument, and a contour-type integral representation in between), so the library
carries no special-function dependency.  The crossover radii are validated by
overlap-band tests.  A series is one array pass: a table of powers, x^j along a
leading axis, times an import-time row of coefficients, summed in j order; the
Hankel power series reads one table for J and Y, the iterated average sums its
partials with binomial weights.  A large call runs in blocks of at most
_TABLE_BYTES of table each.  A point takes the same arithmetic alone and in
any array (real arguments in real arithmetic), so an array call is its
scalar calls bit for bit.  ``gauss_legendre`` caches NumPy's rule per order and
``gauss_panels`` lays it on panels; no other module builds a Gauss-Legendre rule.
The Struve functions, e^{-y} integrals, live in ``green`` above ``quadrature``.

Branch convention: all complex powers/logs are principal, with the cut on
(-inf, 0].  Arguments on the cut raise :class:`DomainError`, as do Hankel
arguments with Im z < 0 (every caller passes k_eps r, k_eps in the first quadrant).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

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
_TABLE_BYTES = 192 * 1024  # per table of powers: 512 real points of the power series

# rows of the coefficients of q^j, q = -z^2/4, j < _SERIES_TERMS: 1/(j! (j+nu)!)
# for J0 and J1, -H_j/(j!)^2 for Y0, (H_j + H_{j+1} - 2 gamma)/(j! (j+1)!) for Y1;
# j! H_j = j (j-1)! H_{j-1} + (j-1)! is an integer, so each is rounded once
_FACT = [math.factorial(j) for j in range(_SERIES_TERMS + 1)]
_FACT_H = list(accumulate(range(1, _SERIES_TERMS + 1), lambda h, j: j * h + _FACT[j - 1],
                          initial=0))
_J_ROWS = [np.array([1 / (_FACT[j] * _FACT[j + nu]) for j in range(_SERIES_TERMS)])
           for nu in (0, 1)]
_Y0_ROW = np.array([-_FACT_H[j] / _FACT[j] ** 3 for j in range(_SERIES_TERMS)])
_Y1_ROW = np.array([(((j + 1) * _FACT_H[j] + _FACT_H[j + 1]) / _FACT[j + 1] - 2.0 * EULER_GAMMA)
                    / (_FACT[j] * _FACT[j + 1]) for j in range(_SERIES_TERMS)])
# i^k a_k(nu) of the Hankel asymptotic series, k < _ASYM_TERMS, with
# a_k(nu) = prod_{j=1..k} (mu - (2j-1)^2) / (k! 8^k), mu = 4 nu^2
_ASYM_ROWS = [np.array([1j ** k * (math.prod(mu - (2 * j - 1) ** 2 for j in range(1, k + 1))
                                   / (_FACT[k] * 8 ** k)) for k in range(_ASYM_TERMS)])
              for mu in (0, 4)]


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
# Term sums (a table of powers times a coefficient row, summed in order) and
# the Bessel power series of order 0 and 1
# ---------------------------------------------------------------------------

def _powers(x, count):
    # x^0 .. x^(count-1) along a new leading axis, by doubling: rows [m, 2m)
    # are rows [0, m) times x^m = x^(m-1) x
    table = np.empty((count,) + np.shape(x), dtype=np.result_type(x, 1.0))
    table[0], m = 1.0, 1
    while m < count:
        k = min(m, count - m)
        np.multiply(table[:k], table[m - 1] * x, out=table[m:m + k])
        m += k
    return table


def _ordered_sum(table, coeffs):
    """sum_j coeffs[j] table[j], added in j order: NumPy reduces a leading axis
    row by row, but pairs the terms up when they are all it has (one point,
    1-D partials), so cumsum takes that case.  A pairwise sum or a BLAS dot
    would make an array's bits differ from its points' scalar calls."""
    terms = table * coeffs.reshape(coeffs.shape + (1,) * (table.ndim - 1))
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    return np.cumsum(terms, axis=0, out=terms)[-1]


def _in_blocks(f, z, out, mask, rows):
    """out[mask] = f(z[mask]) for 1-D z and an f whose table of powers has
    ``rows`` rows, in calls whose tables stay within _TABLE_BYTES; the real
    points of a complex z go as real numbers, in calls of their own, so a
    point takes the same arithmetic in any array."""
    if z.dtype.kind == "c":
        on_axis = z.imag == 0.0
        _in_blocks(f, z.real, out, mask & on_axis, rows)
        mask = mask & ~on_axis
    idx, step = np.flatnonzero(mask), _TABLE_BYTES // (rows * z.itemsize)
    for lo in range(0, idx.size, step):
        part = idx[lo:lo + step]
        out[part] = f(z[part])


def _j_series(z, nu, table=None):
    # J_nu(z) = (z/2)^nu sum_j q^j / (j! (j + nu)!), nu in {0, 1}, from the
    # table of powers of q = -z^2/4 when given
    table = _powers(-0.25 * z * z, _SERIES_TERMS) if table is None else table
    acc = _ordered_sum(table, _J_ROWS[nu])
    return acc if nu == 0 else 0.5 * z * acc


def _y0_series(z, j0, table):
    # (2/pi)[(ln(z/2)+gamma) J0 - sum_{j>=1} H_j q^j / (j!)^2], j0 = J0(z)
    acc = _ordered_sum(table, _Y0_ROW)
    return (2.0 / np.pi) * ((np.log(0.5 * z) + EULER_GAMMA) * j0 + acc)


def _y1_series(z, j1, table):
    # DLMF 10.8.1 specialized to order 1, j1 = J1(z)
    acc = _ordered_sum(table, _Y1_ROW)
    return (2.0 / np.pi) * np.log(0.5 * z) * j1 - (2.0 / np.pi) / z \
        - (0.5 * z / np.pi) * acc


# ---------------------------------------------------------------------------
# Hankel asymptotic expansions, |z| large, -pi < arg z < 2 pi
# ---------------------------------------------------------------------------

def _hankel1_asym(z, nu):
    # sqrt(2/(pi z)) e^{i(z - nu pi/2 - pi/4)} sum_k i^k a_k(nu) / z^k (DLMF 10.17.5)
    acc = _ordered_sum(_powers(1.0 / z, _ASYM_TERMS), _ASYM_ROWS[nu])
    phase = z - 0.5 * nu * np.pi - 0.25 * np.pi
    return np.sqrt(2.0 / (np.pi * z)) * np.exp(1j * phase) * acc


# ---------------------------------------------------------------------------
# Real-argument J0 / J1 (vectorized; quadrature hot path)
# ---------------------------------------------------------------------------

def _real_bessel(x, nu):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("negative argument; callers must pass |x|")
    shape, x = x.shape, x.ravel()
    out = np.empty_like(x)
    small = x < _ASYM_RADIUS
    _in_blocks(lambda v: _j_series(v, nu), x, out, small, _SERIES_TERMS)
    _in_blocks(lambda v: _hankel1_asym(v, nu).real, x, out, ~small, _ASYM_TERMS)
    return out.reshape(shape) if shape else float(out[0])


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


def _hankel1_series(z, nu):
    # J + iY from one table of powers of q = -z^2/4
    table = _powers(-0.25 * z * z, _SERIES_TERMS)
    jv = _j_series(z, nu, table)
    return jv + 1j * (_y0_series if nu == 0 else _y1_series)(z, jv, table)


def _hankel1(z, nu):
    z = _check_off_cut(z, "hankel1")
    if np.any(z.imag < 0.0):
        raise DomainError("hankel1 is evaluated on Im z >= 0 only")
    shape, z = z.shape, z.ravel()
    out = np.empty(z.shape, dtype=complex)
    big = np.abs(z) >= _ASYM_RADIUS
    series = ~big & (z.imag <= _SERIES_IM_MAX)
    _in_blocks(lambda v: _hankel1_asym(v, nu), z, out, big, _ASYM_TERMS)
    _in_blocks(lambda v: _hankel1_series(v, nu), z, out, series, _SERIES_TERMS)
    # Im z > _SERIES_IM_MAX inside the asymptotic radius: the cosh integral
    for idx in np.flatnonzero(~big & ~series):
        out[idx] = _hankel1_cosh_integral(complex(z[idx]), nu)
    return out.reshape(shape) if shape else complex(out[0])


def hankel1_0(z):
    """Hankel function H0^(1)(z) = J0(z) + i Y0(z) on Im z >= 0 without the cut
    (-inf, 0]; Im z < 0 raises :class:`DomainError`."""
    return _hankel1(z, 0)


def hankel1_0_rel_error(z):
    """Relative error bound of ``hankel1_0(z)`` for Im z >= 0, by its path: on
    the power series (|z| < 14, Im z <= 2.5) eps e^{|z| + Im z}, as terms of
    about e^{|z|} sum to about e^{-Im z}; 3e-12 on the asymptotic series for
    |z| in [14, 15), measured against mpmath; at least 1e-12 everywhere.
    ``hankel1_1`` stays within it too (worst seen 0.88 of it, at z = 14).
    Raises :class:`DomainError` for Im z < 0, where ``hankel1_0`` is not
    evaluated.  A real z skips the complex pass."""
    z = np.asarray(z)
    az = np.abs(z)
    if z.dtype.kind != "c":     # a real z: Im z = 0, no complex pass
        series, ez = az < _ASYM_RADIUS, az
    elif np.any(z.imag < 0.0):
        raise DomainError("hankel1_0_rel_error bounds only Im z >= 0")
    else:
        series, ez = (az < _ASYM_RADIUS) & (z.imag <= _SERIES_IM_MAX), az + z.imag
    rel = np.full(z.shape, 1e-12)
    rel[series] = np.maximum(1e-12, np.finfo(float).eps * np.exp(ez[series]))
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
    """First `count` positive zeros of J0 (McMahon start + Newton polish, one
    array pass over the zeros not cached yet, as an array call of the Bessel
    functions is its scalar calls)."""
    if count > len(_J0_ZEROS_CACHE):
        beta = [(ell - 0.25) * np.pi for ell in range(len(_J0_ZEROS_CACHE) + 1, count + 1)]
        x = np.array([b + 1.0 / (8.0 * b) - 31.0 / (384.0 * b ** 3) for b in beta])
        for _ in range(4):
            x += bessel_j0(x) / bessel_j1(x)  # J0' = -J1
        _J0_ZEROS_CACHE.extend(x.tolist())
    return np.array(_J0_ZEROS_CACHE[:count])


@lru_cache(maxsize=64)
def _binomial_weights(count):
    # C(count-1, i) / 2^(count-1), each an integer ratio rounded once: exact
    # while C(count-1, i) < 2^53, i.e. for count <= 57; shared, never written
    return np.array([math.comb(count - 1, i) / 2 ** (count - 1) for i in range(count)])


def iterated_average(partials):
    """Iterated averaging of partial sums along axis 0, column by column.

    Averaging neighbours L - 1 times takes the partial sums p_0 .. p_{L-1} to
    sum_i C(L-1, i) p_i / 2^(L-1), and the stage before its last to the same
    mean of p_1 .. p_{L-1} with weights C(L-2, i) / 2^(L-2); both are formed
    directly, by exact binomial weights summed in order.  Returns (limit
    estimate, error estimate); the error is the change between those two
    stages.  Resums the alternating cell series of the oscillatory partitions
    of the quadrature engine (the Bessel transform and the Fourier oracle's
    integrals); real partials stay real.
    """
    t = np.asarray(partials)
    if t.shape[0] == 1:
        return t[0], np.abs(t[0])
    limit = _ordered_sum(t, _binomial_weights(t.shape[0]))
    return limit, np.abs(limit - _ordered_sum(t[1:], _binomial_weights(t.shape[0] - 1)))


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
