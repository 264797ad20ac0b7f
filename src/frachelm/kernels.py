"""Kernel building blocks: regimes, F_m, F~_m, the multiplier M and the
Helmholtz parts.  The e^{-y} tail integrand of n = 1, 3 lives with its
prefactors in ``green`` (``_exp_tail_terms``, ``_bracket``).

The kernels take arrays and return arrays: radii (or xi) in as a scalar or a
1-D array, a 1-D array out, a scalar being one element.

The removable singularities (F_m and F~_m at r = k_eps, M at xi = |z| for real
z) are evaluated through a power-series window in u = r/k_eps - 1 of relative
width ``TAYLOR_WINDOW``; outside the window the closed forms are used
directly, in real powers of the real r or xi.  Each function returns the
dtype it computes in: F_m, F~_m and their r-derivatives are real at a float
kc and complex otherwise, M and the Helmholtz parts complex.  The closed forms
subtract r^{2s} - kc^{2s} and r^2 - kc^2, so they lose accuracy as u shrinks; at the
window edge |u| = 2e-2 they hold F_m to 1e-11, M to 1e-13 and dF_m/dr to 2e-9
relative, while the 10-term series is exact to 2e-14 there (checked against
mpmath in the tests, at the edge and over logspace(-6, 6) off the window).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .errors import DomainError, is_count, is_real, is_real_kind
from .specfun import hankel1_0

TAYLOR_WINDOW = 2e-2      # relative window |r - kc| < TAYLOR_WINDOW * |kc|
_SERIES_TERMS = 10
REGIME_SNAP = 1e-12       # s within this of a 1/(2s)-integer boundary snaps to it

HIGH = "HIGH"
LOW_GENERIC = "LOW_GENERIC"
LOW_INTEGER = "LOW_INTEGER"


@dataclass(frozen=True)
class Problem:
    """Dimension, fractional order and wavenumber defining one operator."""

    n: int
    s: float
    k: float

    def __post_init__(self):
        if not (is_count(self.n) and self.n in (1, 2, 3)):
            raise DomainError(f"dimension must be 1, 2 or 3, got {self.n!r}")
        if not (is_real(self.s) and 0.0 < self.s < 1.0):
            raise DomainError(f"fractional order must lie in (0,1), got {self.s!r}")
        if not (is_real(self.k) and 0.0 < self.k < np.inf):
            raise DomainError(f"wavenumber must be positive and finite, got {self.k!r}")

    @property
    def k2s(self):
        return self.k ** (2.0 * self.s)


@dataclass(frozen=True)
class Regime:
    """Formula branch: HIGH (s>1/2, m=0), LOW_GENERIC (1/(2s) not integer),
    or LOW_INTEGER (2sm = 1)."""

    branch: str
    m: int


def classify_regime(s):
    """Classify the fractional order into its Table-1 formula branch."""
    if not (0.0 < s < 1.0):
        raise DomainError(f"fractional order must lie in (0,1), got {s}")
    p = 1.0 / (2.0 * s)
    pr = round(p)
    if pr >= 1 and abs(s - 1.0 / (2.0 * pr)) <= REGIME_SNAP:
        return Regime(LOW_INTEGER, pr)
    if s > 0.5:
        return Regime(HIGH, 0)
    return Regime(LOW_GENERIC, int(np.floor(p)))


@dataclass(frozen=True)
class SpectralShift:
    """Absorption parameter and the shifted wavenumber k_eps = (k^{2s}+i eps)^{1/(2s)}."""

    epsilon: float
    k_eps: complex


def spectral_shift(problem, epsilon):
    """Build the SpectralShift for a problem, enforcing the first-quadrant
    admissibility arctan(eps / k^{2s}) < s pi (strict for eps > 0)."""
    if not np.isfinite(epsilon):
        raise DomainError(f"absorption must be finite, got {epsilon}")
    if epsilon < 0.0:
        raise DomainError("negative absorption selects the incoming solution; not supported")
    if epsilon == 0.0:
        return SpectralShift(0.0, complex(problem.k))
    if not np.arctan2(epsilon, problem.k2s) < problem.s * np.pi:
        raise DomainError(
            f"inadmissible shift: arctan(eps/k^(2s)) = {np.arctan2(epsilon, problem.k2s):.6f} "
            f"is not < s*pi = {problem.s * np.pi:.6f}; k_eps leaves the open first quadrant")
    k_eps = (problem.k2s + 1j * epsilon) ** (1.0 / (2.0 * problem.s))
    return SpectralShift(float(epsilon), complex(k_eps))


def _resolve_shift(problem, shift):
    """The SpectralShift of one float epsilon (None: epsilon = 0), or a given one
    that is the problem's own at its epsilon; any other raises DomainError."""
    if not (shift is None or isinstance(shift, SpectralShift)
            or is_real_kind(shift) and np.ndim(shift) == 0):
        raise DomainError(f"a shift is a SpectralShift, one real epsilon or None, got {shift!r}")
    if not isinstance(shift, SpectralShift):
        return spectral_shift(problem, 0.0 if shift is None else float(shift))
    if shift != spectral_shift(problem, shift.epsilon):
        raise DomainError(f"{shift} is not the shift of {problem} at its epsilon")
    return shift


def _spectral_args(r, kc, name):
    """r of a spectral kernel as a 1-D float array, with every r finite and
    > 0 and the one kc finite."""
    if not cmath.isfinite(kc):
        raise DomainError(f"{name} requires a finite shifted wavenumber, got {kc}")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.size and not (r.min() > 0.0 and r.max() < np.inf):   # NaN fails both
        raise DomainError(f"{name} requires finite r > 0")
    return r


# ---------------------------------------------------------------------------
# Series coefficients for the removable singularities at r = kc
# ---------------------------------------------------------------------------

def _poly_inv(a, nmax):
    # power-series inverse, a[0] must be 1
    inv = np.zeros(nmax + 1)
    inv[0] = 1.0
    for k in range(1, nmax + 1):
        inv[k] = -np.dot(a[1: k + 1], inv[k - 1:: -1][: k])
    return inv


def _binom_series(alpha, nmax):
    # coefficients of (1+u)^alpha up to degree nmax
    c = np.ones(nmax + 1)
    for j in range(1, nmax + 1):
        c[j] = c[j - 1] * (alpha - (j - 1)) / j
    return c


@lru_cache(maxsize=64)
def _fm_window_coeffs(s, m):
    """Coefficients c_1.. of F_m(r,kc) = kc^{-2s}/(2s) * sum_j c_j u^{j-1},
    u = r/kc - 1."""
    nmax = _SERIES_TERMS + 1
    bs = _binom_series(2.0 * s, nmax + 1)
    a = bs[1:] / (2.0 * s)          # ((1+u)^{2s}-1)/(2 s u)
    b = _binom_series(2.0 * s * m, nmax)
    ab = np.convolve(a, b)[: nmax + 1]
    inv = _poly_inv(ab, nmax)
    d = (-0.5) ** np.arange(nmax + 1)   # 1/(1+u/2)
    c = inv - d
    return c[1:]


@lru_cache(maxsize=64)
def _m_window_coeffs(s):
    """Coefficients e_1.. of M(xi;z) = z^{2-2s}/(2s) * sum_j e_j u^{j-1},
    u = xi/z - 1."""
    nmax = _SERIES_TERMS + 1
    num = _binom_series(2.0 - 2.0 * s, nmax + 1) - _binom_series(2.0 * s, nmax + 1)
    bs = _binom_series(2.0 * s, nmax + 1)
    a = bs[1:] / (2.0 * s)
    inv_a = _poly_inv(a, nmax)
    e = np.convolve(num[1:], inv_a)[: nmax + 1]
    return e


def _windowed(x, z, direct, series):
    """``direct(x)`` off the Taylor window |x - z| < TAYLOR_WINDOW |z|, tested
    as its real chord, and ``series(u)``, u = x/z - 1, inside it, as one array
    of the result dtype of (x, z), real at a float z; ``direct`` takes the
    real x, so its powers of x stay real."""
    near = np.abs(x - z.real) < math.sqrt(max((TAYLOR_WINDOW * abs(z)) ** 2 - z.imag ** 2, 0.0))
    if not near.any():
        return direct(x)
    out = np.empty(x.shape, dtype=np.result_type(x, z))
    out[~near] = direct(x[~near])
    out[near] = series(x[near] / z - 1.0)
    return out


# ---------------------------------------------------------------------------
# F_m and its LOW_INTEGER corrector variant
# ---------------------------------------------------------------------------

def _fm_direct(r, kc, s, m):
    d = r ** (2.0 * s) - kc ** (2.0 * s)
    # on the HIGH branch (m = 0) the factor (kc/r)^{2sm} is exactly 1
    t1 = kc ** (2.0 * s * m) / (r ** (2.0 * s * m) * d) if m else 1.0 / d
    t2 = kc ** (2.0 - 2.0 * s) / (s * (r * r - kc * kc))
    return t1 - t2


def F_m(r, kc, s, m):
    """Regularized spectral kernel F_m(r, kc); removable singularity at r = kc.

    r is a scalar or a 1-D array of finite r > 0, the result a 1-D array; kc
    may be complex (closed first quadrant).  A float kc runs in real arithmetic
    and gives a real result.
    """
    r = _spectral_args(r, kc, "F_m")
    coeffs = _fm_window_coeffs(float(s), int(m))
    return _windowed(r, kc, lambda rr: _fm_direct(rr, kc, s, m),
                     lambda u: kc ** (-2.0 * s) / (2.0 * s) * polyval(u, coeffs))


def dF_m_dr(r, kc, s, m):
    """Radial derivative of F_m, a 1-D array like it, with the same Taylor
    window at r = kc."""
    r = _spectral_args(r, kc, "dF_m_dr")

    def direct(rr):
        r2s = rr ** (2.0 * s)
        k2s = kc ** (2.0 * s)
        t1 = -kc ** (2.0 * s * m) * (2.0 * s * m * (r2s - k2s) + 2.0 * s * r2s) \
            / (rr ** (2.0 * s * m + 1.0) * (r2s - k2s) ** 2)
        t2 = 2.0 * kc ** (2.0 - 2.0 * s) * rr / (s * (rr * rr - kc * kc) ** 2)
        return t1 + t2

    coeffs = _fm_window_coeffs(float(s), int(m))
    return _windowed(r, kc, direct,
                     lambda u: kc ** (-2.0 * s) / (2.0 * s) * polyval(u, polyder(coeffs)) / kc)


def _require_low_integer(s, m):
    reg = classify_regime(s)
    if reg.branch != LOW_INTEGER or reg.m != m:
        raise DomainError(
            f"F_tilde_m is defined only on the 1/(2s)-integer branch; got s={s}, m={m}")


def F_tilde_m(r, kc, s, m):
    """Corrected kernel F~_m = F_m + kc^{2-2s}/(r(r+kc)), a 1-D array like F_m;
    LOW_INTEGER branch only.

    Identically zero (to round-off) at s = 1/2.
    """
    _require_low_integer(s, m)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    fm = F_m(r, kc, s, m)     # checks kc and r first
    return fm + kc ** (2.0 - 2.0 * s) / (r * (r + kc))


def dF_tilde_m_dr(r, kc, s, m):
    """Radial derivative of F~_m, a 1-D array like it."""
    _require_low_integer(s, m)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    dfm = dF_m_dr(r, kc, s, m)     # checks kc and r first
    dcorr = -kc ** (2.0 - 2.0 * s) * (1.0 / (r * r * (r + kc)) + 1.0 / (r * (r + kc) ** 2))
    return dfm + dcorr


# ---------------------------------------------------------------------------
# Fourier multiplier M
# ---------------------------------------------------------------------------

def multiplier_M(xi, z, s):
    """M(xi; z) = (z^{2s} xi^{2-2s} - z^{2-2s} xi^{2s}) / (xi^{2s} - z^{2s}).

    Continuous across xi = |z| for real z, with limit (1-2s) k^{2-2s} / s.
    xi is a scalar or a 1-D array of finite xi >= 0, the result a 1-D array;
    z in the closed first quadrant, z != 0.
    """
    if z == 0 or not cmath.isfinite(z):
        raise DomainError(f"multiplier_M requires a finite z != 0, got {z}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(xi) & (xi >= 0.0)):
        raise DomainError("multiplier_M requires finite xi >= 0")
    z = complex(z)

    def direct(x):
        x2s = x ** (2.0 * s)
        # xi = 0: both numerator terms vanish (2-2s > 0, 2s > 0)
        num = z ** (2.0 * s) * x ** (2.0 - 2.0 * s) - z ** (2.0 - 2.0 * s) * x2s
        return num / (x2s - z ** (2.0 * s))

    coeffs = _m_window_coeffs(float(s))
    return _windowed(xi, z, direct,
                     lambda u: z ** (2.0 - 2.0 * s) / (2.0 * s) * polyval(u, coeffs))


# ---------------------------------------------------------------------------
# Helmholtz parts
# ---------------------------------------------------------------------------

def _helm_args(kc, r):
    """(kc, r as a 1-D float array) of a Helmholtz part, with kc (one k_eps,
    or one per radius) in the closed first quadrant and every r finite and > 0."""
    if np.ndim(kc) == 0:
        kc = complex(kc)
        bad = kc == 0 or kc.real < 0.0 or kc.imag < 0.0 or not cmath.isfinite(kc)
    else:
        kc = np.asarray(kc, dtype=complex)
        bad = np.any((kc == 0) | (kc.real < 0.0) | (kc.imag < 0.0) | ~np.isfinite(kc))
    if bad:
        raise DomainError("shifted wavenumber must be finite and lie in the closed first "
                          f"quadrant, got {kc}")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.size and not (r.min() > 0.0 and r.max() < np.inf):
        raise DomainError("Helmholtz parts require finite r > 0")
    return kc, r


def _per_k(f, kc):
    """f(kc) of one k_eps, or f per element of an array of them, each in
    Python complex arithmetic, so an array gives the scalar calls' bits."""
    return f(kc) if np.ndim(kc) == 0 else np.array([f(v) for v in kc.tolist()])


def helm_part(n, s, kc, r):
    """Helmholtz component of the fundamental solution (per-dimension closed
    form) as a 1-D array over radii r; kc is one k_eps or one per radius."""
    kc, r = _helm_args(kc, r)
    if n == 1:
        return 1j * np.exp(1j * r * kc) / _per_k(lambda v: 2.0 * s * v ** (2.0 * s - 1.0), kc)
    if n == 2:
        return _per_k(lambda v: 1j * v ** (2.0 - 2.0 * s) / (4.0 * s), kc) * hankel1_0(kc * r)
    if n == 3:
        return _per_k(lambda v: v ** (2.0 - 2.0 * s) / s, kc) * np.exp(1j * r * kc) \
            / (4.0 * np.pi * r)
    raise DomainError(f"dimension must be 1, 2 or 3, got {n}")


def helm_part_dr(n, s, kc, r):
    """Radial derivative of the Helmholtz component (closed forms) as a 1-D
    array over radii r; kc is one k_eps or one per radius."""
    kc, r = _helm_args(kc, r)
    if n == 1:
        return _per_k(lambda v: -v ** (2.0 - 2.0 * s) / (2.0 * s), kc) * np.exp(1j * r * kc)
    if n == 2:
        from .specfun import hankel1_1
        return _per_k(lambda v: -1j * v ** (3.0 - 2.0 * s) / (4.0 * s), kc) * hankel1_1(kc * r)
    if n == 3:
        return _per_k(lambda v: v ** (2.0 - 2.0 * s) / s, kc) * (1j * kc / r - 1.0 / r ** 2) \
            * np.exp(1j * r * kc) / (4.0 * np.pi)
    raise DomainError(f"dimension must be 1, 2 or 3, got {n}")
