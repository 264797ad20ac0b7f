"""Independent brute-force evaluation of the fundamental solution.

Inverts the Fourier representation 1/(|xi|^{2s} - k_eps^{2s}) directly by
radial reduction and zero-partition acceleration.  Requires strictly positive
absorption so the real frequency axis carries no pole.  Deliberately slow and
simple; used only to validate the assembled Green's function.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, is_count, is_real_kind
from .kernels import _resolve_shift, classify_regime
from .quadrature import DEFAULT_SPEC, QuadResult, integrate_partitioned
from .specfun import bessel_j0, j0_zeros, riesz_constant

# a Riesz term may be subtracted only when its closed-form inverse exists,
# i.e. 2 s (j+1) < n; the 1D integer branch loses its last term this way
_SUBTRACT_MARGIN = 1e-9

# radial reduction per dimension, at radius r and interval numbers ell = 1, 2, ...:
# (oscillatory factor of xi, its zeros in xi r, normalisation of the integral)
_RADIAL = {
    1: lambda r, ell: (lambda x: np.cos(x * r), (ell - 0.5) * np.pi, np.pi),
    2: lambda r, ell: (lambda x: bessel_j0(x * r) * x, j0_zeros(ell.size), 2.0 * np.pi),
    3: lambda r, ell: (lambda x: x * np.sin(x * r), ell * np.pi, 2.0 * np.pi ** 2 * r),
}


def _subtracted_count(n, s, m):
    # 2 s (j+1) grows with j, so the subtractable terms are the first ones
    return sum(2.0 * s * (j + 1.0) < n - _SUBTRACT_MARGIN for j in range(m))


def fourier_invert_detailed(p, shift, r, spec=DEFAULT_SPEC, intervals=30):
    """Fourier-inversion value with the quadrature error estimate attached; the
    radial integral is split at the first ``intervals`` (>= 4) zeros of its factor."""
    if not (is_count(intervals) and intervals >= 4):
        raise DomainError(f"intervals must be an integer >= 4, got {intervals!r}")
    shift = _resolve_shift(p, shift)
    if shift.epsilon <= 0.0:
        raise DomainError("fourier_invert requires strictly positive absorption")
    if not (is_real_kind(r) and np.ndim(r) == 0 and 0.0 < r < np.inf):
        raise DomainError(f"fourier_invert requires one finite r > 0, got {r!r}")
    s, k = p.s, p.k
    kc2s = k ** (2.0 * s) + 1j * shift.epsilon
    m = classify_regime(s).m
    msub = _subtracted_count(p.n, s, m)

    def remainder(xi):
        xi = xi.astype(complex)
        return kc2s ** msub / (xi ** (2.0 * s * msub) * (xi ** (2.0 * s) - kc2s))

    factor, zeros, norm = _RADIAL[p.n](r, np.arange(1, intervals + 1))
    res = integrate_partitioned(lambda x: factor(x) * remainder(x), np.r_[0.0, zeros / r], spec)
    value = res.value / norm
    for j in range(msub):
        value += riesz_constant(p.n, s, j) * kc2s ** j / r ** (p.n - 2.0 * s * (j + 1.0))
    return QuadResult(value, res.err_estimate / norm, res.evaluations)


def fourier_invert(p, shift, r, spec=DEFAULT_SPEC):
    """Fundamental solution by direct numerical Fourier inversion (eps > 0)."""
    return fourier_invert_detailed(p, shift, r, spec).value
