"""Independent brute-force evaluation of the fundamental solution.

Inverts the Fourier representation 1/(|xi|^{2s} - k_eps^{2s}) directly by
radial reduction and zero-partition acceleration.  Requires strictly positive
absorption so the real frequency axis carries no pole.  Deliberately slow and
simple; used only to validate the assembled Green's function.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .kernels import _resolve_shift, classify_regime
from .quadrature import DEFAULT_SPEC, QuadResult, integrate_oscillatory
from .specfun import bessel_j0, riesz_constant

# a Riesz term may be subtracted only when its closed-form inverse exists,
# i.e. 2 s (j+1) < n; the 1D integer branch loses its last term this way
_SUBTRACT_MARGIN = 1e-9


def _subtracted_count(n, s, m):
    count = 0
    for j in range(m):
        if 2.0 * s * (j + 1.0) < n - _SUBTRACT_MARGIN:
            count += 1
        else:
            break
    return count


def fourier_invert_detailed(p, shift, r, spec=DEFAULT_SPEC):
    """Fourier-inversion value with the quadrature error estimate attached."""
    shift = _resolve_shift(p, shift)
    if shift.epsilon <= 0.0:
        raise DomainError("fourier_invert requires strictly positive absorption")
    if not 0.0 < r < np.inf:
        raise DomainError("fourier_invert requires finite r > 0")
    s, k = p.s, p.k
    kc2s = k ** (2.0 * s) + 1j * shift.epsilon
    m = classify_regime(s).m
    msub = _subtracted_count(p.n, s, m)

    def remainder(xi):
        xi = xi.astype(complex)
        return kc2s ** msub / (xi ** (2.0 * s * msub) * (xi ** (2.0 * s) - kc2s))

    if p.n == 1:
        res = integrate_oscillatory(lambda x: np.cos(x * r) * remainder(x), r, "cos", spec)
        value = res.value / np.pi
        err = res.err_estimate / np.pi
    elif p.n == 2:
        res = integrate_oscillatory(lambda x: bessel_j0(x * r) * x * remainder(x), r, "j0", spec)
        value = res.value / (2.0 * np.pi)
        err = res.err_estimate / (2.0 * np.pi)
    else:
        res = integrate_oscillatory(lambda x: x * np.sin(x * r) * remainder(x), r, "sin", spec)
        value = res.value / (2.0 * np.pi ** 2 * r)
        err = res.err_estimate / (2.0 * np.pi ** 2 * r)

    for j in range(msub):
        value += riesz_constant(p.n, s, j) * kc2s ** j / r ** (p.n - 2.0 * s * (j + 1.0))
    return QuadResult(value, err, res.evaluations)


def fourier_invert(p, shift, r, spec=DEFAULT_SPEC):
    """Fundamental solution by direct numerical Fourier inversion (eps > 0)."""
    return fourier_invert_detailed(p, shift, r, spec).value
