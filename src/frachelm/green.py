"""Assembly of the outgoing fundamental solution and its radial derivative.

The value at radius r splits into three parts (Helmholtz part, Riesz power
sum, tail integral); the decomposition is returned explicitly so diagnostics
can test each part's asymptotics.  Tail integrals run through the quadrature
engines; their error estimates propagate additively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .kernels import (
    LOW_INTEGER, SpectralShift, _bracket_1d, _bracket_3d, classify_regime, dF_m_dr,
    dF_tilde_m_dr, F_m, F_tilde_m, helm_part, helm_part_dr, spectral_shift,
)
from .quadrature import (
    DEFAULT_SPEC, QuadratureSpec, _exp_weighted_batch, integrate_bessel_transform,
)
from .specfun import expint_e1, riesz_constant, struve_k0, struve_k1

DERIVATIVE_SPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-11)

# closed-form parts are specfun-accurate; their error contribution is nominal
_CLOSED_FORM_REL = 1e-12


@dataclass
class GreenDecomposition:
    """One point of the fundamental solution, split as helm + riesz_sum + j_tail."""

    helm: complex
    riesz_sum: complex
    j_tail: complex
    total: complex
    err_estimate: float


def _resolve_shift(p, shift):
    if shift is None:
        return spectral_shift(p, 0.0)
    if isinstance(shift, SpectralShift):
        return shift
    return spectral_shift(p, float(shift))


def _check_radii(r):
    if r.ndim != 1 or r.size == 0:
        raise DomainError("radii must form a nonempty 1-D array")
    if not np.all(np.isfinite(r) & (r > 0.0)):
        raise DomainError("green evaluation requires finite r > 0")
    return r


def _riesz_sum_batch(p, m, kc, r, derivative=False):
    """Sum of Riesz power-law terms (or its r-derivative); zero in 1D and on
    the HIGH branch."""
    out = np.zeros(r.shape, dtype=complex)
    if p.n == 1:
        return out
    for j in range(m):
        expo = p.n - 2.0 * p.s * (j + 1.0)
        term = riesz_constant(p.n, p.s, j) * kc ** (2.0 * p.s * j) / r ** expo
        out += -expo * term / r if derivative else term
    return out


def _exp_tail_terms(p, regime, kc, r):
    """(pref, dpref, bracket) of the n in {1, 3} tail at radii r: the tail is
    pref * int_0^inf e^{-y} bracket(y) dy, dpref = d pref / dr, and
    bracket(y, power=1) returns a (points, radii) array."""
    s, m = p.s, regime.m
    c = kc ** (2.0 * s) * r.astype(complex) ** (2.0 * s)
    if p.n == 1:
        pref = 1j / (2.0 * np.pi * r ** (1.0 - 2.0 * s))
        dpref = 1j * (2.0 * s - 1.0) / (2.0 * np.pi * r ** (2.0 - 2.0 * s))
        return pref, dpref, partial(_bracket_1d, c=c, s=s)
    expo = 3.0 - 2.0 * s * (m + 1.0)
    pref = kc ** (2.0 * s * m) / (4j * np.pi ** 2 * r ** expo)
    return pref, -expo * pref / r, partial(_bracket_3d, c=c, s=s, m=m)


def _exp_tail_batch(p, regime, kc, r, spec, derivative=False):
    """Tail integrals for n in {1, 3}: e^{-y} integrals, batched over radii.

    Returns (values, errors).  With ``derivative=True`` the integrand is the
    one obtained by differentiation under the integral sign, plus the
    prefactor-derivative term.
    """
    s = p.s
    pref, dpref, bracket = _exp_tail_terms(p, regime, kc, r)
    y_cut = max(10.0, 5.0 * abs(kc) * float(r.max()))
    ival, ierr, _ = _exp_weighted_batch(bracket, spec, y_cut)
    if not derivative:
        return pref * ival, np.abs(pref) * ierr
    dval, derr, _ = _exp_weighted_batch(partial(bracket, power=2), spec, y_cut)
    dc_dr = 2.0 * s * kc ** (2.0 * s) * r.astype(complex) ** (2.0 * s - 1.0)
    val = dpref * ival + pref * dval * dc_dr
    err = np.abs(dpref) * ierr + np.abs(pref * dc_dr) * derr
    return val, err


def _bessel_tail_batch(p, regime, kc, r, spec, derivative=False):
    """Tail integrals for n = 2: Bessel transform of rho*F, batched over radii,
    plus the Struve term on LOW_INTEGER.  Returns (values, errors)."""
    s, m = p.s, regime.m
    integer_branch = regime.branch == LOW_INTEGER
    fval, fder = (F_tilde_m, dF_tilde_m_dr) if integer_branch else (F_m, dF_m_dr)
    val = np.zeros(r.shape, dtype=complex)
    err = np.zeros(r.shape)
    # at s = 1/2 the corrected kernel vanishes identically; evaluating the
    # transform there would integrate pure cancellation round-off
    if not (integer_branch and abs(s - 0.5) < 1e-12):
        if derivative:
            # d/dr of the 2D inverse transform: -(1/r) * transform of rho F' + 2 F
            # (the n-dimensional divergence identity; equals -(1/2pi) int J1(rho r)
            # rho^2 F by parts, and is validated against finite differences)
            qr = integrate_bessel_transform(
                lambda rho: rho * (rho * fder(rho, kc, s, m) + 2.0 * fval(rho, kc, s, m)),
                r, spec)
            scale = -1.0 / (2.0 * np.pi * r)
        else:
            qr = integrate_bessel_transform(lambda rho: rho * fval(rho, kc, s, m), r, spec)
            scale = 1.0 / (2.0 * np.pi)
        val = scale * qr.value
        err = np.abs(scale) * qr.err_estimate
    if integer_branch:
        # d/dr K0(kc r) = kc (2/pi - K1(kc r))
        struve = kc * (2.0 / np.pi - struve_k1(kc * r)) if derivative else struve_k0(kc * r)
        term = -kc ** (2.0 - 2.0 * s) / 4.0 * struve
        val = val + term
        err = err + np.abs(term) * 1e-10
    return val, err


def _tail_batch(p):
    """The tail family of a dimension: e^{-y} integrals, or the 2D Bessel transform."""
    return _bessel_tail_batch if p.n == 2 else _exp_tail_batch


def _closed_parts(p, shift, r):
    """(kc, regime, helm, riesz_sum): the closed-form parts at radii r."""
    kc = _resolve_shift(p, shift).k_eps
    regime = classify_regime(p.s)
    helm = np.atleast_1d(helm_part(p.n, p.s, kc, r)).astype(complex)
    return kc, regime, helm, _riesz_sum_batch(p, regime.m, kc, r)


def green_eval_batch(p, shift, radii, spec=DEFAULT_SPEC):
    """Vectorized Green evaluation over a 1-D array of finite radii r > 0.

    Returns (helm, riesz_sum, j_tail, err) arrays.  Every dimension makes one
    batched tail call: the e^{-y} integrals (n = 1, 3) and the 2D Bessel
    transform, whose J0-zero partition is fixed in t = rho r, share one
    adaptive pass over the whole batch, with one error estimate per radius.
    """
    r = _check_radii(np.asarray(radii, dtype=float))
    kc, regime, helm, riesz = _closed_parts(p, shift, r)
    jt, je = _tail_batch(p)(p, regime, kc, r, spec)
    err = je + _CLOSED_FORM_REL * (np.abs(helm) + np.abs(riesz))
    return helm, riesz, jt, err


def green_eval(p, shift, r, spec=DEFAULT_SPEC):
    """Outgoing fundamental solution at radius r, decomposed into its parts.

    `shift` may be a SpectralShift, a float epsilon, or None (epsilon = 0).
    """
    helm, riesz, jt, err = green_eval_batch(p, shift, np.atleast_1d(float(r)), spec)
    total = helm[0] + riesz[0] + jt[0]
    return GreenDecomposition(complex(helm[0]), complex(riesz[0]), complex(jt[0]),
                              complex(total), float(err[0]))


def green_radial_derivative(p, shift, r, spec=None):
    """d/dr of the fundamental solution, by closed forms for helm/riesz parts
    and differentiation under the integral sign for the tail.

    `r` is a scalar (returns complex) or a 1-D array (returns an array).
    """
    spec = DERIVATIVE_SPEC if spec is None else spec
    kc = _resolve_shift(p, shift).k_eps
    rr = _check_radii(np.atleast_1d(np.asarray(r, dtype=float)))
    regime = classify_regime(p.s)
    djt, _ = _tail_batch(p)(p, regime, kc, rr, spec, derivative=True)
    out = np.atleast_1d(helm_part_dr(p.n, p.s, kc, rr)) \
        + _riesz_sum_batch(p, regime.m, kc, rr, derivative=True) + djt
    return complex(out[0]) if np.ndim(r) == 0 else out


def src_residual(p, r, spec=None):
    """Sommerfeld residual r^{(n-1)/2} |dG/dr - i k G| at absorption zero."""
    g = green_eval(p, 0.0, r, spec if spec is not None else DEFAULT_SPEC)
    dg = green_radial_derivative(p, 0.0, r, spec)
    return float(r ** ((p.n - 1) / 2.0) * abs(dg - 1j * p.k * g.total))


def green_closed_form_3d_half(k, r):
    """Closed-form outgoing fundamental solution for n = 3, s = 1/2.

    1/(2 pi^2 r^2) - (i k /(4 pi^2 r)) (e^{ikr} E1(ikr) - e^{-ikr} E1(-ikr))
    + k e^{ikr} / (2 pi r).
    """
    if not (k > 0.0 and r > 0.0):
        raise DomainError("green_closed_form_3d_half requires k > 0 and r > 0")
    a = np.exp(1j * k * r) * expint_e1(1j * k * r)
    b = np.exp(-1j * k * r) * expint_e1(-1j * k * r)
    return complex(1.0 / (2.0 * np.pi ** 2 * r ** 2)
                   - 1j * k / (4.0 * np.pi ** 2 * r) * (a - b)
                   + k * np.exp(1j * k * r) / (2.0 * np.pi * r))


def green_closed_form_3d_half_dr(k, r):
    """Radial derivative of the s = 1/2, n = 3 closed form (test oracle)."""
    a = np.exp(1j * k * r) * expint_e1(1j * k * r)
    b = np.exp(-1j * k * r) * expint_e1(-1j * k * r)
    diff = a - b
    ddiff = 1j * k * (a + b)  # the 1/r terms from E1' cancel pairwise
    return complex(-1.0 / (np.pi ** 2 * r ** 3)
                   - 1j * k / (4.0 * np.pi ** 2) * (ddiff / r - diff / r ** 2)
                   + k * (1j * k / r - 1.0 / r ** 2) * np.exp(1j * k * r) / (2.0 * np.pi))

