"""Assembly of the outgoing fundamental solution and its radial derivative.

The value at radius r splits into three parts (Helmholtz part, Riesz power
sum, tail integral); the decomposition is returned explicitly so diagnostics
can test each part's asymptotics.  Tail integrals run through the quadrature
engines, or through a checked Chebyshev table on dyadic panels (in every
single-shift call of two or more radii); their error estimates propagate
additively.  Each checked panel is built once per key and kept across calls
(``_tail_panel``), so a tabled value depends on its radius alone.  The
operator is homogeneous, G^{k_eps}(r) = |k_eps|^{n-2s} G^u(|k_eps| r) with u =
k_eps/|k_eps| (dG/dr one power of |k_eps| more): the panels of G and dG/dr are
those of |k_eps| = 1 in x = |k_eps| r, keyed by u; at eps = 0 one serves every k.
At eps = 0 the tail is real (Im G is the Helmholtz part's alone), and it runs
in real arithmetic from the kernels to the panels (``_tail_batch``).

The n = 1, 3 tail is pref * int_0^inf e^{-y} bracket(y) dy with the bracket
rational in w = y^{2s}.  The 2D tail, a Bessel transform, is the same
bracket integral with the weight K0(y) in place of e^{-y}: J0 = (H0^(1) +
H0^(2))/2 with each Hankel function's contour turned onto +-i infinity, where
the Helmholtz symbol takes the same value on both rays and cancels.  At large
kr the far branch (``_far_series``) expands each 1/(w e^{+-i pi s} - c) in
powers of w/c and integrates term by term against the weight's moments
(Watson's lemma), with a remainder bound from the distance of c to the rays
w e^{+-i pi s}; the bound holds for any positive weight.  Each radius and
bracket power takes the J <= ``_FAR_TERMS`` terms that minimise the bound.  A
radius uses the series only where, for every bracket power it needs, the
bound plus its rounding meets the tolerance the quadrature would be held to;
the other radii go to the e^{-y} engine, or in 2D to the Bessel transform and
the Struve term, an e^{-y} integral too (``_tail_batch``, one rule for all n).
One front end (``_green_batch``) serves G, dG/dr or both; ``src_residual`` takes
both from one direct one-radius pass: one set of prefactors, one series per power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import DomainError, is_real_kind
from .kernels import (
    LOW_INTEGER, Problem, _resolve_shift, classify_regime, dF_m_dr, dF_tilde_m_dr, F_m,
    F_tilde_m, helm_part, helm_part_dr, spectral_shift,
)
from .quadrature import DEFAULT_SPEC, _exp_weighted_batch, integrate_bessel_transform
from .specfun import expint_e1, hankel1_0_rel_error, riesz_constant

# closed-form parts are specfun-accurate; their error contribution is nominal,
# except the 2D Helmholtz part, which specfun bounds per evaluation path
_CLOSED_FORM_REL = 1e-12
_PANEL_DEGREE = 20    # Chebyshev degree of a dyadic panel of the tail table
# most radii a dyadic panel holds untabled, and a value or derivative call that
# tables every panel below the far reach: twice a panel's nodes and check point
_SMALL_BATCH = 2 * (_PANEL_DEGREE + 2)
_FAR_TERMS = 64       # most terms the far series of an e^{-y} tail sums
# checked dyadic panels kept by ``_tail_panel``: 21 complex coefficients (336 B;
# about 800 B with the array, tuple, key and cache link) each, so under 1 MB
_TAIL_PANELS = 1024


@dataclass
class GreenDecomposition:
    """One point of the fundamental solution, split as helm + riesz_sum + j_tail."""

    helm: complex
    riesz_sum: complex
    j_tail: complex
    total: complex
    err_estimate: float


def _check_radii(radii):
    if not is_real_kind(radii) or np.ndim(radii) != 1 or np.size(radii) == 0:
        raise DomainError("radii must form a nonempty 1-D array of real numbers")
    r = np.asarray(radii, dtype=float)
    if not (r.min() > 0.0 and r.max() < np.inf):   # NaN fails both
        raise DomainError("green evaluation requires finite r > 0")
    return r


def _by_shift(f, kc, x):
    """f(kc, x) for one k_eps.  For kc given per column of x (its last axis),
    f(v, x[..., cols]) once per distinct v over its columns, as the spectral
    kernels take one k_eps; their complex outputs are put back in column
    order."""
    if np.ndim(kc) == 0:
        return f(kc, x)
    out = np.empty(x.shape, dtype=complex)
    # dict.fromkeys, not np.unique: np.unique without indices imports numpy.ma
    for v in dict.fromkeys(kc.tolist()):
        cols = kc == v
        out[..., cols] = f(v, x[..., cols])
    return out


def _riesz_sum_batch(p, m, kc, r, derivative=False):
    """Sum of Riesz power-law terms (or its r-derivative); zero in 1D and on
    the HIGH branch."""
    out = np.zeros(r.shape, dtype=complex)
    if p.n == 1:
        return out
    for j in range(m):
        expo, e = p.n - 2.0 * p.s * (j + 1.0), 2.0 * p.s * j
        # kc^e in Python complex arithmetic per k_eps, as a one-shift call takes it
        kce = kc ** e if np.ndim(kc) == 0 else np.array([v ** e for v in kc.tolist()])
        term = riesz_constant(p.n, p.s, j) * kce / r ** expo
        out += -expo * term / r if derivative else term
    return out


def _tail_shape(n, s, m):
    """tail = (s, delta, a, b) of the bracket: delta = 0, a = 1, b = -1 in 1D,
    and delta = 1 - 2sm, a = -e^{-i pi s m}, b = e^{i pi s m} in 2D and 3D."""
    if n == 1:
        return s, 0.0, 1.0, -1.0
    em = np.exp(1j * np.pi * s * m)
    return s, 1.0 - 2.0 * s * m, -1.0 / em, em


def _exp_tail_terms(p, regime, kc, r):
    """(pref, dpref, c, tail) of the tail at radii r: the tail is pref *
    int_0^inf w(y) _bracket(y, c, *tail, 1) dy, w(y) = e^{-y} for n in {1, 3}
    and K0(y) for n = 2, with c = (k_eps r)^{2s}, tail = ``_tail_shape`` and
    dpref = d pref / dr.  c is real at a real k_eps, else complex."""
    s, m = p.s, regime.m
    c = kc ** (2.0 * s) * r.astype(np.result_type(kc, r)) ** (2.0 * s)
    tail = _tail_shape(p.n, s, m)
    if p.n == 1:
        pref = 1j / (2.0 * np.pi * r ** (1.0 - 2.0 * s))
        dpref = 1j * (2.0 * s - 1.0) / (2.0 * np.pi * r ** (2.0 - 2.0 * s))
        return pref, dpref, c, tail
    expo = p.n - 2.0 * s * (m + 1.0)
    pref = kc ** (2.0 * s * m) / ((4j if p.n == 3 else 2j) * np.pi ** 2 * r ** expo)
    return pref, -expo * pref / r, c, tail


def _bracket(y, c, s, delta, a, b, power):
    """y^delta [a/(y^{2s} e^{i pi s} - c)^p + b/(y^{2s} e^{-i pi s} - c)^p]
    for p = power in {1, 2} (2: the d/dc integrand), as a (points, radii)
    array; single expressions, so NumPy reuses the large temporaries.  The
    nodes y are a real array, so y^{2s} and y^delta are real powers.  At a
    real c (eps = 0) b = -conj(a) makes the two terms conjugate, so the
    bracket is 2i Im of the first, one complex division, and this returns
    the real bracket / i."""
    y2s = (y ** (2.0 * s))[:, None]
    c = c[None, :]
    ep = np.exp(1j * np.pi * s)
    if c.dtype.kind == "f":
        q = y2s * ep - c
        out = 2.0 * (a / q if power == 1 else a / (q * q)).imag
    elif power == 2:
        out = a / (y2s * ep - c) ** 2 + b / (y2s / ep - c) ** 2
    else:
        out = a / (y2s * ep - c) + b / (y2s / ep - c)
    return out if delta == 0.0 else (y ** delta)[:, None] * out


def _exp_moment(delta, x):
    """log int_0^inf e^{-y} y^{delta + x} dy = log Gamma(1 + delta + x)."""
    return math.lgamma(1.0 + delta + x)


def _k0_moment(delta, x):
    """log int_0^inf K0(y) y^mu dy, mu = delta + x: log 2^{mu - 1} Gamma((1 +
    mu)/2)^2 (DLMF 10.43.19)."""
    mu = delta + x
    return (mu - 1.0) * math.log(2.0) + 2.0 * math.lgamma(0.5 * (1.0 + mu))


@lru_cache(maxsize=256)
def _far_rows(s, delta, a, b, power, rel_tol, abs_tol, moment):
    """Constants of ``_far_series`` for one bracket, power, tolerance and
    weight w, whose log-moments are moment(delta, x) = log M(delta + x),
    M(mu) = int_0^inf w(y) y^mu dy:

    * a |c| below which no column meets its tolerance (``_far_reach``).  The
      distance d from c to the rays is at most |c| and the integral at most
      2 M(delta) / d^power, so there every J's bound exceeds max(abs_tol,
      2 rel_tol |integral|);
    * for J = 1 .. ``_FAR_TERMS``, as (terms, 1) columns: log 2 M(delta +
      2sJ), and J;
    * for the terms j = 0 .. ``_FAR_TERMS`` - 1: j, the log of
      (j + 1)^(power - 1) M(delta + 2sj), the signed phase factor, and
      |log M| + 2, the term's rounding weight;
    * e^{-+i pi s}, which turns the rays onto the positive axis.
    """
    j = np.arange(_FAR_TERMS + 1.0)[:, None]
    lg = np.array([moment(delta, 2.0 * s * i) for i in j[:, 0]])[:, None]
    big_j, lgb, lg = j[1:], lg[1:], lg[:-1]
    j = j[:-1]
    rel = (lgb - lg[0] - math.log(2.0 * rel_tol)) / big_j
    tol_abs = (math.log(2.0 / abs_tol) + (power - 1) * np.log(big_j + 1.0) + lgb) / (big_j + power)
    phase = a * np.exp(1j * np.pi * s * j) + b * np.exp(-1j * np.pi * s * j)
    return (math.exp(min(rel.min(), tol_abs.min())), math.log(2.0) + lgb, big_j, j,
            lg + (power - 1) * np.log(j + 1.0), (-1.0) ** power * phase, np.abs(lg) + 2.0,
            np.exp(-1j * np.pi * s * np.array([[1.0], [-1.0]])))


def _far_series(c, tail, spec, power, moment):
    """(values, errors, served) of int_0^inf w(y) _bracket(y, c, *tail,
    power) dy, tail = (s, delta, a, b), w = e^{-y} (``_exp_moment``) or K0
    (``_k0_moment``), by Watson's lemma with an explicit remainder (Olver,
    *Asymptotics and Special Functions*, ch. 3).

    1/(x - c) = -sum_{j<J} x^j / c^{j+1} + (x/c)^J / (x - c), and each x^j
    integrates to M(delta + 2sj) e^{+-i pi s j}, M the weight's moment.  As
    w > 0, with d the distance from c to the two rays, the remainder is at
    most 2 M(delta + 2sJ) / (|c|^J d), and that of its d/dc (p = 2)
    2 M(delta + 2sJ) / |c|^J (J / (|c| d) + 1/d^2).  Per column J <=
    ``_FAR_TERMS`` minimises the bound; the error is the bound plus the
    summation's rounding, and a column is served when that meets max(abs_tol,
    rel_tol |value|).  At a real c the values are those of the real bracket
    / i (``_bracket``).  The caller passes the columns that reach
    ``_far_reach``; the values and errors of the columns not served are not
    used.
    """
    _, _, a, b = tail
    _, lb0, big_j, j, lt, phase, lg_size, rot = _far_rows(
        *tail, power, spec.rel_tol, spec.abs_tol, moment)
    ac = np.abs(c)
    d = ac * np.sin(np.minimum(np.abs(np.angle(c * rot)).min(axis=0), 0.5 * np.pi))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # log of the remainder bound after J = 1 .. _FAR_TERMS terms
        lb = lb0 - big_j * np.log(ac) + (
            -np.log(d) if power == 1 else np.log(big_j / (ac * d) + d ** -2.0))
        nterms, bound = lb.argmin(axis=0) + 1, np.exp(lb.min(axis=0))
        top, logc = nterms.max(), np.log(c)
        jp = j[:top] + power
        terms = np.where(j[:top] < nterms, np.exp(lt[:top] - jp * logc), 0.0)
        # at a real c, b = -conj(a) makes each phase 2i Im(a e^{i pi s j}):
        # the series / i sums real terms
        sv = (phase[:top] * terms).sum(axis=0) if np.iscomplexobj(c) else \
            (phase[:top].imag * terms).sum(axis=0)
        # a term's relative rounding follows the size of its exponent's
        # parts, and the sum adds one rounding per term
        size = lg_size[:top] + jp * np.abs(logc) + nterms
        rounding = (np.abs(terms) * size).sum(axis=0) * (abs(a) + abs(b))
        se = bound + 8.0 * np.finfo(float).eps * rounding
        ok = np.isfinite(sv) & (se <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(sv)))
    return sv, se, ok


def _chain(p, kc, r, pref, dpref, one, two=None):
    """(values, errors) of a tail pref * I(c), from one = (I, err): or, given
    two = (dI/dc, err), of its r-derivative dpref I + pref dI/dc dc/dr."""
    ival, ierr = one
    if two is None:
        return pref * ival, np.abs(pref) * ierr
    s = p.s
    dval, derr = two
    dc_dr = 2.0 * s * kc ** (2.0 * s) * r.astype(np.result_type(kc, r)) ** (2.0 * s - 1.0)
    val = dpref * ival + pref * dval * dc_dr
    err = np.abs(dpref) * ierr + np.abs(pref * dc_dr) * derr
    return val, err


def _struve_laplace(z, spec, power):
    """(values, errors) of (2/pi) int_0^inf e^{-y} z^{power-1} (y^2 + z^2)^{-power/2} dy,
    power 1 or 3, for a nonempty 1-D array of finite z, Re z > 0 (else
    :class:`DomainError`), as columns of one e^{-y} pass; the integrand bends at
    y ~ |z|, and past |arg z| = pi/4 the path turns (Cauchy) to the ray y =
    u e^{i theta}/cos(theta), theta = +-(|arg z| - pi/4), pi/4 off the branch point -iz."""
    z = np.asarray(z)   # a real z keeps the integrand real
    if z.ndim != 1 or z.size == 0 or not np.all(np.isfinite(z) & (z.real > 0.0)):
        raise DomainError("the Struve functions take a 1-D array of finite z, Re z > 0")
    theta = np.sign(np.angle(z)) * np.maximum(np.abs(np.angle(z)) - np.pi / 4.0, 0.0)
    w = np.exp(1j * theta) / np.cos(theta) if theta.any() else 1.0

    def f(u):
        q = (u[:, None] * w) ** 2 + z * z
        return w * np.exp(u[:, None] * (1.0 - w)) * (z / (q * np.sqrt(q)) if power == 3
                                                     else 1.0 / np.sqrt(q))
    val, err, _ = _exp_weighted_batch(f, spec, max(10.0, 5.0 * float(np.abs(z).max())))
    return 2.0 / np.pi * val, 2.0 / np.pi * np.abs(w) * err


def struve_k0(z, spec=DEFAULT_SPEC):
    """(values, errors) of the Struve function of the second kind K0(z) = H0(z) -
    Y0(z) = (2/pi) int_0^inf e^{-y} (y^2 + z^2)^{-1/2} dy (DLMF 11.5.2), Re z > 0."""
    return _struve_laplace(z, spec, 1)


def struve_k1(z, spec=DEFAULT_SPEC):
    """(values, errors) of K1 = 2/pi - dK0/dz = 2/pi + (2/pi) int_0^inf e^{-y} z
    (y^2 + z^2)^{-3/2} dy, on the arguments of ``struve_k0``."""
    val, err = _struve_laplace(z, spec, 3)
    return 2.0 / np.pi + val, err


def _bessel_transform_tail(p, regime, kc, r, spec, derivative=False):
    """(values, errors) of the n = 2 tail: the Bessel transform of rho*F,
    batched over radii, plus on LOW_INTEGER the Struve term -kc^{2-2s}/4 K0(kc r)
    with its e^{-y} engine error.  kc is one k_eps or one per radius; the
    kernels run once per distinct k_eps, the Struve term once over all radii.
    At a float kc the kernels, the transform and the Struve term run real."""
    s, m = p.s, regime.m
    integer_branch = regime.branch == LOW_INTEGER
    fval, fder = (F_tilde_m, dF_tilde_m_dr) if integer_branch else (F_m, dF_m_dr)
    val = np.zeros(r.shape, dtype=np.result_type(kc, 1.0))
    err = np.zeros(r.shape)
    # at s = 1/2 the corrected kernel vanishes identically; evaluating the
    # transform there would integrate pure cancellation round-off
    if not (integer_branch and abs(s - 0.5) < 1e-12):
        if derivative:
            # d/dr of the 2D inverse transform: -(1/r) * transform of rho F' + 2 F
            # (the n-dimensional divergence identity; equals -(1/2pi) int J1(rho r)
            # rho^2 F by parts, and is validated against finite differences)
            def g(kc, rho):
                return rho * (rho * fder(rho, kc, s, m) + 2.0 * fval(rho, kc, s, m))
            scale = -1.0 / (2.0 * np.pi * r)
        else:
            def g(kc, rho):
                return rho * fval(rho, kc, s, m)
            scale = 1.0 / (2.0 * np.pi)
        qr = integrate_bessel_transform(lambda rho: _by_shift(g, kc, rho), r, spec)
        val = scale * qr.value
        err = np.abs(scale) * qr.err_estimate
    if integer_branch:
        struve, serr = (struve_k1 if derivative else struve_k0)(kc * r, spec)
        if derivative:
            # d/dr K0(kc r) = kc (2/pi - K1(kc r)); 2/pi - K1(z) = O(z^-2) also
            # loses the rounding of K1 ~ 2/pi, four eps (2/pi)
            struve = kc * (2.0 / np.pi - struve)
            serr = np.abs(kc) * (serr + 8.0 / np.pi * np.finfo(float).eps)
        scale = -kc ** (2.0 - 2.0 * s) / 4.0
        val = val + scale * struve
        err = err + np.abs(scale) * serr
    return val, err


# the weight of the tail's bracket integral per dimension, by its log-moment
_MOMENT = {1: _exp_moment, 2: _k0_moment, 3: _exp_moment}


@lru_cache(maxsize=256)
def _far_reach(n, s, m, spec, powers):
    """|k_eps| r below which the far series serves no radius: the largest
    ``_far_rows`` threshold on |c| = (|k_eps| r)^{2s} over the bracket
    powers the tail needs, to the power 1/(2s)."""
    tail = _tail_shape(n, s, m)
    thresh = max(_far_rows(*tail, q, spec.rel_tol, spec.abs_tol, _MOMENT[n])[0] for q in powers)
    return thresh ** (1.0 / (2.0 * s))


def _tail_batch(p, regime, kc, r, spec, outs=(False,)):
    """[(values, errors)] of the tail at radii r, one pair per entry of
    ``outs``: the tail for False, its r-derivative for True; kc is one k_eps
    or one per radius.

    A radius takes the far series (``_far_series``) for a quantity when it
    meets the tolerance for every bracket power the quantity needs: power 1
    for a value, 1 and 2 (the d/dc integrand) for a derivative.  A 2D call in
    which no radius reaches ``_far_reach`` skips the series before any
    prefactor.  The other radii, with their k_eps, go to their dimension's
    engine: the e^{-y} integrals for n in {1, 3}, whose y_cut is that of all
    the call's radii so that the head interval of a near radius does not
    depend on which of its neighbours the series took, or in 2D the Bessel
    transform and the Struve term.  The prefactors and c are computed once
    for all radii and quantities, each bracket power's series runs once over
    the radii any quantity needing it reaches, and the e^{-y} engine takes
    the columns of c the series left.  At one float k_eps (eps = 0) c and the
    tail are real: the series and the engine give the integral of the real
    bracket / i (``_bracket``), so the prefactors take the factor i, and the
    2D transform runs real.
    """
    x, needs = np.abs(kc) * r, [(1, 2) if d else (1,) for d in outs]
    reach = [_far_reach(p.n, p.s, regime.m, spec, qs) for qs in needs]
    if p.n == 2 and not (x >= min(reach)).any():
        return [_bessel_transform_tail(p, regime, kc, r, spec, d) for d in outs]
    pref, dpref, c, tail = _exp_tail_terms(p, regime, kc, r)
    if c.dtype.kind == "f":   # i pref is real, and exact
        pref, dpref = (1j * pref).real, (1j * dpref).real
    # per bracket power: the series' (integral, error, met), or for power 2
    # the integral's d/dc, zero where no quantity needing it reached
    far = {}
    for q in sorted(set().union(*needs)):
        cols = x >= min(t for t, qs in zip(reach, needs) if q in qs)
        far[q] = np.zeros(r.shape, dtype=c.dtype), np.zeros(r.shape), np.zeros(r.shape, bool)
        if cols.any():
            for whole, part in zip(far[q], _far_series(c[cols], tail, spec, q, _MOMENT[p.n])):
                whole[cols] = part
    res = []
    for d, qs, t in zip(outs, needs, reach):
        served = (x >= t) & np.logical_and.reduce([far[q][2] for q in qs])
        parts = [(np.where(served, far[q][0], 0.0), np.where(served, far[q][1], 0.0)) for q in qs]
        rest = ~served
        if p.n != 2 and rest.any():
            y_cut, cr = max(10.0, float((5.0 * abs(kc) * r).max())), c[rest]
            for (ival, ierr), q in zip(parts, qs):
                ival[rest], ierr[rest] = _exp_weighted_batch(
                    lambda y: _bracket(y, cr, *tail, q), spec, y_cut)[:2]
        val, err = _chain(p, kc, r, pref, dpref, *parts)
        if p.n == 2 and rest.any():
            kr = kc if np.ndim(kc) == 0 else kc[rest]
            val[rest], err[rest] = _bessel_transform_tail(p, regime, kr, r[rest], spec, d)
        res.append((val, err))
    return res


def _closed_parts(p, regime, kc, r, derivative=False):
    """(helm, riesz_sum), or their r-derivatives: the closed-form parts at
    radii r, kc one k_eps or one per radius."""
    helm = (helm_part_dr if derivative else helm_part)(p.n, p.s, kc, r)
    return helm, _riesz_sum_batch(p, regime.m, kc, r, derivative)


def _helm_rel(p, kc, r):
    """Relative error charged to the Helmholtz part at radii r."""
    # specfun bounds hankel1_0 at the argument helm_part passes it, real at a float kc
    return hankel1_0_rel_error(kc * r) if p.n == 2 else _CLOSED_FORM_REL


@lru_cache(maxsize=_TAIL_PANELS)
def _tail_panel(p, kc, spec, exponent, derivative):
    """(coefficients, err) of the tail's, or with ``derivative`` of its
    r-derivative's, checked Chebyshev interpolant in log2 r on the panel
    [2^(exponent-1), 2^exponent), or None if it fails its checks (Trefethen,
    *Approximation Theory and Approximation Practice*, ch. 8), read by
    ``_tabled_tail`` at |k| = 1 and kc = k_eps/|k_eps|, whose r is then x =
    |k_eps| r.  Its d + 1 nodes, d = ``_PANEL_DEGREE``, and a check point at
    its left end make one tail call of their own, so the table depends on its
    key alone, never on other radii or on which panels were built before.  It
    passes if its last two coefficients and the check-point miss are within
    max(abs_tol, rel_tol |G|), G or dG/dr; its err is then the largest node
    err plus both.  The coefficients, shared by every later call, are read-only."""
    regime, d = classify_regime(p.s), _PANEL_DEGREE
    theta = np.pi * (np.arange(d + 1) + 0.5) / (d + 1)
    nodes = np.ldexp(np.exp2(0.5 * np.append(np.cos(theta), -1.0) - 0.5), exponent)
    (jn, en), = _tail_batch(p, regime, _as_real(kc), nodes, spec, outs=(derivative,))
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(jn + sum(_closed_parts(
        p, regime, kc, nodes, derivative))))
    coef = (2.0 / (d + 1)) * jn[:-1] @ np.cos(np.outer(theta, np.arange(d + 1)))
    coef[0] *= 0.5
    decay = abs(coef[-2]) + abs(coef[-1])
    miss = abs(chebval(-1.0, coef) - jn[-1])
    if not (decay <= tol[:-1].min() and miss <= tol[-1]):
        return None
    coef.flags.writeable = False
    return coef, float(en.max() + decay + miss)


def _tabled_tail(p, regime, kc, r, spec, derivative):
    """(j_tail, err), or their r-derivatives, at sorted distinct radii r.

    Radii equal to 14 mantissa decimals share the tail of the first (the tail
    has no phase).  The operator is homogeneous, so the tail at k_eps is
    |k_eps|^{n-2s} (its r-derivative |k_eps|^{n-2s+1}) times that at u =
    k_eps/|k_eps| in x = |k_eps| r: the radii are grouped by the dyadic panel
    [2^(j-1), 2^j) of x, and a panel is read from ``_tail_panel`` at (n, s,
    |k| = 1, u) when it holds more than ``_SMALL_BATCH`` of them or, in a call
    of at most ``_SMALL_BATCH`` radii, when its left end lies below the
    ``_far_reach`` of the call's bracket powers (1, and 2 for a derivative).
    ``_tail_panel`` keeps the last ``_TAIL_PANELS`` panels built in the
    process; each is read by Clenshaw per panel, or for panels of at most
    ``_SMALL_BATCH`` radii in one pass over their stacked coefficients.  The
    other radii and those of refused panels go through one direct tail call.
    """
    m, e = np.frexp(r)
    key = np.ldexp(np.round(m, 14), e)
    lead = np.r_[True, key[1:] != key[:-1]]   # r is sorted, so merged radii are runs
    t = r[lead]
    # u as a Python complex, 1 + 0j for real k_eps: equal k_eps of any type share a table
    a, q, u0 = abs(kc), Problem(p.n, p.s, 1.0), complex(kc / abs(kc))
    mant, panel = np.frexp(a * t)             # t is sorted, so panels are runs
    keys, first, counts = np.unique(panel, return_index=True, return_counts=True)
    tabled = counts > _SMALL_BATCH
    if r.size <= _SMALL_BATCH:
        powers = (1, 2) if derivative else (1,)
        tabled = np.ldexp(1.0, keys - 1) < _far_reach(p.n, p.s, regime.m, spec, powers)
    u, scale = 2.0 * np.log2(mant) + 1.0, a ** (p.n - 2.0 * p.s + derivative)
    jt, je = np.empty(t.size, dtype=complex), np.empty(t.size)
    direct, few, cols = np.ones(t.size, dtype=bool), np.zeros(t.size, dtype=bool), []
    for j, i, c in zip(keys[tabled].tolist(), first[tabled].tolist(), counts[tabled].tolist()):
        table = _tail_panel(q, u0, spec, j, derivative)
        if table is None:
            continue
        if c > _SMALL_BATCH:
            jt[i:i + c] = scale * chebval(u[i:i + c], table[0])
        else:                                 # one coefficient column per radius
            few[i:i + c] = True
            cols += [table[0]] * c
        je[i:i + c], direct[i:i + c] = scale * table[1], False
    if cols:
        jt[few] = scale * chebval(u[few], np.array(cols).T, tensor=False)
    if direct.any():
        (jt[direct], je[direct]), = _tail_batch(p, regime, kc, t[direct], spec,
                                                 outs=(derivative,))
    run = np.cumsum(lead) - 1
    return jt[run], je[run]


def _as_real(kc):
    """One k_eps on the real axis (eps = 0) as a float, on which the tail runs
    in real arithmetic; a complex k_eps, or one per radius, as given."""
    return kc.real if np.ndim(kc) == 0 and kc.imag == 0.0 else kc


def _shifted_wavenumber(p, shift, size):
    """k_eps of a shift (SpectralShift, float epsilon or None), or, for a 1-D
    array of ``size`` absorption values (one per radius), k_eps per radius.
    Every distinct value is checked by ``spectral_shift`` before any tail
    work; an array of one distinct value gives that value's scalar k_eps."""
    if np.ndim(shift) == 0:
        return _resolve_shift(p, shift).k_eps
    eps = np.asarray(shift)
    if eps.shape != (size,) or not is_real_kind(eps):
        raise DomainError(f"shift array of shape {eps.shape} and dtype {eps.dtype} does not "
                          f"give one real absorption per radius of {size}")
    kc = {e: spectral_shift(p, e).k_eps for e in dict.fromkeys(eps.tolist())}
    return next(iter(kc.values())) if len(kc) == 1 else np.array([kc[e] for e in eps.tolist()])


def _green_batch(p, shift, radii, spec, outs=(False,)):
    """[(helm, riesz_sum, j_tail, err)] of ``green_eval_batch`` per entry of ``outs``
    (False: G, True: dG/dr), from one radius check, shift and regime: one radius or
    several shifts make one direct tail call, any other reads ``_tabled_tail``."""
    r = _check_radii(radii)
    kc, regime = _shifted_wavenumber(p, shift, r.size), classify_regime(p.s)
    direct = r.size == 1 or np.ndim(kc) != 0
    u, inv = (r, slice(None)) if direct else np.unique(r, return_inverse=True)
    kt, res = _as_real(kc), []
    tails = _tail_batch(p, regime, kt, u, spec, outs=outs) if direct else [
        _tabled_tail(p, regime, kt, u, spec, d) for d in outs]
    rel = _helm_rel(p, kt, u)
    for d, (jt, je) in zip(outs, tails):
        helm, riesz = _closed_parts(p, regime, kc, u, d)
        err = je + rel * np.abs(helm) + _CLOSED_FORM_REL * np.abs(riesz)
        res.append((helm[inv], riesz[inv], jt[inv].astype(complex, copy=False), err[inv]))
    return res


def green_eval_batch(p, shift, radii, spec=DEFAULT_SPEC):
    """Vectorized Green evaluation over a 1-D array of finite radii r > 0.

    `shift` is one shift for all radii (as for ``green_eval``) or a 1-D array
    of absorption values, one per radius.  Returns (helm, riesz_sum, j_tail,
    err) arrays, one error estimate per radius.  One radius, or a batch with
    several shifts at any size, makes one tail call: the e^{-y} integrals (n
    = 1, 3) and the 2D Bessel transform, whose J0-zero partition is fixed in
    t = rho r, share one adaptive pass over the batch, each (k_eps, r) pair a
    column of it.  Any other batch evaluates the closed parts once per
    distinct radius and the tail by ``_tabled_tail``, on panels of x = |k_eps|
    r that serve every |k_eps| of the same phase; at most ``_SMALL_BATCH``
    distinct radii table every panel below the far series' reach, and keep
    the series beyond it.
    """
    return _green_batch(p, shift, radii, spec)[0]


def green_eval(p, shift, r, spec=DEFAULT_SPEC):
    """Outgoing fundamental solution at radius r, decomposed into its parts.

    `shift` may be a SpectralShift, a float epsilon, or None (epsilon = 0);
    `r` is one radius, a scalar or a 0-d array (``green_eval_batch`` takes
    arrays).
    """
    if np.ndim(r) != 0:
        raise DomainError(f"green_eval takes one radius, got shape {np.shape(r)}")
    helm, riesz, jt, err = green_eval_batch(p, shift, np.atleast_1d(r), spec)
    total = helm[0] + riesz[0] + jt[0]
    return GreenDecomposition(complex(helm[0]), complex(riesz[0]), complex(jt[0]),
                              complex(total), float(err[0]))


def green_radial_derivative(p, shift, r, spec=DEFAULT_SPEC):
    """d/dr of the fundamental solution: the closed parts' derivatives plus
    the tail's, differentiated under the integral sign, on the path of
    ``green_eval_batch`` (its shifts, checks, spec and table, here of dG/dr).

    `r` is a scalar (returns complex) or a 1-D array (returns an array).
    """
    out = sum(_green_batch(p, shift, np.atleast_1d(r), spec, (True,))[0][:3])
    return complex(out[0]) if np.ndim(r) == 0 else out


def src_residual(p, r, spec=DEFAULT_SPEC):
    """Sommerfeld residual r^{(n-1)/2} |dG/dr - i k G| at absorption zero and
    one finite radius r > 0, a scalar or a 0-d array (else :class:`DomainError`).
    G and dG/dr come from one ``_green_batch`` pass at spec, each with the bits
    of its own one-radius call (``green_eval``, ``green_radial_derivative``)."""
    if np.ndim(r) != 0:
        raise DomainError(f"src_residual takes one radius, got shape {np.shape(r)}")
    g, dg = (complex(sum(q[:3])[0])
             for q in _green_batch(p, 0.0, np.atleast_1d(r), spec, (False, True)))
    return float(r ** ((p.n - 1) / 2.0) * abs(dg - 1j * p.k * g))


def green_closed_form_3d_half(k, r):
    """Closed-form outgoing fundamental solution for n = 3, s = 1/2.

    1/(2 pi^2 r^2) - (i k /(4 pi^2 r)) (e^{ikr} E1(ikr) - e^{-ikr} E1(-ikr))
    + k e^{ikr} / (2 pi r).
    """
    if not (0.0 < k < math.inf and 0.0 < r < math.inf):
        raise DomainError("green_closed_form_3d_half requires finite k > 0 and r > 0")
    a = np.exp(1j * k * r) * expint_e1(1j * k * r)
    b = np.exp(-1j * k * r) * expint_e1(-1j * k * r)
    return complex(1.0 / (2.0 * np.pi ** 2 * r ** 2)
                   - 1j * k / (4.0 * np.pi ** 2 * r) * (a - b)
                   + k * np.exp(1j * k * r) / (2.0 * np.pi * r))
