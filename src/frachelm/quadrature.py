"""Integration engines for the three integral shapes the kernels produce.

* semi-infinite integrals with an e^{-y} weight (1D/3D tail terms),
* oscillatory Bessel transforms int_0^inf J0(rho r) g(rho) drho (2D tail),
  batched over radii,
* ``integrate_partitioned`` over caller-given breakpoints: adaptive on one
  interval, or a head cell plus averaged oscillation cells (the Fourier oracle).

The public engines return a :class:`QuadResult` with an error estimate, the
batched e^{-y} engine a (values, errors, evaluations) triple; assemblies
downstream propagate those estimates additively.  Integrand callables must be
vectorized over a 1-D numpy array of abscissae and may return either a 1-D
array (scalar integrand) or a 2-D array ``(npoints, nbatch)`` for batched
evaluation; the adaptive engine then refines until every batch column meets
the tolerance.  It bisects next the panel with the largest err_c / tol_c over
the columns c, tol = max(abs_tol, rel_tol |total|), not the largest absolute
error, so columns of very different size share one pass.

Each panel estimate is the embedded Gauss-Kronrod pair G7/K15 (QUADPACK's
``qk15``; Piessens et al., *QUADPACK*, Springer 1983): the integrand is called
once, at the 15 Kronrod nodes, the value is the K15 sum and the error the raw
|K15 - G7|, where G7 reuses 7 of the same 15 values.

The adaptive engine also takes an optional weight(a, b) that returns a fixed
factor at the 15 Kronrod nodes of panel [a, b]; it multiplies the integrand
values.  The Bessel transform passes J0 this way: its partition and
every bisection of it are fixed in t = rho r, so J0 is tabulated once per
panel (``_j0_panel``, an LRU cache of ``_J0_PANELS`` panels keyed by the panel
ends) and every later call reuses it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import AccuracyError, DomainError, is_count
from .specfun import bessel_j0, gauss_legendre, iterated_average, j0_zeros


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and resolution knobs shared by every engine."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdiv: int = 4000
    bessel_intervals: int = 30

    def __post_init__(self):
        if not (0.0 < self.rel_tol < np.inf and 0.0 < self.abs_tol < np.inf):
            raise DomainError("tolerances must be finite and positive")
        if not (is_count(self.max_subdiv) and self.max_subdiv >= 1):
            raise DomainError(f"max_subdiv must be an integer >= 1, got {self.max_subdiv!r}")
        if not (is_count(self.bessel_intervals) and self.bessel_intervals >= 4):
            raise DomainError("bessel_intervals must be an integer; orders must be >= 4, "
                              f"got {self.bessel_intervals!r}")


@dataclass
class QuadResult:
    value: complex
    err_estimate: float
    evaluations: int


DEFAULT_SPEC = QuadratureSpec()

# the nonnegative Kronrod abscissae on [-1, 1] (outermost first; the odd
# entries are G7 nodes) and their K15 weights, from QUADPACK's qk15
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_KRONROD_NODES = np.r_[-_XGK, _XGK[-2::-1]]
# rows: K15 weights, and K15 minus G7 weights (G7 sits at the odd nodes)
_KRONROD_WEIGHTS = np.array([np.r_[_WGK, _WGK[-2::-1]]] * 2)
_KRONROD_WEIGHTS[1, 1::2] -= gauss_legendre(7)[1]

# Gauss-Laguerre order of the e^{-y} tail; half of it gives the error estimate
_LAGUERRE_ORDER = 64

# e^{-y} is below 1e-52 here; features beyond are invisible at any tolerance
_EXP_HEAD_CAP = 120.0

# J0 panels kept by the Bessel transform: 15 floats (120 B of values, 420 B
# with the array, key tuple, key floats and cache link) each, so at most 0.86 MB
_J0_PANELS = 2048


@lru_cache(maxsize=None)
def _laggauss_cached(order):
    return laggauss(order)


def _as_batch(values, npts):
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 1:
        return arr[:, None]
    if arr.ndim == 2 and arr.shape[0] == npts:
        return arr
    raise DomainError(f"integrand returned shape {arr.shape}, expected ({npts},) or ({npts}, B)")


def _panel_nodes(a, b):
    """(15 Kronrod nodes, half width) of panel [a, b]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _KRONROD_NODES, half


def _panel_estimates(f, a, b, weight=None):
    """Gauss-Kronrod 7/15 panel: (K15 value, |K15 - G7| error, evaluations).

    The integrand is called once, at the 15 Kronrod nodes.  ``weight(a, b)``,
    if given, returns 15 factors that multiply the integrand values there."""
    x, half = _panel_nodes(a, b)
    fx = _as_batch(f(x), x.size)
    if weight is not None:
        fx = weight(a, b)[:, None] * fx
    val, diff = half * (_KRONROD_WEIGHTS @ fx)
    return val, np.abs(diff), x.size


def _adaptive_batch(f, a, b, spec, abs_tol=None, weight=None):
    """Adaptive bisection on [a, b]; returns (value_vec, err_vec, evaluations).

    The panel bisected next is the one whose largest err_c / tol_c over the
    columns c is largest, tol = max(abs_tol, rel_tol |total_c|) taken when the
    panel was pushed, so a large column already within its tolerance does not
    draw the bisections a small column needs."""
    rel = spec.rel_tol
    atol = spec.abs_tol if abs_tol is None else abs_tol
    val, err, evals = _panel_estimates(f, a, b, weight)
    total_val, total_err = val.copy(), err.copy()
    tol = np.maximum(atol, rel * np.abs(total_val))
    counter = 0
    heap = [(-float((err / tol).max()), counter, a, b, val, err)]
    npanels = 1
    while not np.all(total_err <= tol):
        if npanels >= spec.max_subdiv or not heap:
            raise AccuracyError(
                f"adaptive quadrature did not converge within {spec.max_subdiv} panels",
                value=total_val, err_estimate=float(total_err.max()))
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lval, lerr, ev1 = _panel_estimates(f, pa, pm, weight)
        rval, rerr, ev2 = _panel_estimates(f, pm, pb, weight)
        evals += ev1 + ev2
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        total_err = np.maximum(total_err, 0.0)
        tol = np.maximum(atol, rel * np.abs(total_val))
        counter += 1
        heapq.heappush(heap, (-float((lerr / tol).max()), counter, pa, pm, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-float((rerr / tol).max()), counter, pm, pb, rval, rerr))
        npanels += 1
    return total_val, total_err, evals


def _exp_weighted_batch(f, spec, y_cut):
    """int_0^inf e^{-y} f(y) dy, batched.  Head adaptive on [0, y_cut], shifted
    Gauss-Laguerre tail beyond."""
    head_end = min(y_cut, _EXP_HEAD_CAP)

    def weighted(y):
        return _as_batch(f(y), y.size) * np.exp(-y)[:, None]

    val, err, evals = _adaptive_batch(weighted, 0.0, head_end, spec)
    scale = np.exp(-head_end)
    if scale > 0.0:
        t_hi, w_hi = _laggauss_cached(_LAGUERRE_ORDER)
        t_lo, w_lo = _laggauss_cached(_LAGUERRE_ORDER // 2)
        f_hi = _as_batch(f(t_hi + head_end), t_hi.size)
        f_lo = _as_batch(f(t_lo + head_end), t_lo.size)
        tail_hi = scale * (w_hi[:, None] * f_hi).sum(axis=0)
        tail_lo = scale * (w_lo[:, None] * f_lo).sum(axis=0)
        val = val + tail_hi
        err = err + np.abs(tail_hi - tail_lo)
        evals += t_hi.size + t_lo.size
    return val, err, evals


def _integrate_partitioned(f, breakpoints, spec, weight=None):
    """Integrate f over [b_0, b_last] split at the given breakpoints, per column.

    The first cell is the head; the remaining cells form partial sums
    accelerated by iterated averaging, which is how the conditionally
    convergent oscillatory tails are resummed.
    Returns (values, errors, evaluations, |tail cells|), the last of shape
    (cells, columns).
    """
    pts = np.asarray(breakpoints, dtype=float)
    per_panel_abs = spec.abs_tol / max(1, len(pts) - 1)
    cells, errs, evals = [], 0.0, 0
    for a, b in zip(pts[:-1], pts[1:]):
        v, e, ev = _adaptive_batch(f, a, b, spec, abs_tol=per_panel_abs, weight=weight)
        cells.append(v)
        errs = errs + e
        evals += ev
    cells = np.array(cells)
    head, tail = cells[0], cells[1:]
    if tail.shape[0] == 0:
        return head, errs, evals, np.abs(tail)
    limit, accel_err = iterated_average(np.cumsum(tail, axis=0))
    return head + limit, errs + accel_err, evals, np.abs(tail)


def integrate_partitioned(f, breakpoints, spec=DEFAULT_SPEC):
    """Integral of f over [b_0, b_last] split at the breakpoints, with an error
    estimate (QUADPACK's QAGP shape).  Two breakpoints give adaptive
    Gauss-Kronrod on one interval, which resolves power/log endpoint
    singularities; more give a head cell plus cells resummed by iterated
    averaging, as over (0, inf) at the zeros of an oscillatory factor.  Value
    and error are scalars for an integrand of one column, else per column."""
    pts = np.asarray(breakpoints)
    if not (pts.ndim == 1 and pts.size >= 2 and pts.dtype.kind in "iuf"
            and np.all(np.isfinite(pts)) and np.all(np.diff(pts) > 0)):
        raise DomainError("breakpoints must be >= 2 finite, strictly increasing numbers, "
                          f"got {breakpoints!r}")
    value, err, evals, _ = _integrate_partitioned(f, pts, spec)
    if value.size == 1:
        return QuadResult(complex(value[0]), float(err[0]), evals)
    return QuadResult(value, err, evals)


@lru_cache(maxsize=_J0_PANELS)
def _j0_panel(a, b):
    """J0 at the 15 Kronrod nodes of panel [a, b] in t, read-only.  Looks up
    ``bessel_j0`` in this module at each miss."""
    w = bessel_j0(_panel_nodes(a, b)[0])
    w.flags.writeable = False
    return w


def integrate_bessel_transform(g, r, spec=DEFAULT_SPEC):
    """Compute int_0^inf J0(rho r) g(rho) drho for r > 0 (scalar or 1-D array).

    Substituting rho = t/r gives (1/r) int_0^inf J0(t) g(t/r) dt, so the
    partition at the zeros of J0 is fixed in t and every radius is one column
    of the adaptive engine; `g` receives (points, radii) arrays of rho.  J0
    enters as the engine's weight, tabulated once per panel.  The alternating
    series of cell integrals is accelerated by iterated averaging.
    Errors are per column.  Raises :class:`AccuracyError` when a column's cell
    integrals are still growing faster than the oscillation envelope at the
    end of the partition (g violates the decay precondition).
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if radii.ndim != 1 or radii.size == 0 or not np.all(np.isfinite(radii) & (radii > 0.0)):
        raise DomainError(f"transform radii must be finite and positive, got {r}")
    pts = np.concatenate([[0.0], j0_zeros(spec.bessel_intervals)])

    def integrand(t):
        rho = t[:, None] / radii[None, :]
        return np.asarray(g(rho), dtype=complex) / radii[None, :]

    value, err, evals, incr = _integrate_partitioned(integrand, pts, spec, _j0_panel)
    _check_tail_decay(incr, value, err, spec)
    if np.ndim(r) == 0:
        return QuadResult(complex(value[0]), float(err[0]), evals)
    return QuadResult(value, err, evals)


def _check_tail_decay(incr, value, err, spec):
    """Flag integrands whose cell integrals grow faster than the J0 envelope
    can explain (|cell| ~ ell^{1/2} is legitimate for a bounded g whose decay
    sets in beyond the partition window; a steeper sustained power means g
    itself grows, violating the decay precondition).  A transient dip at a
    removable kernel feature inside the window must not trip the check, so it
    fires only when the growth persists through the end of the partition.
    Checked per column of `incr` (cells, columns)."""
    ncell = incr.shape[0]
    if ncell < 8:
        return
    tail = incr[ncell // 2:]
    floor = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))
    end_is_peak = np.argmax(incr, axis=0) >= ncell - 3
    still_rising = np.all(np.diff(incr[-5:], axis=0) > 0.0, axis=0)
    suspect = end_is_peak & still_rising & np.all(tail > 10.0 * floor, axis=0)
    if np.any(suspect):
        ell = np.arange(ncell // 2, ncell) + 1.0
        p = np.polyfit(np.log(ell), np.log(np.maximum(tail[:, suspect], 1e-300)), 1)[0]
        if np.max(p) > 1.0:
            raise AccuracyError(
                f"cell integrals growing like ell^{np.max(p):.2f} after "
                f"{ncell} intervals (insufficient integrand decay)",
                value=value, err_estimate=float(np.max(err)))
