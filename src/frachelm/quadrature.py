"""Integration engines for the three integral shapes the kernels produce.

* semi-infinite integrals with an e^{-y} weight (1D/3D tail terms),
* oscillatory Bessel transforms int_0^inf J0(rho r) g(rho) drho (2D tail),
  batched over radii,
* generic adaptive finite-interval integration.

The public engines return a :class:`QuadResult` with an error estimate, the
batched e^{-y} engine a (values, errors, evaluations) triple; assemblies
downstream propagate those estimates additively.  Integrand callables must be
vectorized over a 1-D numpy array of abscissae and may return either a 1-D
array (scalar integrand) or a 2-D array ``(npoints, nbatch)`` for batched
evaluation; the adaptive engine then refines until every batch column meets
the tolerance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, DomainError
from .specfun import bessel_j0, iterated_average, j0_zeros


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and resolution knobs shared by every engine."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdiv: int = 4000
    laguerre_order: int = 64
    bessel_intervals: int = 30

    def __post_init__(self):
        if not (0.0 < self.rel_tol < np.inf and 0.0 < self.abs_tol < np.inf):
            raise DomainError("tolerances must be finite and positive")
        if self.laguerre_order < 4 or self.bessel_intervals < 4:
            raise DomainError("orders must be >= 4")


@dataclass
class QuadResult:
    value: complex
    err_estimate: float
    evaluations: int


DEFAULT_SPEC = QuadratureSpec()

_GL_LO = leggauss(7)
_GL_HI = leggauss(15)

# e^{-y} is below 1e-52 here; features beyond are invisible at any tolerance
_EXP_HEAD_CAP = 120.0


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


def _panel_estimates(f, a, b):
    """Two-level Gauss panel: (fine value, |fine - coarse| error, evaluations)."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x_lo = mid + half * _GL_LO[0]
    x_hi = mid + half * _GL_HI[0]
    f_lo = _as_batch(f(x_lo), x_lo.size)
    f_hi = _as_batch(f(x_hi), x_hi.size)
    v_lo = half * (_GL_LO[1][:, None] * f_lo).sum(axis=0)
    v_hi = half * (_GL_HI[1][:, None] * f_hi).sum(axis=0)
    return v_hi, np.abs(v_hi - v_lo), x_lo.size + x_hi.size


def _adaptive_batch(f, a, b, spec, abs_tol=None):
    """Adaptive bisection on [a, b]; returns (value_vec, err_vec, evaluations)."""
    rel = spec.rel_tol
    atol = spec.abs_tol if abs_tol is None else abs_tol
    val, err, evals = _panel_estimates(f, a, b)
    counter = 0
    heap = [(-float(err.max()), counter, a, b, val, err)]
    total_val, total_err = val.copy(), err.copy()
    npanels = 1
    while True:
        tol = np.maximum(atol, rel * np.abs(total_val))
        if np.all(total_err <= tol):
            break
        if npanels >= spec.max_subdiv or not heap:
            raise AccuracyError(
                f"adaptive quadrature did not converge within {spec.max_subdiv} panels",
                value=total_val, err_estimate=float(total_err.max()))
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lval, lerr, ev1 = _panel_estimates(f, pa, pm)
        rval, rerr, ev2 = _panel_estimates(f, pm, pb)
        evals += ev1 + ev2
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        total_err = np.maximum(total_err, 0.0)
        counter += 1
        heapq.heappush(heap, (-float(lerr.max()), counter, pa, pm, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-float(rerr.max()), counter, pm, pb, rval, rerr))
        npanels += 1
    return total_val, total_err, evals


def integrate_adaptive(f, a, b, spec=DEFAULT_SPEC):
    """Adaptive Gauss quadrature of f over [a, b] with an embedded error estimate.

    Handles integrable endpoint singularities of power/log type through
    bisection toward the endpoint (nodes never touch the endpoints).
    """
    if not a < b:
        raise DomainError(f"integrate_adaptive needs a < b, got [{a}, {b}]")
    val, err, evals = _adaptive_batch(f, float(a), float(b), spec)
    return QuadResult(complex(val[0]) if val.size == 1 else val,
                      float(err.max()), evals)


def _exp_weighted_batch(f, spec, y_cut):
    """int_0^inf e^{-y} f(y) dy, batched.  Head adaptive on [0, y_cut], shifted
    Gauss-Laguerre tail beyond."""
    head_end = min(y_cut, _EXP_HEAD_CAP)

    def weighted(y):
        return _as_batch(f(y), y.size) * np.exp(-y)[:, None]

    val, err, evals = _adaptive_batch(weighted, 0.0, head_end, spec)
    scale = np.exp(-head_end)
    if scale > 0.0:
        t_hi, w_hi = _laggauss_cached(spec.laguerre_order)
        t_lo, w_lo = _laggauss_cached(max(4, spec.laguerre_order // 2))
        f_hi = _as_batch(f(t_hi + head_end), t_hi.size)
        f_lo = _as_batch(f(t_lo + head_end), t_lo.size)
        tail_hi = scale * (w_hi[:, None] * f_hi).sum(axis=0)
        tail_lo = scale * (w_lo[:, None] * f_lo).sum(axis=0)
        val = val + tail_hi
        err = err + np.abs(tail_hi - tail_lo)
        evals += t_hi.size + t_lo.size
    return val, err, evals


def _integrate_partitioned(f, breakpoints, spec):
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
        v, e, ev = _adaptive_batch(f, a, b, spec, abs_tol=per_panel_abs)
        cells.append(v)
        errs = errs + e
        evals += ev
    cells = np.array(cells)
    head, tail = cells[0], cells[1:]
    if tail.shape[0] == 0:
        return head, errs, evals, np.abs(tail)
    limit, accel_err = iterated_average(np.cumsum(tail, axis=0))
    return head + limit, errs + accel_err, evals, np.abs(tail)


def integrate_bessel_transform(g, r, spec=DEFAULT_SPEC):
    """Compute int_0^inf J0(rho r) g(rho) drho for r > 0 (scalar or 1-D array).

    Substituting rho = t/r gives (1/r) int_0^inf J0(t) g(t/r) dt, so the
    partition at the zeros of J0 is fixed in t and every radius is one column
    of the adaptive engine; `g` receives (points, radii) arrays of rho.  The
    alternating series of cell integrals is accelerated by iterated averaging.
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
        gv = np.asarray(g(rho), dtype=complex)
        return bessel_j0(t)[:, None] * gv / radii[None, :]

    value, err, evals, incr = _integrate_partitioned(integrand, pts, spec)
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


def integrate_oscillatory(f, r, kind, spec=DEFAULT_SPEC, intervals=None):
    """Partition-and-accelerate integral of f over (0, inf) against an
    oscillation of wavelength set by `kind` in {"cos", "sin", "j0"}.

    The breakpoints are the zeros of cos(xi r) / sin(xi r) / J0(xi r); `f` is
    the full integrand (oscillatory factor included).  Used by the
    Fourier-inversion oracle.
    """
    if not r > 0.0:
        raise DomainError(f"oscillation radius must be positive, got {r}")
    count = spec.bessel_intervals if intervals is None else intervals
    if kind == "cos":
        zeros = (np.arange(1, count + 1) - 0.5) * np.pi / r
    elif kind == "sin":
        zeros = np.arange(1, count + 1) * np.pi / r
    elif kind == "j0":
        zeros = j0_zeros(count) / r
    else:
        raise DomainError(f"unknown oscillation kind {kind!r}")
    pts = np.concatenate([[0.0], zeros])
    value, err, evals, _ = _integrate_partitioned(f, pts, spec)
    return QuadResult(complex(value[0]), float(err[0]), evals)
