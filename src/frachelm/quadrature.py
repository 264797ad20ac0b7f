"""Integration engines for the three integral shapes the kernels produce.

* semi-infinite integrals with an e^{-y} weight (1D/3D tail terms),
* oscillatory Bessel transforms int_0^inf J0(rho r) g(rho) drho (2D tail),
  batched over radii,
* ``integrate_partitioned`` over caller-given breakpoints: adaptive on one
  interval, or a head cell plus averaged oscillation cells (the Fourier oracle).

The public engines return a :class:`QuadResult` with an error estimate: the
Bessel transform arrays with one value and error per radius, a scalar radius
being one, and ``integrate_partitioned`` one per column, scalars for one
column.  The batched e^{-y} engine returns a (values, errors, evaluations)
triple; assemblies downstream propagate those estimates additively.
Integrand callables must be vectorized over a 1-D numpy array of abscissae
and may return either a 1-D array (scalar integrand) or a 2-D array
``(npoints, nbatch)`` for batched evaluation; the adaptive engine then
refines until every batch column meets the tolerance, and keeps every
estimate and sum real for a real integrand.
It bisects next the panel with the largest err_c / tol_c over the columns c,
tol = max(abs_tol, rel_tol |total|), not the largest absolute error, so
columns of very different size share one pass.

Each panel estimate is the embedded Gauss-Kronrod pair G7/K15 (QUADPACK's
``qk15``; Piessens et al., *QUADPACK*, Springer 1983): the value is the K15
sum over the panel's 15 Kronrod nodes and the error the raw |K15 - G7|, where
G7 reuses 7 of the same 15 values.  One integrand call evaluates the nodes of
many panels: the first panel of every cell of a partition, and the children
of the next panels down a left-end bisection cascade, which an endpoint
singularity takes one after another.  A call holds at most ``_CALL_POINTS``
point-columns (points times integrand columns) unless one panel pair alone
needs more.  The engine bisects the same panels as with one call per panel,
so values and errors do not depend on this batching; the evaluation counts
include the lookahead panels it estimated and never used.

The adaptive engine also takes an optional weight(a, b) that returns fixed
factors at the 15 Kronrod nodes of each panel [a_i, b_i]; they multiply the
integrand values.  The Bessel transform passes J0 this way: its partition and
every bisection of it are fixed in t = rho r, so J0 is tabulated once per
panel (``_j0_panels``, an LRU table of ``_J0_PANELS`` panels keyed by the
panel ends, filled in one ``bessel_j0`` call per integrand call) and every
later call reuses it.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import AccuracyError, DomainError, is_count, real_array
from .specfun import bessel_j0, gauss_legendre, iterated_average, j0_zeros


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and the adaptive panel budget shared by every engine; each
    partition is its caller's (``_BESSEL_INTERVALS``, the oracle's ``intervals``)."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdiv: int = 4000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < np.inf and 0.0 < self.abs_tol < np.inf):
            raise DomainError("tolerances must be finite and positive")
        if not (is_count(self.max_subdiv) and self.max_subdiv >= 1):
            raise DomainError(f"max_subdiv must be an integer >= 1, got {self.max_subdiv!r}")


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

# cells of the Bessel transform's partition at the zeros of J0
_BESSEL_INTERVALS = 30

# e^{-y} is below 1e-52 here; features beyond are invisible at any tolerance
_EXP_HEAD_CAP = 120.0

# J0 panels kept by the Bessel transform: 15 floats (120 B of values, 420 B
# with the array, key tuple, key floats and cache link) each, so at most 0.86 MB
_J0_PANELS = 2048

# point-columns (integrand points times columns) one call of the integrand
# may hold, unless one panel pair alone holds more; and the most levels of a
# left-end bisection cascade one call estimates ahead
_CALL_POINTS = 4096
_LOOKAHEAD_LEVELS = 16


@lru_cache(maxsize=None)
def _laggauss_cached(order):
    return laggauss(order)


def _as_batch(values, npts):
    arr = np.asarray(values)   # a real integrand keeps real estimates and sums
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
    """Gauss-Kronrod 7/15 estimates of the panels [a_i, b_i], from one call
    of f at all their Kronrod nodes: (K15 values, |K15 - G7| errors, points),
    the first two of shape (panels, columns).  ``weight(a, b)``, if given,
    returns (panels, 15) factors that multiply the integrand values."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x, half = _panel_nodes(a[:, None], b[:, None])
    fx = _as_batch(f(x.ravel()), x.size).reshape(*x.shape, -1)
    if weight is not None:
        fx = weight(a, b)[:, :, None] * fx
    est = half[:, :, None] * (_KRONROD_WEIGHTS @ fx)
    return est[:, 0], np.abs(est[:, 1]), x.size


def _bisected(pa, pb, a, depth):
    """The panels whose children one integrand call estimates: [pa, pb], and,
    when it starts at the interval's left end a, the next depth - 1 panels of
    that end's bisection cascade, [a, x_1], [a, x_2], ... with
    x_j = 0.5 * (a + x_{j-1}) and x_0 = pb, as the engine computes midpoints."""
    parents = [(pa, pb)]
    while pa == a and len(parents) < depth:
        x = 0.5 * (a + parents[-1][1])
        if not a < x:   # [a, x_{j-1}] is as narrow as floats near a allow
            break
        parents.append((a, x))
    return parents


def _adaptive_batch(f, a, b, spec, abs_tol=None, weight=None, first=None):
    """Adaptive bisection on [a, b]; returns (value_vec, err_vec, evaluations).

    The panel bisected next is the one whose largest err_c / tol_c over the
    columns c is largest, tol = max(abs_tol, rel_tol |total_c|) taken when the
    panel was pushed, so a large column already within its tolerance does not
    draw the bisections a small column needs.

    Bisecting a panel whose children are not yet estimated is one call of f.
    When that panel starts at a, the call also estimates the children of the
    next panels down the left-end cascade (``_bisected``): up to
    ``_LOOKAHEAD_LEVELS`` levels, fewer when the columns would take the call
    past ``_CALL_POINTS`` point-columns.  Later bisections take them from a
    table keyed by the parent panel, so the panels, values and errors are
    those of one call per panel; a lookahead panel never used costs only its
    points, which count in the evaluations.  ``first``, if given, is the
    (value, error) of [a, b] that the caller estimated; its 15 points count
    here."""
    rel = spec.rel_tol
    atol = spec.abs_tol if abs_tol is None else abs_tol
    if first is None:
        (val,), (err,), evals = _panel_estimates(f, [a], [b], weight)
    else:
        (val, err), evals = first, _KRONROD_NODES.size
    # a level of lookahead is two 15-point children
    depth = min(_LOOKAHEAD_LEVELS, max(1, _CALL_POINTS // (30 * val.size)))
    total_val, total_err = val.copy(), err.copy()
    tol = np.maximum(atol, rel * np.abs(total_val))
    counter = 0
    heap = [(-float((err / tol).max()), counter, a, b, val, err)]
    ahead = {}
    npanels = 1
    while not (total_err <= tol).all():
        if npanels >= spec.max_subdiv:
            raise AccuracyError(
                f"adaptive quadrature did not converge within {spec.max_subdiv} panels",
                value=total_val, err_estimate=float(total_err.max()))
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        if (pa, pb) not in ahead:
            parents = _bisected(pa, pb, a, depth)
            lo, hi = np.array(parents).T
            mid = 0.5 * (lo + hi)
            v, e, ev = _panel_estimates(f, np.concatenate([lo, mid]),
                                        np.concatenate([mid, hi]), weight)
            evals += ev
            n = len(parents)
            ahead.update(zip(parents, zip(v[:n], e[:n], v[n:], e[n:])))
        lval, lerr, rval, rerr = ahead.pop((pa, pb))
        pm = 0.5 * (pa + pb)
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        np.maximum(total_err, 0.0, out=total_err)
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
    # head_end <= _EXP_HEAD_CAP, so the scale is at least e^{-120}, never 0
    scale = np.exp(-head_end)
    t_hi, w_hi = _laggauss_cached(_LAGUERRE_ORDER)
    t_lo, w_lo = _laggauss_cached(_LAGUERRE_ORDER // 2)
    f_hi = _as_batch(f(t_hi + head_end), t_hi.size)
    f_lo = _as_batch(f(t_lo + head_end), t_lo.size)
    tail_hi = scale * (w_hi[:, None] * f_hi).sum(axis=0)
    tail_lo = scale * (w_lo[:, None] * f_lo).sum(axis=0)
    return val + tail_hi, err + np.abs(tail_hi - tail_lo), evals + t_hi.size + t_lo.size


def _integrate_partitioned(f, breakpoints, spec, weight=None):
    """Integrate f over [b_0, b_last] split at the given breakpoints, per column.

    The first cell is the head; the remaining cells form partial sums
    accelerated by iterated averaging, which is how the conditionally
    convergent oscillatory tails are resummed.  The first estimates of all
    cells take as few integrand calls as ``_CALL_POINTS`` allows: the head
    cell's alone, whose column count sizes the calls for the others.  A cell
    whose first estimate misses its tolerance then refines adaptively from it.
    Returns (values, errors, evaluations, |tail cells|), the last of shape
    (cells, columns).
    """
    pts = np.asarray(breakpoints, dtype=float)
    per_panel_abs = spec.abs_tol / max(1, len(pts) - 1)
    lo, hi = pts[:-1], pts[1:]
    val, err, _ = _panel_estimates(f, lo[:1], hi[:1], weight)
    chunk = max(1, _CALL_POINTS // (_KRONROD_NODES.size * val.shape[1]))
    vals, errs = [val], [err]
    for i in range(1, lo.size, chunk):
        v, e, _ = _panel_estimates(f, lo[i:i + chunk], hi[i:i + chunk], weight)
        vals.append(v)
        errs.append(e)
    cells, errs = np.concatenate(vals), np.concatenate(errs)
    evals = _KRONROD_NODES.size * lo.size
    # a cell whose first estimate meets its tolerance is done; the others
    # refine adaptively from it, and their loop counts its 15 points again
    done = (errs <= np.maximum(per_panel_abs, spec.rel_tol * np.abs(cells))).all(axis=1)
    for i in np.flatnonzero(~done):
        cells[i], errs[i], ev = _adaptive_batch(f, lo[i], hi[i], spec, abs_tol=per_panel_abs,
                                                weight=weight, first=(cells[i], errs[i]))
        evals += ev - _KRONROD_NODES.size
    # summed in cell order; np.sum may pair the terms of a one-column array
    errs = np.cumsum(errs, axis=0)[-1]
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


class _J0Table:
    """J0 at the 15 Kronrod nodes of panels [a, b] in t: an LRU table of at
    most ``size`` panels keyed by the panel ends.  A call takes arrays of
    panel ends and returns a (panels, 15) array; it tabulates all the panels
    it misses in one call of ``bessel_j0``, looked up in this module."""

    def __init__(self, size):
        self.size = size
        self.panels = OrderedDict()

    def __call__(self, a, b):
        keys = list(zip(a.tolist(), b.tolist()))
        miss = [key for key in dict.fromkeys(keys) if key not in self.panels]
        if miss:
            lo, hi = np.array(miss).T
            values = bessel_j0(_panel_nodes(lo[:, None], hi[:, None])[0])
            # a row of its own, so an evicted panel frees its values
            self.panels.update(zip(miss, map(np.copy, values)))
        for key in keys:
            self.panels.move_to_end(key)
        out = np.array([self.panels[key] for key in keys])
        while len(self.panels) > self.size:
            self.panels.popitem(last=False)
        return out


_j0_panels = _J0Table(_J0_PANELS)


def integrate_bessel_transform(g, r, spec=DEFAULT_SPEC):
    """Compute int_0^inf J0(rho r) g(rho) drho at radii r > 0, a scalar (one
    radius) or a 1-D array; value and error are 1-D arrays, one per radius.

    Substituting rho = t/r gives (1/r) int_0^inf J0(t) g(t/r) dt, so the
    partition at the zeros of J0 is fixed in t and every radius is one column
    of the adaptive engine; `g` receives (points, radii) arrays of rho.  J0
    enters as the engine's weight, tabulated once per panel.  The alternating
    series of cell integrals is accelerated by iterated averaging.
    Errors are per column.  Raises :class:`AccuracyError` when a column's cell
    integrals are still growing faster than the oscillation envelope at the
    end of the partition (g violates the decay precondition).
    """
    radii = np.atleast_1d(real_array(r, "transform radii"))
    if radii.ndim != 1 or radii.size == 0 or not np.all(np.isfinite(radii) & (radii > 0.0)):
        raise DomainError(f"transform radii must be finite and positive, got {r}")
    pts = np.concatenate([[0.0], j0_zeros(_BESSEL_INTERVALS)])

    def integrand(t):
        rho = t[:, None] / radii[None, :]
        return np.asarray(g(rho)) / radii[None, :]

    value, err, evals, incr = _integrate_partitioned(integrand, pts, spec, _j0_panels)
    _check_tail_decay(incr, value, err, spec)
    return QuadResult(value, err, evals)


def _check_tail_decay(incr, value, err, spec):
    """Flag integrands whose cell integrals grow faster than the J0 envelope
    can explain (|cell| ~ ell^{1/2} is legitimate for a bounded g whose decay
    sets in beyond the partition window; a steeper sustained power means g
    itself grows, violating the decay precondition).  A transient dip at a
    removable kernel feature inside the window must not trip the check, so it
    fires only when the growth persists through the end of the partition.
    Checked per column of `incr` (cells, columns), which holds the 29 tail
    cells of the transform's partition."""
    ncell = incr.shape[0]
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
