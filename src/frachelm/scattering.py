"""Lippmann-Schwinger solver on a uniform cell grid (Nystrom discretization).

The kernel is radial and the nodes sit on a uniform lattice, so the quadrature
weight for a pair of cells depends only on their index offset.  Assembly
therefore needs the Green's function only at the distinct distances, which
``green_eval_batch`` evaluates once per batch, interpolating the tail of a
large batch from a checked dyadic table; the
block-Toeplitz operator is applied by FFT on a circulant embedding (Vainikko
2000), and large systems are solved by GMRES, small ones by a dense LU of the
matrix gathered from the offset table.  Off-diagonal weights use the midpoint
rule; entries whose cells lie within the 3^n neighborhood are replaced by a
local integration of the kernel over the source cell (polar/pyramid
decomposition around the singularity with a power substitution absorbing it),
which converges under refinement of the local subdivision.  All near cells of a
build or an observation share one ``cell_weight`` call.  ``volume_potential``
applies the same weights at observation points, one point or the rows of an
(m, n) array per call; ``eval_scattered`` and ``born_approx`` are that
potential applied to q u and q u_inc.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import AccuracyError, DomainError, NearResonanceError, is_count
# green_radial_derivative is unused here but stays importable as
# scattering.green_radial_derivative, where the benchmark's layer tracing wraps it
from .green import green_eval_batch, green_radial_derivative  # noqa: F401
from .kernels import Problem
from .quadrature import DEFAULT_SPEC
from .specfun import gauss_legendre, gauss_panels

RCOND_FLOOR = 1e-12
_PROBES = 4           # seeded Gaussian probe columns behind the rcond bound
_PROBE_DELTA = 1e-2   # P(|u_min^H w| < delta) <= delta^2 for each probe w
_DENSE_MAX_N = 400    # dense LU up to here, GMRES above (measured crossover)
_RESIDUAL_TOL = 1e-13  # true relative residual of u on the GMRES path
_GMRES_RESTART = 30   # Krylov vectors per column between restarts
_GMRES_MAXIT = 300    # iterations before the dense fallback
# Bytes the dense fallback may hold: ``matrix`` (complex, 16 N^2),
# ``offset_encode`` (int64, 8 N^2) and LAPACK's copy of the matrix in
# ``np.linalg.solve`` (16 N^2), so 40 N^2 in all.  2 GiB, a quarter of an
# 8 GB machine, admits N <= 7,327: the 3D 16^3 grid (0.67 GB) still falls
# back, the 3D 24^3 one (7.6 GB) raises ``AccuracyError`` instead.
_DENSE_BYTES = 2 ** 31
_NEAR_DECIMALS = 9    # cell-unit rounding of the near test and near-weight keys
_ROW_BUDGET = 2 ** 17  # rows x - y_j per _volume_weights call of an observation


@dataclass
class PotentialGrid:
    """Compactly supported contrast q sampled at the midpoints of a uniform
    cell grid over an axis-aligned box."""

    lo: np.ndarray
    hi: np.ndarray
    cells_per_axis: int
    nodes: np.ndarray
    q_values: np.ndarray
    cell_sizes: np.ndarray
    cell_volume: float
    index: np.ndarray

    @classmethod
    def build(cls, lo, hi, cells_per_axis, q):
        """q may be a constant, an array of length cells^n, or a callable on points."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size not in (1, 2, 3):
            raise DomainError("box must have matching lo/hi of dimension 1-3")
        if not np.all(np.isfinite(lo) & np.isfinite(hi)):
            raise DomainError("box corners must be finite")
        if np.any(hi <= lo):
            raise DomainError("box must be nonempty")
        if not (is_count(cells_per_axis) and cells_per_axis >= 1):
            raise DomainError(f"cells_per_axis must be an integer >= 1, got {cells_per_axis!r}")
        nc = int(cells_per_axis)
        n = lo.size
        h = (hi - lo) / nc
        idx = np.indices((nc,) * n).reshape(n, -1).T
        nodes = lo[None, :] + (idx + 0.5) * h[None, :]
        if np.ndim(q) == 0 and not callable(q):
            qv = np.full(nodes.shape[0], float(q))
        else:
            qv = np.asarray(q(nodes) if callable(q) else q, dtype=float).ravel()
            if qv.size != nodes.shape[0]:
                raise DomainError(f"q has {qv.size} entries, grid has {nodes.shape[0]}")
        if not np.all(np.isfinite(qv)):
            raise DomainError("q must be bounded")
        return cls(lo, hi, nc, nodes, qv, h, float(np.prod(h)), idx)

    @property
    def dim(self):
        return self.lo.size


@dataclass(frozen=True)
class IncidentField:
    """Plane wave e^{i k x . d} with |d| = 1."""

    direction: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.direction, dtype=float))
        if d.ndim != 1 or not np.isclose(np.linalg.norm(d), 1.0, atol=1e-12):
            raise DomainError(f"incident direction must be a 1-D unit vector, got {d!r}")
        object.__setattr__(self, "direction", d)

    def values(self, problem, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.direction.size:
            raise DomainError(f"points of shape {pts.shape} for a direction of "
                              f"dimension {self.direction.size}")
        return np.exp(1j * problem.k * pts @ self.direction)


@dataclass
class NystromSystem:
    """A = I - k^{2s} T_k with T_k block-Toeplitz: ``weight_table`` holds one
    weight per cell-index offset, ``spectrum`` the FFT of its (2 nc)^n
    circulant embedding (independent of q).  The dense ``matrix`` and
    ``offset_encode`` are references built on first read and cached; only
    the LU path of ``solve_ls`` and ``singular_extremes`` read ``matrix``, so
    editing or assigning it affects those alone.  ``probe_rcond``, the GMRES
    path's conditioning bound, is likewise computed once per system on first
    read; it ignores later in-place edits of ``pot.q_values``,
    ``weight_table`` or ``spectrum``, so change the contrast through
    ``with_contrast``, whose system starts without it."""

    problem: Problem
    pot: PotentialGrid
    weight_table: np.ndarray
    spectrum: np.ndarray
    correction_record: dict = field(default_factory=dict)

    @cached_property
    def offset_encode(self):
        """N x N flat index of the offset i - j into ``weight_table``."""
        nc, n, idx = self.pot.cells_per_axis, self.pot.dim, self.pot.index
        strides = (2 * nc - 1) ** np.arange(n - 1, -1, -1)
        code = np.zeros((idx.shape[0], idx.shape[0]), dtype=np.int64)
        for a in range(n):
            code += (idx[:, None, a] - idx[None, :, a] + nc - 1) * strides[a]
        return code

    @cached_property
    def matrix(self):
        """Dense A, scaled in place: the gathered weights are the only N x N
        array, and the rounding order is that of -k2s * w * q."""
        a = self.weight_table[self.offset_encode]
        a *= -self.problem.k2s
        a *= self.pot.q_values[None, :]
        a[np.diag_indices_from(a)] += 1.0
        return a

    @cached_property
    def probe_rcond(self):
        """Lower bound (delta - max ||rho||) / (``sigma_max_bound()`` max ||x||)
        on smin / smax from GMRES on the seeded probes w, solved to residuals
        rho of at most 1e-3 delta, or None when GMRES stalls on them."""
        probes = np.ascontiguousarray(_probes(self.pot.nodes.shape[0]).T)
        out = _gmres(lambda v: _apply_A(self, v), probes, np.full(_PROBES, 1e-3 * _PROBE_DELTA))
        if out is None:
            return None
        x, r = out
        rho, xmax = np.linalg.norm(r, axis=1).max(), np.linalg.norm(x, axis=1).max()
        return float((_PROBE_DELTA - rho) / (self.sigma_max_bound() * xmax))

    def singular_extremes(self):
        """(smallest, largest) singular value of ``matrix`` (values-only SVD)."""
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        return sv[-1], sv[0]

    def apply_T(self, u):
        """T u = sum_j w_{i-j} q_j u_j for u of shape (N,) or (m, N), by FFT."""
        return _convolve(self.spectrum, self.pot.q_values * np.asarray(u))

    def sigma_max_bound(self):
        """Upper bound on sqrt(||A||_1 ||A||_inf) >= sigma_max.  By the triangle
        inequality row i of |A| sums to at most 1 + |k^{2s}| (|w| * |q|)_i and
        column j to at most 1 + |k^{2s}| |q_j| (|w| * 1)_j, with * the grid
        convolution; each convolution gets M eps sum|w| max|q| for FFT rounding."""
        aw, aq = np.abs(self.weight_table), np.abs(self.pot.q_values)
        spec = _circulant_spectrum(aw, self.pot)
        rows = _convolve(spec, np.stack([aq, np.ones_like(aq)])).real
        slack = spec.size * np.finfo(float).eps * aw.sum() * aq.max()
        k2s = abs(self.problem.k2s)
        norm_inf = 1.0 + k2s * (rows[0].max() + slack)
        norm_1 = 1.0 + k2s * (np.max(aq * rows[1]) + slack)
        return float(np.sqrt(norm_1 * norm_inf))

    def with_contrast(self, q_values):
        """New system for a different contrast on the same grid, reusing the
        kernel weight table and its spectrum (they do not depend on q)."""
        pot = replace(self.pot, q_values=np.asarray(q_values, dtype=float).ravel())
        return replace(self, pot=pot, correction_record=dict(self.correction_record))


@dataclass
class ScatterSolution:
    problem: Problem
    pot: PotentialGrid
    incident: IncidentField
    u_total: np.ndarray
    residual: float
    rcond: float


# ---------------------------------------------------------------------------
# Local integration of the radial kernel over one cell
# ---------------------------------------------------------------------------

def _power_line(length, gamma, level, order=10):
    """Radial nodes rho = length * v^gamma on (0, length]; a (rays, 1) array
    of lengths gives one row of nodes per ray.

    The substitution absorbs the integrable kernel singularity at 0: every
    local integrand here behaves like rho^{2s-1} after the volume Jacobian, so
    gamma >= 1/(2s) turns it into a smooth function of v.
    """
    v, wv = gauss_panels(np.linspace(0.0, 1.0, 4 + level), order + level)
    return length * v ** gamma, length * gamma * v ** (gamma - 1.0) * wv


def _tensor_rule(half_widths, order):
    """Tensor Gauss-Legendre rule of the given order per axis on the box
    prod_a [-half_a, half_a]: (points (N, axes), weights (N,)), in
    ``meshgrid(indexing="ij")`` order."""
    xg, wg = gauss_legendre(order)
    pts = np.meshgrid(*[hw * xg for hw in half_widths], indexing="ij")
    wts = np.meshgrid(*[hw * wg for hw in half_widths], indexing="ij")
    return (np.stack([g.ravel() for g in pts], axis=1),
            np.prod(np.stack([g.ravel() for g in wts], axis=1), axis=1))


def _fan_triangle_nodes(p1, p2, gamma, level):
    """Polar nodes for the triangle (origin, p1, p2): theta Gauss times
    singularity-absorbing radial nodes up to the opposite edge."""
    a1 = np.arctan2(p1[1], p1[0])
    a2 = np.arctan2(p2[1], p2[0])
    if a2 <= a1:
        a2 += 2.0 * np.pi
    edge = p2 - p1
    nrm = np.array([edge[1], -edge[0]])
    nrm /= np.linalg.norm(nrm)
    d = abs(float(nrm @ p1))
    thetas, wth = gauss_panels(np.array([a1, a2]), 8 + 2 * level)
    cosang = np.abs(np.cos(thetas) * nrm[0] + np.sin(thetas) * nrm[1])
    rho, wr = _power_line((d / np.maximum(cosang, 1e-300))[:, None], gamma, level, 9)
    return rho.ravel(), (wth[:, None] * wr * rho).ravel()   # polar Jacobian rho


def _pyramid_nodes(t, h, gamma, level):
    """3D: six pyramids from the interior target t to the cell faces."""
    radii, weights = [], []
    tau, wtau = _power_line(1.0, gamma, level, 7)
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        face, wface = _tensor_rule(0.5 * h[others], 7 + 3 * level)
        for sign in (-1.0, 1.0):
            d = sign * h[axis] / 2.0 - t[axis]   # nonzero: t is interior
            p = np.empty((face.shape[0], 3))
            p[:, axis] = d
            p[:, others] = face - t[others]
            radii.append(np.outer(tau, np.linalg.norm(p, axis=-1)).ravel())
            weights.append(np.outer(wtau * tau ** 2, wface * abs(d)).ravel())
    return np.concatenate(radii), np.concatenate(weights)


def _cell_quad(t, h, gamma, level):
    """Quadrature (radii, weights) for int_cell G(|y - t|) dy; the cell is
    centered at the origin with sizes h, the target at t (inside or outside)."""
    n = h.size
    inside = np.all(np.abs(t) < 0.5 * h - 1e-14)
    if n == 1:
        if inside:
            r1, w1 = _power_line(0.5 * h[0] - t[0], gamma, level)
            r2, w2 = _power_line(0.5 * h[0] + t[0], gamma, level)
            return np.concatenate([r1, r2]), np.concatenate([w1, w2])
        lo, hi = sorted((abs(-0.5 * h[0] - t[0]), abs(0.5 * h[0] - t[0])))
        return gauss_panels(np.linspace(lo, hi, 4 + level), 10 + level)
    if not inside:
        pts, w = _tensor_rule(0.5 * h, 10 + 2 * level)
        return np.linalg.norm(pts - t[None, :], axis=1), w
    if n == 2:
        corners = np.array([[0.5 * h[0], 0.5 * h[1]], [-0.5 * h[0], 0.5 * h[1]],
                            [-0.5 * h[0], -0.5 * h[1]], [0.5 * h[0], -0.5 * h[1]]])
        rel = corners - t[None, :]
        radii, weights = [], []
        for i in range(4):
            r, w = _fan_triangle_nodes(rel[i], rel[(i + 1) % 4], gamma, level)
            radii.append(r)
            weights.append(w)
        return np.concatenate(radii), np.concatenate(weights)
    return _pyramid_nodes(t, h, gamma, level)


def _green_total_at(problem, radii, spec):
    """Total Green values at a radius array: the sum of the ``green_eval_batch``
    parts (whose large batches interpolate the tail from a dyadic table)."""
    helm, riesz, jt, _ = green_eval_batch(problem, 0.0, radii, spec)
    return helm + riesz + jt


def cell_weight(problem, offset, cell_sizes, spec=DEFAULT_SPEC, level=1):
    """Locally integrated quadrature weight int_cell G(|t - z|) dz: a complex
    for one target t = ``offset`` of shape (n,), an (m,) array for the rows of
    an (m, n) one.  The quadrature radii of all targets go through one
    ``_green_total_at`` call, so they share its radial panels."""
    t = np.asarray(offset, dtype=float)
    h = np.atleast_1d(np.asarray(cell_sizes, dtype=float))
    if h.shape != (problem.n,) or not np.all(np.isfinite(h) & (h > 0.0)):
        raise DomainError(f"cell sizes must be {problem.n} finite positive numbers, "
                          f"got {cell_sizes!r}")
    if t.ndim not in (1, 2) or t.shape[-1] != problem.n or t.size == 0:
        raise DomainError(f"offsets of shape {t.shape} for a {problem.n}D cell")
    gamma = max(2.0, 1.0 / problem.s)
    rules = [_cell_quad(ti, h, gamma, level) for ti in np.reshape(t, (-1, h.size))]
    vals = _green_total_at(problem, np.concatenate([r for r, _ in rules]), spec)
    cuts = np.cumsum([w.size for _, w in rules])[:-1]
    out = np.array([np.sum(w * v) for (_, w), v in zip(rules, np.split(vals, cuts))])
    return complex(out[0]) if t.ndim < 2 else out


def _near_cells(pot, delta):
    """|delta_j| in cell units, rounded so lattice offsets compare exactly, and
    whether cell j lies within two cells on every axis (on the lattice: 3^n)."""
    t = np.round(np.abs(delta) / pot.cell_sizes, _NEAR_DECIMALS)
    return t, np.max(t, axis=1) < 2.0


def _volume_weights(problem, pot, delta, spec):
    """(w, near): weights w_j of int G(|x - y|) f(y) dy for the rows delta_j =
    x - y_j.  Far cells take the midpoint rule vol G(|delta_j|), near cells the
    weight of their rounded |delta_j| (the cell is mirror symmetric) from one
    ``cell_weight`` call over the distinct ones."""
    t, near = _near_cells(pot, delta)
    w = np.zeros(delta.shape[0], dtype=complex)
    if not np.all(near):
        w[~near] = pot.cell_volume * _green_total_at(
            problem, np.linalg.norm(delta[~near], axis=1), spec)
    if np.any(near):
        _, first, inv = np.unique(t[near], axis=0, return_index=True, return_inverse=True)
        cw = cell_weight(problem, np.abs(delta[near])[first], pot.cell_sizes, spec)
        w[near] = cw[inv.ravel()]
    return w, near


# ---------------------------------------------------------------------------
# Assembly / solve / evaluation
# ---------------------------------------------------------------------------

def _circulant_spectrum(table, pot):
    """FFT of the (2 nc)^n circulant embedding of a table over the offsets
    (row-major, index offset + nc - 1 along each axis)."""
    nc, n = pot.cells_per_axis, pot.dim
    c = np.zeros((2 * nc,) * n, dtype=table.dtype)
    c[(slice(0, 2 * nc - 1),) * n] = table.reshape((2 * nc - 1,) * n)
    return np.fft.fftn(np.roll(c, 1 - nc, axis=tuple(range(n))))


def _convolve(spectrum, x):
    """y_i = sum_j t_{i-j} x_j over the grid, for x of shape (..., N).  The FFTs
    pad and crop one axis at a time, skipping lines of padding or cropped out."""
    n, nc = spectrum.ndim, spectrum.shape[0] // 2
    y = np.reshape(x, np.shape(x)[:-1] + (nc,) * n)
    for a in range(-1, -n - 1, -1):
        y = np.fft.fft(y, 2 * nc, axis=a)
    y *= spectrum
    for a in range(n):
        y = np.fft.ifft(y, axis=a - n)[(Ellipsis, slice(0, nc)) + (slice(None),) * (n - 1 - a)]
    return y.reshape(np.shape(x))


def build_nystrom(problem, pot, spec=DEFAULT_SPEC):
    """A = I - k^{2s} T_k on the grid nodes: the ``_volume_weights`` of every
    cell-index offset and their circulant spectrum (see ``NystromSystem``).
    Observations share these weights, so observing at a node returns u_i."""
    if pot.dim != problem.n:
        raise DomainError(f"grid dimension {pot.dim} != problem dimension {problem.n}")
    nc, n = pot.cells_per_axis, pot.dim
    offs = np.indices((2 * nc - 1,) * n).reshape(n, -1).T - (nc - 1)
    weights, near = _volume_weights(problem, pot, offs * pot.cell_sizes[None, :], spec)
    record = {tuple(np.abs(offs[j]).tolist()): complex(weights[j]) for j in np.flatnonzero(near)}
    return NystromSystem(problem, pot, weights, _circulant_spectrum(weights, pot), record)


def _gmres(matvec, b, tol):
    """Lockstep restarted GMRES (Saad & Schultz 1986) on the rows of b until
    each true residual ||b_c - A x_c|| <= tol[c]; (x, b - A x), or None after
    ``_GMRES_MAXIT`` iterations.  Bases are orthogonalised by CGS twice."""
    x, r, used = np.zeros_like(b), b.copy(), 0
    while True:
        act = np.flatnonzero(np.linalg.norm(r, axis=1) > tol)
        if act.size == 0:
            return x, r
        if used >= _GMRES_MAXIT:
            return None
        m = min(_GMRES_RESTART, _GMRES_MAXIT - used)
        beta = np.linalg.norm(r[act], axis=1)
        v = np.zeros((act.size, m + 1, b.shape[1]), dtype=complex)
        h = np.zeros((act.size, m + 1, m), dtype=complex)
        v[:, 0] = r[act] / beta[:, None]
        for j in range(m):
            w = matvec(v[:, j])
            for _ in range(2):
                c = (v[:, :j + 1] @ w.conj()[:, :, None])[:, :, 0].conj()
                w -= (c[:, None, :] @ v[:, :j + 1])[:, 0]
                h[:, :j + 1, j] += c
            h[:, j + 1, j] = np.linalg.norm(w, axis=1)   # 0 on breakdown: v stays 0
            v[:, j + 1] = w / np.maximum(h[:, j + 1, j].real, np.finfo(float).tiny)[:, None]
            # the recurrence's residual estimate; it never increases with j
            est = beta * np.abs(np.linalg.qr(h[:, :j + 2, :j + 1], mode="complete")[0][:, 0, -1])
            used += 1
            if np.all(est <= 0.1 * tol[act]) or used >= _GMRES_MAXIT:
                break
        for i, row in enumerate(act):   # lstsq: h is rank-deficient after a breakdown
            y = np.linalg.lstsq(h[i, :j + 2, :j + 1], beta[i] * np.eye(j + 2)[0], rcond=None)[0]
            x[row] += y @ v[i, :j + 1]
        r = b - matvec(x)


def _apply_A(system, v):
    """A v = v - k^{2s} T v by FFT, for v of shape (N,) or (m, N)."""
    return v - system.problem.k2s * system.apply_T(v)


def _probes(size):
    """The ``_PROBES`` seeded complex Gaussian columns, (size, _PROBES) with
    E |w_i|^2 = 1; seed 0, so every system draws the same probes."""
    probes = np.random.default_rng(0).standard_normal((size, 2 * _PROBES)).view(complex)
    probes /= np.sqrt(2.0)
    return probes


def _dense_fallback(size, reason):
    """None, so the LU path runs, or ``AccuracyError`` when its 40 N^2 bytes
    exceed ``_DENSE_BYTES``."""
    need = 40 * size ** 2
    if need > _DENSE_BYTES:
        raise AccuracyError(f"{reason} at N = {size}, and the dense fallback would need "
                            f"{need:,} bytes, over its budget of {_DENSE_BYTES:,}")
    return None


def _solve_gmres(system, b, check):
    """(u, residual, rcond) from GMRES on b alone, with the system's cached
    ``probe_rcond`` when checking; ``_dense_fallback`` when that bound stalled
    or is below ``RCOND_FLOOR``, or when GMRES stalls on b."""
    rcond = system.probe_rcond if check else 1.0
    if rcond is None:
        return _dense_fallback(b.size, "GMRES stalled on the conditioning probes")
    if not rcond >= RCOND_FLOOR:
        return _dense_fallback(b.size, f"the GMRES rcond bound {rcond:.2e} is below "
                                       f"RCOND_FLOOR = {RCOND_FLOOR:.0e}")
    out = _gmres(lambda v: _apply_A(system, v), b[None, :],
                 np.array([_RESIDUAL_TOL * np.linalg.norm(b)]))
    if out is None:
        return _dense_fallback(b.size, "GMRES stalled on the incident field")
    x, r = out
    return x[0], float(np.linalg.norm(r[0]) / np.linalg.norm(b)), rcond


def _solve_dense(system, b, check):
    """(u, residual, rcond) from one LU of ``matrix`` for b and the probes."""
    a = system.matrix
    singular, rcond = None, 1.0
    try:
        x = np.linalg.solve(a, np.column_stack([b, _probes(b.size)]))
    except np.linalg.LinAlgError as exc:
        singular = exc
    if check:
        if singular is None:
            smax = np.sqrt(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf))
            rcond = float(_PROBE_DELTA / (smax * np.linalg.norm(x[:, 1:], axis=0).max()))
        if singular is not None or not rcond >= RCOND_FLOOR:
            smin, smax = system.singular_extremes()
            rcond = float(smin / smax)
            if rcond < RCOND_FLOOR:
                raise NearResonanceError(
                    f"Nystrom matrix numerically singular (rcond={rcond:.2e}); "
                    "candidate resonance wavenumber", rcond=rcond)
    if singular is not None:
        raise singular
    u = np.ascontiguousarray(x[:, 0])
    return u, float(np.linalg.norm(a @ u - b) / np.linalg.norm(b)), rcond


def solve_ls(system, incident, check_conditioning=True):
    """Solve (I - k^{2s} T_k) u = u_inc, bounding rcond = smin / smax from
    below with ``_PROBES`` seeded complex Gaussian probes w; the path follows
    from N alone.

    Up to ``_DENSE_MAX_N`` unknowns one LU of ``matrix`` solves u and the
    probes, and rcond = delta / (sqrt(||A||_1 ||A||_inf) max ||A^{-1} w||)
    fails with probability <= delta^{2 _PROBES} (Dixon 1983).  Above it, the
    probes are solved once per system by GMRES on the FFT operator, charging
    their residuals (``NystromSystem.probe_rcond``); each solve then runs
    GMRES on u alone, to a true relative residual of ``_RESIDUAL_TOL``.  If
    GMRES stalls or the bound is below ``RCOND_FLOOR``, the LU path runs
    instead, unless its matrix exceeds ``_DENSE_BYTES``: then
    ``AccuracyError`` names the reason.  On the LU path, below the floor or
    on a singular LU, a values-only SVD decides: rcond is the exact
    smin / smax, and ``NearResonanceError`` is raised below the floor.
    Without a contrast or ``check_conditioning`` rcond is 1 and no probe is
    solved.  The residual is ||A u - b|| / ||b||.
    """
    b = incident.values(system.problem, system.pot.nodes)
    check = check_conditioning and np.any(system.pot.q_values)
    out = _solve_gmres(system, b, check) if b.size > _DENSE_MAX_N else None
    if out is None:
        out = _solve_dense(system, b, check)
    return ScatterSolution(system.problem, system.pot, incident, *out)


def volume_potential(problem, pot, density, x, spec=DEFAULT_SPEC):
    """sum_j w_j(x) density_j with the Nystrom matrix's weights w_j(x) of
    int G(|x - y|) f(y) dy: a complex for one point x of shape (n,), an (m,)
    array for the rows of an (m, n) one.  The m N rows x_i - y_j go through
    one ``_volume_weights`` call per chunk of max(1, ``_ROW_BUDGET`` // N)
    points, which bounds the memory of a large batch."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if x.ndim > 2 or pts.shape[1:] != (pot.dim,) or pts.shape[0] == 0:
        raise DomainError(f"observation points of shape {x.shape} on a {pot.dim}D grid")
    if np.shape(density) != pot.q_values.shape:
        raise DomainError(f"density of shape {np.shape(density)} on a grid of "
                          f"{pot.q_values.size} cells")
    step = max(1, _ROW_BUDGET // pot.nodes.shape[0])
    vals = np.empty(pts.shape[0], dtype=complex)
    for i in range(0, pts.shape[0], step):
        delta = (pts[i:i + step, None, :] - pot.nodes[None, :, :]).reshape(-1, pot.dim)
        w = _volume_weights(problem, pot, delta, spec)[0].reshape(-1, pot.nodes.shape[0])
        vals[i:i + step] = np.sum(w * density, axis=1)
    return complex(vals[0]) if x.ndim < 2 else vals


def eval_scattered(solution, x, spec=DEFAULT_SPEC):
    """Scattered field u^scat(x) = k^{2s} sum_j w_j(x) q_j u_j at one point
    or the rows of an (m, n) array (see ``volume_potential``)."""
    p, pot = solution.problem, solution.pot
    return p.k2s * volume_potential(p, pot, pot.q_values * solution.u_total, x, spec)


def born_approx(problem, pot, incident, x, spec=DEFAULT_SPEC):
    """First Born approximation: the volume potential applied to u_inc."""
    uinc = incident.values(problem, pot.nodes)
    return problem.k2s * volume_potential(problem, pot, pot.q_values * uinc, x, spec)


def resonance_scan(problem_template, pot, k_grid, spec=DEFAULT_SPEC):
    """Invertibility indicators of I - k^{2s} T_k over a wavenumber grid.

    Returns a list of (k, reciprocal condition number, smallest singular
    value); dips toward zero flag candidate members of the exceptional set.
    Indicators are reported even when tiny.
    """
    rows = []
    for k in np.asarray(k_grid, dtype=float):
        if not k > 0.0:
            raise DomainError("scan wavenumbers must be positive")
        p = Problem(problem_template.n, problem_template.s, float(k))
        smin, smax = build_nystrom(p, pot, spec).singular_extremes()
        rows.append((float(k), float(smin / smax), float(smin)))
    return rows
