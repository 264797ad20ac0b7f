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
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NearResonanceError
# green_radial_derivative is unused here but stays importable as
# scattering.green_radial_derivative, where the benchmark's layer tracing wraps it
from .green import green_eval_batch, green_radial_derivative  # noqa: F401
from .kernels import Problem
from .quadrature import DEFAULT_SPEC

RCOND_FLOOR = 1e-12
_PROBES = 4           # Gaussian probe columns solved with the incident field
_PROBE_DELTA = 1e-2   # P(|u_min^H w| < delta) <= delta^2 for each probe w
_DENSE_MAX_N = 400    # dense LU up to here, GMRES above (measured crossover)
_RESIDUAL_TOL = 1e-13  # true relative residual of u on the GMRES path
_GMRES_RESTART = 30   # Krylov vectors per column between restarts
_GMRES_MAXIT = 300    # iterations before the dense fallback
_NEAR_DECIMALS = 9    # cell-unit rounding of the near test and near-weight keys
_gauss_legendre = lru_cache(maxsize=None)(leggauss)   # every target reuses a few orders


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
        nc = int(cells_per_axis)
        if nc < 1:
            raise DomainError("cells_per_axis must be >= 1")
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
        if not np.isclose(np.linalg.norm(d), 1.0, atol=1e-12):
            raise DomainError("incident direction must be a unit vector")
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
    editing or assigning it affects those alone."""

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

def _segment_nodes(edges, order):
    xg, wg = _gauss_legendre(order)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * xg[None, :]).ravel(), (half * wg[None, :]).ravel()


def _power_line(length, gamma, level, order=10):
    """Radial nodes rho = length * v^gamma on (0, length].

    The substitution absorbs the integrable kernel singularity at 0: every
    local integrand here behaves like rho^{2s-1} after the volume Jacobian, so
    gamma >= 1/(2s) turns it into a smooth function of v.
    """
    edges = np.linspace(0.0, 1.0, 4 + level)
    v, wv = _segment_nodes(edges, order + level)
    rho = length * v ** gamma
    w = length * gamma * v ** (gamma - 1.0) * wv
    return rho, w


def _tensor_cell_nodes(t, h, level, order):
    """Tensor Gauss points over the cell (centered at origin) for a target t
    outside the cell; returns (radii to t, weights)."""
    n = h.size
    xg, wg = _gauss_legendre(order + 2 * level)
    grids = np.meshgrid(*[0.5 * h[a] * xg for a in range(n)], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrid = np.meshgrid(*[0.5 * h[a] * wg for a in range(n)], indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrid], axis=1), axis=1)
    radii = np.linalg.norm(pts - t[None, :], axis=1)
    return radii, w


def _fan_triangle_nodes(p1, p2, gamma, level, order_theta=8, order_rho=9):
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
    xg, wg = _gauss_legendre(order_theta + 2 * level)
    thetas = 0.5 * (a1 + a2) + 0.5 * (a2 - a1) * xg
    wth = 0.5 * (a2 - a1) * wg
    radii, weights = [], []
    for th, wt in zip(thetas, wth):
        cosang = abs(np.cos(th) * nrm[0] + np.sin(th) * nrm[1])
        rmax = d / max(cosang, 1e-300)
        rho, wr = _power_line(rmax, gamma, level, order_rho)
        radii.append(rho)
        weights.append(wt * wr * rho)   # polar Jacobian rho
    return np.concatenate(radii), np.concatenate(weights)


def _pyramid_nodes(t, h, gamma, level, order_tau=7):
    """3D: six pyramids from the interior target t to the cell faces."""
    radii, weights = [], []
    xg, wg = _gauss_legendre(7 + 3 * level)
    tau, wtau = _power_line(1.0, gamma, level, order_tau)
    for axis in range(3):
        for sign in (-1.0, 1.0):
            d = sign * h[axis] / 2.0 - t[axis]
            if d == 0.0:
                raise DomainError("target on a cell face is not supported")
            others = [a for a in range(3) if a != axis]
            u = 0.5 * h[others[0]] * xg
            v = 0.5 * h[others[1]] * xg
            wu = 0.5 * h[others[0]] * wg
            wv = 0.5 * h[others[1]] * wg
            uu, vv = np.meshgrid(u, v, indexing="ij")
            ww = np.outer(wu, wv)
            p = np.zeros(uu.shape + (3,))
            p[..., axis] = d
            p[..., others[0]] = uu - t[others[0]]
            p[..., others[1]] = vv - t[others[1]]
            pnorm = np.linalg.norm(p, axis=-1).ravel()
            wflat = (ww * abs(d)).ravel()
            radii.append(np.outer(tau, pnorm).ravel())
            weights.append(np.outer(wtau * tau ** 2, wflat).ravel())
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
        rho, w = _segment_nodes(np.linspace(lo, hi, 4 + level), 10 + level)
        return rho, w
    if not inside:
        return _tensor_cell_nodes(t, h, level, order=10)
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


def _solve_gmres(system, b, probes, check):
    """(u, residual, rcond), or None when GMRES stalls or rcond < RCOND_FLOOR."""
    rhs = np.vstack([b, probes.T]) if check else b[None, :]
    tol = np.r_[_RESIDUAL_TOL * np.linalg.norm(b), np.full(rhs.shape[0] - 1, 1e-3 * _PROBE_DELTA)]
    out = _gmres(lambda v: v - system.problem.k2s * system.apply_T(v), rhs, tol)
    if out is None:
        return None
    (x, r), rcond = out, 1.0
    if check:
        rho, xmax = np.linalg.norm(r[1:], axis=1).max(), np.linalg.norm(x[1:], axis=1).max()
        rcond = float((_PROBE_DELTA - rho) / (system.sigma_max_bound() * xmax))
    if not rcond >= RCOND_FLOOR:
        return None
    return x[0].copy(), float(np.linalg.norm(r[0]) / np.linalg.norm(b)), rcond


def _solve_dense(system, b, probes, check):
    """(u, residual, rcond) from one LU of ``matrix`` for b and the probes."""
    a = system.matrix
    singular, rcond = None, 1.0
    try:
        x = np.linalg.solve(a, np.column_stack([b, probes]))
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
    """Solve (I - k^{2s} T_k) u = u_inc for u and ``_PROBES`` seeded complex
    Gaussian probes w, choosing the path from N alone.

    Up to ``_DENSE_MAX_N`` unknowns one LU of ``matrix`` solves them and
    rcond = delta / (sqrt(||A||_1 ||A||_inf) max ||A^{-1} w||) bounds
    smin / smax from below, failing with probability <= delta^{2 _PROBES}
    (Dixon 1983).  Above it, GMRES on the FFT operator solves them (u to a
    true relative residual of ``_RESIDUAL_TOL``) and the probe residuals rho
    are charged: rcond = (delta - max ||rho||) / (``sigma_max_bound()``
    max ||x||).  If GMRES stalls or that bound is below ``RCOND_FLOOR``, the
    LU path runs instead.  There, below the floor or on a singular LU, a
    values-only SVD decides: rcond is the exact smin / smax, and
    ``NearResonanceError`` is raised below the floor.  Without a contrast or
    ``check_conditioning`` rcond is 1.  The residual is ||A u - b|| / ||b||.
    """
    b = incident.values(system.problem, system.pot.nodes)
    probes = np.random.default_rng(0).standard_normal((b.size, 2 * _PROBES)).view(complex)
    probes /= np.sqrt(2.0)
    check = check_conditioning and np.any(system.pot.q_values)
    out = _solve_gmres(system, b, probes, check) if b.size > _DENSE_MAX_N else None
    if out is None:
        out = _solve_dense(system, b, probes, check)
    return ScatterSolution(system.problem, system.pot, incident, *out)


def volume_potential(problem, pot, density, x, spec=DEFAULT_SPEC):
    """sum_j w_j(x) density_j with the Nystrom matrix's weights w_j(x) of
    int G(|x - y|) f(y) dy: a complex for one point x of shape (n,), an (m,)
    array for the rows of an (m, n) one.  The m N rows x_i - y_j of all points
    go through one ``_volume_weights`` call."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if x.ndim > 2 or pts.shape[1:] != (pot.dim,) or pts.shape[0] == 0:
        raise DomainError(f"observation points of shape {x.shape} on a {pot.dim}D grid")
    delta = (pts[:, None, :] - pot.nodes[None, :, :]).reshape(-1, pot.dim)
    w = _volume_weights(problem, pot, delta, spec)[0].reshape(pts.shape[0], -1)
    vals = np.sum(w * density, axis=1)
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
