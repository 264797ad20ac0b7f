"""Lippmann-Schwinger solver tests: identities, convergence, scaling laws."""

import numpy as np
import pytest

from frachelm import green, scattering, specfun
from frachelm.errors import AccuracyError, DomainError, NearResonanceError
from frachelm.kernels import Problem, spectral_shift
from frachelm.quadrature import DEFAULT_SPEC, QuadratureSpec
from frachelm.scattering import (
    RCOND_FLOOR, IncidentField, PotentialGrid, born_approx, build_nystrom,
    cell_weight, eval_scattered, resonance_scan, solve_ls, volume_potential,
)

P1 = Problem(1, 0.3, 1.0)
INC1 = IncidentField(np.array([1.0]))


def correction_refinement_delta(problem, pot, levels=(1, 2)):
    """Max relative change of the corrected near weights between two local
    subdivision levels (self-convergence indicator)."""
    keys = np.indices((2,) * pot.dim).reshape(pot.dim, -1).T
    w0, w1 = (cell_weight(problem, keys * pot.cell_sizes, pot.cell_sizes, level=lev)
              for lev in levels)
    return {tuple(k): abs(b - a) / max(abs(b), 1e-300) for k, a, b in zip(keys.tolist(), w0, w1)}


def grid1(cells=16, q=0.2):
    return PotentialGrid.build([-1.0], [1.0], cells, q)


def test_grid_build_validation():
    with pytest.raises(DomainError):
        PotentialGrid.build([1.0], [-1.0], 8, 0.1)
    with pytest.raises(DomainError, match="matching lo/hi"):
        PotentialGrid.build([0.0, 0.0], [1.0], 4, 0.3)
    with pytest.raises(DomainError):
        PotentialGrid.build([-1.0], [1.0], 8, [1.0, 2.0])
    with pytest.raises(DomainError):
        PotentialGrid.build([-1.0], [1.0], 8, np.array([np.inf] * 8))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            PotentialGrid.build([-1.0], [bad], 8, 0.1)
        with pytest.raises(DomainError):
            PotentialGrid.build([bad, -1.0], [1.0, 1.0], 4, 0.1)
    # a callable contrast is checked like an array one
    with pytest.raises(DomainError):
        PotentialGrid.build([-1.0], [1.0], 4, lambda x: 0.3)
    with pytest.raises(DomainError):
        PotentialGrid.build([-1.0], [1.0], 4, lambda x: np.ones(3))
    with pytest.raises(DomainError):
        PotentialGrid.build([-1.0], [1.0], 4, lambda x: np.full(4, np.nan))
    pot = PotentialGrid.build([-1.0, 0.0], [1.0, 2.0], 3, lambda x: x[:, 0] ** 2)
    assert np.array_equal(pot.q_values, pot.nodes[:, 0] ** 2)
    # a cell weight takes one finite positive size per axis of its problem,
    # and targets of that dimension
    for h in ([0.0, 0.1], [-0.1, 0.1], [np.nan, 0.1], [0.1], [0.1, 0.1, 0.1]):
        with pytest.raises(DomainError):
            cell_weight(Problem(2, 0.3, 1.0), [0.3, 0.0], h)
    for t in ([0.3, 0.0, 0.5, 0.2], [0.3, 0.0, 0.5], np.zeros((1, 1, 2)), 0.3, np.zeros((0, 2))):
        with pytest.raises(DomainError):
            cell_weight(Problem(2, 0.3, 1.0), t, [0.1, 0.1])


@pytest.mark.parametrize("cells", [2.7, np.nan, True])
def test_grid_cells_must_be_a_positive_integer(cells):
    with pytest.raises(DomainError):
        PotentialGrid.build([-1.0], [1.0], cells, 0.1)
    assert PotentialGrid.build([-1.0], [1.0], np.int64(3), 0.1).cells_per_axis == 3


def test_incident_field_unit_direction():
    for d in (np.array([1.0, 1.0]), np.array([[1.0, 0.0]])):
        with pytest.raises(DomainError):
            IncidentField(d)
    inc = IncidentField(np.array([0.6, 0.8]))
    pts = np.array([[0.5, -0.25]])
    expect = np.exp(1j * 1.0 * (0.6 * 0.5 - 0.8 * 0.25))
    assert inc.values(Problem(2, 0.5, 1.0), pts)[0] == pytest.approx(expect, rel=1e-14)


def test_zero_contrast_identity():
    pot = grid1(q=0.0)
    system = build_nystrom(P1, pot)
    assert np.array_equal(system.matrix, np.eye(pot.nodes.shape[0], dtype=complex))
    sol = solve_ls(system, INC1)
    assert np.max(np.abs(sol.u_total - INC1.values(P1, pot.nodes))) == 0.0
    assert sol.residual <= 1e-12
    assert eval_scattered(sol, np.array([3.0])) == 0.0
    assert born_approx(P1, pot, INC1, np.array([3.0])) == 0.0


def test_kernel_symmetry_pattern():
    pot = grid1(cells=8, q=lambda x: 1.0 + 0.5 * np.sin(2.0 * x[:, 0]))
    system = build_nystrom(P1, pot)
    a = system.matrix - np.eye(8)
    q = pot.q_values
    lhs = a / q[None, :]
    assert np.allclose(lhs, lhs.T, rtol=1e-12, atol=1e-15)


def test_dimension_mismatch():
    with pytest.raises(DomainError):
        build_nystrom(Problem(2, 0.5, 1.0), grid1())


def test_diagonal_correction_vs_adaptive_oracle():
    # the locally integrated self-weight against a brute-force adaptive integral
    from frachelm.green import green_eval_batch
    from frachelm.quadrature import integrate_partitioned
    pot = grid1()
    h = pot.cell_sizes

    def gtot(rr):
        helm, riesz, jt, _ = green_eval_batch(P1, 0.0, rr, QuadratureSpec())
        return helm + riesz + jt

    oracle = 2.0 * integrate_partitioned(gtot, [0.0, h[0] / 2.0]).value
    assert cell_weight(P1, np.array([0.0]), h) == pytest.approx(oracle, rel=1e-8)


def test_correction_refinement_2d():
    p = Problem(2, 0.75, 1.0)
    pot = PotentialGrid.build([-1, -1], [1, 1], 8, 0.2)
    deltas = correction_refinement_delta(p, pot, levels=(1, 2))
    assert deltas[(0, 0)] < 1e-6
    assert max(deltas.values()) < 1e-6


def test_neumann_series_small_coupling():
    # k^{2s} ||q||_inf = 0.05: ten Neumann terms reproduce the direct solve
    q = 0.05 / P1.k2s
    pot = grid1(cells=24, q=q)
    system = build_nystrom(P1, pot)
    sol = solve_ls(system, INC1)
    b = INC1.values(P1, pot.nodes)
    u, term = b.copy(), b.copy()
    for _ in range(10):
        term = P1.k2s * system.apply_T(term)
        u = u + term
    assert np.max(np.abs(u - sol.u_total)) < 1e-6


def test_born_contrast_scaling():
    # || u_q - u_Born(q) || ~ 4 || u_{q/2} - u_Born(q/2) ||
    pot = grid1(cells=24, q=0.4)
    system = build_nystrom(P1, pot)

    def residual_norm(sys_q):
        solq = solve_ls(sys_q, INC1)
        b = INC1.values(P1, sys_q.pot.nodes)
        born_grid = b + P1.k2s * sys_q.apply_T(b)
        return np.linalg.norm(solq.u_total - born_grid)

    r_full = residual_norm(system)
    r_half = residual_norm(system.with_contrast(pot.q_values / 2.0))
    assert 2.8 < r_full / r_half < 5.2


def test_born_homogeneous_in_q():
    x = np.array([4.0])
    pot1 = grid1(q=0.1)
    pot2 = grid1(q=0.3)
    b1 = born_approx(P1, pot1, INC1, x)
    b2 = born_approx(P1, pot2, INC1, x)
    assert b2 == pytest.approx(3.0 * b1, rel=1e-12)


def test_scattered_linearity_in_solution():
    pot = grid1()
    sol = solve_ls(build_nystrom(P1, pot), INC1)
    x = np.array([2.5])
    base = eval_scattered(sol, x)
    sol.u_total = 2.0 * sol.u_total
    assert eval_scattered(sol, x) == pytest.approx(2.0 * base, rel=1e-13)


def test_grid_refinement_cauchy():
    x = np.array([0.37])
    vals = {}
    for cells in (8, 16, 32):
        pot = grid1(cells=cells)
        sol = solve_ls(build_nystrom(P1, pot), INC1)
        vals[cells] = complex(INC1.values(P1, x[None, :])[0] + eval_scattered(sol, x))
    d1 = abs(vals[16] - vals[8])
    d2 = abs(vals[32] - vals[16])
    assert d2 < d1


def test_extension_self_convergence():
    # extending a coarse solution by u_inc + k^{2s} T u and sampling on the
    # refined grid approaches the refined solve at order >= 1 in h
    errs = {}
    for cells in (8, 16):
        pot_c = grid1(cells=cells)
        sol_c = solve_ls(build_nystrom(P1, pot_c), INC1)
        pot_f = grid1(cells=2 * cells)
        sol_f = solve_ls(build_nystrom(P1, pot_f), INC1)
        ext = np.array([
            INC1.values(P1, x[None, :])[0] + eval_scattered(sol_c, x)
            for x in pot_f.nodes])
        errs[cells] = np.max(np.abs(ext - sol_f.u_total))
    assert errs[16] < errs[8]
    assert errs[8] / errs[16] > 1.7    # observed order >= ~0.8


def test_far_field_src_decreasing():
    pot = grid1(cells=24)
    sol = solve_ls(build_nystrom(P1, pot), INC1)
    res = []
    for r in (50.0, 100.0, 200.0):
        # d/dr by a central difference over one batched call
        lo, u, hi = eval_scattered(sol, [[r - 1e-3], [r], [r + 1e-3]])
        res.append(abs((hi - lo) / 2e-3 - 1j * P1.k * u))   # (n-1)/2 = 0 in 1D
    assert res[2] < res[1] < res[0]


def test_eval_near_singular_correction_continuity():
    # the corrected evaluation matches the plain rule just outside the
    # 2-cell correction radius and stays continuous inside it
    pot = grid1(cells=16)
    sol = solve_ls(build_nystrom(P1, pot), INC1)
    h = pot.cell_sizes[0]
    edge = pot.hi[0] + 2.0 * h
    a = eval_scattered(sol, np.array([edge - 1e-9]))
    b = eval_scattered(sol, np.array([edge + 1e-9]))
    assert a == pytest.approx(b, rel=1e-6)


def test_resonance_scan_zero_contrast():
    pot = grid1(cells=8, q=0.0)
    rows = resonance_scan(P1, pot, [0.5, 1.0, 2.0])
    for _, rcond, smin in rows:
        assert rcond == 1.0 and smin == 1.0


@pytest.mark.parametrize("k", [0.0, -1.0, np.nan])
def test_resonance_scan_rejects_non_positive_wavenumbers(k):
    with pytest.raises(DomainError):
        resonance_scan(P1, grid1(cells=8), [1.0, k])


def test_resonance_scan_small_coupling():
    ks = np.linspace(0.5, 2.0, 6)
    q = 0.1 / max(k ** (2 * P1.s) for k in ks)
    pot = grid1(cells=12, q=q)
    rows = resonance_scan(P1, pot, ks)
    assert min(r[1] for r in rows) >= 0.5


def test_resonance_scan_continuity_in_k():
    pot = grid1(cells=10, q=0.3)
    ks = np.linspace(0.8, 1.2, 9)
    rows = resonance_scan(P1, pot, ks)
    rc = np.array([r[1] for r in rows])
    assert np.max(np.abs(np.diff(rc))) < 0.1


def test_near_resonance_error():
    pot = grid1(cells=4, q=1.0)
    system = build_nystrom(P1, pot)
    # make the matrix numerically singular by zeroing a row
    system.matrix[2, :] = 0.0
    with pytest.raises(NearResonanceError) as exc:
        solve_ls(system, INC1)
    assert exc.value.rcond is not None


def test_with_contrast_matches_fresh_build():
    pot_a = grid1(cells=10, q=0.2)
    pot_b = grid1(cells=10, q=0.1)
    sys_a = build_nystrom(P1, pot_a)
    direct = build_nystrom(P1, pot_b)
    reused = sys_a.with_contrast(pot_b.q_values)
    assert np.allclose(direct.matrix, reused.matrix, rtol=1e-12, atol=1e-15)


def test_build_2d_and_3d_smoke():
    p2 = Problem(2, 0.75, 1.0)
    pot2 = PotentialGrid.build([-1, -1], [1, 1], 6, 0.2)
    sol2 = solve_ls(build_nystrom(p2, pot2), IncidentField(np.array([1.0, 0.0])))
    assert sol2.residual < 1e-12
    us = eval_scattered(sol2, np.array([4.0, 0.0]))
    assert np.isfinite(us.real) and abs(us) > 0.0

    p3 = Problem(3, 0.3, 1.0)
    pot3 = PotentialGrid.build([-1, -1, -1], [1, 1, 1], 4, 0.1)
    sol3 = solve_ls(build_nystrom(p3, pot3), IncidentField(np.array([0.0, 0.0, 1.0])))
    assert sol3.residual < 1e-12
    assert abs(eval_scattered(sol3, np.array([0.0, 0.0, 5.0]))) > 0.0


def test_born_residual_stable_across_contrasts():
    # || u - u_inc - born || / ||q||^2 stable within +-50% over {0.4, 0.2, 0.1}
    pot = grid1(cells=24, q=0.4)
    system = build_nystrom(P1, pot)
    ratios = []
    for scale in (1.0, 0.5, 0.25):
        sys_q = system.with_contrast(pot.q_values * scale) if scale != 1.0 else system
        sol = solve_ls(sys_q, INC1)
        b = INC1.values(P1, sys_q.pot.nodes)
        born_grid = b + P1.k2s * sys_q.apply_T(b)
        qnorm = np.max(np.abs(sys_q.pot.q_values))
        ratios.append(np.linalg.norm(sol.u_total - born_grid) / qnorm ** 2)
    mid = ratios[1]
    assert all(0.5 * mid <= r <= 1.5 * mid for r in ratios)


def test_anisotropic_cells():
    # rectangular cells: corrections stay refinement-stable and the solve
    # keeps the q=0-style residual contract
    p = Problem(2, 0.6, 1.0)
    pot = PotentialGrid.build([-1.0, -0.5], [1.0, 0.5], 8, 0.3)
    deltas = correction_refinement_delta(p, pot, levels=(1, 2))
    assert max(deltas.values()) < 1e-6
    sol = solve_ls(build_nystrom(p, pot), IncidentField(np.array([0.6, 0.8])))
    assert sol.residual < 1e-12


def _count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls, svd


def test_rcond_bound_below_exact_without_svd(monkeypatch):
    pot = grid1(cells=12, q=lambda x: 0.3 + 0.1 * x[:, 0])
    system = build_nystrom(P1, pot)
    calls, svd = _count_svd(monkeypatch)
    sol_a = solve_ls(system, INC1)
    sol_b = solve_ls(system, INC1)
    assert calls == []
    sv = svd(system.matrix, compute_uv=False)
    assert 0.0 < sol_a.rcond <= float(sv[-1] / sv[0])
    assert sol_a.rcond == sol_b.rcond
    assert np.array_equal(sol_a.u_total, sol_b.u_total)
    b = INC1.values(P1, pot.nodes)
    assert np.array_equal(sol_a.u_total, np.linalg.solve(system.matrix, b))


def test_conditioning_skipped_without_check_or_contrast(monkeypatch):
    calls, _ = _count_svd(monkeypatch)
    sol = solve_ls(build_nystrom(P1, grid1(q=0.3)), INC1, check_conditioning=False)
    assert sol.rcond == 1.0
    sol = solve_ls(build_nystrom(P1, grid1(q=0.0)), INC1)
    assert sol.rcond == 1.0
    assert calls == []


def test_edited_matrix_raises_exact_rcond(monkeypatch):
    system = build_nystrom(P1, grid1(q=0.3))
    solve_ls(system, INC1)
    # nothing is cached: an in-place edit or a replaced matrix is checked afresh
    system.matrix[2, :] = 0.0
    calls, svd = _count_svd(monkeypatch)
    with pytest.raises(NearResonanceError) as exc:
        solve_ls(system, INC1)
    sv = svd(system.matrix, compute_uv=False)
    assert len(calls) == 1 and exc.value.rcond == float(sv[-1] / sv[0])
    system.matrix = np.array(system.matrix)
    with pytest.raises(NearResonanceError):
        solve_ls(system, INC1)


def _synthetic_system(sigma):
    """The 16-cell system with its matrix replaced by U diag(sigma) V^H."""
    rng = np.random.default_rng(5)
    n = sigma.size
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    system = build_nystrom(P1, grid1(q=0.3))
    system.matrix = (u * sigma) @ v.conj().T
    return system


def test_ill_conditioned_and_singular_raise_exact_rcond(monkeypatch):
    system = _synthetic_system(np.logspace(0.0, -14.0, 16))
    calls, svd = _count_svd(monkeypatch)
    with pytest.raises(NearResonanceError) as exc:
        solve_ls(system, INC1)
    sv = svd(system.matrix, compute_uv=False)
    assert len(calls) == 1 and exc.value.rcond == float(sv[-1] / sv[0])
    assert exc.value.rcond < RCOND_FLOOR

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NearResonanceError) as exc:
        solve_ls(system, INC1)
    assert exc.value.rcond == float(sv[-1] / sv[0])
    # a LinAlgError on a matrix the SVD passes propagates
    healthy = _synthetic_system(np.linspace(1.0, 0.5, 16))
    with pytest.raises(np.linalg.LinAlgError):
        solve_ls(healthy, INC1)
    assert len(calls) == 3


def test_rcond_bound_across_parameters():
    worst = 1.0
    cases = [(n, s, k, 0.3) for n in (1, 2, 3) for s in (0.3, 0.5, 0.75)
             for k in (0.5, 1.3, 3.0)]
    cases.append((1, 0.5, 1.63, 10.0))   # a resonance_scan dip: rcond ~ 1.6e-4
    for n, s, k, q in cases:
        pot = PotentialGrid.build([-1.0] * n, [1.0] * n, (16, 4, 3)[n - 1], q)
        system = build_nystrom(Problem(n, s, k), pot)
        sol = solve_ls(system, IncidentField(np.eye(n)[0]))
        smin, smax = system.singular_extremes()
        exact = float(smin / smax)
        assert RCOND_FLOOR <= sol.rcond <= exact, (n, s, k, q)
        worst = min(worst, sol.rcond / exact)
    assert worst > 1e-4   # measured: 1/800 at worst


def test_resonance_scan_rows_from_one_svd_per_k(monkeypatch):
    pot = grid1(cells=10, q=0.5)
    ks = [0.5, 1.0, 2.0]
    calls, svd = _count_svd(monkeypatch)
    rows = resonance_scan(P1, pot, ks)
    assert len(calls) == len(ks)
    for k, row in zip(ks, rows):
        sv = svd(build_nystrom(Problem(1, 0.3, k), pot).matrix, compute_uv=False)
        assert row == (k, float(sv[-1] / sv[0]), float(sv[-1]))


@pytest.mark.parametrize("n, s, cells", [(1, 0.3, 12), (2, 0.75, 4), (3, 0.3, 3)])
def test_assembly_bit_identical_to_unfused_expression(n, s, cells):
    p = Problem(n, s, 1.3)   # k^{2s} != 1, so the rounding order shows
    q = lambda x: 0.2 + 0.1 * x[:, 0] - 0.05 * x[:, -1] ** 2
    pot = PotentialGrid.build([-1.0] * n, [1.0] * n, cells, q)
    system = build_nystrom(p, pot)
    a = -p.k2s * system.weight_table[system.offset_encode] * pot.q_values[None, :]
    a[np.diag_indices_from(a)] += 1.0
    assert np.array_equal(system.matrix, a)
    solve_ls(system, IncidentField(np.eye(n)[0]))
    pot_b = PotentialGrid.build([-1.0] * n, [1.0] * n, cells, 0.15)
    reused = system.with_contrast(pot_b.q_values)
    assert np.array_equal(reused.matrix, build_nystrom(p, pot_b).matrix)


def _count_dense_solves(monkeypatch):
    calls = []
    lu = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return lu(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


@pytest.mark.parametrize("lo, hi, cells, k", [
    ([-1.0], [1.0], 16, 1.3),
    ([-1.0, -0.5], [1.0, 0.5], 6, 1.3),
    ([-1.0, -1.0], [1.0, 1.0], 5, 1.0),
    ([-1.0] * 3, [1.0] * 3, 4, 1.3),
])
def test_fft_operator_and_gmres_match_dense(monkeypatch, lo, hi, cells, k):
    n = len(lo)
    q = np.random.default_rng(3).uniform(0.1, 0.6, cells ** n)
    pot = PotentialGrid.build(lo, hi, cells, q)
    system = build_nystrom(Problem(n, 0.3, k), pot)
    u = np.random.default_rng(4).standard_normal((2, 2 * pot.nodes.shape[0])).view(complex)
    t_dense = system.weight_table[system.offset_encode] * pot.q_values[None, :]
    for v in (u[0], u):   # one vector, and a batch of rows
        expect = v @ t_dense.T
        assert np.linalg.norm(system.apply_T(v) - expect) <= 1e-13 * np.linalg.norm(expect)
    a = system.matrix
    assert system.sigma_max_bound() >= np.sqrt(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf))
    monkeypatch.setattr(scattering, "_DENSE_MAX_N", 0)
    calls = _count_dense_solves(monkeypatch)
    inc = IncidentField(np.eye(n)[0])
    sol = solve_ls(system, inc)
    assert calls == []
    u_lu = np.linalg.solve(a, inc.values(system.problem, pot.nodes))
    assert np.linalg.norm(sol.u_total - u_lu) <= 1e-12 * np.linalg.norm(u_lu)
    assert sol.residual <= 1e-13


@pytest.mark.parametrize("n, s, k, q", [
    (n, s, k, 0.3) for n in (1, 2, 3) for s in (0.3, 0.5, 0.75) for k in (0.5, 1.3, 3.0)
] + [(1, 0.5, 1.63, 10.0)])
def test_rcond_bound_on_gmres_path(monkeypatch, n, s, k, q):
    pot = PotentialGrid.build([-1.0] * n, [1.0] * n, (16, 4, 3)[n - 1], q)
    system = build_nystrom(Problem(n, s, k), pot)
    monkeypatch.setattr(scattering, "_DENSE_MAX_N", 0)
    calls = _count_dense_solves(monkeypatch)
    sol = solve_ls(system, IncidentField(np.eye(n)[0]))
    assert calls == []
    smin, smax = system.singular_extremes()
    assert RCOND_FLOOR <= sol.rcond <= float(smin / smax)


def test_gmres_fallbacks_take_the_dense_path(monkeypatch):
    system = build_nystrom(P1, grid1(q=0.3))
    lu = solve_ls(system, INC1)
    smin, smax = system.singular_extremes()
    exact = float(smin / smax)
    monkeypatch.setattr(scattering, "_DENSE_MAX_N", 0)
    # a floor above the GMRES bound: the exact SVD decides, either way
    monkeypatch.setattr(scattering, "RCOND_FLOOR", 0.5 * exact)
    assert solve_ls(system, INC1).rcond == exact
    monkeypatch.setattr(scattering, "RCOND_FLOOR", 2.0 * exact)
    with pytest.raises(NearResonanceError) as exc:
        solve_ls(system, INC1)
    assert exc.value.rcond == exact
    # GMRES out of iterations: the LU result
    monkeypatch.setattr(scattering, "RCOND_FLOOR", RCOND_FLOOR)
    monkeypatch.setattr(scattering, "_GMRES_MAXIT", 1)
    sol = solve_ls(system, INC1)
    assert np.array_equal(sol.u_total, lu.u_total)
    assert (sol.residual, sol.rcond) == (lu.residual, lu.rcond)


def _spy_operator_rows(monkeypatch):
    """The leading shape of every grid convolution, (m,) for an (m, N) input."""
    shapes = []
    convolve = scattering._convolve
    monkeypatch.setattr(scattering, "_convolve",
                        lambda spec, x: shapes.append(np.shape(x)[:-1]) or convolve(spec, x))
    return shapes


def test_probes_solved_once_per_system(monkeypatch):
    pot = PotentialGrid.build([-1.0, -1.0], [1.0, 1.0], 5, lambda x: 0.3 + 0.1 * x[:, 0])
    system = build_nystrom(Problem(2, 0.5, 1.3), pot)
    monkeypatch.setattr(scattering, "_DENSE_MAX_N", 0)
    shapes = _spy_operator_rows(monkeypatch)
    first = solve_ls(system, IncidentField(np.array([1.0, 0.0])))
    assert (scattering._PROBES,) in shapes
    shapes.clear()
    second = solve_ls(system, IncidentField(np.array([0.6, 0.8])))
    # the cached bound, bit for bit; the operator only ever sees u
    assert second.rcond == first.rcond == system.probe_rcond
    assert shapes and set(shapes) == {(1,)}
    assert second.residual <= 1e-13
    # a new contrast starts without the bound and computes its own
    pot_b = PotentialGrid.build([-1.0, -1.0], [1.0, 1.0], 5, 0.2)
    reused = system.with_contrast(pot_b.q_values)
    assert "probe_rcond" not in vars(reused)
    sol = solve_ls(reused, IncidentField(np.array([1.0, 0.0])))
    assert sol.rcond == build_nystrom(system.problem, pot_b).probe_rcond != first.rcond
    # without the check the probes are never solved
    fresh = build_nystrom(system.problem, pot)
    shapes.clear()
    assert solve_ls(fresh, IncidentField(np.array([1.0, 0.0])), check_conditioning=False).rcond == 1.0
    assert set(shapes) == {(1,)} and "probe_rcond" not in vars(fresh)


def test_gmres_fallback_over_the_byte_budget_raises(monkeypatch):
    system = build_nystrom(P1, grid1(q=0.3))
    monkeypatch.setattr(scattering, "_DENSE_MAX_N", 0)
    monkeypatch.setattr(scattering, "_DENSE_BYTES", 40 * 16 ** 2 - 1)
    # a bound below the floor
    monkeypatch.setattr(scattering, "RCOND_FLOOR", 0.5)
    with pytest.raises(AccuracyError, match=r"below RCOND_FLOOR.*N = 16.* 10,240 bytes"):
        solve_ls(system, INC1)
    # a stall on u, with the cached bound above the floor
    monkeypatch.setattr(scattering, "RCOND_FLOOR", RCOND_FLOOR)
    monkeypatch.setattr(scattering, "_GMRES_MAXIT", 1)
    with pytest.raises(AccuracyError, match=r"stalled on the incident field at N = 16"):
        solve_ls(system, INC1)
    # a stall on the probes
    with pytest.raises(AccuracyError, match=r"stalled on the conditioning probes at N = 16"):
        solve_ls(build_nystrom(P1, grid1(q=0.3)), INC1)
    assert "matrix" not in vars(system) and "offset_encode" not in vars(system)
    # within the budget the LU path takes over
    monkeypatch.setattr(scattering, "_DENSE_BYTES", 40 * 16 ** 2)
    assert solve_ls(system, INC1).residual < 1e-12


def test_large_grid_solve_without_dense_matrix():
    cells = 24
    q = np.random.default_rng(7).uniform(0.1, 0.6, cells ** 3)
    pot = PotentialGrid.build([-1.0] * 3, [1.0] * 3, cells, q)
    system = build_nystrom(Problem(3, 0.3, 1.0), pot)
    sol = solve_ls(system, IncidentField(np.array([1.0, 0.0, 0.0])))
    assert sol.residual <= 1e-12 and RCOND_FLOOR <= sol.rcond <= 1.0
    assert "matrix" not in vars(system) and "offset_encode" not in vars(system)


def test_observation_and_incident_dimension_checked():
    p3 = Problem(3, 0.3, 1.0)
    pot = PotentialGrid.build([-1.0] * 3, [1.0] * 3, 2, 0.3)
    inc = IncidentField(np.array([0.0, 0.0, 1.0]))
    sol = solve_ls(build_nystrom(p3, pot), inc)
    for x in (np.array([5.0]), 5.0, np.array([5.0, 5.0]), np.full((1, 2), 5.0),
              np.full((1, 1, 3), 5.0), np.zeros((0, 3))):
        with pytest.raises(DomainError):
            eval_scattered(sol, x)
        with pytest.raises(DomainError):
            born_approx(p3, pot, inc, x)
    flat = IncidentField(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        solve_ls(build_nystrom(p3, pot), flat)
    with pytest.raises(DomainError):
        born_approx(p3, pot, flat, np.full(3, 5.0))
    # one density entry per cell
    pot1 = PotentialGrid.build([-1.0], [1.0], 4, 0.3)
    for density in (np.ones(3), np.ones(5), np.ones((4, 1))):
        with pytest.raises(DomainError, match="density of shape"):
            volume_potential(P1, pot1, density, np.array([5.0]))


@pytest.mark.parametrize("n, s, cells", [(1, 0.3, 12), (2, 0.75, 12), (3, 0.3, 6)])
def test_node_observation_reproduces_solution(monkeypatch, n, s, cells):
    # observing at a node uses the matrix's weights and near rule, so
    # u_inc + u^scat there is the solved u_i; one cell_weight per distinct |offset|
    p = Problem(n, s, 1.0)
    q = np.random.default_rng(5).uniform(0.1, 0.6, cells ** n)
    pot = PotentialGrid.build([-1.0] * n, [1.0] * n, cells, q)
    inc = IncidentField(np.eye(n)[0])
    sol = solve_ls(build_nystrom(p, pot), inc)
    calls = []
    weight = scattering.cell_weight
    monkeypatch.setattr(scattering, "cell_weight", lambda *a, **k: calls.append(1) or weight(*a, **k))
    interior = np.flatnonzero(np.all((pot.index >= 1) & (pot.index <= cells - 2), axis=1))
    for i in interior[[0, interior.size // 2]]:
        calls.clear()
        u = inc.values(p, pot.nodes[i][None, :])[0] + eval_scattered(sol, pot.nodes[i])
        assert abs(u - sol.u_total[i]) <= 1e-12 * abs(sol.u_total[i])
        assert len(calls) <= 2 ** n


def test_green_total_rounds_radii_relatively():
    # radii are merged to 14 mantissa decimals, not 14 absolute ones: tiny
    # radii keep their value and a target 1e-9 off a cell face is valid
    from frachelm.green import green_eval_batch
    r = np.array([1.234567891234e-7, 3.3e-12, 7.1e-16, 0.5])
    helm, riesz, jt, _ = green_eval_batch(P1, 0.0, r, QuadratureSpec())
    total = scattering._green_total_at(P1, r, QuadratureSpec())
    assert np.all(np.abs(total - (helm + riesz + jt)) <= 1e-12 * np.abs(helm + riesz + jt))
    sol = solve_ls(build_nystrom(P1, grid1(cells=4, q=0.3)), INC1)
    for x in (1e-9, -1e-9):
        assert np.isfinite(eval_scattered(sol, np.array([x])))
    # full-mantissa radii keep their Helmholtz phase k r ~ 2e3 (a 14-decimal
    # merge moves it by up to 1e-11)
    r = np.random.default_rng(21).uniform(1e3, 1.02e3, 10)
    for n in (1, 2, 3):
        p = Problem(n, 0.3, 2.0)
        g = sum(green_eval_batch(p, 0.0, r, QuadratureSpec())[:3])
        total = scattering._green_total_at(p, r, QuadratureSpec())
        assert np.all(np.abs(total - g) <= 1e-14 * np.abs(g)), n


def _table_radii(lo):
    """About 400 radii over logspace(lo, 3) plus four runs of 50 inside single
    dyadic panels, so those panels hold more than ``green._SMALL_BATCH`` distinct
    radii."""
    runs = [np.linspace(a, 1.96 * a, 50) for a in 2.0 ** np.array([-18.0, -6.0, 0.0, 6.0])]
    return np.concatenate([np.logspace(lo, 3.0, 400), *runs])


def _direct(p, r, spec, no_panels):
    """(total, j_tail, err) at r from one direct pass, with the table switched
    off (the ``no_panels`` fixture)."""
    with no_panels():
        helm, riesz, jt, err = green.green_eval_batch(p, 0.0, r, spec)
    return helm + riesz + jt, jt, err


def _spy_batches(monkeypatch):
    """The radii of every direct tail evaluation made by ``green``."""
    seen, tail = [], green._tail_batch
    monkeypatch.setattr(green, "_tail_batch", lambda p, regime, kc, r, spec, **k:
                        seen.append(r) or tail(p, regime, kc, r, spec, **k))
    return seen


_TABLE_CASES = {}


def _table_case(n, s, k, no_panels):
    """(problem, spec, radii, direct total, j_tail, err) of one table test case,
    computed once per (n, s, k); the direct reference is one pass over all the
    radii."""
    if (n, s, k) not in _TABLE_CASES:
        spec = QuadratureSpec() if n == 2 else QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)
        p, r = Problem(n, s, k), _table_radii(-6.0 if n == 2 else -8.0)
        _TABLE_CASES[n, s, k] = (p, spec, r) + _direct(p, r, spec, no_panels)
    return _TABLE_CASES[n, s, k]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_table_matches_direct_reference(monkeypatch, no_panels, n):
    seen = _spy_batches(monkeypatch)
    for s in (0.25, 0.3, 0.5, 0.75):
        for k in (0.5, 2.0):
            p, spec, r, ref, _, _ = _table_case(n, s, k, no_panels)
            seen.clear()
            total = scattering._green_total_at(p, r, spec)
            assert np.max(np.abs(total - ref) / np.abs(ref)) <= 1e-11, (s, k)
            assert not np.all(np.isin(r, np.concatenate(seen))), (s, k)   # tabled


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_table_error_estimates_are_honest(monkeypatch, no_panels, n):
    # every tabled tail value lies within its own and the direct error estimate
    seen = _spy_batches(monkeypatch)
    for s in (0.25, 0.3, 0.5, 0.75):
        for k in (0.5, 2.0):
            p, spec, r, _, jref, eref = _table_case(n, s, k, no_panels)
            seen.clear()
            _, _, jt, err = green.green_eval_batch(p, 0.0, r, spec)
            tabled = ~np.isin(r, np.concatenate(seen))
            assert np.any(tabled), (s, k)
            assert np.all(np.abs(jt - jref)[tabled] <= (err + eref)[tabled]), (s, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_table_falls_back_to_direct_values(monkeypatch, cold_panels, no_panels, n):
    # at degree 2 every panel with more than 8 radii fails its checks: it
    # makes one node call of its own d + 2 = 4 radii, and then every value
    # comes from one direct evaluation
    p, r = Problem(n, 0.3, 1.0), _table_radii(-6.0 if n == 2 else -8.0)
    ref = _direct(p, r, QuadratureSpec(), no_panels)[0]
    monkeypatch.setattr(green, "_PANEL_DEGREE", 2)
    monkeypatch.setattr(green, "_SMALL_BATCH", 2 * (2 + 2))
    exponents, counts = np.unique(np.frexp(np.unique(r))[1], return_counts=True)
    seen = _spy_batches(monkeypatch)
    total = scattering._green_total_at(p, r, QuadratureSpec())
    *nodes, direct = seen
    assert [np.frexp(x)[1].tolist() for x in nodes] == [[e] * 4 for e in exponents[counts > 8]]
    assert np.all(np.isin(r, direct))
    assert np.max(np.abs(total - ref) / np.abs(ref)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tabled_value_depends_only_on_its_radius(cold_panels, n):
    # a radius of a tabled panel gets the same j_tail and err, bit for bit,
    # from a cold and a warm panel cache, and from two batches that share
    # the panel but differ in every other radius
    p, x = Problem(n, 0.3, 1.0), 2.718281828
    batches = [np.r_[x, np.linspace(2.05, 3.95, 60), np.logspace(-3.0, 0.0, 30)],
               np.r_[x, np.linspace(2.01, 3.99, 70), np.logspace(0.6, 3.0, 20)]]
    assert np.isin(batches[0], batches[1]).sum() == 1

    def at_x(radii):
        _, _, jt, err = green.green_eval_batch(p, 0.0, radii)
        return jt[0], err[0]

    cold = at_x(batches[0])
    misses = cold_panels.cache_info().misses
    key = (p, spectral_shift(p, 0.0).k_eps, DEFAULT_SPEC, 2, False)   # the value panel [2, 4)
    assert misses >= 1 and cold_panels(*key) is not None
    warm = [at_x(b) for b in batches]
    assert cold_panels.cache_info().misses == misses
    cold_panels.cache_clear()
    other_cold = at_x(batches[1])
    assert all(v == cold for v in warm + [other_cold])
    # a call of at most _SMALL_BATCH radii tables x's panel too, with the
    # same key: the same bits cold and warm, beside batch-mates that differ
    # in every other radius, and in the large call
    small = [np.r_[x, np.geomspace(1e-3, 1.0, 8)], np.r_[x, np.geomspace(30.0, 1e3, 8)]]
    cold_panels.cache_clear()
    small_cold = at_x(small[0])
    warm = [at_x(b) for b in small]
    cold_panels.cache_clear()
    assert all(v == cold for v in warm + [small_cold, at_x(small[1])])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_calls_read_k_free_panels(monkeypatch, cold_panels, n):
    # a call of 2 to 44 radii tables every panel below the far series' reach
    # on the panels of |k_eps| = 1 in x = |k_eps| r: at eps = 0 the same kr at
    # a second k builds no panel and makes no direct tail call, and its tail
    # and err are (k'/k)^{n-2s} times the first k's.  At eps > 0, k' = 4k and
    # eps' = 4^{2s} eps give k_eps' = 4 k_eps, so the tail at r/4 is
    # 4^{n-2s} times that at r, within the two calls' err
    x = np.geomspace(1e-3, 20.0, 9)
    seen = _spy_batches(monkeypatch)
    for s in (0.25, 0.3, 0.5, 0.75):
        _, _, jt, err = green.green_eval_batch(Problem(n, s, 0.5), 0.0, x / 0.5)
        misses = cold_panels.cache_info().misses
        seen.clear()
        _, _, jt2, err2 = green.green_eval_batch(Problem(n, s, 2.0), 0.0, x / 2.0)
        assert cold_panels.cache_info().misses == misses and not seen, s
        ratio = 4.0 ** (n - 2.0 * s)
        assert np.all(np.abs(jt2 - ratio * jt) <= 1e-15 * np.abs(jt2)), s
        assert np.all(np.abs(err2 - ratio * err) <= 1e-15 * err2), s
        eps = 0.1
        _, _, jt, err = green.green_eval_batch(Problem(n, s, 0.5), eps, x / 0.5)
        seen.clear()
        _, _, jt2, err2 = green.green_eval_batch(Problem(n, s, 2.0), 4.0 ** (2.0 * s) * eps,
                                                 x / 2.0)
        assert not np.isin(x / 2.0, np.concatenate([x[:0], *seen])).all(), s   # tabled
        assert np.all(np.abs(jt2 - ratio * jt) <= err2 + ratio * err), s
        # dG/dr reads panels of its own, (k'/k)^{n-2s+1} times the first k's
        _, _, jt, err = green._green_batch(Problem(n, s, 0.5), 0.0, x / 0.5, DEFAULT_SPEC,
                                           (True,))[0]
        misses = cold_panels.cache_info().misses
        seen.clear()
        _, _, jt2, err2 = green._green_batch(Problem(n, s, 2.0), 0.0, x / 2.0, DEFAULT_SPEC,
                                             (True,))[0]
        assert cold_panels.cache_info().misses == misses and not seen, s
        ratio *= 4.0
        assert np.all(np.abs(jt2 - ratio * jt) <= 1e-15 * np.abs(jt2)), s
        assert np.all(np.abs(err2 - ratio * err) <= 1e-15 * err2), s


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_tabled_values_are_honest(monkeypatch, n):
    # 9-radius eps = 0 calls over the windows of the rate checks, whose radii
    # below the far reach are tabled: |G - closed form| <= err at n = 3, s =
    # 1/2, and Im G = (k^{2-2s}/s) Im G_Helm (cos(kr)/(2k) in 1D, J0(kr)/4 in
    # 2D, sin(kr)/(4 pi r) in 3D) within err at every s
    seen = _spy_batches(monkeypatch)
    for lo, hi in ((1e-3, 0.5), (10.0, 1e4)):
        r = np.geomspace(lo, hi, 9)
        for s in (1.0 / 6.0, 0.25, 0.3, 0.5, 0.75):
            for k in (0.5, 2.0):
                seen.clear()
                helm, riesz, jt, err = green.green_eval_batch(Problem(n, s, k), 0.0, r)
                assert not np.isin(r, np.concatenate([r[:0], *seen])).all(), (lo, s, k)
                g = helm + riesz + jt
                im = {1: np.cos(k * r) / (2.0 * k), 2: specfun.bessel_j0(k * r) / 4.0,
                      3: np.sin(k * r) / (4.0 * np.pi * r)}[n]
                assert np.all(np.abs(g.imag - k ** (2.0 - 2.0 * s) / s * im) <= err), (lo, s, k)
                if n == 3 and s == 0.5:
                    ref = np.array([green.green_closed_form_3d_half(k, x) for x in r])
                    assert np.all(np.abs(g - ref) <= err), (lo, k)


def test_every_tail_panel_is_keyed_at_unit_wavenumber(monkeypatch):
    # every tabled call, value or derivative, whatever its dimension, shift,
    # k and size, reads the panels of |k_eps| = 1: the key's problem has k =
    # 1 and its kc is the phase k_eps/|k_eps|.  A panel's key is (p, kc,
    # spec, exponent, derivative), False for a value and True for a
    # derivative.  A call with one shift per radius reads no panel
    keys, panel = [], green._tail_panel
    monkeypatch.setattr(green, "_tail_panel", lambda *key: keys.append(key) or panel(*key))
    small, large = np.geomspace(1e-3, 30.0, 9), np.r_[np.linspace(2.05, 3.95, 60), 40.0]
    mixed = np.where(np.arange(large.size) % 2, 0.3, 0.0)
    for n in (1, 2, 3):
        for k in (0.7, 2.0):
            for eps, r in [(0.0, small), (0.0, large), (0.3, small), (0.3, large)]:
                green.green_eval_batch(Problem(n, 0.3, k), eps, r)
                green.green_radial_derivative(Problem(n, 0.3, k), eps, r)
            count = len(keys)
            green.green_eval_batch(Problem(n, 0.3, k), mixed, large)
            green.green_radial_derivative(Problem(n, 0.3, k), mixed, large)
            assert len(keys) == count, (n, k)
    assert {key[1].imag > 0.0 for key in keys} == {False, True}
    assert {key[4:] for key in keys} == {(False,), (True,)}
    for p, kc, *_ in keys:
        assert p.k == 1.0 and type(kc) is complex and abs(abs(kc) - 1.0) <= 1e-15, (p, kc)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tabled_derivatives_are_honest(monkeypatch, no_panels, n):
    # every derivative a call of two or more radii reads from the table lies
    # within its own and the direct call's error estimate, over the windows
    # of the rate checks and the span of the radiation report, at eps = 0 and
    # eps > 0
    seen, tabled = _spy_batches(monkeypatch), 0
    windows = (np.geomspace(1e-3, 0.5, 9), np.geomspace(0.3, 40.0, 9),
               np.geomspace(10.0, 1e4, 9), np.logspace(-3.0, 3.0, 31))
    for s in (1.0 / 6.0, 0.25, 0.3, 0.5, 0.75):
        for k in (0.5, 1.0, 2.0):
            for eps in (0.0, 0.02):
                p = Problem(n, s, k)
                for r in windows:
                    seen.clear()
                    *parts, err = green._green_batch(p, eps, r, DEFAULT_SPEC, (True,))[0]
                    tabled += np.count_nonzero(~np.isin(r, np.concatenate([r[:0], *seen])))
                    with no_panels():
                        *ref, ref_err = green._green_batch(p, eps, r, DEFAULT_SPEC, (True,))[0]
                    miss = np.abs(sum(parts) - sum(ref))
                    assert np.all(miss <= err + ref_err), (s, k, eps, r[0])
    assert tabled > 0


def test_resonance_scan_reads_the_first_wavenumbers_panels(monkeypatch, cold_panels):
    # the 2D panels are those of |k_eps| = 1 in x = kr, so the second
    # wavenumber of a scan reads the first one's and builds only the few
    # panels its larger x reaches
    misses, build = [], scattering.build_nystrom
    monkeypatch.setattr(scattering, "build_nystrom", lambda *a: misses.append(
        cold_panels.cache_info().misses) or build(*a))
    pot = PotentialGrid.build([-1.0, -1.0], [1.0, 1.0], 8, 0.3)
    resonance_scan(Problem(2, 0.75, 1.0), pot, [1.0, 2.0])
    misses.append(cold_panels.cache_info().misses)
    assert misses[1] > 0 and misses[2] - misses[1] <= 2, misses


def test_wide_2d_batch_converges():
    # the table leaves the direct 2D pass the radii of sparse panels (each
    # tabled panel's nodes make a call of their own); each value agrees with
    # its radius evaluated alone
    p, r = Problem(2, 0.25, 2.0), _table_radii(-6.0)
    helm, riesz, jt, err = green.green_eval_batch(p, 0.0, r)
    for i in range(0, r.size, 25):
        _, _, one, one_err = green.green_eval_batch(p, 0.0, r[i:i + 1])
        assert abs(jt[i] - one[0]) <= err[i] + one_err[0], r[i]


@pytest.mark.parametrize("s, spec", [(0.25, QuadratureSpec()),
                                     (1.0 / 6.0, QuadratureSpec(rel_tol=1e-11))],
                         ids=["default-spec", "rel_tol-1e-11"])
def test_wide_2d_batch_converges_in_one_pass(monkeypatch, s, spec):
    # one direct pass over these 400 radii (no dyadic panel holds enough of
    # them to table), with columns from 1e-8 to 1e3 sharing the engine's
    # panels; each value must agree with its radius evaluated alone
    p, r = Problem(2, s, 2.0), np.logspace(-8.0, 3.0, 400)
    seen = _spy_batches(monkeypatch)
    _, _, jt, err = green.green_eval_batch(p, 0.0, r, spec)
    assert len(seen) == 1 and seen[0].size == r.size
    for i in range(0, r.size, 25):
        _, _, one, one_err = green.green_eval_batch(p, 0.0, r[i:i + 1], spec)
        assert abs(jt[i] - one[0]) <= err[i] + one_err[0], r[i]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_of_failing_radii_still_raises(monkeypatch, n):
    # every radius fails alone at this spec, so the batch raises too, after
    # one tail evaluation
    p, r = Problem(n, 0.3, 1.0), np.logspace(-2.0, 1.0, 9)
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16, max_subdiv=8)
    for x in r:
        with pytest.raises(AccuracyError):
            green.green_eval_batch(p, 0.0, r[r == x], spec)
    seen = _spy_batches(monkeypatch)
    with pytest.raises(AccuracyError):
        green.green_eval_batch(p, 0.0, r, spec)
    assert len(seen) == 1


@pytest.mark.parametrize("n, x, y", [(2, [0.113, -0.271], [-0.29, 0.41]),
                                     (3, [0.113, -0.271, 0.0537], [-0.29, 0.41, 0.07])])
def test_cell_rules_reuse_cached_gauss_legendre(n, x, y):
    # an off-node observation integrates cells with the target inside and
    # outside; a second one builds no Gauss-Legendre rule and its weights
    # equal those computed with an empty cache
    p, pot = Problem(n, 0.3, 1.0), PotentialGrid.build([-1.0] * n, [1.0] * n, 6, 0.3)
    volume_potential(p, pot, pot.q_values, np.array(x), QuadratureSpec())
    misses = specfun.gauss_legendre.cache_info().misses
    w = volume_potential(p, pot, pot.q_values, np.array(y), QuadratureSpec())
    assert specfun.gauss_legendre.cache_info().misses == misses
    specfun.gauss_legendre.cache_clear()
    assert np.array_equal(volume_potential(p, pot, pot.q_values, np.array(y), QuadratureSpec()), w)


@pytest.mark.parametrize("n, s, cells", [(1, 0.3, 12), (2, 0.75, 6), (3, 0.3, 4)])
def test_volume_weights_share_one_cell_weight_call(monkeypatch, n, s, cells):
    # a build and a node observation make one cell_weight call over all their
    # near keys (at most 2^n at a node); every _volume_weights makes at most
    # two _green_total_at calls, and a far observation needs no cell_weight
    p = Problem(n, s, 1.0)
    pot = PotentialGrid.build([-1.0] * n, [1.0] * n, cells, 0.3)
    targets, totals = [], []
    weight, total = scattering.cell_weight, scattering._green_total_at
    monkeypatch.setattr(scattering, "cell_weight", lambda pr, t, *a, **k:
                        targets.append(np.shape(t)[0]) or weight(pr, t, *a, **k))
    monkeypatch.setattr(scattering, "_green_total_at",
                        lambda *a, **k: totals.append(1) or total(*a, **k))
    sol = solve_ls(build_nystrom(p, pot), IncidentField(np.eye(n)[0]))
    assert targets == [2 ** n] and len(totals) == 2
    node = pot.nodes[np.flatnonzero(np.all(pot.index == cells // 2, axis=1))[0]]
    for x, calls in ((node, 1), (np.full(n, 4.5), 0)):
        targets.clear()
        totals.clear()
        eval_scattered(sol, x)
        assert len(targets) == calls and all(m <= 2 ** n for m in targets)
        assert 1 <= len(totals) <= 2


def _mixed_points(n):
    # two far points and two off-node points, one of them inside a boundary cell
    rng = np.random.default_rng(11)
    far = rng.standard_normal((2, n))
    far *= 4.5 / np.linalg.norm(far, axis=1)[:, None]
    return np.vstack([far, rng.uniform(-0.9, 0.9, (2, n))])


@pytest.mark.parametrize("n, s, cells", [(1, 0.3, 12), (2, 0.75, 6), (2, 0.3, 6), (3, 0.3, 4)])
def test_batched_observation_matches_per_point(n, s, cells):
    # an (m, n) call returns each point's one-point value
    p = Problem(n, s, 1.0)
    q = np.random.default_rng(3).uniform(0.1, 0.6, cells ** n)
    pot = PotentialGrid.build([-1.0] * n, [1.0] * n, cells, q)
    inc = IncidentField(np.eye(n)[0])
    sol = solve_ls(build_nystrom(p, pot), inc)
    x = _mixed_points(n)
    for batch, one in ((eval_scattered(sol, x), [eval_scattered(sol, xi) for xi in x]),
                       (born_approx(p, pot, inc, x), [born_approx(p, pot, inc, xi) for xi in x])):
        assert batch.shape == (x.shape[0],)
        assert all(isinstance(v, complex) for v in one)
        assert np.all(np.abs(batch - one) <= 1e-10 * np.abs(one))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_observation_rows_are_chunked_by_the_row_budget(monkeypatch, n):
    # a budget of 3 points' rows splits 7 points into chunks of 3, 3 and 1,
    # each of them evaluated as its own call; the far Green values of a chunk
    # come from its own radius batch, so they move within the quadrature
    # tolerance (as in test_batched_observation_matches_per_point)
    p = Problem(n, 0.3, 1.0)
    pot = PotentialGrid.build([-1.0] * n, [1.0] * n, 4, 0.3)
    sol = solve_ls(build_nystrom(p, pot), IncidentField(np.eye(n)[0]))
    x = np.vstack([_mixed_points(n), 2.5 * np.eye(n)[0] + 0.3 * _mixed_points(n)[:3]])
    ref = eval_scattered(sol, x)
    chunks = np.concatenate([eval_scattered(sol, x[i:i + 3]) for i in (0, 3, 6)])
    rows, weights = [], scattering._volume_weights
    monkeypatch.setattr(scattering, "_ROW_BUDGET", 3 * pot.nodes.shape[0] + 1)
    monkeypatch.setattr(scattering, "_volume_weights", lambda pr, pt, delta, *a:
                        rows.append(delta.shape[0]) or weights(pr, pt, delta, *a))
    vals = eval_scattered(sol, x)
    assert rows == [3 * pot.nodes.shape[0]] * 2 + [pot.nodes.shape[0]]
    assert np.array_equal(vals, chunks)
    assert np.all(np.abs(vals - ref) <= 1e-10 * np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_observation_makes_one_volume_weights_call(monkeypatch, n):
    p = Problem(n, 0.3, 1.0)
    pot = PotentialGrid.build([-1.0] * n, [1.0] * n, 4, 0.3)
    sol = solve_ls(build_nystrom(p, pot), IncidentField(np.eye(n)[0]))
    rows, weights = [], scattering._volume_weights
    monkeypatch.setattr(scattering, "_volume_weights", lambda pr, pt, delta, *a:
                        rows.append(delta.shape[0]) or weights(pr, pt, delta, *a))
    x = _mixed_points(n)
    eval_scattered(sol, x)
    assert rows == [x.shape[0] * pot.nodes.shape[0]]
