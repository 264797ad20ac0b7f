"""Lippmann-Schwinger solver tests: identities, convergence, scaling laws."""

from functools import lru_cache

import numpy as np
import pytest

from frachelm import green, scattering
from frachelm.errors import AccuracyError, DomainError, NearResonanceError
from frachelm.kernels import Problem
from frachelm.quadrature import QuadratureSpec
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


def test_incident_field_unit_direction():
    with pytest.raises(DomainError):
        IncidentField(np.array([1.0, 1.0]))
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
    from frachelm.quadrature import integrate_adaptive
    pot = grid1()
    h = pot.cell_sizes

    def gtot(rr):
        helm, riesz, jt, _ = green_eval_batch(P1, 0.0, rr, QuadratureSpec())
        return helm + riesz + jt

    oracle = 2.0 * integrate_adaptive(gtot, 0.0, h[0] / 2.0).value
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
    dyadic panels, so those panels hold more than 2 (d + 2) distinct radii."""
    runs = [np.linspace(a, 1.96 * a, 50) for a in 2.0 ** np.array([-18.0, -6.0, 0.0, 6.0])]
    return np.concatenate([np.logspace(lo, 3.0, 400), *runs])


def _direct(p, r, spec, size=None):
    """(total, j_tail, err) at r from direct passes over batches of ``size``
    radii (all of r by default), with the table switched off; a 2D batch that
    exhausts max_subdiv, although each of its radii converges alone, goes one
    radius at a time."""
    size, parts = size or r.size, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(green, "_PANEL_DEGREE", r.size)   # no batch is large enough to table
        for i in range(0, r.size, size):
            try:
                parts.append(green.green_eval_batch(p, 0.0, r[i:i + size], spec))
            except AccuracyError:
                parts += [green.green_eval_batch(p, 0.0, x[None], spec) for x in r[i:i + size]]
    helm, riesz, jt, err = (np.concatenate(a) for a in zip(*parts))
    return helm + riesz + jt, jt, err


def _spy_batches(monkeypatch):
    """The radii of every direct tail evaluation made by ``green``."""
    seen, tail = [], green._tail_batch
    monkeypatch.setattr(green, "_tail_batch", lambda p, regime, kc, r, spec, **k:
                        seen.append(r) or tail(p, regime, kc, r, spec, **k))
    return seen


@lru_cache(maxsize=None)
def _table_case(n, s, k):
    """(problem, spec, radii, direct total, j_tail, err) of one table test case.
    The 2D batch converges over this range only at the default tolerances
    (tighter ones, or radii down to 1e-8 at s = 0.25, k = 2, raise
    AccuracyError on the direct path too); one direct 2D pass exhausts
    max_subdiv at s = 0.25, k = 2 (see test_wide_2d_batch_converges), batches
    of 40 radii do not."""
    spec = QuadratureSpec() if n == 2 else QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)
    p, r = Problem(n, s, k), _table_radii(-6.0 if n == 2 else -8.0)
    return (p, spec, r) + _direct(p, r, spec, 40 if (n, s, k) == (2, 0.25, 2.0) else None)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_table_matches_direct_reference(monkeypatch, n):
    seen = _spy_batches(monkeypatch)
    for s in (0.25, 0.3, 0.5, 0.75):
        for k in (0.5, 2.0):
            p, spec, r, ref, _, _ = _table_case(n, s, k)
            seen.clear()
            total = scattering._green_total_at(p, r, spec)
            assert np.max(np.abs(total - ref) / np.abs(ref)) <= 1e-11, (s, k)
            assert not np.all(np.isin(r, np.concatenate(seen))), (s, k)   # tabled


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_table_error_estimates_are_honest(monkeypatch, n):
    # every tabled tail value lies within its own and the direct error estimate
    seen = _spy_batches(monkeypatch)
    for s in (0.25, 0.3, 0.5, 0.75):
        for k in (0.5, 2.0):
            p, spec, r, _, jref, eref = _table_case(n, s, k)
            seen.clear()
            _, _, jt, err = green.green_eval_batch(p, 0.0, r, spec)
            tabled = ~np.isin(r, np.concatenate(seen))
            assert np.any(tabled), (s, k)
            assert np.all(np.abs(jt - jref)[tabled] <= (err + eref)[tabled]), (s, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_table_falls_back_to_direct_values(monkeypatch, n):
    # at degree 2 every panel (more than 8 radii) fails its checks, so every
    # value comes from a direct evaluation
    p, r = Problem(n, 0.3, 1.0), _table_radii(-6.0 if n == 2 else -8.0)
    ref = _direct(p, r, QuadratureSpec())[0]
    monkeypatch.setattr(green, "_PANEL_DEGREE", 2)
    seen = _spy_batches(monkeypatch)
    total = scattering._green_total_at(p, r, QuadratureSpec())
    assert len(seen) == 2 and np.all(np.isin(r, np.concatenate(seen)))
    assert np.max(np.abs(total - ref) / np.abs(ref)) <= 1e-12


def test_wide_2d_batch_converges():
    # one direct 2D pass over these radii exhausted max_subdiv at s = 0.25,
    # k = 2, although each radius converges alone; the table leaves that pass
    # its panel nodes and the radii of sparse panels
    p, r = Problem(2, 0.25, 2.0), _table_radii(-6.0)
    helm, riesz, jt, err = green.green_eval_batch(p, 0.0, r)
    for i in range(0, r.size, 25):
        _, _, one, one_err = green.green_eval_batch(p, 0.0, r[i:i + 1])
        assert abs(jt[i] - one[0]) <= err[i] + one_err[0], r[i]


@pytest.mark.parametrize("n, x, y", [(2, [0.113, -0.271], [-0.29, 0.41]),
                                     (3, [0.113, -0.271, 0.0537], [-0.29, 0.41, 0.07])])
def test_cell_rules_reuse_cached_gauss_legendre(n, x, y):
    # an off-node observation integrates cells with the target inside and
    # outside; a second one builds no Gauss-Legendre rule and its weights
    # equal those computed with an empty cache
    p, pot = Problem(n, 0.3, 1.0), PotentialGrid.build([-1.0] * n, [1.0] * n, 6, 0.3)
    volume_potential(p, pot, pot.q_values, np.array(x), QuadratureSpec())
    misses = scattering._gauss_legendre.cache_info().misses
    w = volume_potential(p, pot, pot.q_values, np.array(y), QuadratureSpec())
    assert scattering._gauss_legendre.cache_info().misses == misses
    scattering._gauss_legendre.cache_clear()
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
