"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4's negative controls are applied per estimate row through the
mechanism that can mathematically detect the inflation (see the row table);
rows whose +1-inflated rate is still a true bound cannot flag it and are
asserted bound-only, with the reason recorded in the row entry.
"""

import time

import numpy as np

from frachelm.diagnostics import (
    decay_rate_check, green_radial_field, hankel_incoming_field,
    hankel_outgoing_field, lap_slope, radiation_classify, singularity_rate_check,
)
from frachelm.errors import DomainError
from frachelm.green import green_closed_form_3d_half, green_eval, src_residual
from frachelm.kernels import Problem, multiplier_M, spectral_shift
from frachelm.oracle import fourier_invert
from frachelm.scattering import (
    IncidentField, PotentialGrid, build_nystrom, eval_scattered, resonance_scan,
    solve_ls,
)
from frachelm.specfun import riesz_constant


def _report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_dual_path_green_agreement():
    """(n,s) x {0.25,0.3,0.5,0.75}, k=1, eps {0.3,1.0}, r {0.5,1,2,5}:
    relative disagreement <= 1e-5; runtime <= 2 min.  The boundary triple
    (s=0.25, eps=1.0) is inadmissible (arctan(eps/k^2s) = s pi exactly) and
    must raise the documented domain error instead."""
    t0 = time.time()
    worst, n_pts, n_boundary = 0.0, 0, 0
    for n in (1, 2, 3):
        for s in (0.25, 0.3, 0.5, 0.75):
            for eps in (0.3, 1.0):
                p = Problem(n, s, 1.0)
                try:
                    sh = spectral_shift(p, eps)
                except DomainError:
                    assert (s, eps) == (0.25, 1.0)
                    n_boundary += 1
                    continue
                for r in (0.5, 1.0, 2.0, 5.0):
                    g = green_eval(p, sh, r)
                    o = fourier_invert(p, sh, r)
                    worst = max(worst, abs(g.total - o) / abs(g.total))
                    n_pts += 1
    elapsed = time.time() - t0
    _report(1, worst <= 1e-5 and elapsed <= 120.0 and n_boundary == 3,
            f"worst rel diff {worst:.2e} over {n_pts} admissible points, "
            f"{n_boundary} boundary triples rejected, {elapsed:.1f}s")


def test_criterion_2_closed_form_3d_half():
    """n=3, s=1/2, eps=0: relative error vs the E1 closed form <= 1e-8."""
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        p = Problem(3, 0.5, k)
        for r in (0.1, 1.0, 10.0):
            g = green_eval(p, 0.0, r)
            c = green_closed_form_3d_half(k, r)
            worst = max(worst, abs(g.total - c) / abs(c))
    _report(2, worst <= 1e-8, f"worst rel error vs closed form {worst:.2e}")


def test_criterion_3_multiplier_identity():
    """Factorization residual <= 1e-12 (relative to |xi^2-z^2|) on a 1000-point
    grid; M == 0 at s=1/2 to round-off; limit at xi=k within 1e-6."""
    xi = np.logspace(-2, 2, 1000)
    worst = 0.0
    for s in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for z in (1.0 + 0.0j, 1.2 + 0.5j, 0.3 + 1.1j):
            M = multiplier_M(xi, z, s)
            lhs = (xi ** (2 * s) - z ** (2 * s)) * (xi ** (2 - 2 * s) + z ** (2 - 2 * s) + M)
            rhs = xi ** 2 - z ** 2
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))))
    zero_half = float(np.max(np.abs(multiplier_M(xi, 1.3 + 0.2j, 0.5))))
    lim_ok = True
    for s in (0.1, 0.3, 0.75):
        k = 1.0
        lim = multiplier_M(k, complex(k), s)
        lim_ok &= abs(lim - (1 - 2 * s) * k ** (2 - 2 * s) / s) <= 1e-6
    _report(3, worst <= 1e-12 and zero_half == 0.0 and lim_ok,
            f"factorization residual {worst:.2e}, |M|_(s=1/2) = {zero_half}, "
            f"limit check {'ok' if lim_ok else 'failed'}")


# criterion 4 row table: (n, s, side, claimed rate, log?, control mode)
# control modes:
#   two_sided - the rate is sharp on the window: drift < 100 at the claimed
#               rate and > 100 when inflated by +1
#   growth    - inflation makes the product grow past the drift factor
#   bound_only- the +1-inflated rate is still a true bound (non-sharp row);
#               no sound checker can flag it (see decisions ledger)
_ROWS = [
    (1, 0.75, "decay", 2.5, False, "growth"),
    (1, 0.50, "decay", 2.0, False, "growth"),
    (1, 0.30, "decay", 1.6, False, "growth"),
    (2, 0.75, "decay", 1.0, False, "bound_only"),
    (2, 0.30, "decay", 1.0, False, "bound_only"),
    (2, 0.25, "decay", 1.0, False, "growth"),     # LOW_INTEGER: 1/r is sharp
    (2, 0.50, "decay", 1.0, False, "growth"),
    (3, 0.75, "decay", 4.5, False, "growth"),
    (3, 0.50, "decay", 2.0, False, "growth"),
    (3, 0.30, "decay", 2.4, False, "growth"),
    (3, 0.25, "decay", 2.0, False, "growth"),
    (1, 0.30, "sing", 0.4, False, "two_sided"),
    (1, 0.50, "sing", 0.0, True, "two_sided"),
    (1, 0.75, "sing", 0.0, False, "two_sided"),
    (2, 0.75, "sing", 1.0, False, "two_sided"),
    (2, 0.30, "sing", 1.0, False, "two_sided"),
    (2, 0.50, "sing", 1.0, False, "two_sided"),
    (2, 0.25, "sing", 1.0, False, "two_sided"),
    (3, 0.75, "sing", 1.5, False, "two_sided"),
    (3, 0.30, "sing", 2.4, False, "two_sided"),
    (3, 0.25, "sing", 2.0, False, "two_sided"),
    (3, 0.50, "sing", 2.0, False, "bound_only"),  # bound r^-2, true r^-1
]


def _run_row(n, s, side, rate, log_corr):
    p = Problem(n, s, 1.0)
    if side == "decay":
        return decay_rate_check(p, "j_tail", (10.0, 1e4), rate, n_points=9)
    return singularity_rate_check(p, "j_tail", (1e-3, 0.5), rate,
                                  log_correction=log_corr, n_points=9)


def test_criterion_4_asymptotic_bounds():
    """Envelope checks for every claimed asymptotic rate, with per-row negative controls."""
    failures = []
    for n, s, side, rate, log_corr, mode in _ROWS:
        fit = _run_row(n, s, side, rate, log_corr)
        if not fit.envelope_bounded:
            failures.append(f"({n},{s},{side}) claimed rate not bounded")
        if mode == "two_sided" and fit.drift_ratio > 100.0:
            failures.append(f"({n},{s},{side}) drift {fit.drift_ratio:.1f} > 100")
        inflated = _run_row(n, s, side, rate + 1.0, log_corr)
        flagged = (not inflated.envelope_bounded) or inflated.drift_ratio > 100.0
        if mode in ("growth", "two_sided") and not flagged:
            failures.append(f"({n},{s},{side}) +1 control not flagged")
        if mode == "bound_only" and not inflated.envelope_bounded:
            failures.append(f"({n},{s},{side}) non-sharp row unexpectedly grew")
    _report(4, not failures,
            f"{len(_ROWS)} estimate rows checked, controls per table"
            + ("" if not failures else f"; failures: {failures}"))


def test_criterion_5_radiation_condition():
    """src_residual decreasing over decades for regime samples; classify
    battery verdicts (H1 true/true, H2 false/false, G true/true); SRC and
    GSRC never disagree."""
    ok, detail = True, []
    for n, s in ((1, 0.3), (1, 0.75), (2, 0.5), (2, 0.75), (3, 0.25), (3, 0.6)):
        p = Problem(n, s, 1.0)
        res = [src_residual(p, r) for r in (1e2, 1e3, 1e4)]
        if not (res[2] < res[1] < res[0]):
            ok = False
            detail.append(f"src not decreasing for (n={n}, s={s}): {res}")
    battery = [
        ("H1", hankel_outgoing_field(1.0), (True, True)),
        ("H2", hankel_incoming_field(1.0), (False, False)),
        ("G(3,0.3)", green_radial_field(Problem(3, 0.3, 1.0)), (True, True)),
        ("G(1,0.75)", green_radial_field(Problem(1, 0.75, 1.0)), (True, True)),
        ("G(2,0.5)", green_radial_field(Problem(2, 0.5, 1.0)), (True, True)),
    ]
    for name, field, expect in battery:
        rep = radiation_classify(field, 10.0, 1e3, 0.75)
        if (rep.verdict_src, rep.verdict_gsrc) != expect:
            ok = False
            detail.append(f"{name}: got {(rep.verdict_src, rep.verdict_gsrc)}")
        if rep.verdict_src != rep.verdict_gsrc:
            ok = False
            detail.append(f"{name}: SRC/GSRC verdicts disagree")
    _report(5, ok, "src profiles decreasing, battery verdicts as claimed"
            + ("" if ok else f"; {detail}"))


def test_criterion_6_limiting_absorption_slopes():
    """lap_slope in [0.8, 1.2] for four regime samples at r in {1, 2}."""
    slopes = {}
    for n, s in ((1, 0.3), (2, 0.25), (2, 0.5), (3, 0.75)):
        p = Problem(n, s, 1.0)
        for r in (1.0, 2.0):
            slopes[(n, s, r)] = lap_slope(p, r, [1e-1, 1e-2, 1e-3])
    ok = all(0.8 <= v <= 1.2 for v in slopes.values())
    _report(6, ok, "slopes " + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()))


def test_criterion_7_lippmann_schwinger():
    """q=0 identity at 1e-12; Born second-order ratio in [2.8, 5.2] at
    contrast 0.2 (n=2, s=0.75, k=1, 32^2 cells, <= 1 min); grid-refinement
    Cauchy differences decreasing over 8/16/32 cells."""
    p = Problem(2, 0.75, 1.0)
    inc = IncidentField(np.array([1.0, 0.0]))

    pot0 = PotentialGrid.build([-1, -1], [1, 1], 8, 0.0)
    sol0 = solve_ls(build_nystrom(p, pot0), inc)
    q0_ok = np.max(np.abs(sol0.u_total - inc.values(p, pot0.nodes))) <= 1e-12 \
        and sol0.residual <= 1e-12

    t0 = time.time()
    pot = PotentialGrid.build([-1, -1], [1, 1], 32, 0.2)
    system = build_nystrom(p, pot)

    def born_residual(sys_q):
        sol = solve_ls(sys_q, inc)
        b = inc.values(p, sys_q.pot.nodes)
        born_grid = b + p.k2s * sys_q.apply_T(b)
        return np.linalg.norm(sol.u_total - born_grid)

    ratio = born_residual(system) / born_residual(system.with_contrast(pot.q_values / 2))
    born_elapsed = time.time() - t0
    born_ok = 2.8 <= ratio <= 5.2 and born_elapsed <= 60.0

    x = np.array([0.13, 0.21])
    totals = {}
    for cells in (8, 16, 32):
        if cells == 32:
            sol = solve_ls(system, inc)
        else:
            potc = PotentialGrid.build([-1, -1], [1, 1], cells, 0.2)
            sol = solve_ls(build_nystrom(p, potc), inc)
        totals[cells] = complex(inc.values(p, x[None, :])[0] + eval_scattered(sol, x))
    d1 = abs(totals[16] - totals[8])
    d2 = abs(totals[32] - totals[16])
    cauchy_ok = d2 < d1
    _report(7, q0_ok and born_ok and cauchy_ok,
            f"q=0 identity {'ok' if q0_ok else 'FAILED'}; Born ratio {ratio:.2f} "
            f"in [2.8,5.2] ({born_elapsed:.0f}s); Cauchy diffs {d1:.2e} -> {d2:.2e}")


def test_criterion_8_small_coupling_invertibility():
    """Resonance scan with k^{2s}||q||_inf <= 0.1 over 20 k-values keeps the
    invertibility indicator >= 0.5."""
    ks = np.linspace(0.5, 2.0, 20)
    p = Problem(1, 0.75, 1.0)
    qmax = 0.1 / max(k ** (2 * p.s) for k in ks)
    pot = PotentialGrid.build([-1.0], [1.0], 32, qmax)
    rows = resonance_scan(p, pot, ks)
    worst = min(r[1] for r in rows)
    _report(8, worst >= 0.5, f"min indicator {worst:.3f} over {len(rows)} wavenumbers "
            f"(coupling {qmax * max(ks) ** (2 * p.s):.3f})")


def test_criterion_9_riesz_anchor():
    """riesz_constant(3, 1/2, 0) = 1/(2 pi^2) within 1e-13."""
    val = float(riesz_constant(3, 0.5, 0))
    target = 1.0 / (2.0 * np.pi ** 2)
    _report(9, abs(val - target) / target <= 1e-13,
            f"c_(3,0) = {val!r} vs 1/(2 pi^2) = {target!r}")
