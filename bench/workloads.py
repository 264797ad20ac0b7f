"""The benchmark's three workloads.

Each workload builds its inputs from the seed, then runs *units* in a closed
loop with one caller.  A unit is the repeatable piece of work whose duration
is ``time_to_solution_s``: one round of the diagnostic table for
``green-sweep``, one assemble-and-solve with its observations for the scatter
workloads.  Output checks run untimed after the timed calls of each
operation; an operation fails when it raises or a check fails.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from calibrate import SpeedLog

DIMS = (1, 2, 3)

ORACLE_EPS = 0.3
ORACLE_REL = 1e-5          # acceptance criterion 1
CLOSED_FORM_REL = 1e-8     # acceptance criterion 2
RESIDUAL_MAX = 1e-12
MIRROR_REL = 1e-10


@dataclass
class UnitResult:
    solution_s: float = 0.0
    queries_ms: list = field(default_factory=list)
    # the same timings scaled to the reference host speed (calibrate.py)
    scaled_solution_s: float = 0.0
    scaled_queries_ms: list = field(default_factory=list)
    near_ms: list = field(default_factory=list)
    values: dict = field(default_factory=lambda: dict.fromkeys(DIMS, 0))
    value_s: dict = field(default_factory=lambda: dict.fromkeys(DIMS, 0.0))
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def _finite(*xs):
    return all(np.all(np.isfinite(np.asarray(x))) for x in xs)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """Common plumbing: seeded per-unit streams and operation bookkeeping."""

    # the host-speed probe (calibrate.PROBES) doing the kind of work that
    # dominates the workload's timed calls; set-ups use "interpreted"
    PROBE = "interpreted"

    def __init__(self, fh, seed, tracer):
        self.fh = fh
        self.seed = int(seed)
        self.tracer = tracer
        self.speed = SpeedLog()

    def rng(self, unit):
        return np.random.default_rng([self.seed, unit])

    def operation(self, res, op_id, body):
        """Run body(failures) as one operation; checks append to failures."""
        res.attempted += 1
        failures = []
        self.tracer.op = op_id if self.tracer.enabled else None
        try:
            body(failures)
        except Exception as exc:  # a raising operation counts as failed
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            self.tracer.op = None
        res.failed += bool(failures)
        res.failures.extend(f"op {op_id}: {f}" for f in failures)

    def timed(self, name, fn):
        """Call fn inside a span (none when name is None); returns (result,
        seconds, seconds scaled by the speed factor of the probes around the
        call).  Time spent in the probes themselves is left out."""
        with self.tracer.span(name) if name else nullcontext():
            since = self.speed.mark()
            t0 = self.speed.clock()
            out = fn()
            dt = self.speed.clock() - t0
        return out, dt, dt * self.speed.factor(since)

    @contextmanager
    def checking(self):
        """Pause tracing for the untimed checks inside an operation."""
        op, self.tracer.op = self.tracer.op, None
        try:
            yield
        finally:
            self.tracer.op = op


class GreenSweep(Workload):
    """Four diagnostic calls per (n, s, k) row over every dimension and order."""

    NAME = "green-sweep"
    S_VALUES = (0.25, 0.3, 0.5, 0.75)
    # k values per round and dimension: 2D costs ~25x more per row, so 1D and
    # 3D repeat with more k; a round stays short (~2 s) so that a run holds
    # many rounds and their median is steady
    K_PER_ROUND = {1: 4, 2: 1, 3: 4}
    DECAY_WINDOW = (10.0, 1e4)
    SINGULAR_WINDOW = (1e-3, 0.5)
    POINTS = 9
    LAP_EPS = (1e-1, 1e-2, 1e-3)
    SRC_RADII = 2
    VALUES_PER_ROW = 2 * POINTS + (1 + len(LAP_EPS)) + 2 * SRC_RADII

    def warm_up(self):
        for n in DIMS:
            for s in self.S_VALUES:
                self.fh.green_eval(self.fh.Problem(n, s, 1.0), 0.0, 1.0)

    def rows(self, unit):
        rng = self.rng(unit)
        for n in DIMS:
            count = self.K_PER_ROUND[n]
            # stratified k in [0.5, 2]: every round covers the whole range
            ks = 0.5 + 1.5 * (np.arange(count) + rng.uniform(size=count)) / count
            for k in ks:
                for s in self.S_VALUES:
                    yield (n, s, float(k), float(rng.uniform(1.0, 3.0)),
                           rng.uniform(1e2, 3e3, self.SRC_RADII).tolist())

    def run_unit(self, unit):
        res = UnitResult()
        for i, row in enumerate(self.rows(unit)):
            self.operation(res, unit * 10_000 + i, lambda f: self._row(res, row, f))
        res.solution_s = sum(res.value_s.values())
        return res

    def _row(self, res, row, failures):
        fh, diag = self.fh, self.fh.diagnostics
        n, s, k, r_lap, r_src = row
        p = fh.Problem(n, s, k)
        part = "j_tail" if n == 1 else "nonhelm_total"
        calls = (
            ("decay", lambda: diag.decay_rate_check(
                p, part, self.DECAY_WINDOW, n + 2.0 * s, n_points=self.POINTS)),
            ("singularity", lambda: diag.singularity_rate_check(
                p, part, self.SINGULAR_WINDOW, n - 2.0 * s, n_points=self.POINTS)),
            ("lap", lambda: diag.lap_slope(p, r_lap, self.LAP_EPS)),
            ("src", lambda: [fh.src_residual(p, r) for r in r_src]),
        )
        out = {}
        for name, fn in calls:
            out[name], dt, scaled = self.timed(f"diagnostics.{name}.n{n}", fn)
            res.queries_ms.append(1e3 * dt)
            res.scaled_queries_ms.append(1e3 * scaled)
            res.scaled_solution_s += scaled
            res.value_s[n] += dt
        res.values[n] += self.VALUES_PER_ROW

        with self.checking():
            fits = (out["decay"], out["singularity"])
            if not all(_finite(f.values, f.fitted_slope, f.growth_ratio) for f in fits):
                failures.append(f"non-finite rate fit {row[:3]}")
            if not _finite(out["lap"], out["src"]):
                failures.append(f"non-finite lap slope / src residual {row[:3]}")
            g = fh.green_eval(p, ORACLE_EPS, r_lap)
            ref = fh.fourier_invert(p, fh.spectral_shift(p, ORACLE_EPS), r_lap)
            if not _finite(g.total, g.err_estimate) or _rel(g.total, ref) > ORACLE_REL:
                failures.append(f"oracle mismatch {row[:3]}: {g.total} vs {ref}")
            if n == 3 and s == 0.5:
                radii = np.concatenate([f.radii for f in fits])
                helm, riesz, jt, err = fh.green_eval_batch(p, 0.0, radii)
                ref = np.array([fh.green_closed_form_3d_half(k, r) for r in radii])
                worst = float(np.max(np.abs(helm + riesz + jt - ref) / np.abs(ref)))
                if not _finite(helm, riesz, jt, err) or worst > CLOSED_FORM_REL:
                    failures.append(f"closed-form mismatch {row[:3]}: rel {worst:.2e}")


class Scatter(Workload):
    """Assemble one Nystrom system, solve it per incidence, then observe."""

    n = s = cells = None
    k = 1.0
    DIRECTIONS = ()
    PAIRS_PER_SOLUTION = 1      # far mirror pairs observed per solution
    FAR_RADIUS = 4.5            # distance of every far observation point
    NEAR_NODES = 0              # interior nodes observed per unit (near field)

    def __init__(self, fh, seed, tracer):
        super().__init__(fh, seed, tracer)
        self.problem = fh.Problem(self.n, self.s, self.k)
        lo, hi = -np.ones(self.n), np.ones(self.n)
        # seeded piecewise-constant contrast, mirror-symmetric in y (and z)
        q = np.random.default_rng(self.seed).uniform(0.1, 0.6, size=(self.cells,) * self.n)
        for axis in range(1, self.n):
            q = 0.5 * (q + np.flip(q, axis))
        self.pot = fh.PotentialGrid.build(lo, hi, self.cells, q.ravel())
        self.incidents = [fh.IncidentField(np.asarray(d, dtype=float))
                          for d in self.DIRECTIONS]

    def warm_up(self):
        fh = self.fh
        small = fh.PotentialGrid.build(-np.ones(self.n), np.ones(self.n), 2, 0.3)
        far = np.full(self.n, 4.0)
        if self.n == 3:
            sol = fh.solve_ls(fh.build_nystrom(self.problem, small), self.incidents[0])
            fh.eval_scattered(sol, far)
        fh.born_approx(self.problem, small, self.incidents[0], far)

    def _far_pair(self, rng, axis):
        """A seeded direction at the fixed distance FAR_RADIUS, and its mirror
        image across `axis`.  The cost of a far query grows with distance, so
        a fixed distance keeps it the same from seed to seed."""
        x = np.concatenate([[rng.uniform(3.0, 6.0)], rng.uniform(0.5, 2.0, self.n - 1)])
        x *= self.FAR_RADIUS / np.linalg.norm(x)
        mirror = x.copy()
        mirror[axis] = -mirror[axis]
        return x, mirror

    def run_unit(self, unit):
        res = UnitResult()
        self.operation(res, unit, lambda f: self._unit(res, unit, f))
        return res

    def _unit(self, res, unit, failures):
        fh, p, pot = self.fh, self.problem, self.pot
        rng = self.rng(unit)
        with self.tracer.span("scattering.build") as idx:
            system, res.solution_s, res.scaled_solution_s = self.timed(
                None, lambda: fh.build_nystrom(p, pot))
        self.tracer.note(idx, near_keys=len(system.correction_record),
                         matrix_bytes=system.matrix.nbytes + system.offset_encode.nbytes)
        sols = []
        for inc in self.incidents:
            with self.tracer.span("scattering.solve"):
                sol, dt, scaled = self.timed(None, lambda: fh.solve_ls(system, inc))
            sols.append(sol)
            res.solution_s += dt
            res.scaled_solution_s += scaled

        observed = []
        for j, sol in enumerate(sols):
            for m in range(self.PAIRS_PER_SOLUTION):
                axis = 1 + (j * self.PAIRS_PER_SOLUTION + m) % (self.n - 1)
                pair = self._far_pair(rng, axis)
                for fn in (lambda x: fh.eval_scattered(sol, x),
                           lambda x: fh.born_approx(p, pot, sol.incident, x)):
                    vals = []
                    for x in pair:
                        v, dt, scaled = self.timed("scattering.observe_far", lambda: fn(x))
                        res.queries_ms.append(1e3 * dt)
                        res.scaled_queries_ms.append(1e3 * scaled)
                        vals.append(v)
                    observed.append(vals)
        interior = np.flatnonzero(np.all((pot.index >= 1) & (pot.index <= self.cells - 2),
                                         axis=1))
        near = []
        for node in rng.choice(interior, self.NEAR_NODES, replace=False):
            v, dt, _ = self.timed("scattering.observe_near",
                                  lambda: fh.eval_scattered(sols[0], pot.nodes[node]))
            res.near_ms.append(1e3 * dt)
            near.append(v)

        with self.checking():
            for sol in sols:
                if not _finite(sol.u_total) or not sol.residual <= RESIDUAL_MAX:
                    failures.append(f"LS residual {sol.residual:.2e}")
            for a, b in observed:
                if not _finite(a, b) or _rel(b, a) > MIRROR_REL:
                    failures.append(f"mirror mismatch {a} vs {b}")
            if not _finite(near):
                failures.append("non-finite near-field value")
            r = float(rng.uniform(1.0, 3.0))
            g = fh.green_eval(p, ORACLE_EPS, r)
            ref = fh.fourier_invert(p, fh.spectral_shift(p, ORACLE_EPS), r)
            if not _finite(g.total, g.err_estimate) or _rel(g.total, ref) > ORACLE_REL:
                failures.append(f"oracle mismatch at r={r}: {g.total} vs {ref}")


class Scatter2D(Scatter):
    NAME = "scatter-2d"
    n, s, cells = 2, 0.75, 8
    DIRECTIONS = ((1.0, 0.0),)


class Scatter3D(Scatter):
    NAME = "scatter-3d"
    n, s, cells = 3, 0.3, 12
    # the dense SVD and Green batches over all 1728 nodes dominate; their
    # speed follows the shared cache and memory bandwidth, and the
    # interpreted probe did not follow it
    PROBE = "memory"
    DIRECTIONS = ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
    PAIRS_PER_SOLUTION = 4      # 32 far queries of ~50 ms: a steady unit mean
    NEAR_NODES = 1


WORKLOADS = {w.NAME: w for w in (GreenSweep, Scatter2D, Scatter3D)}
