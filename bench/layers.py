"""Per-layer instrumentation of frachelm for the traced run.

``install`` wraps each layer's entry points where the calling module looks
them up; ``summarize`` turns the recorded spans into the per-layer metrics
listed in ``PER_LAYER``.  Layers: specfun -> kernels -> quadrature -> green
-> diagnostics / scattering.  ``oracle`` and ``cli`` are not traced.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import self_times

DIMS = (1, 2, 3)
DIAGNOSTICS = ("decay", "singularity", "lap", "src")
E2E_OVERHEAD = ("setup_s", "time_to_solution_s", "query_ms", "peak_rss_mb", "success_share")

# (name, unit); every traced run reports all of them, 0 where a layer is idle
PER_LAYER = [
    ("specfun.bessel_j0.calls", "count"),
    ("specfun.bessel_j0.points", "count"),
    ("specfun.bessel_j0.self_s", "s"),
    ("specfun.hankel1.points", "count"),
    ("specfun.hankel1.self_s", "s"),
    ("specfun.struve.calls", "count"),
    ("specfun.struve.self_s", "s"),
    ("kernels.spectral.points", "count"),
    ("kernels.spectral.self_s", "s"),
    ("kernels.helm.self_s", "s"),
    ("quadrature.bessel_transform.calls", "count"),
    ("quadrature.bessel_transform.evaluations", "count"),
    ("quadrature.bessel_transform.self_s", "s"),
    ("quadrature.exp_weighted.calls", "count"),
    ("quadrature.exp_weighted.columns", "count"),
    ("quadrature.exp_weighted.evaluations", "count"),
    ("quadrature.exp_weighted.self_s", "s"),
    ("quadrature.adaptive.calls", "count"),
    ("quadrature.adaptive.max_panels", "count"),
    ("quadrature.adaptive.panel_share", "ratio"),
    *[(f"quadrature.evals_per_value.n{n}", "ratio") for n in DIMS],
    *[(f"green.batch.{what}.n{n}", unit) for what, unit in
      (("calls", "count"), ("radii", "count"), ("self_s", "s")) for n in DIMS],
    ("green.derivative.calls", "count"),
    ("green.derivative.self_s", "s"),
    *[(f"diagnostics.{d}.s.n{n}", "s") for d in DIAGNOSTICS for n in DIMS],
    *[(f"diagnostics.values_per_s.n{n}", "1/s") for n in DIMS],
    ("scattering.cell_weight.calls", "count"),
    ("scattering.cell_weight.radii_requested", "count"),
    ("scattering.cell_weight.radii_unique", "count"),
    ("scattering.cell_weight.s", "s"),
    ("scattering.cell_weight.self_s", "s"),
    ("scattering.dedup_ratio", "ratio"),
    ("scattering.build.s", "s"),
    ("scattering.build.near_keys", "count"),
    ("scattering.build.far_radii", "count"),
    ("scattering.solve.s", "s"),
    ("scattering.svd.s", "s"),
    ("scattering.linsolve.s", "s"),
    ("scattering.matrix_bytes", "B"),
    ("scattering.observe.self_s", "s"),
    ("scattering.observe_near.ms", "ms"),
    ("fail_share", "share"),
    ("trace.spans", "count"),
    *[(f"trace.overhead.{m}", u) for m, u in
      zip(E2E_OVERHEAD, ("s", "s", "ms", "MB", "share"))],
]


def _size(x):
    return int(np.size(x))


def install(tracer, fh):
    """Wrap the layer entry points of the freshly imported package ``fh``."""
    green, quad, scat = fh.green, fh.quadrature, fh.scattering
    named = lambda name: (lambda *a, **k: (name, {}))
    with_points = lambda name: (lambda x, *a, **k: (name, {"points": _size(x)}))

    tracer.wrap(quad, "bessel_j0", with_points("specfun.bessel_j0"))
    tracer.wrap(fh.kernels, "hankel1_0", with_points("specfun.hankel1"))
    # helm_part_dr imports hankel1_1 from specfun at call time
    tracer.wrap(fh.specfun, "hankel1_1", with_points("specfun.hankel1"))
    for attr in ("struve_k0", "struve_k1"):
        tracer.wrap(green, attr, named("specfun.struve"))
    for attr in ("F_m", "F_tilde_m", "dF_m_dr", "dF_tilde_m_dr"):
        tracer.wrap(green, attr, with_points("kernels.spectral"))
    for attr in ("helm_part", "helm_part_dr"):
        tracer.wrap(green, attr, named("kernels.helm"))
    tracer.wrap(green, "integrate_bessel_transform", named("quadrature.bessel_transform"),
                after=lambda res: {"evaluations": res.evaluations})
    tracer.wrap(green, "_exp_weighted_batch", named("quadrature.exp_weighted"),
                after=lambda res: {"columns": _size(res[0]), "evaluations": res[2]})
    tracer.wrap(quad, "_adaptive_batch", named("quadrature.adaptive"),
                after=lambda res: {"evaluations": res[2]})

    def batch_label(p, shift, radii, *a, **k):
        return f"green.batch.n{p.n}", {"radii": _size(radii), "dim": p.n}

    def derivative_label(p, *a, **k):
        return "green.derivative", {"radii": 1, "dim": p.n}

    for mod in (green, fh.diagnostics, scat):
        tracer.wrap(mod, "green_eval_batch", batch_label)
        tracer.wrap(mod, "green_radial_derivative", derivative_label)
    tracer.wrap(scat, "cell_weight", named("scattering.cell_weight"))
    tracer.wrap(scat, "_green_total_at",
                lambda problem, radii, *a, **k: ("scattering.green_total",
                                                 {"requested": _size(radii)}))
    tracer.wrap(np.linalg, "svd", named("scattering.svd"))
    tracer.wrap(np.linalg, "solve", named("scattering.linsolve"))


def _ancestor(spans, i, prefix):
    """Index of the nearest ancestor of span i whose name starts with prefix."""
    j = spans[i].parent
    while j >= 0 and not spans[j].name.startswith(prefix):
        j = spans[j].parent
    return j


def summarize(spans, max_subdiv):
    """Per-layer metrics from the spans of one traced workload unit."""
    selfs = self_times(spans)
    out = {name: 0.0 for name, _ in PER_LAYER}
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    count = defaultdict(float)
    for s, st in zip(spans, selfs):
        calls[s.name] += 1
        total[s.name] += s.duration
        self_total[s.name] += st
        for key, v in s.counts.items():
            count[(s.name, key)] += v

    for layer in ("specfun.bessel_j0", "specfun.struve", "quadrature.bessel_transform",
                  "quadrature.exp_weighted", "quadrature.adaptive",
                  "scattering.cell_weight"):
        out[f"{layer}.calls"] = calls[layer]
    for layer in ("specfun.bessel_j0", "specfun.hankel1", "specfun.struve",
                  "kernels.spectral", "kernels.helm", "quadrature.bessel_transform",
                  "quadrature.exp_weighted", "scattering.cell_weight"):
        out[f"{layer}.self_s"] = self_total[layer]
    for layer in ("specfun.bessel_j0", "specfun.hankel1", "kernels.spectral"):
        out[f"{layer}.points"] = count[(layer, "points")]
    for layer in ("quadrature.bessel_transform", "quadrature.exp_weighted"):
        out[f"{layer}.evaluations"] = count[(layer, "evaluations")]
    out["quadrature.exp_weighted.columns"] = count[("quadrature.exp_weighted", "columns")]

    # one 7+15-point panel pair per estimate: evaluations = 22 (2 panels - 1)
    panels = [(s.counts["evaluations"] // 22 + 1) // 2 for s in spans
              if s.name == "quadrature.adaptive" and "evaluations" in s.counts]
    out["quadrature.adaptive.max_panels"] = max(panels, default=0)
    out["quadrature.adaptive.panel_share"] = out["quadrature.adaptive.max_panels"] / max_subdiv

    # integrand evaluations per Green value, attributed to the nearest Green call
    evals, values = defaultdict(float), defaultdict(float)
    for i, s in enumerate(spans):
        if s.name.startswith("green."):
            values[s.counts["dim"]] += s.counts["radii"]
        elif s.name in ("quadrature.bessel_transform", "quadrature.exp_weighted"):
            j = _ancestor(spans, i, "green.")
            if j >= 0:
                evals[spans[j].counts["dim"]] += s.counts.get("evaluations", 0)
    for n in DIMS:
        out[f"quadrature.evals_per_value.n{n}"] = evals[n] / values[n] if values[n] else 0.0
        name = f"green.batch.n{n}"
        out[f"green.batch.calls.n{n}"] = calls[name]
        out[f"green.batch.radii.n{n}"] = count[(name, "radii")]
        out[f"green.batch.self_s.n{n}"] = self_total[name]
        for d in DIAGNOSTICS:
            out[f"diagnostics.{d}.s.n{n}"] = total[f"diagnostics.{d}.n{n}"]
    out["green.derivative.calls"] = calls["green.derivative"]
    out["green.derivative.self_s"] = self_total["green.derivative"]

    # Green radii requested by cell_weight before and after its deduplication,
    # and the far-field radii build_nystrom evaluates outside cell_weight
    evaluated = defaultdict(int)
    for c in spans:
        if c.name.startswith("green.batch") and c.parent >= 0:
            evaluated[c.parent] += c.counts["radii"]
    requested = unique = far = 0
    for i, s in enumerate(spans):
        if s.name != "scattering.green_total":
            continue
        parent = spans[s.parent].name if s.parent >= 0 else ""
        if parent == "scattering.cell_weight":
            requested += s.counts["requested"]
            unique += evaluated[i]
        elif parent == "scattering.build":
            far += evaluated[i]
    out["scattering.cell_weight.radii_requested"] = requested
    out["scattering.cell_weight.radii_unique"] = unique
    out["scattering.cell_weight.s"] = total["scattering.cell_weight"]
    out["scattering.dedup_ratio"] = unique / requested if requested else 0.0
    out["scattering.build.s"] = total["scattering.build"]
    out["scattering.build.near_keys"] = count[("scattering.build", "near_keys")]
    out["scattering.build.far_radii"] = far
    out["scattering.solve.s"] = total["scattering.solve"]
    out["scattering.svd.s"] = total["scattering.svd"]
    out["scattering.linsolve.s"] = total["scattering.linsolve"]
    out["scattering.matrix_bytes"] = count[("scattering.build", "matrix_bytes")]
    out["scattering.observe.self_s"] = self_total["scattering.observe_far"]
    out["trace.spans"] = len(spans)
    return out
