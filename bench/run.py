"""Closed-loop benchmark of frachelm, one workload per process.

    python3 bench/run.py --workload green-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced unit with
``--trace 1``.  The line before it records provenance.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# one BLAS thread: two were not faster for the N = 1728 SVD on a 2-core VM,
# and with one the run depends on the load of one core, not of two
BLAS_THREADS = 1
# BLAS reads its thread count when numpy loads it, so set it before the import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from calibrate import SpeedLog  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DIMS, WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("time_to_solution_s", "s"), ("query_ms", "ms"),
              ("peak_rss_mb", "MB"), ("success_share", "share"))
SETUP_REPEATS = 9
MIN_UNITS = 3       # the medians need a few units while --seconds allow


def fresh_frachelm():
    """Import frachelm from src/ with empty module-level caches."""
    for name in [m for m in sys.modules if m == "frachelm" or m.startswith("frachelm.")]:
        del sys.modules[name]
    fh = importlib.import_module("frachelm")
    importlib.import_module("frachelm.diagnostics")   # not imported by the package
    if Path(fh.__file__).resolve().parent != SRC / "frachelm":
        raise ImportError(f"frachelm imported from {fh.__file__}, not from {SRC}")
    return fh


def set_up(name, seed, tracer, speed=None):
    """Import, build the inputs and run the untimed warm-up; returns
    (workload, seconds).  First-call caches fill here, not in timed work.
    With a running SpeedLog the workload shares it and its probes are not
    counted in the seconds."""
    speed = speed or SpeedLog()
    t0 = speed.clock()
    fh = fresh_frachelm()
    if tracer.enabled:
        layers.install(tracer, fh)
    wl = WORKLOADS[name](fh, seed, tracer)
    wl.speed = speed
    wl.warm_up()
    return wl, speed.clock() - t0


def closed_loop(wl, seconds, min_units=MIN_UNITS):
    """Run units back to back until `seconds` of wall time have passed; once
    `min_units` units have run, stop already when one more unit of the mean
    length so far would overrun.  A run lasts at most `seconds` plus one unit."""
    results, t0 = [], time.perf_counter()
    while True:
        results.append(wl.run_unit(len(results)))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds or (len(results) >= min_units
                                  and elapsed * (1 + 1 / len(results)) > seconds):
            return results


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def success_share(results):
    return 1.0 - sum(r.failed for r in results) / sum(r.attempted for r in results)


def median(xs):
    """Median, or 0 when every operation failed before producing a sample."""
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def unit_query_ms(r, scaled=False):
    """Mean latency of one unit's queries; every unit asks the same mix."""
    qs = r.scaled_queries_ms if scaled else r.queries_ms
    return sum(qs) / len(qs)


def end_to_end(results, setups, scaled=True):
    """The end-to-end metrics; times at the reference host speed unless
    `scaled` is False.  `setups` holds (seconds, speed factor) pairs."""
    return {
        "setup_s": median(s * f if scaled else s for s, f in setups),
        "time_to_solution_s": median(r.scaled_solution_s if scaled else r.solution_s
                                     for r in results),
        "query_ms": median(unit_query_ms(r, scaled) for r in results if r.queries_ms),
        "peak_rss_mb": peak_rss_mb(),
        "success_share": success_share(results),
    }


def per_layer(wl, seconds, setups):
    """Untraced loop, then one traced replay of its first unit."""
    name, seed = wl.NAME, wl.seed
    untraced = closed_loop(wl, seconds, min_units=1)
    tracer = Tracer()
    tracer.enabled = True
    try:
        wl_traced, setup_traced = set_up(name, seed, tracer)
        rss_before = peak_rss_mb()
        traced = wl_traced.run_unit(0)
        max_subdiv = wl_traced.fh.QuadratureSpec().max_subdiv
    finally:
        tracer.restore()
    metrics = layers.summarize(tracer.spans, max_subdiv)
    results = untraced + [traced]
    for n in DIMS:
        values = sum(r.values[n] for r in untraced)
        spent = sum(r.value_s[n] for r in untraced)
        metrics[f"diagnostics.values_per_s.n{n}"] = values / spent if spent else 0.0
    near = [v for r in untraced for v in r.near_ms]
    metrics["scattering.observe_near.ms"] = median(near)
    metrics["fail_share"] = 1.0 - success_share(results)
    first = untraced[0]
    metrics.update({
        "trace.overhead.setup_s": setup_traced - median(s for s, _ in setups),
        "trace.overhead.time_to_solution_s": traced.solution_s - first.solution_s,
        "trace.overhead.query_ms": unit_query_ms(traced) - unit_query_ms(first),
        "trace.overhead.peak_rss_mb": peak_rss_mb() - rss_before,
        "trace.overhead.success_share": success_share([traced]) - success_share([first]),
    })
    return metrics, results


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def provenance(args, results, raw):
    digest = hashlib.sha256()
    for path in sorted((SRC / "frachelm").glob("*.py")):
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": len(results),
        "operations": sum(r.attempted for r in results),
        "git_sha": git_sha(), "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "nproc": NPROC, "loop": "closed, one caller",
        "probe": WORKLOADS[args.workload].PROBE, "raw": raw,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "frachelm" / "__init__.py").is_file():
        print(f"error: no frachelm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups, raw = [], None
    speed = SpeedLog()      # set-ups are import and interpreted work
    with speed.running():
        speed.sample()      # each set-up is shorter than the probe period
        for _ in range(SETUP_REPEATS):
            wl, seconds = set_up(args.workload, args.seed, Tracer(), speed)
            setups.append(seconds)
        speed.sample()
    # one speed factor for all set-ups, from the probes over all of them
    setups = [(s, speed.factor(0)) for s in setups]
    if args.trace:
        wl.speed = SpeedLog()       # no probes in the traced half: plain clock
        values, results = per_layer(wl, args.seconds / 2, setups)
        units = dict(layers.PER_LAYER)
    else:
        wl.speed = SpeedLog(wl.PROBE)
        with wl.speed.running():
            results = closed_loop(wl, args.seconds)
        values, units = end_to_end(results, setups), dict(END_TO_END)
        raw = end_to_end(results, setups, scaled=False)
        raw["probe_ms.setup"] = 1e3 * median(speed.samples)
        raw["probe_ms.loop"] = 1e3 * median(wl.speed.samples)
        raw["probes"] = len(speed.samples) + len(wl.speed.samples)

    failures = [f for r in results for f in r.failures]
    for f in failures[:20]:
        print("check failed:", f, file=sys.stderr)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print("provenance " + json.dumps(provenance(args, results, raw)))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
