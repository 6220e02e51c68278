"""Benchmark of postpert's library on three fixed workloads.

    python3 bench/run.py --workload darcy-refine --seed 1 --seconds 45 --trace 0

Builds the study (set-up, repeated and timed), then runs timed passes of the
workload until the next one would overrun --seconds.  Each operation's
outputs are checked, untimed, as soon as they are produced.  Prints one
JSON object as the last line of stdout: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  A traced run alternates untraced and
traced passes, so the tracing overhead is measured in the same process.
--workload all runs the three workloads one after another, each in its
own process, and prints their results.

The workloads' inputs are fixed (see workloads.py); --seed is recorded and
changes nothing.  Exits non-zero without a result when the package sources
are missing or a workload cannot start.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: the study runs single-threaded, as the CLI does with
# --threads 1.  With OpenBLAS's default of one thread per core, darcy-refine
# passes took 1.6 times as long on a 2-core box and varied twice as much.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("darcy-qmc", "lv-mc-sweep", "darcy-refine")
MIN_SETUPS = 3
SETUP_SECONDS = 1.0  # cheap set-ups repeat until they add up to this
MAX_SETUPS = 200


def _import_package():
    if not (SRC / "postpert" / "__init__.py").is_file():
        sys.exit(f"error: postpert sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def _blas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(np),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def layer_metrics(setup_tr, pass_tr, n_setups, n_traced, solves, iterations, overhead) -> dict:
    """Per-layer metrics from the spans of the set-ups and the traced passes."""
    samples = pass_tr.items("prior.realize_batch")
    return {
        "darcy.solve_us_per_sample": _metric(
            1e6 * _per(pass_tr.total("darcy.solve_state_batch"), pass_tr.items("darcy.solve_state_batch")), "us"
        ),
        "darcy.linearize_ms": _metric(
            1e3 * _per(pass_tr.total("darcy.linearize"), pass_tr.count("darcy.linearize")), "ms"
        ),
        "darcy.linearize_calls": _metric(pass_tr.count("darcy.linearize") / n_traced, "count"),
        "lv.solve_us_per_sample": _metric(
            1e6 * _per(pass_tr.total("lv.solve_state_batch"), pass_tr.items("lv.solve_state_batch")), "us"
        ),
        "estimators.self_us_per_sample": _metric(
            1e6 * _per(pass_tr.self_time("estimators.sweep"), samples), "us"
        ),
        "estimators.samples": _metric(samples / n_traced, "count"),
        "expansion.expand_ms": _metric(
            1e3 * _per(pass_tr.total("expansion.expand"), pass_tr.count("expansion.expand")), "ms"
        ),
        "expansion.calls": _metric(pass_tr.count("expansion.expand") / n_traced, "count"),
        "prior.build_kle_s": _metric(setup_tr.total("prior.build_kle") / n_setups, "s"),
        "fem.mesh_s": _metric(setup_tr.total("fem.mesh") / n_setups, "s"),
        "prior.realize_us_per_sample": _metric(
            1e6 * _per(pass_tr.total("prior.realize_batch"), samples), "us"
        ),
        "model_api.evaluate_at_s": _metric(pass_tr.total("model_api.evaluate_at") / n_traced, "s"),
        "model_api.solve_count": _metric(solves / n_traced, "count"),
        "refine.iterations": _metric(iterations / n_traced, "count"),
        "refine.self_ms": _metric(1e3 * pass_tr.self_time("refine.run") / n_traced, "ms"),
        "trace.overhead_s": _metric(overhead, "s"),
    }


def run_workload(name: str, seconds: float, trace: bool) -> dict:
    import workloads as wl
    from spans import NoTrace, Tracer

    workload = wl.WORKLOADS[name]
    expected = wl.load_expected()[name]
    reference = wl.load_reference()

    setup_tr = Tracer() if trace else NoTrace()
    setup_times = []
    while len(setup_times) < MIN_SETUPS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < MAX_SETUPS
    ):
        start = time.perf_counter()
        study = workload.setup(setup_tr)
        setup_times.append(time.perf_counter() - start)

    pass_tr = Tracer() if trace else None
    times = {False: [], True: []}
    ratios = []
    attempted = failed = solves = iterations = 0
    measured = 0.0
    while True:
        traced = trace and len(times[True]) < len(times[False])
        gc.collect()  # the previous pass's garbage, collected outside the timing
        # hashing every Z x Z output costs about a second per darcy-qmc pass,
        # so only the first pass is hashed
        first = not (times[False] or times[True])
        check = wl.PassCheck(name, study, expected, reference, digest=first)
        solves_before = sum(m.solve_count for m in study.models)
        outcomes = workload.run(study, pass_tr if traced else NoTrace())
        elapsed = 0.0
        while True:
            start = time.perf_counter()
            item = next(outcomes, None)
            elapsed += time.perf_counter() - start
            if item is None:
                break
            check.add(*item)
            if traced:
                iterations += wl.refine_iterations(item[1])
            attempted += 1
            del item  # not kept alive while the next outcome is computed
        if first:
            # set-ups plus one whole pass; later passes repeat it for timing only
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            digest = check.digest
        if traced:
            solves += sum(m.solve_count for m in study.models) - solves_before
        times[traced].append(elapsed)
        measured += elapsed
        failed += check.failed
        ratios.append(check.ratio)
        print(f"pass {len(times[False]) + len(times[True])}: traced={int(traced)} "
              f"study_s={elapsed:.4f} failed={check.failed} ref_err_ratio={check.ratio:.6g}")
        for miss in check.misses:
            print(f"  miss: {miss}", file=sys.stderr)
        if measured + elapsed > seconds and (not trace or times[True]):
            break

    print(f"outputs_sha256: {digest}")
    if trace:
        overhead = statistics.median(times[True]) - statistics.median(times[False])
        metrics = layer_metrics(
            setup_tr, pass_tr, len(setup_times), len(times[True]), solves, iterations, overhead
        )
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "study_s": _metric(statistics.median(times[False]), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "ref_err_ratio": _metric(statistics.median(ratios), "ratio"),
        }
    return {
        "correct": failed == 0 and all(math.isfinite(r) for r in ratios),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> None:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:13s} {metric:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.update(BLAS_THREADS)  # before numpy loads its BLAS
    _import_package()
    if args.workload == "all":
        run_all(args)
        return
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} (inputs are fixed; the seed is unused)")
    print(json.dumps(run_workload(args.workload, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
