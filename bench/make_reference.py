"""Regenerate the benchmark's stored data.

    python3 bench/make_reference.py reference   # data/reference.npz + data/reference.json
    python3 bench/make_reference.py expected    # data/expected.json

`reference` computes high-budget posterior means for every point that
ref_err_ratio uses: Darcy r1 and r2 at the darcy-qmc alphas, predator-prey
at the lv-mc-sweep alphas and noise scales.  Its stream differs from both
workload streams: REPLICATES independently scrambled Sobol sequences (the
workloads use plain Halton points and a Philox antithetic stream), mapped to
uniform [-1, 1] or, through the normal quantile, to standard-normal draws.
The stored mean is the average of the replicate means, and its error is
estimated from their spread.  The run fails unless that error is at most a
tenth of the expansion error at every point.  Means only.

`expected` runs one untraced pass of each workload and pins its
deterministic outputs (expanded moment summaries, refinement outcomes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from run import BLAS_THREADS, SRC

# The Darcy KLE has pairs of equal eigenvalues; which basis of each pair the
# eigensolver returns, and so the prior under uniform laws, depends on BLAS
# rounding.  Generate with the thread setting the benchmark runs with.
os.environ.update(BLAS_THREADS)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from scipy.special import ndtri  # noqa: E402
from scipy.stats import qmc  # noqa: E402

import workloads as wl  # noqa: E402
from postpert import evaluate_at, expand_posterior_moments  # noqa: E402
from spans import NoTrace  # noqa: E402

REPLICATES = 8
LOG2_POINTS = {"darcy": 13, "lv": 15}  # points per replicate, as powers of two
SEED_BASE = 1000  # replicate r uses Sobol scramble seed SEED_BASE + r
BATCH = 4096
RESOLUTION = 10.0


class _WeightedMean:
    """Self-normalized weighted mean with a running log-max."""

    def __init__(self, dim: int):
        self.logmax = -np.inf
        self.wsum = 0.0
        self.rsum = np.zeros(dim)

    def add(self, logw, r):
        newmax = max(self.logmax, float(logw.max()))
        scale = np.exp(self.logmax - newmax)
        w = np.exp(logw - newmax)
        self.wsum = self.wsum * scale + float(w.sum())
        self.rsum = self.rsum * scale + w @ r
        self.logmax = newmax

    def mean(self):
        return self.rsum / self.wsum


def _replicate_means(study, alpha, log2_points, seed, gaussian):
    """One scrambled-Sobol estimate of every (model, measurement) posterior mean."""
    expansion = study.expansion.with_alpha(alpha)
    base = study.models[0]
    sobol = qmc.Sobol(d=expansion.n_modes, scramble=True, seed=seed)
    acc = [[_WeightedMean(m.prediction_dim) for _ in study.meas] for m in study.models]
    for _ in range(2 ** log2_points // BATCH):
        u = sobol.random(BATCH)
        native = ndtri(np.clip(u, 1e-300, 1.0 - 1e-16)) if gaussian else 2.0 * u - 1.0
        states = base.solve_state_batch(expansion.realize_batch(native))
        q = base.observe_state_batch(states)
        for j, meas in enumerate(study.meas):
            resid = meas.data[None, :] - q
            logw = -0.5 * np.einsum("bk,kb->b", resid, meas.sigma.solve(resid.T))
            for i, model in enumerate(study.models):
                acc[i][j].add(logw, model.predict_state_batch(states))
    return [[a.mean() for a in row] for row in acc]


def _series(kind, study):
    """Stored-series name and field norm for each (model, measurement) pair."""
    if kind == "darcy":
        return [[(f"darcy-{m.prediction}", m.field_error_norm)] for m in study.models]
    norm = study.models[0].field_error_norm
    return [[(f"lv-sigma{s:g}", norm) for s in wl.LV_SIGMAS]]


def make_reference():
    arrays, points = {}, []
    studies = (
        ("darcy", wl.darcy_setup(NoTrace()), wl.QMC_ALPHAS),
        ("lv", wl.lv_setup(NoTrace()), wl.LV_ALPHAS),
    )
    for kind, study, alphas in studies:
        evals = [evaluate_at(m, study.expansion) for m in study.models]
        series = _series(kind, study)
        for alpha in alphas:
            start = time.perf_counter()
            reps = [
                _replicate_means(study, alpha, LOG2_POINTS[kind], SEED_BASE + r, kind == "lv")
                for r in range(REPLICATES)
            ]
            for i, ev in enumerate(evals):
                for j, meas in enumerate(study.meas):
                    name, norm = series[i][j]
                    means = np.array([rep[i][j] for rep in reps])
                    stored = means.mean(axis=0)
                    spread = np.sqrt(np.mean([norm(m - stored) ** 2 for m in means]))
                    stored_err = spread / np.sqrt(REPLICATES - 1)
                    expanded = expand_posterior_moments(ev, meas, study.expansion.laws, alpha).mean
                    expansion_err = norm(expanded - stored)
                    key = wl.reference_key(name, alpha)
                    arrays[key] = stored
                    points.append(
                        {
                            "key": key,
                            "stored_err": stored_err,
                            "expansion_err": expansion_err,
                            "resolution": expansion_err / stored_err,
                        }
                    )
                    print(f"{key}: expansion error {expansion_err:.3e}, "
                          f"stored error {stored_err:.3e}, resolution {expansion_err / stored_err:.1f}")
            print(f"  {kind} alpha={alpha!r}: {time.perf_counter() - start:.1f} s", flush=True)

    meta = {
        "command": "python3 bench/make_reference.py reference",
        "stream": "scrambled Sobol (scipy.stats.qmc.Sobol, scramble=True), "
        "uniform laws as 2u-1, standard-normal laws as ndtri(u)",
        "replicates": REPLICATES,
        "points_per_replicate": {k: 2 ** v for k, v in LOG2_POINTS.items()},
        "scramble_seeds": [SEED_BASE + r for r in range(REPLICATES)],
        "stored_err": "field norm of the replicate spread / sqrt(replicates - 1)",
        "required_resolution": RESOLUTION,
        "points": points,
    }
    wl.DATA.mkdir(exist_ok=True)
    np.savez_compressed(wl.DATA / "reference.npz", **arrays)
    with open(wl.DATA / "reference.json", "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    short = [p["key"] for p in points if not p["resolution"] >= RESOLUTION]
    if short:
        sys.exit(f"stored reference resolves the expansion error less than "
                 f"{RESOLUTION:g}-fold at {short}")


def make_expected():
    expected = {}
    for name, workload in wl.WORKLOADS.items():
        study = workload.setup(NoTrace())
        outcomes = list(workload.run(study, NoTrace()))
        errors = [o for _, o in outcomes if isinstance(o, Exception)]
        if errors:
            sys.exit(f"{name}: {errors[0].formatted}")
        expected[name] = wl.pinned_outputs(name, outcomes)
    wl.DATA.mkdir(exist_ok=True)
    with open(wl.DATA / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("reference", "expected"))
    args = parser.parse_args()
    make_reference() if args.what == "reference" else make_expected()


if __name__ == "__main__":
    main()
