"""The benchmark's three workloads: set-up, one timed pass, and output checks.

Every workload drives postpert's public library functions on fixed inputs:
the Darcy study observations, the predator-prey observed data, fixed alphas
and fixed sample streams.  A pass yields one outcome per alpha (an
operation); `PassCheck` compares the outcomes with the pinned expectations
in data/expected.json and with the stored high-budget references in
data/reference.npz, outside the timed region.

Each workload runs through a tracer (see spans.py).  Untraced runs pass a
`NoTrace`, whose proxies are the library objects themselves.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from postpert import (
    AffineExpansion,
    CoefficientLaw,
    Diverged,
    MeasurementSetup,
    PosteriorMoments,
    RefineState,
    SampleBudget,
    brownian_bridge_modes,
    estimate_posterior_sweep,
    evaluate_at,
    expand_posterior_moments,
    run_refinement,
)
from postpert.darcy import (
    STUDY_OBSERVATIONS,
    DarcyModel,
    DarcyProblem,
    build_darcy_kle,
    darcy_noise_covariance,
)
from postpert.fem import build_unit_square_mesh
from postpert.lv import OBSERVED_DATA, LotkaVolterraModel, lv_noise_covariance

DATA = Path(__file__).resolve().parent / "data"

MESH_LEVEL = 5  # 1089 nodes, 24 KLE modes at KLE_TOL
KLE_TOL = 1e-3
QMC_ALPHAS = (0.25, 0.125, 0.0625)
QMC_POINTS = 3000
LV_MODES = 100
LV_STEPS = 1000
LV_SIGMAS = (5.0, 10.0, 20.0)
LV_ALPHAS = (0.25, 0.125, 0.0625, 0.03125)
LV_PAIRS = 7000
# The antithetic stream is fixed like the Halton one: the error of one
# fixed-budget estimate varies between streams by an interquartile range of
# about half its median, which would swamp any bound on ref_err_ratio.
LV_STREAM_KEY = 0
REFINE_ALPHAS = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
REFINE_DIVERGING = (1.0, 0.5)

# A sampled reference fails when it sits this many expansion errors or more
# from the stored reference.  Sampling noise at the workload budgets reaches
# about one expansion error at the smallest alphas (1.08 for lv-mc-sweep at
# alpha 2^-5, noise scale 20); a sampler that ignored the likelihood would
# read 32 there and 41 for darcy-qmc r1 at alpha 2^-4.
RATIO_LIMIT = 3.0
RTOL = 1e-9  # deterministic outputs
HISTORY_RTOL = 1e-8
HISTORY_ATOL = 1e-10  # relative to the first update norm; tails sit near 1e-13

MODEL_METHODS = (
    "evaluate_at",
    "linearize",
    "solve_state_batch",
    "observe_state_batch",
    "predict_state_batch",
)


def reference_key(series: str, alpha: float) -> str:
    """Name of a stored reference mean in data/reference.npz."""
    return f"{series}-{alpha!r}"


def moment_summary(moments) -> list[float]:
    """Norms and traces that pin a PosteriorMoments bundle."""
    return [
        float(np.linalg.norm(moments.mean)),
        float(moments.mean.sum()),
        float(np.linalg.norm(moments.correlation)),
        float(np.trace(moments.correlation)),
        float(np.linalg.norm(moments.covariance)),
        float(np.trace(moments.covariance)),
    ]


def ref_err_ratio(norm, reference_mean, expanded_mean, stored_mean) -> float:
    """Distance of a reference mean to the stored one, per unit expansion error."""
    return norm(reference_mean - stored_mean) / norm(expanded_mean - stored_mean)


def _attempt(fn, *args):
    """Run one operation; an exception becomes its outcome instead of ending the pass."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 -- counted and reported by PassCheck
        exc.formatted = traceback.format_exc()
        return exc


def _trace_models(tracer, models, layer):
    return [
        tracer.proxy(m, layer, MODEL_METHODS, per_sample=("solve_state_batch",))
        for m in models
    ]


def _scaled(tracer, expansion, alpha):
    return tracer.proxy(
        expansion.with_alpha(alpha), "prior", ("realize_batch",), per_sample=("realize_batch",)
    )


# -- set-up ------------------------------------------------------------------


@dataclass
class Study:
    models: list
    expansion: AffineExpansion
    meas: list


def darcy_setup(tracer) -> Study:
    """Level-5 mesh, KLE prior with centered uniform laws, r1 and r2 models.

    The same steps as postpert.darcy.build_darcy, called one by one so that
    the mesh and the KLE are timed as their own layers.
    """
    mesh = tracer.call("fem.mesh", build_unit_square_mesh, MESH_LEVEL)
    problem = tracer.call("darcy.problem", DarcyProblem, mesh)
    basis = tracer.call("prior.build_kle", build_darcy_kle, mesh, KLE_TOL)
    laws = tuple(CoefficientLaw.uniform_symmetric(np.sqrt(v)) for v in basis.eigenvalues)
    expansion = AffineExpansion(x0=np.ones(mesh.n_nodes), modes=basis.eigenfields, laws=laws)
    models = [DarcyModel(problem, "r1"), DarcyModel(problem, "r2")]
    meas = [MeasurementSetup(data=STUDY_OBSERVATIONS, sigma=darcy_noise_covariance())]
    return Study(models, expansion, meas)


def lv_setup(tracer) -> Study:
    """Predator-prey model, Brownian-bridge prior, three noise scales.

    The same steps as postpert.lv.build_lotka_volterra.
    """
    model = LotkaVolterraModel(n_steps=LV_STEPS)
    modes = tracer.call("prior.bridge_modes", brownian_bridge_modes, LV_MODES, model.tgrid)
    laws = tuple(CoefficientLaw.standard_normal() for _ in range(LV_MODES))
    expansion = AffineExpansion(x0=np.zeros(LV_STEPS + 1), modes=modes, laws=laws)
    meas = [MeasurementSetup(data=OBSERVED_DATA, sigma=lv_noise_covariance(s)) for s in LV_SIGMAS]
    return Study([model], expansion, meas)


# -- passes ------------------------------------------------------------------
# A pass is a generator of (alpha, outcome) pairs, so the caller can check and
# drop each outcome outside the timed region before the next one is computed.


def darcy_qmc_pass(study: Study, tracer):
    """Criterion-3 shape: r1 and r2 from one Halton sweep per alpha, half split."""
    models = _trace_models(tracer, study.models, "darcy")
    laws = study.expansion.laws
    budget = SampleBudget("halton", QMC_POINTS)

    def bundle():
        return [tracer.call("model_api.evaluate_at", evaluate_at, m, study.expansion) for m in models]

    def op(alpha):
        grid, half = tracer.call(
            "estimators.sweep", estimate_posterior_sweep,
            models, _scaled(tracer, study.expansion, alpha), study.meas, budget, half_split=True,
        )
        expanded = [
            tracer.call("expansion.expand", expand_posterior_moments, ev, study.meas[0], laws, alpha)
            for ev in evals
        ]
        return {"expanded": expanded, "sampled": [row[0] for row in grid], "half": [row[0] for row in half]}

    evals = _attempt(bundle)
    for alpha in QMC_ALPHAS:
        yield alpha, evals if isinstance(evals, Exception) else _attempt(op, alpha)


def lv_mc_pass(study: Study, tracer):
    """Criterion-4 shape: means only, three noise scales share each solve."""
    (model,) = _trace_models(tracer, study.models, "lv")
    laws = study.expansion.laws
    budget = SampleBudget("antithetic-mc", LV_PAIRS, seed=LV_STREAM_KEY)

    def op(alpha):
        (means,) = tracer.call(
            "estimators.sweep", estimate_posterior_sweep,
            [model], _scaled(tracer, study.expansion, alpha), study.meas, budget, second_moment=False,
        )
        expanded = [
            tracer.call("expansion.expand", expand_posterior_moments, evals, meas, laws, alpha)
            for meas in study.meas
        ]
        return {"expanded": expanded, "sampled": means}

    evals = _attempt(tracer.call, "model_api.evaluate_at", evaluate_at, model, study.expansion)
    for alpha in LV_ALPHAS:
        yield alpha, evals if isinstance(evals, Exception) else _attempt(op, alpha)


def darcy_refine_pass(study: Study, tracer):
    """Criterion-5 shape: r1 refinement per alpha, r2 expansion alongside."""
    r1, r2 = _trace_models(tracer, study.models, "darcy")
    meas = study.meas[0]
    laws = study.expansion.laws

    def op(alpha):
        try:
            refinement = tracer.call(
                "refine.run", run_refinement, r1, study.expansion.with_alpha(alpha), meas
            )
        except Diverged as exc:
            refinement = exc
        expanded = tracer.call("expansion.expand", expand_posterior_moments, evals, meas, laws, alpha)
        return {"refinement": refinement, "expanded": expanded}

    evals = _attempt(tracer.call, "model_api.evaluate_at", evaluate_at, r2, study.expansion)
    for alpha in REFINE_ALPHAS:
        yield alpha, evals if isinstance(evals, Exception) else _attempt(op, alpha)


# -- expectations and checks -------------------------------------------------


def _close(got, want, rtol=RTOL, atol=0.0) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * np.abs(want) + atol))


def _history(outcome) -> list[float]:
    refinement = outcome["refinement"]
    state = refinement.state if isinstance(refinement, Diverged) else refinement[1]
    return list(state.update_history)


def refine_iterations(outcome) -> int:
    """Completed refinement steps in one outcome (0 when it has no refinement)."""
    return len(_history(outcome)) if isinstance(outcome, dict) and "refinement" in outcome else 0


def pinned_outputs(workload: str, outcomes) -> dict:
    """Deterministic outputs of (alpha, outcome) pairs, as data/expected.json stores them."""
    return {repr(alpha): _pinned(workload, outcome) for alpha, outcome in outcomes}


def _pinned(workload: str, outcome: dict) -> dict:
    expanded = outcome["expanded"]
    entry = {"expanded": [moment_summary(m) for m in (expanded if isinstance(expanded, list) else [expanded])]}
    if workload == "darcy-refine":
        refinement = outcome["refinement"]
        entry["diverged"] = isinstance(refinement, Diverged)
        entry["history"] = _history(outcome)
        if not entry["diverged"]:
            entry["refined_norm"] = float(np.linalg.norm(refinement[0]))
    return entry


def _arrays(obj):
    """Every array in a pass outcome, in a fixed order, for the output digest."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _arrays(obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, PosteriorMoments):
        yield from (obj.mean, obj.correlation, obj.covariance)
    elif isinstance(obj, Diverged):
        yield from _arrays(obj.state)
    elif isinstance(obj, RefineState):
        yield from (obj.y, obj.update_history)
    else:
        yield obj


def _compare(workload: str, alpha: float, got: dict, want: dict) -> list[str]:
    misses = []
    for i, (g, w) in enumerate(zip(got["expanded"], want["expanded"])):
        if not _close(g, w):
            misses.append(f"alpha={alpha!r}: expanded moments {i} {g} != {w}")
    if len(got["expanded"]) != len(want["expanded"]):
        misses.append(f"alpha={alpha!r}: {len(got['expanded'])} expansions, expected {len(want['expanded'])}")
    if workload == "darcy-refine":
        if got["diverged"] != (alpha in REFINE_DIVERGING):
            misses.append(f"alpha={alpha!r}: diverged={got['diverged']}, expected {not got['diverged']}")
        elif len(got["history"]) != len(want["history"]):
            misses.append(f"alpha={alpha!r}: {len(got['history'])} iterations, expected {len(want['history'])}")
        elif not _close(got["history"], want["history"], HISTORY_RTOL, HISTORY_ATOL * want["history"][0]):
            misses.append(f"alpha={alpha!r}: update norms {got['history']} != {want['history']}")
        elif "refined_norm" in want and not _close(got["refined_norm"], want["refined_norm"]):
            misses.append(f"alpha={alpha!r}: refined point norm {got['refined_norm']} != {want['refined_norm']}")
    return misses


def output_digest(outcomes) -> str:
    """sha256 over every output array of (alpha, outcome) pairs, failures skipped."""
    sha = hashlib.sha256()
    for _, outcome in outcomes:
        _digest(sha, outcome)
    return sha.hexdigest()


def _digest(sha, outcome) -> None:
    if not isinstance(outcome, Exception):
        for array in _arrays(outcome):
            sha.update(np.ascontiguousarray(array, dtype=float).tobytes())


class PassCheck:
    """Checks the outcomes of one pass as they arrive.

    An outcome fails its operation when it is an unexpected exception, when a
    pinned output misses data/expected.json, or when a sampled reference sits
    RATIO_LIMIT times the expansion error or more from the stored reference.
    """

    def __init__(self, workload: str, study: Study, expected: dict, reference: dict, digest: bool = True):
        self.workload = workload
        self.study = study
        self.expected = expected
        self.reference = reference
        self.failed = 0
        self.misses: list[str] = []
        self.ratios: list[float] = []
        self._sha = hashlib.sha256() if digest else None
        self._evals_r1 = None

    @property
    def ratio(self) -> float:
        """Largest ref_err_ratio over the points with a stored reference."""
        return max(self.ratios) if self.ratios else float("nan")

    @property
    def digest(self) -> str | None:
        return self._sha.hexdigest() if self._sha else None

    def add(self, alpha: float, outcome) -> None:
        if self._sha:
            _digest(self._sha, outcome)
        if isinstance(outcome, Exception):
            self.failed += 1
            self.misses.append(f"alpha={alpha!r}: {outcome.formatted}")
            return
        got = _pinned(self.workload, outcome)
        miss = _compare(self.workload, alpha, got, self.expected[repr(alpha)])
        if not got.get("diverged"):
            for label, norm, ref_mean, exp_mean, series in self._ratio_points(alpha, outcome):
                key = reference_key(series, alpha)
                if key not in self.reference:
                    continue
                ratio = ref_err_ratio(norm, ref_mean, exp_mean, self.reference[key])
                self.ratios.append(ratio)
                if self.workload != "darcy-refine" and not ratio < RATIO_LIMIT:
                    miss.append(f"alpha={alpha!r} {label}: ref_err_ratio {ratio:.4g} >= {RATIO_LIMIT}")
        for half in outcome.get("half", []):
            if not np.all(np.isfinite(half.mean)):
                miss.append(f"alpha={alpha!r}: half-split mean is not finite")
        if miss:
            self.failed += 1
            self.misses.extend(miss)

    def _ratio_points(self, alpha: float, outcome: dict):
        """(label, norm, reference mean, expanded mean, stored series) per point."""
        study = self.study
        if self.workload == "darcy-qmc":
            return [
                (m.prediction, m.field_error_norm, s.mean, e.mean, f"darcy-{m.prediction}")
                for m, s, e in zip(study.models, outcome["sampled"], outcome["expanded"])
            ]
        if self.workload == "lv-mc-sweep":
            norm = study.models[0].field_error_norm
            return [
                (f"sigma={sigma:g}", norm, s, e.mean, f"lv-sigma{sigma:g}")
                for sigma, s, e in zip(LV_SIGMAS, outcome["sampled"], outcome["expanded"])
            ]
        # darcy-refine: the refined reference point estimates the r1 posterior mean
        r1 = study.models[0]
        if self._evals_r1 is None:
            self._evals_r1 = evaluate_at(r1, study.expansion)
        expanded = expand_posterior_moments(self._evals_r1, study.meas[0], study.expansion.laws, alpha)
        return [("r1-refined", r1.field_error_norm, outcome["refinement"][0], expanded.mean, "darcy-r1")]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload exists: see README.md and BENCHMARK.json
        Workload("darcy-qmc", darcy_setup, darcy_qmc_pass),
        Workload("lv-mc-sweep", lv_setup, lv_mc_pass),
        Workload("darcy-refine", darcy_setup, darcy_refine_pass),
    )
}


def load_expected() -> dict:
    with open(DATA / "expected.json") as fh:
        return json.load(fh)


def load_reference() -> dict:
    with np.load(DATA / "reference.npz") as npz:
        return {key: npz[key] for key in npz.files}
