"""Command line driver for the perturbation studies.

Subcommands
-----------
converge
    Sweep the prior scale, compare expanded posterior moments against a
    sampled or quadrature reference, and write one CSV row per
    (alpha, quantity) pair.
refine
    Run the iterative reference update per alpha; writes the update-norm
    history plus one final-error row per alpha, where the error is the
    distance of the refined parameter point to an estimated posterior mean.
generate-data
    Write the synthetic observations a converge study would use.
kle-dump
    Write the covariance eigenpairs backing the diffusion prior.

Settings come from an optional flat ``key=value`` file plus command line
flags; flags win.  For a fixed seed the emitted CSV bytes are identical
across repeated runs and across thread counts.  The wallclock column stays
zero unless --timing is given, because real timings would break that
guarantee.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .darcy import build_darcy, build_darcy_kle
from .errors import Diverged, IoFailure, PostpertError
from .estimators import SampleBudget, estimate_posterior_sweep
from .expansion import expand_posterior_moments
from .fem import build_unit_square_mesh
from .lv import OBSERVED_DATA, build_lotka_volterra
from .model_api import MeasurementSetup, evaluate_at, generate_data
from .refine import STOP_TOL, run_refinement

_MODELS = ("darcy", "lotka-volterra")
_QUANTITIES = ("mean", "correlation", "covariance")
_REFERENCES = ("qmc", "mc", "quadrature", "none")
_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


@dataclass
class StudyConfig:
    """Flat bag of study settings; file keys and flag names match fields.

    The type of each default picks how a raw value is coerced.  alphas are
    stored sorted descending without duplicates, which is also the row order
    of every emitted report.  An empty prediction or reference resolves to
    the model's default: the sampler its laws accept, qmc for darcy's
    uniform laws and mc for the predator-prey normal laws.
    """

    model: str = "darcy"
    quantity: str = "mean,correlation,covariance"
    prediction: str = ""
    alphas: tuple = tuple(2.0 ** -n for n in range(1, 7))
    centered: bool = True
    reference: str = ""
    samples: int = 10_000
    seed: int = 0
    mesh_level: int = 3
    kle_tol: float = 1e-3
    sigma_scale: float = 10.0
    iterations: int = 100
    step_scale: float = 1.0
    output: str = "study.csv"
    threads: int = 1
    timing: bool = False

    def quantities(self) -> tuple:
        if self.quantity.strip() == "all":
            return _QUANTITIES
        return tuple(tok.strip() for tok in self.quantity.split(",") if tok.strip())

    def validate(self) -> "StudyConfig":
        if self.model not in _MODELS:
            raise PostpertError(f"unknown model {self.model!r}; pick one of {_MODELS}")
        reference = self.reference or ("qmc" if self.model == "darcy" else "mc")
        if reference not in _REFERENCES:
            raise PostpertError(f"unknown reference {self.reference!r}")
        bad = [q for q in self.quantities() if q not in _QUANTITIES]
        if bad or not self.quantities():
            raise PostpertError(f"quantity must name any of {_QUANTITIES}, got {self.quantity!r}")
        if not self.alphas:
            raise PostpertError("alphas must name at least one scale")
        if any(not (0.0 < a < math.inf) for a in self.alphas):
            raise PostpertError("alphas must be positive and finite")
        if self.seed < 0:
            raise PostpertError("seed must be non-negative")
        if self.threads < 1:
            raise PostpertError("threads must be at least 1")
        if self.iterations < 1:
            raise PostpertError("iterations must be at least 1")
        if not (self.step_scale > 0.0):
            raise PostpertError("step_scale must be positive")
        if self.model == "darcy":
            if self.mesh_level < 1:
                raise PostpertError("mesh_level must be at least 1")
            if not (self.kle_tol > 0.0):
                raise PostpertError("kle_tol must be positive")
            prediction = self.prediction or "r2"
            if prediction not in ("r1", "r2"):
                raise PostpertError("darcy prediction must be r1 or r2")
        else:
            if not (self.sigma_scale > 0.0):
                raise PostpertError("sigma_scale must be positive")
            if not self.centered:
                raise PostpertError("the predator-prey prior has centered laws only")
            prediction = self.prediction or "identity"
            if prediction != "identity":
                raise PostpertError("lotka-volterra supports the identity prediction only")
        return replace(self, prediction=prediction, reference=reference)


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    word = str(value).strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise PostpertError(f"expected a boolean word, got {value!r}")


def _parse_alphas(value) -> tuple:
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    try:
        parsed = {float(a) for a in value}
    except ValueError as exc:
        raise PostpertError(f"bad alpha list: {exc}") from exc
    return tuple(sorted(parsed, reverse=True))


_PARSERS = {bool: _parse_bool, tuple: _parse_alphas}


def load_config_file(path) -> dict:
    """Read flat key=value lines; '#' starts a comment, blank lines skip."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                key, sep, raw = text.partition("=")
                if not sep:
                    raise PostpertError(f"{path}:{lineno}: expected key=value")
                values[key.strip().replace("-", "_")] = raw.strip()
    except OSError as exc:
        raise IoFailure(f"could not read config {path}: {exc}") from exc
    return values


def make_config(file_values: dict, overrides: dict) -> StudyConfig:
    """Merge file settings with explicit overrides (None means unset)."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    coercers = {
        f.name: _PARSERS.get(type(f.default), type(f.default)) for f in fields(StudyConfig)
    }
    unknown = sorted(set(merged) - set(coercers))
    if unknown:
        raise PostpertError(f"unknown config keys: {', '.join(unknown)}")
    try:
        coerced = {k: coercers[k](v) for k, v in merged.items()}
    except (ValueError, TypeError) as exc:
        raise PostpertError(f"bad config value: {exc}") from exc
    return StudyConfig(**coerced).validate()


# -- study plumbing ----------------------------------------------------------

def build_study_model(cfg: StudyConfig):
    if cfg.model == "darcy":
        return build_darcy(
            cfg.mesh_level,
            kle_tol=cfg.kle_tol,
            centered=cfg.centered,
            prediction=cfg.prediction,
        )
    return build_lotka_volterra(sigma_scale=cfg.sigma_scale)


def study_measurement(cfg: StudyConfig, model, expansion) -> MeasurementSetup:
    """Observations for a study: synthetic for darcy, the recorded counts for lv.

    Darcy data comes from one unscaled prior draw, so every alpha in a sweep
    explains the same measurements.
    """
    if cfg.model == "darcy":
        return generate_data(model, expansion.with_alpha(1.0), cfg.seed)
    return MeasurementSetup(np.asarray(OBSERVED_DATA, dtype=float), model.noise_covariance())


def reference_budget(cfg: StudyConfig):
    if cfg.reference == "none":
        return None
    kind = {"qmc": "halton", "mc": "antithetic-mc", "quadrature": "tensor-grid"}[
        cfg.reference
    ]
    return SampleBudget(kind, cfg.samples, seed=cfg.seed)


def _moment_error(model, quantity: str, got, ref) -> float:
    """Error of one quantity; a bare array is a mean (a mean-only sweep's)."""
    got, ref = (
        m if isinstance(m, np.ndarray) else getattr(m, quantity) for m in (got, ref)
    )
    if quantity == "mean":
        return model.field_error_norm(got - ref)
    return model.tensor_error_norm(got - ref)


def _map_ordered(fn, items, threads: int) -> list:
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


@dataclass(frozen=True)
class StudyRecord:
    """One report row of a convergence study."""

    alpha: float
    quantity: str
    norm_name: str
    error_expansion: float
    error_reference_est: float
    reference_kind: str
    wallclock_seconds: float
    status: str


@dataclass(frozen=True)
class RefinementRecord:
    """One final-error row of a refinement study."""

    alpha: float
    iterations_run: int
    final_update_norm: float
    final_error: float
    norm_name: str
    reference_kind: str
    wallclock_seconds: float
    status: str


def run_convergence_study(cfg: StudyConfig) -> list:
    """Expansion-versus-reference errors over the alpha sweep.

    The model is linearized once; the expansion takes only that derivative
    bundle, so every alpha reuses its solves.  Reference estimation is the
    only per-alpha model work and may run on a thread pool.  An alpha is
    expanded only once its reference estimate exists.  A failing estimate
    marks its rows instead of aborting the sweep.
    """
    cfg = cfg.validate()
    model, expansion = build_study_model(cfg)
    meas = study_measurement(cfg, model, expansion)
    budget = reference_budget(cfg)
    quantities = cfg.quantities()
    # a mean-only study reads no sampled second moment, so none is summed
    second_moment = set(quantities) != {"mean"}

    evals = evaluate_at(model, expansion)

    def reference_rows(alpha: float) -> list:
        start = time.perf_counter()
        ref = half = None
        status = "ok" if budget is not None else "no-reference"
        try:
            if budget is not None:
                grid, half_grid = estimate_posterior_sweep(
                    [model], expansion.with_alpha(alpha), [meas], budget,
                    second_moment=second_moment, half_split=True,
                )
                ref, half = grid[0][0], half_grid[0][0]
        except PostpertError as exc:
            status = f"failed:{type(exc).__name__}"
        elapsed = time.perf_counter() - start
        expanded = None
        if ref is not None:
            expanded = expand_posterior_moments(evals, meas, expansion.laws, alpha)
        rows = []
        for quantity in quantities:
            err = noise = math.nan
            if ref is not None:
                err = _moment_error(model, quantity, expanded, ref)
                if half is not None:
                    noise = _moment_error(model, quantity, ref, half)
            rows.append((quantity, err, noise, status, elapsed))
        return rows

    results = _map_ordered(reference_rows, cfg.alphas, cfg.threads)
    records = []
    for alpha, rows in zip(cfg.alphas, results):
        for quantity, err, noise, status, elapsed in rows:
            records.append(
                StudyRecord(
                    alpha=alpha,
                    quantity=quantity,
                    norm_name=model.field_norm_name
                    if quantity == "mean"
                    else model.tensor_norm_name,
                    error_expansion=err,
                    error_reference_est=noise,
                    reference_kind=cfg.reference,
                    wallclock_seconds=elapsed if cfg.timing else 0.0,
                    status=status,
                )
            )
    _write_records(cfg.output, StudyRecord, records)
    return records


def run_refinement_study(cfg: StudyConfig):
    """Per-alpha refinement histories plus final parameter errors.

    The prediction setting is ignored: the refined point lives in parameter
    space, so the reference is always the estimated posterior mean of the
    parameter itself.  Histories go to cfg.output, final rows to a sibling
    file with '-final' appended to the stem.  Divergent runs keep their
    partial history and are flagged, matching the per-row isolation rule;
    runs whose last update norm is still above STOP_TOL are marked
    max-iterations.
    """
    cfg = cfg.validate()
    cfg = replace(cfg, prediction="r1" if cfg.model == "darcy" else "identity")
    model, expansion = build_study_model(cfg)
    meas = study_measurement(cfg, model, expansion)
    budget = reference_budget(cfg)

    def one(alpha: float):
        start = time.perf_counter()
        scaled = expansion.with_alpha(alpha)
        refined = None
        status = "ok"
        history: list = []
        try:
            refined, state = run_refinement(
                model, scaled, meas, cfg.iterations, cfg.step_scale
            )
            history = list(state.update_history)
            if history[-1] > STOP_TOL:
                status = "max-iterations"
        except Diverged as exc:
            status = "diverged"
            if exc.state is not None:
                history = list(exc.state.update_history)
        except PostpertError as exc:
            status = f"failed:{type(exc).__name__}"
        error = math.nan
        if refined is not None and budget is not None:
            try:
                ref = estimate_posterior_sweep(
                    [model], scaled, [meas], budget, second_moment=False
                )[0][0]
                error = model.field_error_norm(refined - ref)
            except PostpertError as exc:
                status = f"failed:{type(exc).__name__}"
        elapsed = time.perf_counter() - start
        record = RefinementRecord(
            alpha=alpha,
            iterations_run=len(history),
            final_update_norm=history[-1] if history else math.nan,
            final_error=error,
            norm_name=model.field_norm_name,
            reference_kind=cfg.reference,
            wallclock_seconds=elapsed if cfg.timing else 0.0,
            status=status,
        )
        return history, record

    results = _map_ordered(one, cfg.alphas, cfg.threads)
    histories = {alpha: rows for alpha, (rows, _) in zip(cfg.alphas, results)}
    records = [record for _, record in results]
    _write_rows(
        cfg.output,
        ("alpha", "iteration", "update_norm"),
        [
            (_fmt(alpha), it, _fmt(norm))
            for alpha, norms in histories.items()
            for it, norm in enumerate(norms)
        ],
        "refinement history",
    )
    _write_records(_sibling_path(cfg.output, "-final"), RefinementRecord, records)
    return histories, records


def run_generate_data(cfg: StudyConfig) -> MeasurementSetup:
    cfg = cfg.validate()
    model, expansion = build_study_model(cfg)
    meas = study_measurement(cfg, model, expansion)
    _write_rows(
        cfg.output,
        ("index", "value"),
        [(i, _fmt(v)) for i, v in enumerate(meas.data)],
        "report",
    )
    return meas


def run_kle_dump(cfg: StudyConfig):
    cfg = cfg.validate()
    mesh = build_unit_square_mesh(cfg.mesh_level)
    basis = build_darcy_kle(mesh, cfg.kle_tol)
    _write_rows(
        cfg.output,
        ["mode", "eigenvalue"] + [f"node_{i}" for i in range(basis.eigenfields.shape[1])],
        [
            [k, _fmt(basis.eigenvalues[k])] + [_fmt(v) for v in basis.eigenfields[k]]
            for k in range(len(basis.eigenvalues))
        ],
        "KLE basis",
    )
    return basis


# -- reporting ---------------------------------------------------------------

def _fmt(value: float) -> str:
    # 17 fractional digits make float round-trips exact.
    return format(float(value), ".17e")


def _sibling_path(path: str, tag: str) -> str:
    root, ext = os.path.splitext(str(path))
    return f"{root}{tag}{ext}"


def _write_rows(path, header, rows, what: str) -> None:
    """The one CSV writer: CRLF line ends, floats preformatted by _fmt."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoFailure(f"could not write {what} to {path}: {exc}") from exc


def _write_records(path, record_type, records) -> None:
    """One row per record, columns in field order, float fields through _fmt."""
    names = [f.name for f in fields(record_type)]
    hints = get_type_hints(record_type)
    rows = [
        [_fmt(getattr(r, n)) if hints[n] is float else getattr(r, n) for n in names]
        for r in records
    ]
    _write_rows(path, names, rows, "report")


# -- argument parsing ---------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value settings file")
    parser.add_argument("--model", choices=_MODELS)
    parser.add_argument("--quantity", help="comma list from {mean,correlation,covariance} or 'all'")
    parser.add_argument("--prediction", help="darcy: r1|r2; lotka-volterra: identity")
    parser.add_argument("--alphas", help="comma separated scales, e.g. 0.25,0.125")
    parser.add_argument("--centered", action="store_const", const=True,
                        help="zero-mean coefficient laws (default)")
    parser.add_argument("--uncentered", dest="centered", action="store_const", const=False)
    parser.add_argument("--reference", choices=_REFERENCES,
                        help="default: qmc for darcy, mc for lotka-volterra")
    parser.add_argument("--samples", type=int,
                        help="points (qmc), pairs (mc) or nodes per dimension (quadrature)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mesh-level", type=int)
    parser.add_argument("--kle-tol", type=float)
    parser.add_argument("--sigma-scale", type=float)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--step-scale", type=float)
    parser.add_argument("--output")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--timing", action="store_const", const=True,
                        help="record wallclock times (breaks byte determinism)")


_COMMANDS = {
    "converge": run_convergence_study,
    "refine": run_refinement_study,
    "generate-data": run_generate_data,
    "kle-dump": run_kle_dump,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="postpert",
        description="Perturbation expansions of Bayesian posteriors, with "
        "sampled references and CSV reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common_flags(sub.add_parser(name))
    args = parser.parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config")
    }
    try:
        file_values = load_config_file(args.config) if args.config else {}
        cfg = make_config(file_values, overrides)
        _COMMANDS[args.command](cfg)
    except PostpertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(cfg.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
