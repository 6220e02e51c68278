"""Reference estimators for posterior moments.

All three estimators are self-normalizing: with likelihood weights
nu(x) = exp(-0.5 ||delta - Q(x)||^2_Sigma) and prior points x_k,

    mean ~ sum_k W_k nu_k R_k / sum_k W_k nu_k,

where W_k are sampling weights.  Weights are handled in log space with a
running maximum so large misfits cannot underflow the ratio.

Every budget kind is one deterministic sample stream of (draws, log W)
blocks: plain Halton points for uniform coefficient laws and antithetic
normal draws from a counter-based generator for Gaussian laws, both with
W = 1, and the nodes of a tensorized Gauss rule with their quadrature
weights.  One loop accumulates every stream in its fixed block order, so
results are bitwise reproducible regardless of how callers schedule work.
The first half of a (Q)MC budget is a prefix of that order, so the half
estimate used as a noise gauge is the accumulators' state at that point.

A sweep holds one block's working set at a time: the block's draws,
realized fields, model states, observations, log-weights and predictions
are dropped before the stream draws the next block, so only the weighted
sums outlive it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import CostGuard, DegenerateWeights, DimensionMismatch
from .expansion import PosteriorMoments
from .model_api import ForwardModel, MeasurementSetup
from .prior import AffineExpansion

_BATCH = 4096
_BUDGET_KINDS = ("halton", "antithetic-mc", "tensor-grid")
_MAX_GRID_POINTS = 4_000_000


@dataclass(frozen=True)
class SampleBudget:
    """How many samples to spend and how to generate them.

    count means: Halton points for "halton", antithetic pairs for
    "antithetic-mc", and nodes per dimension for "tensor-grid".
    """

    kind: str
    count: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _BUDGET_KINDS:
            raise DimensionMismatch(f"unknown budget kind {self.kind!r}")
        if self.count < 2:
            raise DimensionMismatch("sample budget must be at least 2")
        if self.seed < 0:
            raise DimensionMismatch("the sample seed must be non-negative")


def first_primes(k: int) -> np.ndarray:
    """The k smallest primes, by trial division (k stays small here)."""
    out = []
    cand = 2
    while len(out) < k:
        if all(cand % p for p in out if p * p <= cand):
            out.append(cand)
        cand += 1
    return np.asarray(out, dtype=np.int64)


def _radical_inverse(indices, base: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64).copy()
    out = np.zeros(idx.shape, dtype=float)
    f = 1.0 / base
    while np.any(idx > 0):
        out += f * (idx % base)
        idx //= base
        f /= base
    return out


class _MomentAccumulator:
    """Streaming weighted sums with a running log-max for stability."""

    def __init__(self, dim: int, second_moment: bool):
        self.logmax = -np.inf
        self.wsum = 0.0
        self.rsum = np.zeros(dim)
        self.rrsum = np.zeros((dim, dim)) if second_moment else None
        self.count = 0

    def add(self, logw: np.ndarray, r: np.ndarray) -> None:
        self.count += logw.size
        newmax = max(self.logmax, float(logw.max()))
        if newmax == -np.inf:
            return
        rescale = np.exp(self.logmax - newmax) if np.isfinite(self.logmax) else 0.0
        w = np.exp(logw - newmax)
        self.wsum = self.wsum * rescale + float(w.sum())
        self.rsum = self.rsum * rescale + w @ r
        if self.rrsum is not None:
            self.rrsum = self.rrsum * rescale + (r * w[:, None]).T @ r
        self.logmax = newmax

    def mean(self) -> np.ndarray:
        if not np.isfinite(self.wsum) or self.wsum <= 0.0:
            raise DegenerateWeights(
                f"likelihood weights vanished across {self.count} samples"
            )
        return self.rsum / self.wsum

    def moments(self) -> PosteriorMoments:
        mean = self.mean()
        corr = self.rrsum / self.wsum
        corr = 0.5 * (corr + corr.T)
        cov = corr - np.outer(mean, mean)
        cov = 0.5 * (cov + cov.T)
        return PosteriorMoments(mean, corr, cov)


def _misfit_logweights(q: np.ndarray, meas: MeasurementSetup) -> np.ndarray:
    """Per-row -0.5 ||data - q||^2_Sigma; NaN where an observation is not finite."""
    resid = meas.data[None, :] - q
    finite = np.isfinite(resid).all(axis=1)
    if not finite.all():
        resid = np.where(finite[:, None], resid, 0.0)
    solved = meas.sigma.solve(resid.T)
    return np.where(finite, -0.5 * np.einsum("bk,kb->b", resid, solved), np.nan)


def _halton_block(start: int, stop: int, bases: np.ndarray) -> np.ndarray:
    """Halton points start..stop-1 mapped to [-1, 1), one column per base."""
    idx = np.arange(start, stop)
    u = np.column_stack([_radical_inverse(idx, int(b)) for b in bases])
    u *= 2.0
    u -= 1.0
    return u


def _antithetic_block(rng: np.random.Generator, npairs: int, m: int) -> np.ndarray:
    """2 npairs rows of normal draws, each pair (z, -z); the uniforms are
    clipped and mapped through ndtri in their own buffer."""
    z = rng.random((npairs, m))
    np.clip(z, 1e-300, 1.0 - 1e-16, out=z)
    ndtri(z, out=z)
    native = np.empty((2 * npairs, m))
    native[0::2] = z
    np.negative(z, out=native[1::2])
    return native


def _sample_stream(expansion: AffineExpansion, budget: SampleBudget):
    """Yield (native_draws, log_sampling_weight) blocks in a fixed order.

    The sampling weight is 1 (log weight 0) for Halton points and antithetic
    draws, and the tensorized Gauss weight of each node for the tensor grid.
    A (Q)MC block is formed in a helper, so the suspended generator holds
    none of its arrays while the caller works on the block.
    """
    kinds = {law.kind for law in expansion.laws}
    m = expansion.n_modes
    if budget.kind == "halton":
        if not all(k.startswith("uniform") for k in kinds):
            raise DimensionMismatch("Halton sampling requires uniform coefficient laws")
        bases = first_primes(m)
        for start in range(1, budget.count + 1, _BATCH):
            yield _halton_block(start, min(start + _BATCH, budget.count + 1), bases), 0.0
    elif budget.kind == "antithetic-mc":
        if kinds != {"standard-normal"}:
            raise DimensionMismatch("antithetic sampling requires standard-normal laws")
        rng = np.random.Generator(np.random.Philox(budget.seed))
        pair_batch = _BATCH // 2
        for done in range(0, budget.count, pair_batch):
            yield _antithetic_block(rng, min(pair_batch, budget.count - done), m), 0.0
    else:
        n = budget.count
        if m > 6:
            raise CostGuard(f"tensor grid in {m} dimensions is deliberately refused")
        if n < 4:
            raise DimensionMismatch("tensor grids need at least 4 nodes per dimension")
        if n ** m > _MAX_GRID_POINTS:
            raise CostGuard("tensor grid would exceed the point budget")

        def rule(kind):
            # numpy's Hermite rule overflows quietly past a few hundred nodes
            # (NaN weights from n = 400), so a rule is checked before use; a
            # finite log-weight means a finite, positive weight
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if kind == "standard-normal":
                    x, w = np.polynomial.hermite_e.hermegauss(n)
                    logw = np.log(w) - 0.5 * np.log(2.0 * np.pi)
                else:
                    x, w = np.polynomial.legendre.leggauss(n)
                    logw = np.log(0.5 * w)
            if not (np.isfinite(x).all() and np.isfinite(logw).all()):
                raise CostGuard(
                    f"the {n}-node Gauss rule for {kind} laws has non-finite nodes "
                    "or weights that are not finite and positive"
                )
            return x, logw

        axes, logws = zip(*(rule(law.kind) for law in expansion.laws))
        native = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
        logw = sum(g.ravel() for g in np.meshgrid(*logws, indexing="ij"))
        for start in range(0, len(native), _BATCH):
            yield native[start:start + _BATCH], logw[start:start + _BATCH]


def _first_half_rows(budget: SampleBudget):
    """Stream rows in a (Q)MC budget's first half; None for the tensor grid."""
    half = (budget.count + 1) // 2
    return {"halton": half, "antithetic-mc": 2 * half}.get(budget.kind)


def estimate_posterior_sweep(
    models: list[ForwardModel],
    expansion: AffineExpansion,
    meas_list: list[MeasurementSetup],
    budget: SampleBudget,
    second_moment: bool = True,
    half_split: bool = False,
):
    """Posterior moments for several predictions and noise setups at once.

    All models must share their solve and observation maps (they may differ
    only in the prediction); each sample is solved once and every
    (model, measurement) pair gets its own weighted accumulators.  Returns a
    grid indexed [model][measurement]; with half_split=True a second grid
    built from only the first half of the budget is returned as well, which
    gives a cheap estimate of the estimator's own error.  Its entries are
    None for the tensor grid.  A NaN or +inf log-weight raises DegenerateWeights.
    """
    base = models[0]
    if len({m.observation_dim for m in models}) != 1:
        raise DimensionMismatch("models in one sweep must share the observation map")

    acc = [
        [_MomentAccumulator(m.prediction_dim, second_moment) for _ in meas_list]
        for m in models
    ]
    half = [[None] * len(meas_list) for _ in models]
    half_rows = _first_half_rows(budget) if half_split else None
    done = 0
    for native, logw_sampling in _sample_stream(expansion, budget):
        # the realized fields are passed on unnamed, so a model that copies
        # them (Darcy's row-major solve) can let them go before it solves
        states = base.solve_state_batch(expansion.realize_batch(native))
        q = base.observe_state_batch(states)
        logw = [logw_sampling + _misfit_logweights(q, meas) for meas in meas_list]
        for lw in logw:
            bad = np.flatnonzero(~(lw < np.inf))
            if bad.size:
                raise DegenerateWeights(
                    f"log-weight {lw[bad[0]]} at sample {done + bad[0]} "
                    f"({bad.size} non-finite in its block)"
                )
        # The half estimate is the running state where the first half ends.
        # add() rebinds its sums, so a shallow copy is an independent snapshot.
        lead = 0
        if half_rows is not None and done < half_rows <= done + len(native):
            lead = half_rows - done
            half = [[copy.copy(a) for a in row] for row in acc]
        for i, model in enumerate(models):
            r = model.predict_state_batch(states)
            for j in range(len(meas_list)):
                if lead:
                    half[i][j].add(logw[j][:lead], r[:lead])
                acc[i][j].add(logw[j], r)
        done += len(native)
        # one block's working set at a time: nothing of this block stays
        # alive while the stream draws, realizes and solves the next
        del native, logw_sampling, states, q, logw, r

    def result(a):
        if a is None:
            return None
        if second_moment:
            return a.moments()
        return a.mean()

    full = [[result(a) for a in row] for row in acc]
    if half_split:
        return full, [[result(a) for a in row] for row in half]
    return full


def estimate_posterior(
    model: ForwardModel,
    expansion: AffineExpansion,
    meas: MeasurementSetup,
    budget: SampleBudget,
) -> PosteriorMoments:
    """Self-normalized posterior moments of one prediction map."""
    return estimate_posterior_sweep([model], expansion, [meas], budget)[0][0]


def tensor_grid_oracle(
    model: ForwardModel,
    expansion: AffineExpansion,
    meas: MeasurementSetup,
    nodes_per_dim: int,
) -> PosteriorMoments:
    """Deterministic low-dimensional reference by tensorized Gauss rules.

    Gauss-Legendre nodes cover uniform coefficient laws, probabilists'
    Gauss-Hermite nodes cover standard-normal ones.
    """
    budget = SampleBudget("tensor-grid", nodes_per_dim)
    return estimate_posterior(model, expansion, meas, budget)
