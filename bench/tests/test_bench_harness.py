"""Tests of the benchmark's own code: span arithmetic, ref_err_ratio, proxies.

Run with `python3 -m pytest bench/tests`.
"""

import numpy as np
import pytest

import workloads as wl
from postpert import (
    AffineExpansion,
    CoefficientLaw,
    MeasurementSetup,
    SampleBudget,
    estimate_posterior,
    evaluate_at,
    expand_posterior_moments,
    tensor_grid_oracle,
)
from postpert.darcy import build_darcy
from postpert.lv import build_lotka_volterra
from postpert.toy import PolynomialToyModel
from spans import NoTrace, Span, Tracer, self_time


class TestSelfTime:
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            Span("sweep", 0.0, 10.0, None),
            Span("solve", 1.0, 3.0, 0),
            Span("solve", 2.0, 4.0, 0),  # overlaps its sibling: counted once
            Span("inner", 1.5, 2.5, 1),  # grandchild: only its parent counts
            Span("predict", 9.0, 12.0, 0),  # runs past the parent: clipped
        ]
        assert self_time(spans, "sweep") == pytest.approx(10.0 - 3.0 - 1.0)
        assert self_time(spans, "solve") == pytest.approx(2.0 - 1.0 + 2.0)
        assert self_time(spans, "inner") == pytest.approx(1.0)

    def test_summed_over_spans_of_one_name(self):
        spans = [
            Span("refine", 0.0, 4.0, None),
            Span("linearize", 1.0, 2.0, 0),
            Span("refine", 5.0, 6.0, None),
        ]
        assert self_time(spans, "refine") == pytest.approx(3.0 + 1.0)
        assert self_time(spans, "absent") == 0.0

    def test_tracer_nesting_and_counts(self):
        ticks = iter(range(100))
        tr = Tracer(clock=lambda: float(next(ticks)))

        def outer():
            tr.call("child", lambda: None, items=7)
            tr.call("child", lambda: None, items=5)
            return "done"

        assert tr.call("parent", outer) == "done"
        # parent 0..5, children 1..2 and 3..4
        assert tr.total("parent") == 5.0
        assert tr.self_time("parent") == 3.0
        assert tr.count("child") == 2
        assert tr.items("child") == 12
        assert [s.parent for s in tr.spans] == [None, 0, 0]

    def test_span_closes_when_the_call_raises(self):
        tr = Tracer()
        with pytest.raises(ZeroDivisionError):
            tr.call("bad", lambda: 1 / 0)
        assert tr.count("bad") == 1 and tr.total("bad") >= 0.0
        tr.call("next", lambda: None)
        assert tr.spans[-1].parent is None


def _toy_study():
    model = PolynomialToyModel()
    expansion = AffineExpansion(
        x0=np.array([0.2, -0.1]),
        modes=np.array([[1.0, 0.3], [-0.2, 0.8]]),
        laws=(CoefficientLaw.uniform_symmetric(1.0), CoefficientLaw.uniform_symmetric(1.0)),
    )
    meas = MeasurementSetup(data=np.array([0.35, -0.2]), sigma=model.noise_covariance())
    return model, expansion, meas


class TestRefErrRatio:
    alpha = 0.25

    def _parts(self):
        model, expansion, meas = _toy_study()
        scaled = expansion.with_alpha(self.alpha)
        stored = tensor_grid_oracle(model, scaled, meas, 60).mean
        expanded = expand_posterior_moments(evaluate_at(model, expansion), meas, expansion.laws, self.alpha).mean
        return model, scaled, meas, stored, expanded

    def test_exact_reference_gives_zero(self):
        model, scaled, meas, stored, expanded = self._parts()
        exact = tensor_grid_oracle(model, scaled, meas, 40).mean
        assert wl.ref_err_ratio(model.field_error_norm, exact, expanded, stored) < 1e-9

    def test_ratio_is_reference_error_over_expansion_error(self):
        model, scaled, meas, stored, expanded = self._parts()
        norm = model.field_error_norm
        halton = estimate_posterior(model, scaled, meas, SampleBudget("halton", 256)).mean
        ratio = wl.ref_err_ratio(norm, halton, expanded, stored)
        assert ratio == pytest.approx(norm(halton - stored) / norm(expanded - stored), rel=1e-14)
        assert 0.0 < ratio < 1.0
        # halfway between the expansion and the exact mean reads one half
        assert wl.ref_err_ratio(norm, 0.5 * (stored + expanded), expanded, stored) == pytest.approx(0.5)


def _small_sizes(monkeypatch):
    monkeypatch.setattr(wl, "MESH_LEVEL", 3)
    monkeypatch.setattr(wl, "QMC_POINTS", 300)
    monkeypatch.setattr(wl, "LV_MODES", 10)
    monkeypatch.setattr(wl, "LV_STEPS", 100)
    monkeypatch.setattr(wl, "LV_PAIRS", 150)


class TestProxies:
    @pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
    def test_traced_outputs_are_bit_identical(self, monkeypatch, name):
        _small_sizes(monkeypatch)
        workload = wl.WORKLOADS[name]
        plain = list(workload.run(workload.setup(NoTrace()), NoTrace()))
        tr = Tracer()
        traced = list(workload.run(workload.setup(tr), tr))
        assert not any(isinstance(o, Exception) for _, o in plain)
        assert wl.output_digest(traced) == wl.output_digest(plain)
        assert tr.count("model_api.evaluate_at") >= 1
        assert tr.count("expansion.expand") >= len(plain)

    def test_proxy_forwards_attributes_and_counts_samples(self, monkeypatch):
        _small_sizes(monkeypatch)
        study = wl.darcy_setup(NoTrace())
        tr = Tracer()
        model = tr.proxy(study.models[0], "darcy", wl.MODEL_METHODS, per_sample=("solve_state_batch",))
        assert model.prediction_dim == study.models[0].prediction_dim
        xs = np.ones((3, model.parameter_dim))
        model.solve_state_batch(xs)
        assert study.models[0].solve_count == 3
        assert tr.items("darcy.solve_state_batch") == 3

    def test_setups_match_the_package_builders(self, monkeypatch):
        _small_sizes(monkeypatch)
        study = wl.darcy_setup(Tracer())
        _, expansion = build_darcy(wl.MESH_LEVEL, kle_tol=wl.KLE_TOL, prediction="r1")
        np.testing.assert_array_equal(study.expansion.modes, expansion.modes)
        np.testing.assert_array_equal(study.expansion.x0, expansion.x0)
        assert study.expansion.laws == expansion.laws

        study = wl.lv_setup(Tracer())
        _, expansion = build_lotka_volterra(n_modes=wl.LV_MODES, n_steps=wl.LV_STEPS)
        np.testing.assert_array_equal(study.expansion.modes, expansion.modes)
        assert study.expansion.laws == expansion.laws
