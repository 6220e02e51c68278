import csv
import math

import numpy as np
import pytest

from postpert.cli import (
    StudyConfig,
    _fmt,
    _sibling_path,
    load_config_file,
    main,
    make_config,
)
from postpert.darcy import build_darcy
from postpert.errors import IoFailure, PostpertError
from postpert.estimators import tensor_grid_oracle
from postpert.expansion import expand_posterior_moments
from postpert.lv import OBSERVED_DATA
from postpert.model_api import evaluate_at, generate_data
from postpert.refine import STOP_TOL, run_refinement


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigFile:
    def test_comments_blanks_and_dashes(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# darcy sweep\n"
            "\n"
            "mesh-level = 2   # coarse\n"
            "alphas = 0.25, 0.125\n"
            "centered = off\n"
        )
        values = load_config_file(cfg)
        assert values == {"mesh_level": "2", "alphas": "0.25, 0.125", "centered": "off"}

    def test_missing_separator(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("mesh_level 2\n")
        with pytest.raises(PostpertError):
            load_config_file(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_config_file(tmp_path / "nope.cfg")

    def test_flags_override_file(self, tmp_path):
        got = make_config({"seed": "7", "samples": "50"}, {"seed": 11})
        assert got.seed == 11 and got.samples == 50

    def test_unknown_key(self):
        with pytest.raises(PostpertError, match="unknown config keys"):
            make_config({"mesh_depth": "2"}, {})

    def test_bad_value(self):
        with pytest.raises(PostpertError, match="bad config value"):
            make_config({"samples": "many"}, {})


class TestConfigValidation:
    def test_alphas_sorted_descending_without_duplicates(self):
        cfg = make_config({}, {"alphas": "0.125,0.5,0.125,0.25"})
        assert cfg.alphas == (0.5, 0.25, 0.125)

    def test_quantity_all_expands(self):
        cfg = make_config({}, {"quantity": "all"})
        assert cfg.quantities() == ("mean", "correlation", "covariance")

    def test_boolean_words(self):
        assert make_config({"timing": "yes"}, {}).timing
        assert not make_config({"timing": "off"}, {}).timing
        with pytest.raises(PostpertError):
            make_config({"timing": "maybe"}, {})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"model": "heat"},
            {"reference": "exact"},
            {"quantity": "variance"},
            {"quantity": ""},
            {"alphas": "0.5,-0.25"},
            {"threads": 0},
            {"iterations": 0},
            {"step_scale": 0.0},
            {"mesh_level": 0},
            {"kle_tol": 0.0},
            {"prediction": "r3"},
            {"seed": -1},
            {"alphas": "0.5,inf"},
            {"alphas": "nan"},
        ],
    )
    def test_rejected_settings(self, overrides):
        with pytest.raises(PostpertError):
            make_config({}, overrides)

    def test_predator_prey_constraints(self):
        with pytest.raises(PostpertError):
            make_config({}, {"model": "lotka-volterra", "centered": False})
        with pytest.raises(PostpertError):
            make_config({}, {"model": "lotka-volterra", "prediction": "r1"})
        cfg = make_config({}, {"model": "lotka-volterra"})
        assert cfg.prediction == "identity"

    def test_darcy_prediction_defaults_to_pressure(self):
        assert make_config({}, {}).prediction == "r2"


class TestFormattingHelpers:
    def test_float_round_trip(self):
        rng = np.random.default_rng(9)
        for x in rng.normal(size=20) * 10.0 ** rng.integers(-12, 12, size=20):
            assert float(_fmt(x)) == x

    def test_sibling_path(self):
        assert _sibling_path("out.csv", "-final") == "out-final.csv"
        assert _sibling_path("report", "-final") == "report-final"
        assert _sibling_path("a/b.c/out.csv", "-final") == "a/b.c/out-final.csv"


def _converge_args(out, *extra):
    return [
        "converge",
        "--model", "darcy",
        "--mesh-level", "2",
        "--kle-tol", "0.01",
        "--alphas", "0.25,0.125",
        "--reference", "qmc",
        "--samples", "800",
        "--seed", "3",
        "--output", str(out),
        *extra,
    ]


class TestConvergeCommand:
    def test_report_structure(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(_converge_args(out)) == 0
        assert capsys.readouterr().out.strip() == str(out)
        rows = _read_csv(out)
        assert rows[0] == list(
            ("alpha", "quantity", "norm_name", "error_expansion",
             "error_reference_est", "reference_kind", "wallclock_seconds", "status")
        )
        body = rows[1:]
        assert len(body) == 6  # two alphas, three quantities
        alphas = [float(r[0]) for r in body]
        assert alphas == sorted(alphas, reverse=True)
        assert {r[1] for r in body} == {"mean", "correlation", "covariance"}
        for r in body:
            assert r[2] == ("l2" if r[1] == "mean" else "l2-tensor")
            assert float(r[3]) > 0.0 and math.isfinite(float(r[3]))
            assert float(r[4]) > 0.0  # half-sweep noise estimate
            assert r[5] == "qmc"
            assert float(r[6]) == 0.0  # no --timing
            assert r[7] == "ok"
            assert all(r[i] == _fmt(float(r[i])) for i in (0, 3, 4, 6))  # float columns

    def test_smaller_alpha_has_smaller_error(self, tmp_path):
        out = tmp_path / "report.csv"
        main(_converge_args(out))
        body = _read_csv(out)[1:]
        err = {(float(r[0]), r[1]): float(r[3]) for r in body}
        for quantity in ("mean", "correlation", "covariance"):
            assert err[(0.125, quantity)] < err[(0.25, quantity)]

    def test_bytes_reproduce_across_runs_and_threads(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        main(_converge_args(a))
        main(_converge_args(b))
        main(_converge_args(c, "--threads", "8"))
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    @pytest.mark.parametrize("alphas", ["", ","], ids=["empty", "comma"])
    def test_empty_alpha_list_is_rejected(self, tmp_path, capsys, alphas):
        out = tmp_path / "report.csv"
        assert main(_converge_args(out)[:-4] + ["--alphas", alphas, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: alphas")
        assert not out.exists()

    def test_no_reference_rows_are_flagged(self, tmp_path):
        out = tmp_path / "report.csv"
        main(_converge_args(out)[:-6] + ["--reference", "none", "--output", str(out)])
        for r in _read_csv(out)[1:]:
            assert r[7] == "no-reference"
            assert math.isnan(float(r[3])) and math.isnan(float(r[4]))
            assert r[5] == "none"

    def test_incompatible_reference_fails_softly(self, tmp_path):
        """Halton needs uniform laws, so a qmc reference cannot back the
        predator-prey study; rows are marked instead of aborting."""
        out = tmp_path / "report.csv"
        code = main([
            "converge", "--model", "lotka-volterra", "--quantity", "mean",
            "--alphas", "0.125", "--reference", "qmc", "--samples", "64",
            "--output", str(out),
        ])
        assert code == 0
        rows = _read_csv(out)[1:]
        assert len(rows) == 1
        assert rows[0][7] == "failed:DimensionMismatch"
        assert math.isnan(float(rows[0][3]))

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("mesh_depth = 2\n")
        code = main(["converge", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "--model", "lotka-volterra", "--reference", "mc", "--seed", "-1"],
            ["generate-data", "--seed", "-3"],
        ],
    )
    def test_negative_seed_exits_with_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert main(argv + ["--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: seed")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["converge", "refine"])
    def test_infinite_alpha_exits_with_error(self, tmp_path, capsys, command):
        """An infinite scale is refused before any solve, with one error line."""
        out = tmp_path / "report.csv"
        code = main([
            command, "--model", "darcy", "--mesh-level", "1", "--kle-tol", "0.1",
            "--alphas", "inf", "--reference", "none", "--output", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alphas must be positive and finite")
        assert err.count("\n") == 1
        assert not out.exists()


# A three-mode Darcy study small enough for a tensor-grid reference.
_QUAD_ALPHAS = (0.25, 0.125)
_QUAD_NODES = 6


def _quadrature_args(command, out):
    return [
        command, "--model", "darcy", "--mesh-level", "2", "--kle-tol", "0.3",
        "--alphas", ",".join(map(str, _QUAD_ALPHAS)), "--reference", "quadrature",
        "--samples", str(_QUAD_NODES), "--seed", "3", "--iterations", "20",
        "--output", str(out),
    ]


class TestQuadratureReference:
    """The CLI's quadrature rows carry the library's numbers exactly."""

    def test_converge_matches_library(self, tmp_path):
        out = tmp_path / "quad.csv"
        assert main(_quadrature_args("converge", out)) == 0
        model, expansion = build_darcy(2, kle_tol=0.3, prediction="r2")
        assert expansion.n_modes == 3
        meas = generate_data(model, expansion.with_alpha(1.0), 3)
        evals = evaluate_at(model, expansion)
        want = {}
        for alpha in _QUAD_ALPHAS:
            got = expand_posterior_moments(evals, meas, expansion.laws, alpha)
            ref = tensor_grid_oracle(model, expansion.with_alpha(alpha), meas, _QUAD_NODES)
            want[(alpha, "mean")] = model.field_error_norm(got.mean - ref.mean)
            for name in ("correlation", "covariance"):
                want[(alpha, name)] = model.tensor_error_norm(
                    getattr(got, name) - getattr(ref, name)
                )
        rows = _read_csv(out)[1:]
        assert len(rows) == 6
        for r in rows:
            assert float(r[3]) == want[(float(r[0]), r[1])]
            assert math.isnan(float(r[4]))  # the grid has no half split
            assert r[5] == "quadrature" and r[7] == "ok"

    def test_refine_matches_library(self, tmp_path):
        out = tmp_path / "quad.csv"
        assert main(_quadrature_args("refine", out)) == 0
        model, expansion = build_darcy(2, kle_tol=0.3, prediction="r1")
        meas = generate_data(model, expansion.with_alpha(1.0), 3)
        finals = _read_csv(tmp_path / "quad-final.csv")[1:]
        assert [float(r[0]) for r in finals] == list(_QUAD_ALPHAS)
        for alpha, r in zip(_QUAD_ALPHAS, finals):
            scaled = expansion.with_alpha(alpha)
            refined, state = run_refinement(model, scaled, meas, 20)
            ref = tensor_grid_oracle(model, scaled, meas, _QUAD_NODES)
            assert int(r[1]) == len(state.update_history)
            assert float(r[3]) == model.field_error_norm(refined - ref.mean)
            assert r[5] == "quadrature" and r[7] == "ok"


class TestRefineCommand:
    def test_history_and_final_reports(self, tmp_path):
        out = tmp_path / "refine.csv"
        code = main([
            "refine", "--model", "darcy", "--mesh-level", "2", "--kle-tol", "0.01",
            "--alphas", "0.25", "--iterations", "40", "--reference", "none",
            "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        hist = _read_csv(out)
        assert hist[0] == ["alpha", "iteration", "update_norm"]
        assert len(hist) > 1
        final = _read_csv(tmp_path / "refine-final.csv")
        assert final[0] == list(
            ("alpha", "iterations_run", "final_update_norm", "final_error",
             "norm_name", "reference_kind", "wallclock_seconds", "status")
        )
        row = final[1]
        assert float(row[0]) == 0.25
        assert int(row[1]) == len(hist) - 1
        assert float(row[2]) <= float(hist[1][2])  # norms shrank
        assert math.isnan(float(row[3]))  # no reference requested
        assert row[4] == "l2" and row[5] == "none" and row[7] == "ok"
        assert all(row[i] == _fmt(float(row[i])) for i in (0, 2, 3, 6))  # float columns

    def test_reference_gives_finite_final_error(self, tmp_path):
        out = tmp_path / "refine.csv"
        main([
            "refine", "--model", "darcy", "--mesh-level", "2", "--kle-tol", "0.01",
            "--alphas", "0.25", "--iterations", "40", "--reference", "qmc",
            "--samples", "400", "--seed", "3", "--output", str(out),
        ])
        row = _read_csv(tmp_path / "refine-final.csv")[1]
        assert math.isfinite(float(row[3])) and float(row[3]) > 0.0
        assert row[5] == "qmc" and row[7] == "ok"

    def test_used_up_iterations_are_not_ok(self, tmp_path):
        """Three steps leave a darcy update norm near 5e-7, above STOP_TOL."""
        out = tmp_path / "refine.csv"
        code = main([
            "refine", "--model", "darcy", "--mesh-level", "2", "--kle-tol", "0.01",
            "--alphas", "0.25", "--iterations", "3", "--reference", "none",
            "--output", str(out),
        ])
        assert code == 0
        row = _read_csv(tmp_path / "refine-final.csv")[1]
        assert int(row[1]) == 3
        assert float(row[2]) > STOP_TOL
        assert math.isnan(float(row[3]))
        assert row[7] == "max-iterations"

    def test_wandering_predator_prey_keeps_its_final_error(self, tmp_path):
        """Twenty steps do not settle either predator-prey refinement; both rows
        are marked and still scored against the sampled mean."""
        out = tmp_path / "refine.csv"
        code = main([
            "refine", "--model", "lotka-volterra", "--alphas", "0.25,0.125",
            "--iterations", "20", "--reference", "mc", "--samples", "300",
            "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        finals = _read_csv(tmp_path / "refine-final.csv")[1:]
        assert [r[7] for r in finals] == ["max-iterations", "max-iterations"]
        for r in finals:
            assert int(r[1]) == 20 and float(r[2]) > STOP_TOL
            assert math.isfinite(float(r[3])) and float(r[3]) > 0.0

    def test_forced_divergence_is_flagged_not_fatal(self, tmp_path):
        out = tmp_path / "refine.csv"
        code = main([
            "refine", "--model", "darcy", "--mesh-level", "2", "--kle-tol", "0.01",
            "--alphas", "0.25,0.125", "--step-scale", "25.0", "--reference", "none",
            "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        finals = _read_csv(tmp_path / "refine-final.csv")[1:]
        assert [r[7] for r in finals] == ["diverged", "diverged"]
        for r in finals:
            assert int(r[1]) >= 1  # partial history preserved
            assert math.isnan(float(r[3]))


class TestGenerateDataCommand:
    def test_darcy_synthetic_data_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main([
                "generate-data", "--model", "darcy", "--mesh-level", "2",
                "--kle-tol", "0.01", "--seed", "5", "--output", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = _read_csv(a)
        assert rows[0] == ["index", "value"]
        assert len(rows) == 6  # five observation points

    def test_seed_changes_darcy_data(self, tmp_path):
        outs = []
        for seed in ("5", "6"):
            path = tmp_path / f"s{seed}.csv"
            main([
                "generate-data", "--model", "darcy", "--mesh-level", "2",
                "--kle-tol", "0.01", "--seed", seed, "--output", str(path),
            ])
            outs.append(path.read_bytes())
        assert outs[0] != outs[1]

    def test_predator_prey_uses_recorded_counts(self, tmp_path):
        out = tmp_path / "lv.csv"
        main(["generate-data", "--model", "lotka-volterra", "--output", str(out)])
        rows = _read_csv(out)[1:]
        np.testing.assert_array_equal([float(r[1]) for r in rows], OBSERVED_DATA)


class TestKleDumpCommand:
    def test_dump_matches_retention(self, tmp_path):
        out = tmp_path / "kle.csv"
        assert main([
            "kle-dump", "--mesh-level", "2", "--kle-tol", "0.01", "--output", str(out),
        ]) == 0
        rows = _read_csv(out)
        assert rows[0][:2] == ["mode", "eigenvalue"]
        assert len(rows) == 13  # twelve retained modes
        eigs = [float(r[1]) for r in rows[1:]]
        assert eigs == sorted(eigs, reverse=True)
