"""End-to-end tests of the command line interface and its file outputs."""

import contextlib
import dataclasses
import io
import json
import math
import re
import resource
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kdiff_lab import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    ConfigError,
    DimError,
    FlowConfig,
    SampleRun,
    Spectrum,
    TimeMeasure,
    TrainConfig,
    analytic,
    cli,
    k_target,
    sampler,
)
from kdiff_lab.cli import load_config, main, write_csv

from helpers import run_python, write_csv_reference


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


@st.composite
def _theory_configs(draw):
    """A manifold theory run under a random loss and time measure."""
    ambient = draw(st.integers(1, 64))
    cfg = {
        "loss": draw(st.sampled_from(sorted(cli._LOSSES))),
        "data": {"D": ambient, "d": draw(st.integers(1, ambient))},
        "theory": {"k_points": draw(st.integers(2, 41))},
    }
    if draw(st.booleans()):
        cfg["time_sampler"] = {
            "kind": "logit_normal",
            "mu": draw(st.floats(-1.5, 1.5)),
            "sigma": draw(st.floats(0.3, 2.0)),
        }
    if draw(st.booleans()):
        cfg["interval"] = [draw(st.floats(0.0, 0.2)), draw(st.floats(0.8, 1.0))]
    return cfg


class TestTheory:
    def test_sparse_data_summary(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {"data": {"D": 100, "d": 10}, "theory": {"k_points": 21}}
        )
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "theory_summary.json").read_text())
        assert summary["k_star"] == pytest.approx(10.0 / 11.0, abs=1e-9)
        header, rows = read_csv(tmp_path / "out" / "theory.csv")
        assert header == ["k", "delta_total", "delta_parallel", "delta_perpendicular"]
        assert rows.shape == (21, 4)
        # decomposition adds up
        np.testing.assert_allclose(rows[:, 1], rows[:, 2] + rows[:, 3], atol=1e-12)

    def test_dense_data_prefers_v_prediction(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"data": {"D": 8, "d": 8}})
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "theory_summary.json").read_text())
        assert summary["k_star"] == pytest.approx(0.5, abs=1e-9)

    def test_spectrum_summary(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {"data": {"D": 3, "spectrum": [2.0, 1.0, 0.0]}}
        )
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "theory_summary.json").read_text())
        assert summary["k_star"] == pytest.approx(0.5, abs=1e-9)
        # the same file as manifold data, split into the support and the null space
        header, rows = read_csv(tmp_path / "out" / "theory.csv")
        assert header == ["k", "delta_total", "delta_parallel", "delta_perpendicular"]
        assert rows.shape == (101, 4)
        np.testing.assert_array_equal(rows[:, 1], rows[:, 2] + rows[:, 3])
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["theory.csv", "theory_summary.json"]

    def test_spectrum_without_D_sets_the_dimension(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"data": {"spectrum": [1.0, 1.0, 0.0, 0.0, 0.0]}})
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "theory_summary.json").read_text())
        assert summary["k_star"] == pytest.approx(5.0 / 7.0, abs=1e-15)

    def test_logit_normal_measure_uses_numeric_minimiser(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "loss": "v",
                "data": {"D": 8, "d": 8},
                "time_sampler": {"kind": "logit_normal", "mu": 0.0, "sigma": 1.0},
                "theory": {"k_points": 5},
            },
        )
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "theory_summary.json").read_text())
        assert 0.0 <= summary["k_star"] <= 1.0

    @pytest.mark.parametrize("dim", [2, 4])
    def test_two_minima_give_the_lower_k_minimum_not_the_peak(self, tmp_path, dim):
        # the v-loss at D = d is symmetric about k = 1/2, where it peaks; the
        # grid's two lowest rows, at k = 0.05 and 0.95, tie exactly
        cfg = write_config(tmp_path, "c.json", {"loss": "v", "data": {"D": dim, "d": dim}})
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "theory_summary.json").read_text())
        _, rows = read_csv(out / "theory.csv")
        assert summary["delta_at_k_star"] <= rows[:, 1].min()
        assert summary["k_star"] == pytest.approx(0.0494, abs=1e-3)

    @settings(
        max_examples=60, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cfg=_theory_configs())
    def test_k_star_is_never_worse_than_the_grid(self, tmp_path, cfg):
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["theory", "--config", path, "--out", str(out)]) == 0
        delta = json.loads((out / "theory_summary.json").read_text())["delta_at_k_star"]
        best = read_csv(out / "theory.csv")[1][:, 1].min()
        config = load_config(path)
        if config.closed_form and config.loss is U_LOSS:
            # D / (D + d) is exact; its quadrature row may sit a few ulps above
            # a grid row at almost the same k
            assert delta <= best * (1.0 + 1e-12)
        else:
            assert delta <= best

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"data": {"D": 12, "d": 3}})
        for out in ("a", "b"):
            assert main(["theory", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "a" / "theory.csv").read_bytes() == (
            tmp_path / "b" / "theory.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "theory_summary.json").read_bytes() == (
            tmp_path / "b" / "theory_summary.json"
        ).read_bytes()

    def test_manifold_data_is_its_0_1_spectrum_in_any_order(self, tmp_path):
        # under the v-loss and logit-normal time, which no closed form covers
        spectrum = [1.0] * 3 + [0.0] * 9
        shuffled = np.random.default_rng(12).permutation(spectrum).tolist()
        assert shuffled != spectrum
        files = set()
        for name, data in [("manifold", {"D": 12, "d": 3}), ("spectrum", {"spectrum": spectrum}),
                           ("shuffled", {"spectrum": shuffled})]:
            cfg = {"loss": "v", "time_sampler": {"kind": "logit_normal"}, "data": data}
            out = tmp_path / name
            assert main(["theory", "--config", write_config(tmp_path, f"{name}.json", cfg), "--out", str(out)]) == 0
            files.add(((out / "theory.csv").read_bytes(), (out / "theory_summary.json").read_bytes()))
        assert len(files) == 1


class TestDynamics:
    def test_default_run_converges(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {})
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "dynamics_summary.json").read_text())
        assert summary["converged"] is True
        assert summary["final_dist_par"] < 1e-6
        assert summary["final_dist_perp"] < 1e-6
        header, rows = read_csv(tmp_path / "out" / "dynamics.csv")
        assert header == ["step", "loss", "dist_par", "dist_perp"]
        assert rows[0, 0] == 0 and rows[-1, 0] == 200

    def test_spectrum_runs_with_one_distance_per_subspace(self, tmp_path):
        # an explicit null is the same as leaving data.seed out
        lam = [2.0, 1.0, 1.0, 0.5, 0.0, 0.0]
        cfg = write_config(tmp_path, "c.json", {"data": {"spectrum": lam, "seed": None}, "target": {"k": 0.7}})
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "dynamics_summary.json").read_text())
        assert summary["converged"] is True
        _, rows = read_csv(tmp_path / "out" / "dynamics.csv")
        # from W0 = 0 each eigenspace starts |c(lam)| sqrt(multiplicity) from W*
        moments = analytic.compute_moments(FLOW_MATCHING, k_target(0.7), U_LOSS, UNIFORM_MEASURE)
        c = analytic.colored_mode_coefficients(np.array(lam), moments)
        assert rows[0, 2] == pytest.approx(math.sqrt(np.sum(c[:4] ** 2)), rel=1e-14)
        assert rows[0, 3] == pytest.approx(abs(c[5]) * math.sqrt(2.0), rel=1e-14)
        # and the loss is (phi_sq tr Sigma + psi_sq D) / 2, with phi = k and psi = k - 1
        assert rows[0, 1] == pytest.approx(0.5 * (0.7**2 * 4.5 + 0.3**2 * 6.0), rel=1e-14)

    def test_steps_above_two_to_the_53_are_written_exactly(self, tmp_path):
        # a float64 step column would print 1e+17 and round the step below it
        cfg = write_config(tmp_path, "c.json", {"data": {"D": 12, "d": 3}, "dynamics": {"steps": 10**17}})
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "dynamics.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[-2:]] == ["96157460014321552", "100000000000000000"]

    def test_unstable_step_size_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"dynamics": {"step_size": 4.0}})
        code = main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code != 0
        warning, error = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: step_size 4.0 at or above stability bound")
        assert error.startswith("error: Divergence: ")

    @staticmethod
    def _assert_same_files_under_one_and_two_blas_threads(tmp_path, configs):
        for i, cfg in enumerate(configs):
            write_config(tmp_path, f"c{i}.json", cfg)
        script = (
            "import os, sys\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = sys.argv[1]\n"
            "from kdiff_lab.cli import main\n"
            f"for i in range({len(configs)}):\n"
            "    assert main(['dynamics', '--config', f'c{i}.json', '--out', f'{sys.argv[1]}/{i}']) == 0\n"
        )
        for threads in ("1", "2"):
            proc = run_python(["-c", script, threads], cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        for i in range(len(configs)):
            for name in ("dynamics.csv", "dynamics_summary.json"):
                one, two = (tmp_path / threads / str(i) / name for threads in ("1", "2"))
                assert one.read_bytes() == two.read_bytes(), (i, name)

    def test_exact_files_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the oracle_flow benchmark's exact shape, where OpenBLAS splits a dot product of the
        # D x D null-space offset over its threads: taking that distance by such a dot product
        # wrote different files under 1 and 2 threads for 6 of these 10 data seeds
        self._assert_same_files_under_one_and_two_blas_threads(tmp_path, [
            {
                "data": {"D": 256, "d": 16, "seed": seed}, "target": {"kind": "k", "k": 0.8},
                "dynamics": {"mode": "exact", "step_size": 0.5, "steps": 150, "tol": 1e-6},
            }
            for seed in range(10)
        ])

    def test_stochastic_files_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits the loss's dot products and the distances' Frobenius norms over its
        # threads at this size: taking them that way wrote different files under 1 and 2
        # threads for each of these seeds
        self._assert_same_files_under_one_and_two_blas_threads(tmp_path, [
            {
                "seed": seed, "data": {"D": 160, "d": 16},
                "dynamics": {"mode": "stochastic", "steps": 40, "batch": 256, "tol": 10.0},
            }
            for seed in (1, 2, 3)
        ])

    def test_library_warning_is_one_stderr_line(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"dynamics": {"step_size": 4.0}})
        out = tmp_path / "outb" / "run"
        proc = run_python(["-m", "kdiff_lab.cli", "dynamics", "--config", cfg, "--out", str(out)], cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == [
            "warning: step_size 4.0 at or above stability bound 3; exact dynamics will diverge",
            "error: Divergence: parallel mode grows by a factor 1.66667 per step (step_size 4.0)",
        ], proc.stderr
        assert not (tmp_path / "outb").exists()

    def test_stochastic_divergence_exits_1_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"data": {"D": 6, "d": 2}, "dynamics": {"mode": "stochastic", "steps": 200, "step_size": 50}},
        )
        out = tmp_path / "out"
        assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 1
        warning, error = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: step_size 50.0 at or above stability bound")
        assert error.startswith("error: Divergence: ")
        assert not out.exists()

    def test_stochastic_unstable_step_warns_once(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"data": {"D": 16, "d": 4}, "dynamics": {"mode": "stochastic", "steps": 50, "batch": 16, "step_size": 40.0}},
        )
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        warning, failure = capsys.readouterr().err.splitlines()
        assert warning == "warning: step_size 40.0 at or above stability bound 3; stochastic dynamics will diverge"
        assert failure.startswith("check failed: convergence_to_equilibrium")

    def test_stochastic_mode_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "data": {"D": 6, "d": 2},
                "dynamics": {
                    "mode": "stochastic",
                    "steps": 300,
                    "step_size": 0.1,
                    "batch": 256,
                    "tol": 0.5,
                },
            },
        )
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, rows = read_csv(tmp_path / "out" / "dynamics.csv")
        assert rows[-1, 1] < rows[0, 1]  # loss fell

    def test_perpendicular_trajectory_invariant_to_data_coefficient(self, tmp_path):
        outputs = []
        for phi in (0.2, 0.8):
            cfg = write_config(
                tmp_path,
                f"c{phi}.json",
                {
                    "target": {"kind": "linear", "phi": phi, "psi": -0.5},
                    "dynamics": {"steps": 80, "tol": 10.0},
                },
            )
            out = tmp_path / f"out{phi}"
            assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
            _, rows = read_csv(out / "dynamics.csv")
            outputs.append(rows)
        # identical perpendicular distances, bit for bit; parallel ones differ
        np.testing.assert_array_equal(outputs[0][:, 3], outputs[1][:, 3])
        assert not np.array_equal(outputs[0][:, 2], outputs[1][:, 2])


class TestTrain:
    def test_short_run_summary_and_history(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"data": {"D": 8, "d": 2}, "train": {"steps": 200, "batch": 64}},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "3"]) == 0
        summary = json.loads((tmp_path / "out" / "train_summary.json").read_text())
        assert summary["theory_k_star"] == pytest.approx(0.8)
        assert "abs_gap" in summary
        header, rows = read_csv(tmp_path / "out" / "history.csv")
        assert header == ["step", "loss", "k"]
        assert rows.shape == (200, 3)

    @pytest.mark.parametrize(
        "data", [{"D": 8, "d": 2}, {"spectrum": [2.0, 1.0, 0.0, 0.0]}], ids=["manifold", "spectrum"]
    )
    def test_closed_form_k_star_computes_no_moments(self, tmp_path, monkeypatch, data):
        def fail(*args, **kwargs):
            raise AssertionError("compute_moments called on a closed-form config")

        monkeypatch.setattr(analytic, "compute_moments", fail)
        cfg = write_config(tmp_path, "c.json", {"data": data, "train": {"steps": 20, "batch": 16}})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_v_alg1_summary_has_no_theory(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("compute_moments called for a v_alg1 run")

        monkeypatch.setattr(analytic, "compute_moments", fail)
        cfg = write_config(
            tmp_path,
            "c.json",
            {"data": {"D": 8, "d": 2}, "train": {"steps": 30, "batch": 16, "loss_mode": "v_alg1"}},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "train_summary.json").read_text())
        assert set(summary) == {"final_k"}
        assert "theory k* does not apply (loss_mode v_alg1)" in capsys.readouterr().out

    def test_u_loss_mode_reports_the_u_loss_k_star(self, tmp_path, monkeypatch):
        # the trainer minimises the plain target MSE whatever the top-level
        # loss, so k* is D/(D+d) and not the v-loss optimum (0.987 here)
        def fail(*args, **kwargs):
            raise AssertionError("compute_moments called on a closed-form config")

        monkeypatch.setattr(analytic, "compute_moments", fail)
        cfg = write_config(
            tmp_path, "c.json", {"loss": "v", "data": {"D": 8, "d": 2}, "train": {"steps": 30, "batch": 16}}
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "train_summary.json").read_text())
        assert summary["theory_k_star"] == pytest.approx(0.8, abs=1e-15)
        assert summary["abs_gap"] == abs(summary["final_k"] - summary["theory_k_star"])

    @pytest.mark.parametrize(
        "extra, k_star",
        [
            # the vertex of the loss over k lies outside [0, 1] in the first two
            pytest.param(
                {"time_sampler": {"kind": "logit_normal", "mu": -1.0, "sigma": 1.0}, "data": {"D": 8, "d": 8}},
                0.0, id="vertex-below-0",
            ),
            pytest.param(
                {"time_sampler": {"kind": "logit_normal", "mu": 0.4, "sigma": 0.7}, "data": {"D": 16, "d": 3}},
                1.0, id="vertex-above-1",
            ),
            pytest.param({"interval": [0.1, 0.85], "data": {"D": 12, "d": 5}}, None, id="sub-interval"),
            pytest.param(
                {"time_sampler": {"kind": "logit_normal", "mu": -0.5, "sigma": 1.2},
                 "data": {"spectrum": [3.0, 1.0, 0.2, 0.0]}},
                None, id="spectrum",
            ),
            pytest.param({"data": {"spectrum": [3.0, 1.0, 0.2, 0.0]}}, 4.0 / 8.2, id="uniform-spectrum"),
        ],
    )
    def test_theory_and_train_report_one_k_star_without_a_search(self, tmp_path, monkeypatch, extra, k_star):
        def fail(*args, **kwargs):
            raise AssertionError("argmin_k called for a u-loss k*")

        monkeypatch.setattr(analytic, "argmin_k", fail)
        cfg = write_config(tmp_path, "c.json", {**extra, "train": {"steps": 20, "batch": 16}})
        for command in ("theory", "train"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        theory = json.loads((tmp_path / "theory" / "theory_summary.json").read_text())
        train = json.loads((tmp_path / "train" / "train_summary.json").read_text())
        assert theory["k_star"] == train["theory_k_star"]
        assert 0.0 < theory["k_star"] < 1.0 if k_star is None else theory["k_star"] == k_star

    def test_frozen_k_summary_omits_gap(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"data": {"D": 6, "d": 2}, "train": {"steps": 50, "batch": 32, "k_trainable": False}},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "train_summary.json").read_text())
        assert "abs_gap" not in summary
        assert summary["final_k"] == pytest.approx(0.5)

    def test_binned_mode_logs_probe_columns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"data": {"D": 6, "d": 2}, "train": {"steps": 40, "batch": 32, "k_bins": 8}},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header, rows = read_csv(tmp_path / "out" / "history.csv")
        assert header == ["step", "loss", "k_t0", "k_t0.25", "k_t0.5", "k_t0.75", "k_t1"]
        assert rows.shape == (40, 7)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"data": {"D": 6, "d": 2}, "train": {"steps": 60, "batch": 32}},
        )
        for out in ("a", "b"):
            assert main(["train", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "a" / "history.csv").read_bytes() == (
            tmp_path / "b" / "history.csv"
        ).read_bytes()


class TestSample:
    def test_optimal_linear_net_diagnostics(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"data": {"D": 8, "d": 2}, "sample": {"n_samples": 200, "k": 0.8}},
        )
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["off_manifold_fraction_t1"] < diag["off_manifold_fraction_t0"]
        header, rows = read_csv(tmp_path / "out" / "samples.csv")
        assert header == [f"x{i}" for i in range(8)]
        assert rows.shape == (200, 8)

    def test_spectrum_off_manifold_fraction_is_the_zero_mode_energy(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {"data": {"spectrum": [2.0, 1.0, 0.5, 0.0, 0.0]}, "sample": {"n_samples": 300}}
        )
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        _, z = read_csv(tmp_path / "out" / "samples.csv")
        # the spectrum lies along the standard basis, so its null space is the last two coordinates
        assert diag["off_manifold_fraction_t1"] == pytest.approx(np.sum(z[:, 3:] ** 2) / np.sum(z * z), rel=1e-12)
        assert diag["off_manifold_fraction_t1"] < 0.1 < diag["off_manifold_fraction_t0"]

    def test_zero_samples_writes_header_only(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {"data": {"D": 4, "d": 1}, "sample": {"n_samples": 0}}
        )
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "samples.csv").read_text()
        assert text == "x0,x1,x2,x3\n"
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["off_manifold_fraction_t0"] is None

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {"data": {"D": 5, "d": 2}, "sample": {"n_samples": 50}}
        )
        for out in ("a", "b"):
            assert main(["sample", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        for name in ("samples.csv", "diagnostics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("net", ["optimal_linear", "train"])
    def test_one_propagator_and_no_ode_steps(self, tmp_path, monkeypatch, net):
        # a linear net's run is one integration of the D x D identity, never of the batch
        inputs = []
        integrate = sampler.integrate

        def counted(run, net, kparam, z0):
            inputs.append(np.array(z0))
            return integrate(run, net, kparam, z0)

        monkeypatch.setattr(sampler, "integrate", counted)
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "data": {"D": 6, "d": 2},
                "train": {"steps": 20, "batch": 16, "k_bins": 4},
                "sample": {"n_samples": 30, "net": net, "steps": 10, "solver": "euler"},
            },
        )
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(inputs) == 1
        np.testing.assert_array_equal(inputs[0], np.eye(6))

    def test_trained_net_path(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "data": {"D": 6, "d": 2},
                "train": {"steps": 150, "batch": 64},
                "sample": {"n_samples": 50, "net": "train", "steps": 10},
            },
        )
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, rows = read_csv(tmp_path / "out" / "samples.csv")
        assert rows.shape == (50, 6)


_SPECIAL = [
    np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.2345678901234568e17,
    0.1, 1.0 / 3.0, 1e300, -123.0, 2.0**53 + 2.0,
]


@pytest.mark.parametrize("command", ["theory", "dynamics", "train", "sample"])
def test_all_zero_spectrum_runs_every_command(tmp_path, command):
    # the zero source keeps no eigenvector: no latents to draw and no support to project on
    cfg = write_config(tmp_path, "c.json", {
        "data": {"spectrum": [0.0, 0.0, 0.0]},
        "dynamics": {"mode": "stochastic", "steps": 20, "batch": 16},
        "train": {"steps": 20, "batch": 16},
        "sample": {"net": "train", "n_samples": 10, "steps": 5},
    })
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert any((tmp_path / "out").iterdir())


_INT64 = np.iinfo(np.int64)
_UINT64 = np.iinfo(np.uint64)


class TestWriteCsv:
    """The column writer against the per-value reference, byte for byte."""

    def _assert_same_bytes(self, tmp_path, header, columns):
        write_csv(tmp_path / "got.csv", header, columns)
        write_csv_reference(tmp_path / "ref.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_special_float_values(self, tmp_path):
        values = np.array(_SPECIAL)
        self._assert_same_bytes(tmp_path, [f"x{i}" for i in range(values.size)], [values.reshape(1, -1)])
        self._assert_same_bytes(tmp_path, ["a", "b"], [values, values.reshape(-1, 1)])

    def test_mixed_integer_and_float_columns(self, tmp_path):
        step = np.arange(1, 6)
        columns = [
            step, -step, 0.5**step, step.astype(np.float64), np.full(5, 0.1, np.float32),
            step.astype(np.uint64) * np.uint64(10**18),
        ]
        self._assert_same_bytes(tmp_path, ["step", "n", "loss", "f", "f32", "big"], columns)
        self._assert_same_bytes(tmp_path, ["i"], [np.arange(-3, 4).reshape(-1, 1)])

    def test_random_float_matrix(self, tmp_path):
        rows = np.random.default_rng(50).standard_normal((300, 7)) * 10.0 ** np.arange(-150, 200, 50)
        self._assert_same_bytes(tmp_path, [f"x{i}" for i in range(7)], [rows])

    @pytest.mark.parametrize(
        "columns",
        [
            [np.arange(3), np.zeros(2)],
            [np.zeros((3, 2)), np.arange(4)],
            [np.arange(2), np.zeros((2, 1)), np.zeros(0)],
        ],
        ids=["shorter-float", "longer-int", "empty-last"],
    )
    def test_unequal_lengths_raise_and_leave_no_file(self, tmp_path, columns):
        path = tmp_path / "bad.csv"
        path.write_text("an earlier run's table\n")
        with pytest.raises(ValueError, match="unequal lengths"):
            write_csv(path, ["a", "b"], columns)
        assert not path.exists()

    @pytest.mark.parametrize(
        "header, columns",
        [
            (["a"], [np.zeros((2, 3))]),
            (["step", "loss", "k", "extra"], [np.arange(2), np.zeros(2), np.zeros((2, 1))]),
            (["a"], [np.empty((2, 0))]),
            (["a"], []),
            ([], [np.zeros(0)]),
        ],
        ids=["short", "long", "zero-columns", "no-arrays", "no-names"],
    )
    def test_a_header_unlike_the_columns_raises_and_leaves_no_file(self, tmp_path, header, columns):
        path = tmp_path / "bad.csv"
        path.write_text("an earlier run's table\n")
        width = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
        message = f"bad.csv: the header has length {len(header)}, the table {width} columns"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_csv(path, header, columns)
        assert not path.exists()

    def test_zero_rows_writes_the_header_only(self, tmp_path):
        self._assert_same_bytes(tmp_path, ["x0", "x1"], [np.empty((0, 2))])
        self._assert_same_bytes(tmp_path, ["step", "loss"], [np.empty(0, np.int64), np.empty(0)])
        assert (tmp_path / "got.csv").read_text() == "step,loss\n"

    @settings(
        max_examples=100, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=80),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        )
    )
    def test_any_float_table(self, tmp_path, rows):
        self._assert_same_bytes(tmp_path, [f"x{i}" for i in range(rows.shape[1])], [rows])

    @settings(
        max_examples=100, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(bits=hnp.arrays(np.uint64, st.tuples(st.integers(1, 100), st.integers(1, 70))))
    def test_any_bit_pattern(self, tmp_path, bits):
        rows = bits.view(np.float64)
        self._assert_same_bytes(tmp_path, [f"x{i}" for i in range(rows.shape[1])], [rows])

    @settings(
        max_examples=50, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.data_too_large],
    )
    @given(
        table=st.integers(0, 1200).flatmap(
            lambda n: st.tuples(
                hnp.arrays(np.int64, n, elements=st.sampled_from([_INT64.min, _INT64.max]) | st.integers(
                    _INT64.min, _INT64.max)),
                hnp.arrays(np.float64, (n, 3), elements=st.floats(allow_nan=True, allow_subnormal=True)),
                hnp.arrays(np.uint64, (n, 2), elements=st.sampled_from([0, _UINT64.max]) | st.integers(
                    0, _UINT64.max)),
            )
        )
    )
    def test_64_bit_integer_columns_beside_a_float_block(self, tmp_path, table):
        # 6 columns make blocks of 682 rows, so longer tables carry integers across blocks
        self._assert_same_bytes(tmp_path, ["i", "x0", "x1", "x2", "u0", "u1"], list(table))

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(51).integers(0, 2**64, (2000, 64), dtype=np.uint64, endpoint=False)
        self._assert_same_bytes(tmp_path, [f"x{i}" for i in range(64)], [bits.view(np.float64)])

    def test_neighbours_of_powers_of_ten(self, tmp_path):
        # 1e-4 <= |x| < 1e16 is formatted in blocks, the rest value by value
        powers = 10.0 ** np.arange(-5, 18)
        values = np.concatenate([
            np.nextafter(powers, -np.inf), powers, np.nextafter(powers, np.inf),
            np.nextafter([1e-4, 1e16], -np.inf), [1e-4, 1e16], np.nextafter([1e-4, 1e16], np.inf),
        ])
        self._assert_same_bytes(tmp_path, ["x"], [np.concatenate([values, -values])])

    def test_the_double_below_a_power_of_ten_keeps_its_exponent(self, tmp_path):
        # its 17 digits never round up to the power itself
        below = np.nextafter(10.0 ** np.arange(-4, 17), 0.0)
        write_csv(tmp_path / "got.csv", ["x"], [below])
        lines = (tmp_path / "got.csv").read_text().splitlines()[1:]
        assert lines == ["%.17g" % v for v in below]
        assert all(line.replace(".", "").lstrip("0").startswith("9" * 13) for line in lines), lines

    def test_exact_ties_round_half_to_even(self, tmp_path):
        # j / 2^17 for odd j has 17 fraction digits ending in 5: a tie at 17 significant digits
        ties = np.arange(2**17 + 1, 10 * 2**17, 2) / 2.0**17
        self._assert_same_bytes(tmp_path, [f"x{i}" for i in range(64)], [ties.reshape(-1, 64)])
        write_csv(tmp_path / "one.csv", ["x"], [np.array([1.00000762939453125])])
        assert (tmp_path / "one.csv").read_text() == "x\n1.0000076293945312\n"

    def test_signed_zeros_float32_and_integer_columns(self, tmp_path):
        i = np.arange(5)
        columns = [
            np.zeros(5), np.full(5, -0.0), np.array([0.1, -1e-5, 3.4e38, 1.4e-45, 7.0], np.float32),
            np.uint64(2**63) + i.astype(np.uint64), _UINT64.max - i.astype(np.uint64),
            _INT64.min + i, _INT64.max - i,
        ]
        self._assert_same_bytes(tmp_path, ["z", "nz", "f32", "big", "u64", "min", "max"], columns)
        self._assert_same_bytes(tmp_path, ["f32"], [np.array([[0.1], [-2.5e-6], [65504.0]], np.float32)])
        assert (tmp_path / "got.csv").read_text().splitlines()[1] == "0.10000000149011612"

    def test_rows_without_values_are_empty_lines(self, tmp_path):
        self._assert_same_bytes(tmp_path, [], [np.empty((2, 0))])
        self._assert_same_bytes(tmp_path, [], [np.empty((3, 0), np.int64)])
        assert (tmp_path / "got.csv").read_bytes() == b"\n\n\n\n"

    @pytest.mark.parametrize(
        "column",
        [np.array([0.5, None], dtype=object), np.array(["a", "b"]), np.array([True, False]), np.ones(2, complex)],
        ids=["object", "str", "bool", "complex"],
    )
    def test_a_column_that_is_not_integer_or_float_raises_and_leaves_no_file(self, tmp_path, column):
        path = tmp_path / "bad.csv"
        with pytest.raises(TypeError, match="neither integer nor float"):
            write_csv(path, ["a", "b"], [np.arange(2), column])
        assert not path.exists()

    def test_a_directory_at_the_path_raises_and_is_kept(self, tmp_path):
        path = tmp_path / "table.csv"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            write_csv(path, ["a"], [np.zeros(2)])
        # the one error is the open's: the cleanup does not try to remove the directory
        assert info.value.__context__ is None
        assert path.is_dir()

    def test_memory_does_not_grow_with_the_table(self, tmp_path):
        # one block of text is held at a time; 64 KiB covers the writer's
        # own small allocations, whose sizes vary with the text
        def traced_peak(rows):
            tracemalloc.start()
            try:
                write_csv(tmp_path / "m.csv", [f"x{i}" for i in range(64)], [rows])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rng = np.random.default_rng(52)
        small, large = rng.standard_normal((400, 64)), rng.standard_normal((40_000, 64))
        assert traced_peak(large) <= traced_peak(small) + 64 * 1024


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"daat": {}})
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "daat" in capsys.readouterr().err

    def test_unknown_section_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"train": {"learning_rate": 0.1}})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["theory", "--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["theory", "--config", str(path)]) == 1
        assert "valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff", id="not-utf-8"),
            pytest.param(b'{"seed": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)", id="5000-digits"),
            pytest.param(b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded", id="nested-200000-deep"),
        ],
    )
    def test_undecodable_config_is_one_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.json"
        path.write_bytes(text)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: config {path} is not valid JSON: ") and err.count("\n") == 1, err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_unsupported_process(self, tmp_path, capsys):
        # flow matching is the one process, so the config has no key to name it
        for process in ("ddpm", "flow_matching"):
            cfg = write_config(tmp_path, f"{process}.json", {"process": process})
            assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == "error: ConfigError: unknown config keys: ['process']\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            pytest.param("theory", {"data": {"D": 2, "d": 3}}, "DimError: need 1 <= d <= D", id="d-above-D"),
            pytest.param(
                "theory", {"data": {"D": 4, "spectrum": [1.0, 0.5, 0.0]}}, "DimError: data.spectrum has 3",
                id="theory-spectrum-length",
            ),
            pytest.param(
                "train", {"data": {"D": 4, "spectrum": [1.0, 0.5, 0.0]}}, "DimError: data.spectrum has 3",
                id="train-spectrum-length",
            ),
            pytest.param(
                "theory", {"data": {"spectrum": [1.0, -0.5]}}, "ConfigError: data.spectrum",
                id="negative-eigenvalue",
            ),
            pytest.param(
                "train", {"data": {"spectrum": [1.0, 1.0, 0.0, 0.0], "d": 3}},
                "ConfigError: data.d does not apply to data.spectrum", id="spectrum-with-d",
            ),
            pytest.param(
                "dynamics", {"data": {"spectrum": [1.0, 0.0], "seed": 3}},
                "ConfigError: data.seed does not apply to data.spectrum", id="spectrum-with-seed",
            ),
            pytest.param(
                "sample", {"sample": {"net": "train", "k": 0.9}},
                "ConfigError: sample.k applies to net optimal_linear only", id="trained-net-with-k",
            ),
            pytest.param("theory", {"theory": {"k_points": 0}}, "ConfigError: theory.k_points", id="k_points-0"),
            pytest.param("theory", {"theory": {"k_points": 1}}, "ConfigError: theory.k_points", id="k_points-1"),
            pytest.param(
                "sample", {"sample": {"n_samples": -3}}, "ConfigError: sample.n_samples", id="negative-n_samples"
            ),
            pytest.param("train", {"train": {"lr": -1}}, "ConfigError: train: lr must be positive", id="negative-lr"),
            pytest.param("theory", {"data": {"D": "abc"}}, 'ConfigError: data.D must be an integer, got "abc"', id="D-not-int"),
            pytest.param("dynamics", {"dynamics": {"steps": 0}}, "ConfigError: dynamics: steps", id="zero-steps"),
            pytest.param(
                "theory", {"interval": [0.5, 0.2]}, "ConfigError: interval/time_sampler: interval", id="reversed-interval"
            ),
            pytest.param(
                "theory", {"interval": []}, "ConfigError: interval/time_sampler: interval must be [lo, hi], got []",
                id="empty-interval",
            ),
            pytest.param(
                "theory", {"interval": [0.1, 0.5, 0.9]},
                "ConfigError: interval/time_sampler: interval must be [lo, hi], got [0.1, 0.5, 0.9]",
                id="three-number-interval",
            ),
            pytest.param("sample", {"sample": {"steps": 0}}, "ConfigError: sample: steps must be >= 1", id="sample-zero-steps"),
            pytest.param("sample", {"sample": {"solver": "rk4"}}, "ConfigError: sample: unknown solver", id="sample-rk4"),
            pytest.param("sample", {"sample": {"n_samples": "abc"}}, 'ConfigError: sample.n_samples must be an integer, got "abc"', id="n_samples-str"),
            pytest.param("sample", {"sample": {"k": 1.5}}, "ConfigError: sample: k must lie in [0, 1]", id="sample-k-above-1"),
            pytest.param("sample", {"clamp_floor": "a"}, 'ConfigError: clamp_floor must be a finite number, got "a"', id="clamp_floor-str"),
            # one floor serves training and sampling, so neither section takes one
            *(
                pytest.param(
                    command, {section: {"clamp_floor": 0.2}},
                    f"ConfigError: unknown config keys in section '{section}': ['clamp_floor']",
                    id=f"{command}-{section}-clamp_floor",
                )
                for command, section in (("train", "train"), ("sample", "sample"), ("sample", "train"))
            ),
            pytest.param(
                "theory", {"theory": {"k_points": "x"}}, 'ConfigError: theory.k_points must be an integer, got "x"',
                id="k_points-str",
            ),
            pytest.param(
                "dynamics", {"target": {"kind": "k", "k": 2}}, "ConfigError: target: k must lie in [0, 1], got 2",
                id="target-k-above-1",
            ),
            pytest.param(
                "dynamics", {"target": {"kind": "k", "k": -0.5}}, "ConfigError: target: k must lie in [0, 1]",
                id="target-k-negative",
            ),
            pytest.param(
                "dynamics", {"target": {"kind": "k", "k": "abc"}}, 'ConfigError: target.k must be a finite number, got "abc"',
                id="target-k-str",
            ),
            pytest.param(
                "dynamics", {"target": {"kind": "linear", "phi": "a", "psi": -0.5}},
                'ConfigError: target.phi must be a finite number, got "a"', id="target-phi-str",
            ),
            pytest.param(
                "dynamics", {"target": {"kind": "linear", "phi": 0.5, "psi": [1]}},
                "ConfigError: target.psi must be a finite number, got [1]", id="target-psi-list",
            ),
            pytest.param(
                "dynamics", {"target": {"kind": ["k"]}}, 'ConfigError: target.kind must be a string, got ["k"]',
                id="target-kind-list",
            ),
            pytest.param("theory", {"seed": "abc"}, 'ConfigError: seed must be an integer, got "abc"', id="seed-str"),
            pytest.param("train", {"seed": 1.5}, "ConfigError: seed must be an integer, got 1.5", id="seed-fractional"),
            pytest.param(
                "theory", {"theory": {"k_points": 2.5}}, "ConfigError: theory.k_points must be an integer, got 2.5",
                id="k_points-fractional",
            ),
            pytest.param(
                "sample", {"sample": {"n_samples": 3.9}}, "ConfigError: sample.n_samples must be an integer, got 3.9",
                id="n_samples-fractional",
            ),
            pytest.param(
                "sample", {"sample": {"steps": 2.7}}, "ConfigError: sample.steps must be an integer, got 2.7",
                id="sample-steps-fractional",
            ),
            pytest.param(
                "train", {"train": {"batch": 1.5}}, "ConfigError: train.batch must be an integer, got 1.5",
                id="train-batch-fractional",
            ),
            pytest.param(
                "train", {"train": {"steps": 2.5}}, "ConfigError: train.steps must be an integer, got 2.5",
                id="train-steps-fractional",
            ),
            pytest.param(
                "train", {"train": {"k_bins": 4.5}}, "ConfigError: train.k_bins must be an integer, got 4.5",
                id="k_bins-fractional",
            ),
            pytest.param(
                "dynamics", {"dynamics": {"steps": 10.5}}, "ConfigError: dynamics.steps must be an integer, got 10.5",
                id="dynamics-steps-fractional",
            ),
            pytest.param(
                "dynamics", {"dynamics": {"batch": 2.5}}, "ConfigError: dynamics.batch must be an integer, got 2.5",
                id="dynamics-batch-fractional",
            ),
            pytest.param(
                "dynamics", {"dynamics": {"batch": 1e18}}, "ConfigError: dynamics.batch x data.D = ",
                id="dynamics-batch-bytes",
            ),
            pytest.param("theory", {"data": {"D": 8.5}}, "ConfigError: data.D must be an integer, got 8.5", id="D-fractional"),
            pytest.param("theory", {"data": {"d": 2.5}}, "ConfigError: data.d must be an integer, got 2.5", id="d-fractional"),
            pytest.param(
                "sample", {"data": {"seed": 0.5}}, "ConfigError: data.seed must be an integer, got 0.5",
                id="data-seed-fractional",
            ),
            pytest.param(
                "train", {"train": {"steps": True}}, "ConfigError: train.steps must be an integer, got true",
                id="train-steps-true",
            ),
            pytest.param(
                "theory", {"theory": {"k_points": True}}, "ConfigError: theory.k_points must be an integer, got true",
                id="k_points-true",
            ),
            pytest.param(
                "train", {"train": {"k_trainable": "false"}},
                'ConfigError: train.k_trainable must be true or false, got "false"', id="k_trainable-str",
            ),
            pytest.param(
                "train", {"train": {"stop_grad_target": "false"}},
                "ConfigError: unknown config keys in section 'train': ['stop_grad_target']", id="stop_grad_target-str",
            ),
            pytest.param("theory", {"train": {"lr": -1}}, "ConfigError: train: lr must be positive", id="theory-bad-train"),
            pytest.param(
                "train", {"train": {"k_init": 1.5}}, "ConfigError: train: need 0 < k_init < 1, got 1.5", id="k_init-high",
            ),
            pytest.param(
                "theory", {"train": {"k_init": 1.5}}, "ConfigError: train: need 0 < k_init < 1, got 1.5",
                id="theory-bad-k_init",
            ),
            pytest.param(
                "sample", {"train": {"k_init": 0}}, "ConfigError: train: need 0 < k_init < 1, got 0", id="sample-k_init-zero",
            ),
            pytest.param(
                "train", {"train": {"k_bins": 0}}, "ConfigError: train: k_bins must be >= 1", id="k_bins-zero",
            ),
            pytest.param(
                "theory", {"target": {"kind": "k", "k": 7}}, "ConfigError: target: k must lie in [0, 1], got 7",
                id="theory-bad-target",
            ),
            pytest.param(
                "train", {"sample": {"n_samples": 3.9}}, "ConfigError: sample.n_samples must be an integer, got 3.9",
                id="train-bad-sample",
            ),
            pytest.param(
                "train", {"sample": {"net": "mlp"}},
                "ConfigError: sample.net must be one of ['optimal_linear', 'train'], got \"mlp\"", id="train-bad-net",
            ),
            pytest.param(
                "dynamics", {"dynamics": {"mode": "stochastic", "batch": -5, "steps": 3}},
                "ConfigError: dynamics: batch must be >= 1", id="dynamics-batch-negative",
            ),
            pytest.param(
                "dynamics", {"dynamics": {"mode": "stochastic", "batch": 0, "steps": 3}},
                "ConfigError: dynamics: batch must be >= 1", id="dynamics-batch-zero",
            ),
            pytest.param(
                "train", {"data": {"D": 8, "d": 2}, "train": {"adam_eps": -1.0, "steps": 200}},
                "ConfigError: train: adam_eps must be positive", id="adam_eps-negative",
            ),
            pytest.param(
                "train", {"data": {"D": 8, "d": 2}, "train": {"beta1": 1.0}},
                "ConfigError: train: beta1 and beta2 must lie in [0, 1)", id="beta1-one",
            ),
            pytest.param(
                "train", {"data": {"D": 8, "d": 2}, "train": {"beta2": 1.0}},
                "ConfigError: train: beta1 and beta2 must lie in [0, 1)", id="beta2-one",
            ),
            pytest.param(
                "train", {"data": {"D": 8, "d": 2}, "train": {"beta1": -0.5}},
                "ConfigError: train: beta1 and beta2 must lie in [0, 1)", id="beta1-negative",
            ),
            pytest.param(
                "sample", {"data": {"D": 8, "d": 2}, "clamp_floor": 5.0},
                "ConfigError: clamp_floor must lie in (0, 1), got 5.0", id="sample-clamp_floor-high",
            ),
            pytest.param(
                "sample", {"data": {"D": 8, "d": 2}, "clamp_floor": 0.0, "sample": {"k": 1.0}},
                "ConfigError: clamp_floor must lie in (0, 1), got 0.0", id="sample-clamp_floor-zero",
            ),
            pytest.param(
                "train", {"clamp_floor": 1.0, "train": {"loss_mode": "v_alg1"}},
                "ConfigError: clamp_floor must lie in (0, 1), got 1.0", id="train-clamp_floor-one",
            ),
            pytest.param(
                "theory", {"time_sampler": {"kind": "uniform", "sigma": -3, "mu": 99}},
                "ConfigError: interval/time_sampler: mu and sigma apply to logit_normal only", id="uniform-mu-sigma",
            ),
            # the per-mode losses square terms of order lam, which overflow above about 1.3e154
            pytest.param(
                "theory", {"data": {"spectrum": [1e155, 0]}},
                "SingularEquilibrium: per-mode terms overflow: largest eigenvalue 1.000e+155", id="theory-overflow",
            ),
            pytest.param(
                "theory", {"data": {"spectrum": [1e200, 0]}, "time_sampler": {"kind": "logit_normal"}},
                "SingularEquilibrium: per-mode terms overflow: largest eigenvalue 1.000e+200",
                id="theory-logit-normal-overflow",
            ),
            # the closed form D / (D + trace) is finite here, but the trainer's arithmetic is not
            pytest.param(
                "train", {"data": {"spectrum": [1e155, 0]}, "train": {"steps": 50, "batch": 16}},
                "SingularEquilibrium: per-mode terms overflow: largest eigenvalue 1.000e+155", id="train-overflow",
            ),
            pytest.param(
                "train", {"data": {"spectrum": [1e200, 0]}, "time_sampler": {"kind": "logit_normal"}},
                "SingularEquilibrium: per-mode terms overflow: largest eigenvalue 1.000e+200",
                id="train-logit-normal-overflow",
            ),
            # v_alg1 has no k* to compute, and a trained sample net none to check: the config is checked
            pytest.param(
                "train", {"data": {"spectrum": [1e155, 0]}, "train": {"steps": 50, "batch": 16, "loss_mode": "v_alg1"}},
                "SingularEquilibrium: per-mode terms overflow: largest eigenvalue 1.000e+155", id="train-v_alg1-overflow",
            ),
            # v_alg1's gradient carries kappa^2 <= 1 / clamp_floor^2 = 400: Adam overflowed here with exit 0
            pytest.param(
                "train", {"data": {"spectrum": [1.3e154, 0]}, "train": {"steps": 50, "batch": 16, "loss_mode": "v_alg1"}},
                "SingularEquilibrium: per-mode terms overflow: largest eigenvalue 1.300e+154, largest moment 4.000e+02",
                id="train-v_alg1-clamp-overflow",
            ),
            pytest.param(
                "sample", {"data": {"spectrum": [1.3e154, 0]}, "train": {"steps": 20, "batch": 8, "loss_mode": "v_alg1"},
                           "sample": {"n_samples": 5, "steps": 3, "net": "train"}},
                "SingularEquilibrium: per-mode terms overflow: largest eigenvalue 1.300e+154, largest moment 4.000e+02",
                id="sample-train-v_alg1-clamp-overflow",
            ),
            # 1 / clamp_floor^2 overflows to inf whatever the spectrum: clamp_floor**-2 raised OverflowError here
            *(
                pytest.param(
                    command, {"clamp_floor": floor, "train": {"loss_mode": "v_alg1"}},
                    "SingularEquilibrium: per-mode terms overflow: largest eigenvalue 1.000e+00, largest moment inf",
                    id=f"{command}-v_alg1-clamp_floor-{floor:g}",
                )
                for command in ("theory", "dynamics", "train", "sample")
                for floor in (1e-300, 5e-324)
            ),
            pytest.param(
                "sample", {"data": {"spectrum": [1e155, 0]}, "train": {"steps": 20, "batch": 8},
                           "sample": {"n_samples": 5, "steps": 3, "net": "train"}},
                "SingularEquilibrium: per-mode terms overflow: largest eigenvalue 1.000e+155", id="sample-train-overflow",
            ),
            # before the stability warning, so the error is the only line
            pytest.param(
                "dynamics", {"data": {"spectrum": [1e155, 0]}},
                "SingularEquilibrium: per-mode terms overflow: largest eigenvalue 1.000e+155", id="dynamics-overflow",
            ),
            # 64 nodes miss most of this measure's mass, which lies within about 0.02 of t = 1/2
            *(
                pytest.param(
                    command, {"time_sampler": {"kind": "logit_normal", "mu": 0.0, "sigma": 0.03}, "data": {"D": 16, "d": 4}},
                    "QuadratureDivergence: the time measure's quadrature mass is 0.693581, not 1 within 0.001, "
                    "at quad_nodes=64", id=f"{command}-narrow-logit-normal",
                )
                for command in ("theory", "dynamics", "train", "sample")
            ),
            # phi^2 overflows in the moments, with no warning line before the error
            *(
                pytest.param(
                    "dynamics", {"target": {"kind": "linear", "phi": 1e200, "psi": 0}, "dynamics": {"mode": mode}},
                    "QuadratureDivergence: non-finite integrand for moment 'phi_sq'", id=f"linear-overflow-{mode}",
                )
                for mode in ("exact", "stochastic")
            ),
        ],
    )
    def test_bad_input_fails_before_any_work(self, tmp_path, capsys, command, cfg, message):
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            pytest.param("theory", {"time_sampler": "uniform"}, "section 'time_sampler' must be an object, got \"uniform\"", id="time_sampler-str"),
            pytest.param("train", {"train": 5}, "section 'train' must be an object, got 5", id="train-int"),
            pytest.param("theory", {"data": [1]}, "section 'data' must be an object, got [1]", id="data-list"),
            pytest.param("sample", {"sample": None}, "section 'sample' must be an object, got null", id="sample-null"),
        ],
    )
    def test_non_object_section_is_a_config_error(self, tmp_path, capsys, command, cfg, message):
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: ConfigError: {message}\n", err
        assert not out.exists()

    def test_v_alg1_trains_below_its_overflow_bound_without_a_warning(self, tmp_path, capsys):
        cfg = {"data": {"spectrum": [1e150, 0]}, "train": {"steps": 50, "batch": 16, "loss_mode": "v_alg1"}}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_one_clamp_floor_sets_training_and_sampling(self, tmp_path):
        for cfg, floor in (({"clamp_floor": 0.3}, 0.3), ({}, TrainConfig.clamp_floor)):
            got = load_config(write_config(tmp_path, "c.json", cfg))
            assert got.train.clamp_floor == got.sample.clamp_floor == floor

    def test_named_target_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"target": "v", "dynamics": {"steps": 5, "tol": 10.0}})
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {"data": {"D": 6, "d": 2}, "train": {"steps": 30, "batch": 16}}
        )
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"out{seed}"
            assert main(["train", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
            outs.append((out / "history.csv").read_bytes())
        assert outs[0] != outs[1]


# JSON values a config key may be given: every JSON type, with numbers near
# the valid ranges, names the schema knows, and integral extremes that no
# array can hold.  Integers are small or beyond what numpy can index, and so
# are integral floats: a size in between is valid, and could take seconds or
# allocate gigabytes.
_NAMES = st.sampled_from(
    ["k", "linear", "v", "x", "epsilon", "u", "uniform", "logit_normal", "flow_matching", "exact",
     "stochastic", "adam", "sgd", "v_alg1", "heun", "euler", "optimal_linear", "train"]
)
_EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 2**63, 10**30, 2.5, True])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.floats(-8.0, 8.0), _EXTREMES, _NAMES,
    st.text(max_size=3),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3), st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2))
# values of a key's own type, with the extremes: 0, subnormals, +-1e+-300,
# 1 - 2^-53, the empty list, and numbers of any size, such as a step size or
# learning rate on which a run diverges
_FLOATS = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1e-300, -1e-300, 1e300, -1e300, 1 - 2**-53]),
    st.floats(-1e300, 1e300),
)
_OF_TYPE = {
    int: st.integers(-1, 5) | st.sampled_from([2**63, 10**30, 1e300]),
    float: _FLOATS,
    bool: st.booleans(),
    str: _NAMES,
    list: st.lists(_FLOATS, max_size=4),
}
_SECTIONS = [name for name in cli._SCHEMA if name]


def _large(kind, default) -> bool:
    """Whether a key is an integer whose default is too large a size for a run of milliseconds."""
    return kind is int and (default or 0) > 20


def _of_type(kind, default):
    """A key's default, but a large one, or a value of its type."""
    values = st.sampled_from(sorted(kind)) if isinstance(kind, dict) else _OF_TYPE[kind]
    return values if _large(kind, default) else st.just(default) | values


# every (section, key) of the schema
_KEYS = [(name, key) for name, keys in cli._SCHEMA.items() for key in keys]


@st.composite
def _configs(draw):
    """A config drawn from the schema alone.  Every integer key with a large
    default is given a value of 2 to 4; then one to four keys are given their
    default, a value of their type or, now and then, any JSON value.  Now and
    then a section is not an object, or holds an unknown key."""
    cfg = {
        name: {key: draw(st.integers(2, 4)) for key, spec in keys.items() if _large(*spec)}
        for name, keys in cli._SCHEMA.items()
    }
    for name, key in draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=4)):
        cfg[name][key] = draw(_VALUES if draw(st.integers(0, 9)) == 7 else _of_type(*cli._SCHEMA[name][key]))
    if draw(st.integers(0, 19)) == 7:
        cfg[draw(st.sampled_from(list(cli._SCHEMA)))][draw(st.text(max_size=3))] = draw(_VALUES)
    if draw(st.integers(0, 19)) == 7:
        cfg[draw(st.sampled_from(_SECTIONS))] = draw(_VALUES)
    return {**cfg.pop(""), **cfg}


def _readme_config() -> dict:
    """The JSONC example under README's "Command line", without its comments."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```jsonc\n(.*?)```", text, re.S).group(1)
    return json.loads(re.sub(r"//.*", "", block))


# the result files of each command, in name order
_RESULTS = {
    "theory": ["theory.csv", "theory_summary.json"],
    "dynamics": ["dynamics.csv", "dynamics_summary.json"],
    "train": ["history.csv", "train_summary.json"],
    "sample": ["diagnostics.json", "samples.csv"],
}


def _run(command: str, config: str, out: Path) -> tuple:
    """``main`` run on a config: its exit code, stdout, stderr and the result files in ``out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", config, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return code, stdout.getvalue(), stderr.getvalue(), files


class TestConfigSchema:
    @settings(
        max_examples=200, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cfg=_configs())
    def test_parser_returns_a_config_or_a_config_error(self, tmp_path, cfg):
        path = write_config(tmp_path, "c.json", cfg)
        try:
            assert isinstance(load_config(path), cli.Config)
        except (ConfigError, DimError) as exc:
            assert "\n" not in str(exc)

    # 400 examples of up to eight runs each: about 6 s on a 2-core VM
    @settings(
        max_examples=400, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cfg=_configs())
    def test_every_command_fails_cleanly_or_writes_its_results_alike_twice(self, tmp_path, cfg):
        """Every command exits 0, 1 or 2.  Exit 1 prints one error line, after
        any warnings, and leaves nothing the run made; exit 0 or 2 writes every
        result file, none empty, and a rerun prints and writes the same bytes."""
        with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
            root = Path(tmp)
            config = write_config(root, "c.json", cfg)
            for command, results in _RESULTS.items():
                first = _run(command, config, root / command / "run")
                code, _, err, files = first
                assert code in (0, 1, 2), (command, code)
                if code == 1:
                    lines = err.splitlines()
                    assert lines and lines[-1].startswith("error: "), (command, err)
                    assert all(line.startswith("warning: ") for line in lines[:-1]), (command, err)
                    assert not (root / command).exists(), command
                    continue
                assert sorted(files) == results and all(files.values()), (command, sorted(files))
                assert _run(command, config, root / f"{command}-rerun" / "run") == first, command

    def test_a_key_a_dataclass_fills_has_that_fields_default(self):
        filled = {"": (TimeMeasure, TrainConfig, SampleRun), "time_sampler": (TimeMeasure,),
                  "dynamics": (FlowConfig,), "train": (TrainConfig,), "sample": (SampleRun,)}
        checked = set()
        for name, classes in filled.items():
            for field in (f for cls in classes for f in dataclasses.fields(cls)):
                # FlowConfig has no default step: the CLI's dynamics step is its own
                if field.name in cli._SCHEMA[name] and field.default is not dataclasses.MISSING:
                    default = list(field.default) if isinstance(field.default, tuple) else field.default
                    assert cli._SCHEMA[name][field.name][1] == default, (name, field.name)
                    checked.add((name, field.name))
        assert {("", "clamp_floor"), ("", "interval"), ("train", "k_bins"), ("sample", "solver")} <= checked

    def test_readme_example_names_every_key_with_its_default(self, tmp_path):
        doc = _readme_config()
        named = {("", key) for key in doc if key not in _SECTIONS}
        named |= {(name, key) for name in _SECTIONS for key in doc[name]}
        assert named == {(name, key) for name, keys in cli._SCHEMA.items() for key in keys}

        got = load_config(write_config(tmp_path, "readme.json", doc))
        default = load_config(write_config(tmp_path, "empty.json", {}))
        for field in dataclasses.fields(cli.Config):
            a, b = getattr(got, field.name), getattr(default, field.name)
            if isinstance(a, Spectrum):
                assert np.array_equal(a.eigenvalues, b.eigenvalues), field.name
            else:
                assert a == b, field.name


def _limit_address_space():
    # about 3 GB: enough to start, too little for the sizes below, and never
    # applied to the test process itself
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


class TestImpossibleSizes:
    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            pytest.param(
                "theory", {"theory": {"k_points": 1e20}},
                "ConfigError: theory.k_points must be <= 9223372036854775807, got 1e+20", id="k_points",
            ),
            pytest.param("sample", {"sample": {"n_samples": 1e12}}, "MemoryError: ", id="n_samples"),
            pytest.param("train", {"train": {"batch": 1e12, "steps": 2}}, "MemoryError: ", id="batch"),
            pytest.param("train", {"train": {"k_bins": 1e12, "steps": 2}}, "MemoryError: ", id="k_bins"),
            # element counts a numpy index can hold, but byte counts it cannot
            pytest.param(
                "theory", {"theory": {"k_points": 4e18}}, "ConfigError: theory.k_points = 4000000000000000000",
                id="k_points-bytes",
            ),
            pytest.param(
                "sample", {"sample": {"n_samples": 1e18}}, "ConfigError: sample.n_samples x data.D = ",
                id="n_samples-bytes",
            ),
            pytest.param(
                "train", {"train": {"batch": 1e18, "steps": 2}}, "ConfigError: train.batch x data.D = ",
                id="batch-bytes",
            ),
            # k_bins + 1 knots
            pytest.param(
                "train", {"train": {"k_bins": 4e18, "steps": 2}}, "ConfigError: train.k_bins + 1 = 4000000000000000001",
                id="k_bins-bytes",
            ),
        ],
    )
    def test_one_error_line_and_no_directory_left(self, tmp_path, command, cfg, message):
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "outb" / "run"
        proc = run_python(
            ["-m", "kdiff_lab.cli", command, "--config", path, "--out", str(out)],
            cwd=tmp_path, preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert message in proc.stderr
        assert not (tmp_path / "outb").exists()

    def test_a_directory_that_existed_is_kept(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"dynamics": {"step_size": 4.0}})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["dynamics", "--config", path, "--out", str(out)]) == 1
        assert out.is_dir()

    @pytest.mark.parametrize(
        "out, taken, message",
        [
            pytest.param("taken", "taken", "error: FileExistsError: ", id="out-is-a-file"),
            pytest.param("taken/run", "taken", "error: NotADirectoryError: ", id="out-under-a-file"),
            pytest.param("run", "run/theory.csv/", "error: IsADirectoryError: ", id="result-name-is-a-directory"),
        ],
    )
    def test_an_output_path_that_cannot_be_written_is_one_error_line(self, tmp_path, capsys, out, taken, message):
        path = write_config(tmp_path, "c.json", {"theory": {"k_points": 3}})
        if taken.endswith("/"):
            (tmp_path / taken).mkdir(parents=True)
        else:
            (tmp_path / taken).write_text("not a directory\n")
        before = sorted(tmp_path.rglob("*"))
        assert main(["theory", "--config", path, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err
        # the run made nothing, and what was in its way is kept
        assert sorted(tmp_path.rglob("*")) == before

    def test_an_unexpected_exception_keeps_its_traceback_and_removes_what_the_run_made(self, tmp_path, monkeypatch):
        def faulty(cfg, out):
            cli.write_json(out.path("theory_summary.json"), {"k_star": 0.5})
            raise RuntimeError("a fault in the program")

        monkeypatch.setitem(cli._COMMANDS, "theory", faulty)
        path = write_config(tmp_path, "c.json", {})
        with pytest.raises(RuntimeError, match="a fault in the program"):
            main(["theory", "--config", path, "--out", str(tmp_path / "outb" / "run")])
        assert sorted(tmp_path.iterdir()) == [tmp_path / "c.json"]

    @pytest.mark.parametrize(
        "command, table, summary",
        [
            ("theory", "theory.csv", "theory_summary.json"),
            ("dynamics", "dynamics.csv", "dynamics_summary.json"),
            ("train", "history.csv", "train_summary.json"),
            ("sample", "samples.csv", "diagnostics.json"),
        ],
    )
    def test_a_failed_run_removes_the_results_it_wrote(self, tmp_path, capsys, command, table, summary):
        cfg = {"data": {"D": 4, "d": 2}, "theory": {"k_points": 3}, "train": {"steps": 3, "batch": 8},
               "sample": {"n_samples": 4, "steps": 2}}
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "run"
        (out / summary).mkdir(parents=True)
        (out / "earlier.csv").write_text("an earlier run's file\n")
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IsADirectoryError: ") and err.count("\n") == 1, err
        # the table written before the summary failed is gone; what was in the run's way is kept
        assert sorted(p.name for p in out.iterdir()) == sorted(["earlier.csv", summary])
        assert (out / summary).is_dir() and not any((out / summary).iterdir())
        assert (out / "earlier.csv").read_text() == "an earlier run's file\n"
        assert not (out / table).exists()


# Runs every subcommand at a tiny size in one interpreter, then theory,
# sample and exact dynamics under truncated logit-normal time, which only
# integrate against its density, and a logit-normal train run, which draws
# from it, as the positive control.
_IMPORT_GUARD = """
import json, sys
from kdiff_lab.cli import main

small = {"data": {"D": 4, "d": 2}, "train": {"steps": 3, "batch": 8}}
logit_normal = {"time_sampler": {"kind": "logit_normal"}, "interval": [0.05, 0.95]}
runs = [
    ("theory", {"loss": "v", "theory": {"k_points": 5}}),
    ("dynamics", {"dynamics": {"steps": 3, "tol": 100.0}}),
    ("dynamics", {"dynamics": {"mode": "stochastic", "steps": 3, "batch": 8, "step_size": 0.1, "tol": 100.0}}),
    ("train", {}),
    ("train", {"train": {"steps": 3, "batch": 8, "loss_mode": "v_alg1", "k_bins": 4}}),
    ("sample", {"sample": {"n_samples": 4, "steps": 2}}),
    ("sample", {"sample": {"n_samples": 4, "steps": 2, "net": "train"}}),
    ("theory", {**logit_normal, "loss": "v", "theory": {"k_points": 3}}),
    ("sample", {**logit_normal, "sample": {"n_samples": 4, "steps": 2}}),
    ("dynamics", {**logit_normal, "dynamics": {"steps": 3, "tol": 100.0}}),
    ("train", logit_normal),
]
report = []
for i, (command, extra) in enumerate(runs):
    with open(f"c{i}.json", "w") as fh:
        json.dump({**small, **extra}, fh)
    code = main([command, "--config", f"c{i}.json", "--out", f"out{i}"])
    report.append([command, code, "scipy.special" in sys.modules])
print(json.dumps(report))
"""


class TestImportGuard:
    def test_only_logit_normal_time_loads_scipy_special(self, tmp_path):
        proc = run_python(["-c", _IMPORT_GUARD], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert [code for _, code, _ in report] == [0] * len(report)
        assert [loaded for _, _, loaded in report] == [False] * (len(report) - 1) + [True]

