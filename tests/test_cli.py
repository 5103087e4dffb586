import ast
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tvfspec
from tvfspec import cli, evaluate, ingest
from tvfspec.estimator import EstimatorConfig, TaperSpec, fourier_frequencies
from tvfspec.ingest import (
    model_document,
    read_kernel_table,
    read_series,
    read_spectral_grid,
)
from tvfspec.model import PRESETS, InnovationSpec, OperatorCurve, TvFarmaModel, far1
from tvfspec.spectrum import TWO_PI


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def unstable_document():
    curve = OperatorCurve(np.array([0.0, 1.0]), np.array([[[1.2]], [[1.2]]]))
    model = TvFarmaModel(ar=(curve,), innovations=InnovationSpec(np.array([1.0])))
    return model_document(model)


def test_json_outputs_reject_bare_non_finite_tokens(tmp_path):
    path = tmp_path / "out.json"
    ingest.write_json({"a": [1.0, float("nan")], "b": {"c": -np.inf}}, path)

    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    doc = json.loads(path.read_text(), parse_constant=reject)
    assert doc == {"a": [1.0, "NaN"], "b": {"c": "-Infinity"}}


def fresh_interpreter(code, *argv):
    """Standard output of ``code`` run in a new interpreter that imports this tvfspec."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tvfspec.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    ).stdout


def test_import_needs_numpy_only():
    # numpy is the only runtime dependency: no other installed distribution
    # provides a module that the import adds to a fresh interpreter
    code = (
        "import sys, importlib.metadata as md; before = set(sys.modules); "
        "import tvfspec.cli; "
        "added = {m.split('.')[0] for m in set(sys.modules) - before} - {'numpy', 'tvfspec'}; "
        "print(sorted(added & set(md.packages_distributions())))"
    )
    assert fresh_interpreter(code).strip() == "[]"


def test_import_starts_no_process_pool_machinery():
    # the pool is imported only when a run asks for more than one worker
    code = (
        "import sys, tvfspec.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    assert fresh_interpreter(code).strip() == "[]"


# the CI "Every report" config: all five checks at a small scale, where bias and
# stationarity fail (exit 1)
EVERY_REPORT = {"model": {"preset": "far1", "size": 3},
                "checks": ["imse", "bias", "covariance", "normality", "stationarity"],
                "replications": 8, "T": 512, "imse": {"T_list": [512, 1024]},
                "stationarity": {"T_list": [64, 128, 256], "replications": 8}}


@pytest.mark.parametrize("argv, config, code, moments", [
    (["simulate", "--T", "256"], {"model": {"preset": "white", "size": 2}, "render": 8}, 0, False),
    (["truth"], {"model": {"preset": "far1", "size": 3}, "render": 8}, 0, False),
    (["estimate", None], {"basis_size": 2}, 0, False),
    (["reproduce", "far2", "--T", "512"], {"render": 8}, 0, False),
    (["check"], EVERY_REPORT, 1, False),
    (["evaluate"], EVERY_REPORT, 1, True),
    (["evaluate"], {"model": {"preset": "far1", "size": 3}, "checks": ["imse"], "replications": 4,
                    "imse": {"T_list": [256, 512]}}, 0, False),
], ids=["simulate", "truth", "estimate", "reproduce", "check", "evaluate", "evaluate-imse"])
def test_no_command_imports_numpy_ma(tmp_path, argv, config, code, moments):
    # np.percentile, np.median and np.unique import numpy.ma on first use, which
    # adds about 1 MB to a run's peak; no run's data is ever masked.  The kernel
    # moments' quadrature imports numpy.polynomial (about 0.9 MB), so neither
    # the import nor any run but one whose report reads a kernel moment (bias,
    # covariance, normality) loads it
    argv = [white_series(tmp_path) if a is None else a for a in argv]
    run = ("import sys, tvfspec.cli; code = tvfspec.cli.main(sys.argv[1:]); "
           "print(code, 'numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)")
    out = fresh_interpreter(run, *argv, "--config", write_config(tmp_path, "run.json", config),
                            "--seed", "7", "--out", str(tmp_path / "out"))
    assert out.splitlines()[-1] == f"{code} False {moments}"


def manifest_for_threads(tmp_path, argv, threads):
    out = tmp_path / f"threads{threads}"
    code = cli.main([*argv, "--threads", str(threads), "--out", str(out)])
    return code, (out / "manifest.json").read_bytes()


def test_threads_below_one_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, "check.json", {"model": {"preset": "far1", "size": 3}})
    out = tmp_path / "x"
    assert cli.main(["check", "--config", config, "--threads", "0", "--out", str(out)]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


class TestSimulate:
    def test_writes_series_and_manifest(self, tmp_path):
        config = write_config(
            tmp_path, "sim.json",
            {"model": {"preset": "far1", "size": 5}, "render": 16},
        )
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", config, "--T", "512",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        raw = read_series(out / "series.csv")
        assert raw.length == 512
        assert raw.grid.size == 16
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["package"] == "tvfspec"
        assert manifest["seed"] == 3
        assert manifest["T"] == 512
        assert set(manifest["outputs"]) == {
            "series.csv", "model.json", "stability.json", "config.json",
        }
        # config is copied verbatim
        assert (out / "config.json").read_bytes() == Path(config).read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(
            tmp_path, "sim.json",
            {"model": {"preset": "far1", "size": 4}, "render": 8, "T": 128},
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
            outs.append(out)
        files = sorted(os.listdir(outs[0]))
        assert files == sorted(os.listdir(outs[1]))
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_unstable_model_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "sim.json", {"model": unstable_document(), "T": 64},
        )
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", config, "--out", str(out)])
        assert code == 3
        assert "radius" in capsys.readouterr().err
        stability = json.loads((out / "stability.json").read_text())
        assert stability["passed"] is False
        assert stability["worst_radius"] == pytest.approx(1.2, abs=1e-9)

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["simulate", "--T", "64", "--out", str(tmp_path / "x")]) == 2

    def test_broken_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert cli.main(["simulate", "--config", str(path), "--T", "64"]) == 2

    def test_unknown_preset_exits_2(self, tmp_path):
        config = write_config(tmp_path, "sim.json", {"model": {"preset": "nope"}, "T": 64})
        assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "x")]) == 2

    def test_missing_sample_size_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "sim.json", far1_config())
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 2
        assert "config error: sample size T required" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config"), ("[1, 2]\n", "config must be a JSON object"),
    ], ids=["unreadable", "not-an-object"])
    def test_config_that_cannot_be_read_as_an_object_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--T", "64", "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestTruth:
    def test_white_noise_grid_is_flat(self, tmp_path):
        sigma = [1.0, 0.5, 0.25]
        config = write_config(
            tmp_path, "truth.json",
            {"model": {"preset": "white", "size": 3, "sigma": sigma},
             "u": [0.3, 0.6], "omega": {"count": 8}, "render": 8},
        )
        out = tmp_path / "run"
        assert cli.main(["truth", "--config", config, "--out", str(out)]) == 0
        grid = read_spectral_grid(out / "truth_coeff.csv")
        assert grid.provenance == "truth"
        assert np.array_equal(grid.u, [0.3, 0.6])
        assert np.allclose(grid.omega, fourier_frequencies(8), atol=1e-15)
        expected = np.diag(np.asarray(sigma) ** 2) / TWO_PI
        assert np.abs(grid.values - expected).max() < 1e-14
        table = read_kernel_table(out / "truth_kernel.csv")
        assert table.shape == (2 * 8 * 8 * 8, 7)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["u_count"] == 2 and manifest["omega_count"] == 8

    def test_model_path_gives_the_preset_truth(self, tmp_path):
        # simulate writes the preset's model.json; truth from it matches truth from the preset
        preset = {"preset": "far1", "size": 3}
        simulated = tmp_path / "sim"
        sim = write_config(tmp_path, "sim.json", {"model": preset, "T": 64, "render": 8})
        assert cli.main(["simulate", "--config", sim, "--out", str(simulated)]) == 0
        files = []
        for name, model in (("preset", preset), ("path", {"path": str(simulated / "model.json")})):
            config = write_config(tmp_path, f"{name}.json", {"model": model, "u": [0.3, 0.6],
                                                             "omega": {"count": 8}})
            assert cli.main(["truth", "--config", config, "--out", str(tmp_path / name)]) == 0
            files.append((tmp_path / name / "truth_coeff.csv").read_bytes())
        assert files[1] == files[0]


class TestEstimate:
    def simulate_white(self, tmp_path, T=1024):
        config = write_config(
            tmp_path, "sim.json",
            {"model": {"preset": "white", "size": 2}, "render": 16},
        )
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", config, "--T", str(T),
                         "--out", str(out)]) == 0
        return out / "series.csv"

    def test_white_noise_trace_level(self, tmp_path):
        series = self.simulate_white(tmp_path)
        config = write_config(
            tmp_path, "est.json",
            {"basis_size": 2, "u": [0.5], "kernel": True, "render": 8},
        )
        out = tmp_path / "est"
        code = cli.main(["estimate", str(series), "--config", config, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "estimate_report.json").read_text())
        assert report["hermitian"] is True
        assert report["psd"] is True
        assert report["projection_residual_max"] < 1e-8
        target = 2.0 / TWO_PI
        assert abs(report["trace_mean_over_omega"][0] - target) < 0.2 * target
        grid = read_spectral_grid(out / "estimate_coeff.csv")
        assert grid.provenance == "smoothed"
        assert grid.values.shape == (1, 64, 2, 2)
        assert (out / "estimate_kernel.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {"series": hashlib.sha256(series.read_bytes()).hexdigest()}

    def test_manifest_does_not_depend_on_how_the_series_path_is_typed(
        self, tmp_path, monkeypatch
    ):
        series = self.simulate_white(tmp_path)
        config = write_config(tmp_path, "est.json", {"basis_size": 2, "u": [0.5], "render": 8})
        assert cli.main(["estimate", str(series.resolve()), "--config", config,
                         "--out", str(tmp_path / "absolute")]) == 0
        monkeypatch.chdir(series.parent)
        assert cli.main(["estimate", series.name, "--config", config,
                         "--out", str(tmp_path / "relative")]) == 0
        manifests = [(tmp_path / run / "manifest.json").read_bytes()
                     for run in ("absolute", "relative")]
        assert manifests[0] == manifests[1]

    def test_out_of_band_exits_4(self, tmp_path, capsys):
        series = self.simulate_white(tmp_path)
        config = write_config(tmp_path, "est.json", {"basis_size": 2, "u": [0.01]})
        code = cli.main(["estimate", str(series), "--config", config,
                         "--out", str(tmp_path / "est")])
        assert code == 4
        assert "valid band" in capsys.readouterr().err

    def test_default_band_edges_are_estimated(self, tmp_path):
        # at T = 539, N/(2T) T rounds below N/2; the band's lower edge is still in it
        series = self.simulate_white(tmp_path, T=539)
        out = tmp_path / "est"
        assert cli.main(["estimate", str(series), "--out", str(out)]) == 0
        report = json.loads((out / "estimate_report.json").read_text())
        assert report["u"][0] == report["valid_band"][0]
        assert report["u"][-1] == report["valid_band"][1]

    def test_model_sets_the_basis(self, tmp_path):
        sim = write_config(tmp_path, "sim.json", far1_config(T=256, render=8))
        assert cli.main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        series = str(tmp_path / "sim" / "series.csv")
        files = []
        for name, config in (("size", {"basis_size": 3}), ("model", far1_config())):
            path = write_config(tmp_path, f"{name}.json", {**config, "omega": {"count": 8}})
            assert cli.main(["estimate", series, "--config", path,
                             "--out", str(tmp_path / name)]) == 0
            files.append((tmp_path / name / "estimate_coeff.csv").read_bytes())
        assert files[1] == files[0]

    def test_hermitian_tolerance_is_relative_to_the_estimates_scale(self, tmp_path):
        # far1 scaled by 1e4 is Hermitian to rounding: its deviation is about 2e-9
        sim = write_config(tmp_path, "sim.json", {"model": {"preset": "far1"}, "T": 512})
        assert cli.main(["simulate", "--config", sim, "--seed", "3",
                         "--out", str(tmp_path / "sim")]) == 0
        raw = read_series(tmp_path / "sim" / "series.csv")
        series = tmp_path / "scaled.csv"
        ingest.write_series(ingest.RawSeries(grid=raw.grid, data=raw.data * 1e4), series)
        assert cli.main(["estimate", str(series), "--out", str(tmp_path / "est")]) == 0
        report = json.loads((tmp_path / "est" / "estimate_report.json").read_text())
        assert report["hermitian_max_deviation"] > 1e-10
        assert report["hermitian"] is True and report["psd"] is True

    def test_missing_series_exits_5(self, tmp_path):
        code = cli.main(["estimate", str(tmp_path / "none.csv"),
                         "--out", str(tmp_path / "est")])
        assert code == 5


class TestEvaluate:
    def test_imse_direction(self, tmp_path):
        config = write_config(
            tmp_path, "eval.json",
            {"model": {"preset": "far1", "size": 3},
             "imse": {"T_list": [512, 4096], "replications": 12, "u": {"count": 3}},
             "omega": {"count": 32}},
        )
        out = tmp_path / "run"
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "imse.json").read_text())
        assert report["passed"] is True
        assert report["quantities"]["wins"] >= report["quantities"]["wins_needed"]
        config_hash = hashlib.sha256(Path(config).read_bytes()).hexdigest()
        assert f"config_sha256={config_hash}" in report["notes"]
        small = report["quantities"]["imse_mean_T512"]
        large = report["quantities"]["imse_mean_T4096"]
        assert large < small

    def test_outputs_do_not_depend_on_threads(self, tmp_path):
        config = write_config(
            tmp_path, "eval.json",
            {"model": {"preset": "far1", "size": 3},
             "imse": {"T_list": [256, 512], "replications": 4}},
        )
        argv = ["evaluate", "--config", config]
        serial = manifest_for_threads(tmp_path, argv, 1)
        assert manifest_for_threads(tmp_path, argv, 2) == serial

    def test_imse_bytes_do_not_depend_on_threads_with_default_blas(self, tmp_path):
        # the README imse config in fresh processes whose BLAS and OpenMP
        # thread counts are left at their defaults; two workers split the
        # 20 replications of each T into two passes of 10
        config = write_config(tmp_path, "imse.json", README_IMSE)
        src = os.path.dirname(os.path.dirname(os.path.abspath(tvfspec.__file__)))
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        reports = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "tvfspec.cli", "evaluate", "--config", config,
                 "--threads", str(threads), "--seed", "7", "--out", str(out)],
                env=env, capture_output=True, check=True,
            )
            reports.append((out / "imse.json").read_bytes())
        assert reports[1] == reports[0]
        assert json.loads(reports[0])["passed"] is True

    def test_library_check_writes_the_cli_report(self, tmp_path):
        # the README imse config at seed 7: the CLI's imse.json is
        # evaluate.mc_imse's report with the config hash note, as written by
        # ingest.write_report
        config = write_config(tmp_path, "imse.json", README_IMSE)
        out = tmp_path / "run"
        assert cli.main(["evaluate", "--config", config, "--seed", "7", "--out", str(out)]) == 0
        cfgs = {T: EstimatorConfig.auto(T) for T in (512, 4096)}
        lo = max(cfg.valid_band(T)[0] for T, cfg in cfgs.items())
        hi = min(cfg.valid_band(T)[1] for T, cfg in cfgs.items())
        report = evaluate.mc_imse(far1(size=15), cfgs, np.linspace(lo, hi, 3),
                                  fourier_frequencies(64), 20, seed=7)
        config_hash = hashlib.sha256(Path(config).read_bytes()).hexdigest()
        report.notes.append(f"config_sha256={config_hash}")
        ingest.write_report(report, tmp_path / "library.json")
        assert (tmp_path / "library.json").read_bytes() == (out / "imse.json").read_bytes()

    @pytest.mark.parametrize("check, call", [
        ("bias", lambda model, cfg: evaluate.mc_mean_bias(model, cfg, 512, 0.5, 0.0, 4,
                                                          projection=(0, 0), seed=7)),
        ("covariance", lambda model, cfg: evaluate.mc_covariance(
            model, cfg, 512, 0.5, np.pi / 2, np.pi / 4, 4, seed=7)),
        ("normality", lambda model, cfg: evaluate.mc_normality(model, cfg, 512, 0.5, np.pi / 2,
                                                               4, seed=7)),
    ], ids=["bias", "covariance", "normality"])
    def test_estimating_check_writes_the_library_report(self, tmp_path, check, call):
        # each check at its default u, frequencies and projection
        config = write_config(tmp_path, "check.json", far1_config(
            checks=[check], **{check: {"T": 512, "replications": 4}}))
        out = tmp_path / "run"
        code = cli.main(["evaluate", "--config", config, "--seed", "7", "--out", str(out)])
        report = call(far1(size=3), EstimatorConfig.auto(512))
        assert code == (0 if report.passed else 1)
        config_hash = hashlib.sha256(Path(config).read_bytes()).hexdigest()
        report.notes.append(f"config_sha256={config_hash}")
        ingest.write_report(report, tmp_path / "library.json")
        assert (tmp_path / "library.json").read_bytes() == (out / f"{check}.json").read_bytes()

    @pytest.mark.parametrize("omega", [[0.5, 1.0, 2.0], [2.0, 1.0, 0.5], [0.5, 2.0, 1.0]],
                             ids=["sorted", "descending", "unsorted"])
    def test_imse_integrates_over_the_sorted_frequencies(self, tmp_path, omega):
        # the trapezoid integral runs over the sorted axis whatever order the
        # config lists it in; the report is the library check's on that axis
        us = [0.3, 0.5, 0.7]
        config = write_config(tmp_path, "eval.json", {
            "model": {"preset": "far1", "size": 3}, "checks": ["imse"],
            "imse": {"T_list": [256, 512], "replications": 4, "u": us, "omega": omega}})
        out = tmp_path / "run"
        assert cli.main(["evaluate", "--config", config, "--seed", "3", "--out", str(out)]) == 0
        report = json.loads((out / "imse.json").read_text())
        want = evaluate.mc_imse(far1(size=3), {T: EstimatorConfig.auto(T) for T in (256, 512)},
                                us, [0.5, 1.0, 2.0], 4, seed=3)
        assert report["quantities"] == json.loads(ingest.write_json(want.quantities))
        assert report["passed"] is True
        assert all(v > 0.0 for T in (256, 512) for v in report["quantities"][f"imse_per_rep_T{T}"])

    @pytest.mark.parametrize("omega", [0.3, [0.3, 0.3], {"count": 1}],
                             ids=["one-number", "repeated", "count-one"])
    def test_imse_on_fewer_than_two_frequencies_exits_2(self, tmp_path, capsys, omega):
        config = write_config(tmp_path, "eval.json", {
            "model": {"preset": "far1", "size": 3}, "checks": ["imse"],
            "imse": {"T_list": [256, 512], "replications": 4, "omega": omega}})
        out = tmp_path / "run"
        assert cli.main(["evaluate", "--config", config, "--seed", "3", "--out", str(out)]) == 2
        assert ("config error: imse.omega needs 2 or more distinct frequencies"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("check, count, least", [
        ("imse", 0, 1), ("stationarity", 0, 1),
        ("bias", 1, 2), ("covariance", 1, 2), ("normality", 1, 2),
    ])
    def test_too_few_replications_exit_2(self, tmp_path, capsys, check, count, least):
        config = write_config(
            tmp_path, "eval.json",
            {"model": {"preset": "far1", "size": 3}, "checks": [check],
             check: {"replications": count}},
        )
        assert cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {check} check needs at least {least} replications, got {count}" in err

    def test_bad_later_check_writes_no_report(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "eval.json",
            {"model": {"preset": "far1", "size": 3}, "checks": ["imse", "bias"],
             "bias": {"replications": 1}},
        )
        out = tmp_path / "x"
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 2
        assert "bias check needs at least 2 replications" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unknown_check_exits_2(self, tmp_path):
        config = write_config(
            tmp_path, "eval.json",
            {"model": {"preset": "far1", "size": 3}, "checks": ["volume"]},
        )
        assert cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "x")]) == 2


class TestReproduce:
    def test_far1_inventory(self, tmp_path):
        config = write_config(tmp_path, "rep.json", {"render": 8})
        out = tmp_path / "run"
        code = cli.main(["reproduce", "far1", "--config", config,
                         "--T", "512", "--out", str(out)])
        assert code == 0
        slices = json.loads((out / "slices.json").read_text())
        assert [(s["u"], round(s["omega"], 6)) for s in slices] == [
            (0.25, 0.0), (0.5, round(0.3 * np.pi, 6)), (0.25, round(0.9 * np.pi, 6)),
        ]
        names = set(os.listdir(out))
        for i in range(3):
            assert f"slice{i}_truth.csv" in names
            for r in range(20):
                assert f"slice{i}_rep{r}.csv" in names
        dispersion = json.loads((out / "dispersion.json").read_text())
        assert dispersion["T"] == 512 and dispersion["replications"] == 20
        iqr = dispersion["median_pointwise_iqr"]
        assert set(iqr) == {"slice0", "slice1", "slice2"}
        assert all(v > 0.0 for v in iqr.values())

    def test_far2_slices_follow_peak_curve(self, tmp_path):
        config = write_config(tmp_path, "rep.json", {"render": 8})
        out = tmp_path / "run"
        code = cli.main(["reproduce", "far2", "--config", config,
                         "--T", "512", "--out", str(out)])
        assert code == 0
        slices = json.loads((out / "slices.json").read_text())
        assert len(slices) == 7
        for entry in slices:
            assert entry["omega"] == pytest.approx(1.5 - np.cos(np.pi * entry["u"]))

    def test_outputs_do_not_depend_on_threads(self, tmp_path):
        config = write_config(tmp_path, "rep.json", {"render": 8})
        argv = ["reproduce", "far1", "--config", config, "--T", "512"]
        serial = manifest_for_threads(tmp_path, argv, 1)
        assert serial[0] == 0
        assert manifest_for_threads(tmp_path, argv, 2) == serial

    def test_unsupported_length_exits_2(self, tmp_path):
        assert cli.main(["reproduce", "far1", "--T", "100",
                         "--out", str(tmp_path / "x")]) == 2

    def test_dispersion_matches_its_replication_files(self, tmp_path):
        # per slice, the median over the render grid of the interquartile
        # range of the 20 amplitude surfaces, recomputed exactly from the abs
        # columns of the replication files
        out = tmp_path / "run"
        assert cli.main(["reproduce", "far2", "--T", "512", "--seed", "7",
                         "--out", str(out)]) == 0
        dispersion = json.loads((out / "dispersion.json").read_text())["median_pointwise_iqr"]
        assert len(dispersion) == 7
        for i in range(7):
            amplitudes = np.stack([read_kernel_table(out / f"slice{i}_rep{r}.csv")[:, 6]
                                   for r in range(20)])
            assert amplitudes.shape == (20, 64 * 64)
            lower, upper = np.percentile(amplitudes, [25, 75], axis=0)
            assert dispersion[f"slice{i}"] == float(np.median(upper - lower))

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.just(cli.REPRODUCE_REPLICATIONS),
                                            st.integers(1, 64)),
                      elements=st.one_of(st.sampled_from([0.0, 5e-324, 2.5e-308, 1.0]),
                                         st.floats(0.0, 1e6))))
    # a + (b - a) t and b - (b - a)(1 - t) round apart for a = 0.2, b = 0.9 at t = 0.25
    # and 0.75, so these hold each quartile to numpy's choice between them
    @example(np.repeat([[0.2], [0.9]], [5, 15], axis=0))
    @example(np.repeat([[0.2], [0.9]], [15, 5], axis=0))
    def test_median_iqr_is_numpys_percentile_and_median(self, stack):
        # ties, subnormals, and grids of odd and even size, sorted as reproduce sorts them
        stack.sort(axis=0)
        lower, upper = np.percentile(stack, [25, 75], axis=0)
        want = float(np.median(upper - lower))
        assert np.float64(cli._median_iqr(stack)).tobytes() == np.float64(want).tobytes()

    def test_peak_memory_holds_one_slice_of_surfaces(self, tmp_path):
        # far2 at the default render of 64: all 7 slices' 20 amplitude
        # surfaces at once are 4.6 MB; one slice's surfaces, its complex
        # render and the estimates stay near 6 MB
        tracemalloc.start()
        try:
            code = cli.main(["reproduce", "far2", "--T", "512", "--out", str(tmp_path / "run")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8e6


class TestCheck:
    def test_far1_passes(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "check.json",
            {"model": {"preset": "far1"},
             "stationarity": {"u": 0.25, "T_list": [256, 1024, 4096],
                              "replications": 32}},
        )
        out = tmp_path / "run"
        code = cli.main(["check", "--config", config, "--out", str(out)])
        assert code == 0
        assert "local stationarity: pass" in capsys.readouterr().out
        stationarity = json.loads((out / "stationarity.json").read_text())
        assert stationarity["passes"]["bounded_second_moment"] is True
        assert abs(stationarity["quantities"]["slope"]) <= 0.15

    def test_frozen_rows_share_one_loop_per_pass(self, tmp_path, monkeypatch):
        # far1 with the default 16 replications: at each T one time loop for
        # the model's rows and one for the frozen model's, all 16 rows each
        loops = []
        real = evaluate._simulate_rows

        def spy(model, T, seeds, *args):
            frozen = all(curve.knots.size == 1 for curve in model.ar)
            loops.append(("frozen" if frozen else "model", T, len(seeds)))
            return real(model, T, seeds, *args)

        monkeypatch.setattr(evaluate, "_simulate_rows", spy)
        config = write_config(tmp_path, "check.json", {"model": {"preset": "far1"}})
        assert cli.main(["check", "--config", config, "--out", str(tmp_path / "run")]) == 0
        assert loops == [(kind, T, 16) for T in (256, 1024, 4096)
                         for kind in ("model", "frozen")]

    def test_time_invariant_model_passes_with_slope_zero(self, tmp_path, capsys):
        # white noise equals its frozen copy: every mean P_t^2 is 0.0, a
        # bounded second moment, and no log of zero is taken (warnings are errors)
        config = write_config(tmp_path, "check.json", {
            "model": {"preset": "white", "size": 2},
            "stationarity": {"replications": 2, "T_list": [64, 128]}})
        out = tmp_path / "run"
        assert cli.main(["check", "--config", config, "--out", str(out)]) == 0
        assert "local stationarity: pass" in capsys.readouterr().out
        report = json.loads((out / "stationarity.json").read_text())
        assert report["quantities"]["mean_p2"] == [0.0, 0.0]
        assert report["quantities"]["slope"] == 0.0
        assert report["passed"] is True

    def test_unstable_model_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, "check.json", {"model": unstable_document()})
        code = cli.main(["check", "--config", config, "--out", str(tmp_path / "x")])
        assert code == 3
        assert "stability: FAIL" in capsys.readouterr().err

    def test_zero_replications_exit_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "check.json",
            {"model": {"preset": "far1", "size": 3}, "stationarity": {"replications": 0}},
        )
        out = tmp_path / "x"
        assert cli.main(["check", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: stationarity check needs at least 1 replications, got 0" in err
        assert not (out / "stability.json").exists()


# the README's imse config
README_IMSE = {"model": {"preset": "far1", "size": 15}, "estimator": "auto",
               "u": {"count": 5}, "omega": {"count": 64},
               "imse": {"T_list": [512, 4096], "replications": 20}, "checks": ["imse"]}


def far1_config(**extra):
    return {"model": {"preset": "far1", "size": 3}, **extra}


def white_series(tmp_path):
    config = write_config(
        tmp_path, "white.json", {"model": {"preset": "white", "size": 2}, "render": 8, "T": 256},
    )
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "sim")]) == 0
    return str(tmp_path / "sim" / "series.csv")


@pytest.mark.parametrize("argv, config, code", [
    (["simulate"], far1_config(T=64, render=1), 2),
    (["reproduce", "far1", "--T", "512"], {"render": 1}, 2),
    (["estimate", None], {"basis_size": 2, "u": [0.5], "kernel": True, "render": 1}, 2),
    (["evaluate"], far1_config(checks=["imse"], imse={"T_list": [512]}), 2),
    (["evaluate"], far1_config(checks=["bias"], estimator={"taper": {"name": "nope"}}), 2),
    (["evaluate"], far1_config(checks=["bias"], bias={"u": 0.01}), 4),
    (["evaluate"], far1_config(checks=["bias"], bias={"projection": [3, 0]}), 2),
    (["evaluate"], far1_config(checks=["imse"], imse={"T_list": [256, 512]},
                               estimator={"segment": 512}), 2),
    (["evaluate"], {"model": {"preset": "far1", "size": 2}, "checks": ["normality"],
                    "normality": {"replications": 4, "T": 512}}, 2),
    (["evaluate"], {"model": {"preset": "white", "size": 2}, "checks": ["normality"],
                    "normality": {"replications": 4, "T": 512}}, 2),
    (["truth"], far1_config(u=[1.7, -0.5], omega=[0.3]), 2),
    (["check"], far1_config(stationarity={"u": 1.7}), 2),
    # inside the valid band, but the derivative stencil reaches below u = 0
    (["evaluate"], far1_config(estimator={"segment": 16}, checks=["bias"],
                               bias={"T": 4096, "u": 0.001953125, "replications": 2}), 2),
    (["evaluate"], {"model": {"preset": "far1", "size": 3, "knots": 4, "sigma": [1, 1, 1]},
                    "checks": ["bias"]}, 2),
], ids=["simulate-render", "reproduce-render", "estimate-render", "imse-one-T",
        "bias-taper", "bias-band", "bias-projection", "imse-no-common-band",
        "normality-projection", "normality-projection-white", "truth-u-outside",
        "stationarity-u-outside", "bias-stencil-outside", "model-key-unread"])
def test_bad_setting_writes_nothing(tmp_path, argv, config, code):
    argv = [white_series(tmp_path) if a is None else a for a in argv]
    path = write_config(tmp_path, "bad.json", config)
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", path, "--out", str(out)]) == code
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, config, message", [
    (["estimate", None], {"basis_size": 2, "estimator": {"segment": 700}},
     "N=700 exceeds the 600 observations, so no u has a segment"),
    (["evaluate"], far1_config(checks=["bias"], bias={"T": 64}, estimator={"segment": 128}),
     "N=128 exceeds the 64 observations, so no u has a segment"),
], ids=["estimate", "evaluate-bias"])
def test_segment_longer_than_the_series_exits_4_naming_no_band(tmp_path, capsys, argv, config,
                                                                message):
    # the valid band would be inverted, [0.583333, 0.416667] and [1, 0]
    series = tmp_path / "long.csv"  # 600 rows
    data = np.random.default_rng(1).standard_normal((600, 16))
    ingest.write_series(ingest.RawSeries(grid=np.linspace(0, 1, 16), data=data), series)
    argv = [str(series) if a is None else a for a in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", write_config(tmp_path, "long.json", config),
                     "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("boundary error: segment [") and err.endswith(f"; {message}\n")
    assert list(out.iterdir()) == []


def bias_estimator(estimator):
    return far1_config(checks=["bias"], estimator=estimator)


@pytest.mark.parametrize("argv, config, key, message", [
    (["evaluate"], bias_estimator({"segment": 7}), "estimator.segment",
     "segment length N must be even"),
    (["evaluate"], bias_estimator({"half_width": -1}), "estimator.half_width",
     "frequency bandwidth must be positive"),
    (["evaluate"], bias_estimator({"taper": {"name": "nope"}}), "estimator.taper.name",
     "unknown taper 'nope'"),
    (["evaluate"], bias_estimator({"taper": {"rho": 0.9}}), "estimator.taper.rho",
     "cosine_flat rise fraction"),
    (["evaluate"], bias_estimator({"taper": {"name": "flat", "rho": 0.3}}), "estimator.taper.rho",
     "not read by taper flat"),
    (["evaluate"], bias_estimator({"taper": {"name": "sqrt_epanechnikov", "rho": 0.45}}),
     "estimator.taper.rho", "not read by taper sqrt_epanechnikov"),
    # sample sizes below the reference bandwidths' least, 8
    (["evaluate"], far1_config(imse={"T_list": [4, 8]}), "imse.T_list[0]",
     "sample size 4 is too small"),
    (["evaluate"], far1_config(checks=["bias"], bias={"T": 4}), "bias.T",
     "sample size 4 is too small"),
    (["estimate", None], {}, "series", "sample size 6 is too small"),
], ids=["segment", "half_width", "taper-name", "taper-rho", "flat-rho", "sqrt_epanechnikov-rho",
        "imse-T_list", "bias-T", "estimate-series"])
def test_estimator_error_names_its_config_key(tmp_path, capsys, argv, config, key, message):
    series = tmp_path / "short.csv"  # six rows
    ingest.write_series(ingest.RawSeries(grid=np.linspace(0, 1, 16), data=np.ones((6, 16))), series)
    argv = [str(series) if a is None else a for a in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", write_config(tmp_path, "bad.json", config),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: {message}")
    assert list(out.iterdir()) == []


def ar1_document(**changes):
    """A stable two-dimensional AR(1) model document with ``changes`` applied."""
    curve = OperatorCurve.constant(np.diag([0.5, -0.3]))
    model = TvFarmaModel(ar=(curve,), innovations=InnovationSpec(np.ones(2)))
    return {**model_document(model), **changes}


@pytest.mark.parametrize("command, config, message", [
    ("estimate", '{"estimator": {"half_width": Infinity}}',
     "estimator.half_width must be a finite number, got inf"),
    ("estimate", '{"estimator": {"half_width": 1e999}}',
     "estimator.half_width must be a finite number, got inf"),
    ("simulate", json.dumps({"model": ar1_document(sigma=[np.nan, 1.0]), "T": 64}),
     "bad inline model document: sigma must be a nonempty nonnegative finite vector"),
    ("truth", json.dumps({"model": ar1_document(ar=[{"knots": [0.0], "values": [
        [np.inf, 0.0, 0.0, 0.5]]}])}),
     "bad inline model document: curve knots and values must be finite"),
    ("truth", '{"model": {"preset": "far1", "size": 3}, "omega": [NaN]}',
     "omega[0] must be a finite number, got nan"),
    ("simulate", '{"model": {"preset": "far1", "size": 3, "eta": NaN}, "T": 64}',
     "model.eta must be a finite number, got nan"),
], ids=["estimate-half_width-Infinity", "estimate-half_width-1e999", "simulate-sigma-NaN",
        "truth-ar-Infinity", "truth-omega-NaN", "simulate-eta-NaN"])
def test_non_finite_number_exits_2_before_any_write(tmp_path, capsys, command, config, message):
    path = tmp_path / "bad.json"
    path.write_text(config)
    argv = [command, white_series(tmp_path)] if command == "estimate" else [command]
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_non_finite_model_file_exits_2_before_any_write(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(ar1_document(sigma=[1.0, np.nan])))
    config = write_config(tmp_path, "sim.json", {"model": {"path": str(model)}, "T": 64})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 2
    assert f"config error: cannot load model {model}: sigma must be" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("form", ["path", "inline"])
@pytest.mark.parametrize("doc, message", [
    ({"format": "tvfspec-model", "version": 1}, "model document has no field dim"),
    ([1, 2], "must be an object, got [1, 2]"),
    (ar1_document(dim=None), "model document field dim must be an integer, got None"),
    (ar1_document(dim="2"), "model document field dim must be an integer, got '2'"),
    (ar1_document(dim=True), "model document field dim must be an integer, got True"),
    (ar1_document(ar_order=0.9), "model document field ar_order must be an integer, got 0.9"),
    (ar1_document(ar=[{"knots": [0.0]}]), "model document has no field ar[0].values"),
    (ar1_document(sigma={"a": 1.0}), "model document field sigma must hold numbers"),
    (ar1_document(sigma=["1", "1"]), "model document field sigma must hold numbers"),
    (ar1_document(ar=[{"knots": [0.0], "values": [[0.5, 0.0, 0.0, None]]}]),
     "model document field ar[0].values[0] must hold a 2 x 2 matrix of numbers"),
], ids=["no-dim", "list", "dim-null", "dim-string", "dim-bool", "ar_order-float",
        "curve-no-values", "sigma-object", "sigma-strings", "value-null"])
def test_malformed_model_document_exits_2_before_any_write(tmp_path, capsys, form, doc,
                                                           message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    spec = {"path": str(model)} if form == "path" else doc
    config = write_config(tmp_path, "truth.json", {"model": spec})
    out = tmp_path / "out"
    assert cli.main(["truth", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"{message}\n") and err.count("\n") == 1
    if type(doc) is dict:  # an inline list fails the config table's own check first
        prefix = f"cannot load model {model}: " if form == "path" else "bad inline model document: "
        assert err.startswith(f"config error: {prefix}")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["estimate", "evaluate"])
def test_frequency_kernel_width_is_not_a_setting(tmp_path, capsys, command):
    # b_f alone sets the kernel support: a width w is b_f scaled by w / 0.5
    config = write_config(tmp_path, "bad.json",
                          far1_config(checks=["bias"], estimator={"kernel": {"half_width": 1.0}}))
    argv = [command, white_series(tmp_path)] if command == "estimate" else [command]
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", config, "--out", str(out)]) == 2
    assert "config error: unknown key estimator.kernel" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("taper", [{"name": "cosine_flat", "rho": 0.3}, {"rho": 0.3}],
                         ids=["cosine_flat", "no-name"])
def test_taper_rho_is_accepted_where_the_taper_reads_it(taper):
    config = cli._validate(far1_config(estimator={"taper": taper}))
    assert cli._resolve_estimator(config, 512, "T").taper == TaperSpec(name="cosine_flat", rho=0.3)


@pytest.mark.parametrize("command", ["simulate", "evaluate", "check"])
def test_stability_failure_names_the_worst_radius_and_u(tmp_path, capsys, command):
    config = write_config(tmp_path, "bad.json", {"model": unstable_document(), "T": 64})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "stability: FAIL (radius 1.2 at u = 0)\n"
    assert sorted(os.listdir(out)) == ["config.json", "manifest.json", "stability.json"]


def test_singular_ar_symbol_exits_3(tmp_path, capsys):
    curve = OperatorCurve(np.array([0.0, 1.0]), np.array([[[1.0]], [[1.0]]]))
    model = TvFarmaModel(ar=(curve,), innovations=InnovationSpec(np.array([1.0])))
    config = write_config(
        tmp_path, "truth.json", {"model": model_document(model), "omega": [0.0, 1.0]},
    )
    out = tmp_path / "x"
    assert cli.main(["truth", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stability: FAIL (AR symbol at u=") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, config, path", [
    (["simulate"], far1_config(T=64, render=None), "render"),
    (["simulate"], far1_config(T=[64]), "T"),
    (["simulate"], far1_config(T=64, seed=None), "seed"),
    (["evaluate"], far1_config(imse=[]), "imse"),
    (["check"], far1_config(stationarity={"T_list": [256, None]}), "stationarity.T_list[1]"),
    (["truth"], far1_config(omega={"count": None}), "omega.count"),
    (["simulate"], {"model": {"preset": "far1", "size": True}, "T": 64}, "model.size"),
    (["simulate"], far1_config(T=64.9), "T"),
    (["simulate"], far1_config(T=64, seed=-1), "seed"),
], ids=["render-null", "T-list", "seed-null", "imse-list", "T_list-null", "omega-count-null",
        "size-bool", "T-float", "seed-negative"])
def test_bad_config_value_names_its_path(tmp_path, capsys, argv, config, path):
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main([*argv, "--config", write_config(tmp_path, "bad.json", config),
                     "--out", str(out)]) == 2
    assert f"config error: {path} must be " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_estimate_names_the_bad_series_line(tmp_path, capsys):
    series = Path(white_series(tmp_path))
    lines = series.read_text().split("\n")
    lines[4] = lines[4].replace(",", ",x", 1)
    series.write_text("\n".join(lines))
    out = tmp_path / "est"
    assert cli.main(["estimate", str(series), "--out", str(out)]) == 5
    assert f"parse error: {series}:5: non-numeric field" in capsys.readouterr().err


def test_series_that_is_not_utf8_is_a_parse_error_on_its_line(tmp_path, capsys):
    series = Path(white_series(tmp_path))
    lines = series.read_bytes().split(b"\n")
    lines[2] = lines[2][:5] + b"\x99" + lines[2][5:]
    series.write_bytes(b"\n".join(lines))
    out = tmp_path / "est"
    assert cli.main(["estimate", str(series), "--out", str(out)]) == 5
    assert capsys.readouterr().err == f"parse error: {series}:3: byte 0x99 is not UTF-8 text\n"


def test_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_bytes(b'{"render": 8,\n "out": "\xff"}\n')
    out = tmp_path / "out"
    assert cli.main(["truth", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config {config} is not UTF-8 text: ")
    assert not out.exists()


def table_entries(table=cli._TABLE, path=""):
    """(dotted path, entry) of every leaf of the config key table."""
    for key, rule in table.items():
        inner = f"{path}.{key}" if path else key
        if type(rule) is dict:
            yield from table_entries(rule, inner)
        else:
            yield inner, rule


def bad_values(path, rule):
    """(value, start of its error) pairs: wrong types, then values out of the entry's bounds."""
    wrong = {int: 1.5, float: "x", str: 1, bool: 1, "axis": None}.get(rule.kind, 1)
    at = f"{path}[0]" if rule.many else path  # where a scalar check lands
    if rule.many:
        cases = [("x", f"{path} must be a list"), ([wrong], f"{at} must be "),
                 ([], f"{path} needs {rule.many} or more distinct entries, got []")]
    else:
        cases = [(wrong, f"{path} must be ")]
    # json reads NaN, Infinity and 1e999 as floats
    if rule.kind is float:
        cases.append(([np.inf] if rule.many else np.inf, f"{at} must be a finite number"))
    if rule.kind == "axis":
        cases.append(([np.nan], f"{path}[0] must be a finite number"))
        cases.append(([], f"{path} needs 1 or more distinct entries, got []"))
    if rule.many > 1:
        cases.append(([256, 256], f"{path} needs {rule.many} or more distinct entries"))
    if type(rule.kind) is tuple:
        cases.append((["nope"] if rule.many else "nope", f"{at} must be one of "))
    if rule.least is not None:
        low = rule.least - 1
        check, _, key = path.rpartition(".")
        if key == "replications" and check:
            message = f"{check} check needs at least {rule.least} replications, got {low}"
        elif rule.kind == "axis":
            low, message = {"count": low}, f"{path}.count must be at least {rule.least}, got "
        else:
            message = f"{at} must be at least {rule.least}, got "
        cases.append(([low] if rule.many else low, message))
    return cases


def config_with(path, value):
    config = {"model": {"preset": "far1", "size": 3}}
    *sections, key = path.split(".")
    inner = config
    for name in sections:
        inner = inner.setdefault(name, {})
    inner[key] = value
    return config


TABLE_CASES = [(path, value, message) for path, rule in table_entries()
               for value, message in bad_values(path, rule)]


@pytest.mark.parametrize("path, value, message", TABLE_CASES,
                         ids=[f"{path}={value!r}" for path, value, _ in TABLE_CASES])
def test_every_table_entry_rejects_wrong_types_and_values_out_of_bounds(
        tmp_path, capsys, path, value, message):
    out = tmp_path / "out"
    out.mkdir()
    config = write_config(tmp_path, "bad.json", config_with(path, value))
    assert cli.main(["truth", "--config", config, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_every_table_entry_is_covered():
    assert {path for path, _, _ in TABLE_CASES} == {path for path, _ in table_entries()}
    # and every entry with bounds has a case out of them
    bounded = {path for path, rule in table_entries()
               if rule.least is not None or rule.many or type(rule.kind) is tuple}
    assert bounded == {path for path, _, message in TABLE_CASES
                       if re.search("at least|one of|distinct", message)}


@pytest.mark.parametrize("config, message", [
    ({"rendr": 8}, "unknown key rendr; did you mean render?"),
    ({"imse": {"replicatons": 20}}, "unknown key imse.replicatons; did you mean replications?"),
    ({"model": {"preset": "far1", "sise": 3}}, "unknown key model.sise; did you mean size?"),
    ({"u": {"cuont": 3}}, "unknown key u.cuont; did you mean count?"),
    ({"xyzzy": 1}, "unknown key xyzzy; known keys: seed, out, T, "),
], ids=["top-level", "check-section", "model", "axis", "no-close-key"])
def test_unknown_key_exits_2_naming_the_closest_known_key(tmp_path, capsys, config, message):
    config = write_config(tmp_path, "typo.json", {**far1_config(checks=["imse"]), **config})
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, config, message", [
    (["evaluate"], far1_config(checks=["stationarity"], stationarity={"T_list": [0, 256]}),
     "stationarity.T_list[0] must be at least 1, got 0"),
    (["evaluate"], far1_config(imse={"T_list": [512, 512]}),
     "imse.T_list needs 2 or more distinct entries, got [512, 512]"),
    (["check"], far1_config(stationarity={"T_list": [256]}),
     "stationarity.T_list needs 2 or more distinct entries, got [256]"),
    (["truth"], {"model": {"preset": "far1", "size": 3, "knots": 0}},
     "model.knots must be at least 1, got 0"),
    (["truth"], {"model": {"preset": "white", "size": 0}}, "model.size must be at least 1, got 0"),
    (["evaluate"], far1_config(checks=["bias"], replications=1),
     "bias check needs at least 2 replications, got 1"),
    (["evaluate"], far1_config(estimator={"segment": 16}, checks=["bias"],
                               bias={"T": 4096, "u": 0.998046875}),
     "bias.u must keep the derivative stencil u +- 0.002 inside [0, 1], got 0.998046875"),
    (["evaluate"], far1_config(checks=["imse", "imse"]),
     "checks[1] repeats 'imse'; each entry may appear once"),
    (["check"], far1_config(stationarity={"T_list": [64, 64, 128]}),
     "stationarity.T_list[1] repeats 64; each entry may appear once"),
    (["truth"], far1_config(render=10**13), "render = 10000000000000 is too large"),
    (["simulate"], far1_config(T=64, render=10**13), "render = 10000000000000 is too large"),
    (["reproduce", "far1", "--T", "512"], {"render": 10**13},
     "render = 10000000000000 is too large"),
    (["truth"], far1_config(u={"count": 10**13}), "u.count = 10000000000000 is too large"),
    (["truth"], far1_config(omega={"count": 10**13}), "omega.count = 10000000000000 is too large"),
    (["evaluate"], far1_config(imse={"omega": {"count": 10**13}}),
     "imse.omega.count = 10000000000000 is too large"),
    (["truth"], {"model": {"preset": "far1", "size": 10**7}}, "model.size = 10000000 is too large"),
    (["truth"], {"model": {"preset": "far1", "size": 3, "knots": 10**13}},
     "model.knots = 10000000000000 is too large"),
    # checked against the series' 8 grid points before the design matrix is built
    (["estimate", None], {"basis_size": 10**13},
     "basis_size: under-determined projection: 8 grid points for 10000000000000"),
    # each axis fits, the (u, omega) grid of K x K complex operators does not
    (["truth"], far1_config(u={"count": 100000}, omega={"count": 100000}),
     "u x omega = 100000 x 100000 is too large"),
    (["evaluate"], far1_config(imse={"u": {"count": 100000}, "omega": {"count": 100000}}),
     "imse.u x imse.omega = 100000 x 100000 is too large"),
    (["estimate", None], {"basis_size": 2, "u": {"count": 100000}, "omega": {"count": 100000}},
     "u x omega = 100000 x 100000 is too large"),
    # a kernel support narrower than the Fourier spacing, off every Fourier frequency
    (["evaluate"], far1_config(estimator={"half_width": 1e-06}, imse={"T_list": [512, 1024]}),
     "imse.omega at T = 512: no Fourier frequency falls inside the kernel support "
     "at omega=-3.04342"),
    (["evaluate"], far1_config(estimator={"half_width": 1e-06}, checks=["bias"],
                               bias={"omega": 0.01}),
     "bias.omega: no Fourier frequency falls inside the kernel support at omega=0.01"),
    (["evaluate"], far1_config(estimator={"half_width": 1e-06}, checks=["covariance"],
                               covariance={"omega1": 0.0, "omega2": 0.01}),
     "covariance.omega2: no Fourier frequency falls inside the kernel support at omega=0.01"),
], ids=["T_list-zero", "imse-one-distinct-T", "stationarity-one-T", "knots-zero", "size-zero",
        "top-level-replications", "bias-stencil-above-one", "repeated-check",
        "repeated-stationarity-T", "truth-render", "simulate-render", "reproduce-render",
        "u-count", "omega-count", "imse-omega-count", "model-size", "model-knots", "basis_size",
        "truth-grid", "imse-grid", "estimate-grid", "imse-band", "bias-band", "covariance-band"])
def test_out_of_range_setting_exits_2_before_any_write(tmp_path, capsys, argv, config, message):
    argv = [white_series(tmp_path) if a is None else a for a in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", write_config(tmp_path, "bad.json", config),
                     "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_estimate_segments_beyond_physical_memory_exit_2_before_any_write(
    tmp_path, capsys, monkeypatch
):
    series = white_series(tmp_path)  # T = 256, so N = 102
    # 64 MiB: the u axis (0.4 MB) and the grid (3.2 MB) fit, the stacked
    # segments (50000 x 102 x 2 floats, 81.6 MB) do not
    monkeypatch.setattr(cli.os, "sysconf", {"SC_PHYS_PAGES": 2**14, "SC_PAGE_SIZE": 2**12}.get)
    path = write_config(tmp_path, "big.json",
                        {"basis_size": 2, "u": {"count": 50000}, "omega": [0.3]})
    out = tmp_path / "out"
    assert cli.main(["estimate", series, "--config", path, "--out", str(out)]) == 2
    assert ("config error: u = 50000 points is too large: one segment of N = 102 observations "
            "per point needs more than") in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("pages, config, message", [
    # 8 MiB: the u axis (40 kB) and the grid (1.4 MB) fit, one row of 5000
    # open segments at T = 512 (12 MB) does not
    (2**11, {"imse": {"u": {"count": 5000}, "omega": [0.3, 0.6], "T_list": [512, 1024]}},
     "imse.u = 5000 points is too large: one replication row of its segments at T = 512"),
    # 128 KiB: one row of the segment of N = 10322 steps (254 kB) does not fit
    (2**5, {"checks": ["bias"], "bias": {"T": 2**16, "replications": 2}},
     "bias.T = 65536 is too large: one replication row of its segments at T = 65536"),
], ids=["imse", "bias"])
def test_replication_row_beyond_physical_memory_exits_2_before_any_write(
    tmp_path, capsys, monkeypatch, pages, config, message
):
    monkeypatch.setattr(cli.os, "sysconf", {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 2**12}.get)
    path = write_config(tmp_path, "big.json", far1_config(**config))
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", path, "--out", str(out)]) == 2
    assert f"config error: {message} needs more than" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("pages, config, amount", [
    (2**11, {"imse": {"u": {"count": 5000}, "omega": [0.3, 0.6], "T_list": [512, 1024]}},
     "8.0 MiB"),
    (2**5, {"checks": ["bias"], "bias": {"T": 2**16, "replications": 2}}, "128.0 KiB"),
], ids=["MiB", "KiB"])
def test_physical_memory_below_one_gib_prints_in_a_smaller_unit(
    tmp_path, capsys, monkeypatch, pages, config, amount
):
    monkeypatch.setattr(cli.os, "sysconf", {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 2**12}.get)
    path = write_config(tmp_path, "big.json", far1_config(**config))
    assert cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.endswith(f"needs more than the {amount} of physical memory\n")


def test_estimate_of_a_short_series_names_the_empty_band_alone(tmp_path, capsys):
    # at T = 16 the reference rates give N = 10 and b_f = 0.52, below the
    # Fourier spacing 0.63, so the default frequency axis has empty bands
    sim = write_config(tmp_path, "sim.json", {"model": {"preset": "white", "size": 2},
                                              "render": 8, "T": 16})
    assert cli.main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["estimate", str(tmp_path / "sim" / "series.csv"), "--config",
                     write_config(tmp_path, "est.json", {"basis_size": 2}),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: series: no Fourier frequency falls inside "
                                       "the kernel support at omega=-2.84707\n")
    assert list(out.iterdir()) == []


def test_degenerate_bandwidth_warning_names_the_caller(tmp_path):
    # the check that was given the estimator config warns at the line that
    # called it, once per degenerate sample size: only T = 512 (N = 182) has
    # a Fourier spacing above 0.0345
    path = write_config(tmp_path, "degenerate.json", far1_config(
        estimator={"half_width": 0.0345}, imse={"u": [0.5], "omega": [0.0, np.pi],
                                                "T_list": [512, 1024], "replications": 2}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "out")])
    assert [(w.filename, str(w.message)) for w in caught] == [
        (cli.__file__, "frequency bandwidth 0.0345 does not exceed the Fourier spacing 0.03452; "
                       "the weight sum degenerates")]


def test_degenerate_bandwidth_warns_once(tmp_path):
    # a kernel support narrower than the Fourier spacing that still holds the
    # frequency it sits on: the resolver's band check stays silent, the check warns
    path = write_config(tmp_path, "degenerate.json", far1_config(
        estimator={"half_width": 0.0345}, checks=["covariance"],
        covariance={"replications": 3, "T": 512, "omega1": 0.0}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert [str(w.message) for w in caught] == [
        "frequency bandwidth 0.0345 does not exceed the Fourier spacing 0.03452; "
        "the weight sum degenerates"]


@pytest.mark.parametrize("T", [10**30, 2**40])
@pytest.mark.parametrize("command, key", [
    ("simulate", "T"), ("simulate", "--T"), ("check", "stationarity.T_list[1]"),
], ids=["simulate-config", "simulate-flag", "check"])
def test_sample_size_beyond_physical_memory_exits_2_before_any_write(
    tmp_path, capsys, T, command, key
):
    config, flags = {"T": ({"T": T}, []), "--T": ({}, ["--T", str(T)]),
                     "stationarity.T_list[1]": ({"stationarity": {"T_list": [256, T]}}, [])}[key]
    path = write_config(tmp_path, "big.json", {"model": {"preset": "far1", "size": 3}, **config})
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, *flags, "--out", str(out)]) == 2
    assert f"config error: {key} = {T} is too large" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, model, message", [
    ("truth", {"preset": "far2", "size": 3, "eta": 0.9, "decay": 7, "sigma": [5, 5, 5]},
     "model.eta is not read by preset far2 (it reads preset, size, seed, knots)"),
    ("truth", {"preset": "far2", "size": 3, "sigma": [5, 5, 5]},
     "model.sigma is not read by preset far2"),
    ("truth", {"preset": "far1", "path": "/nonexistent.json"},
     "model.path is not read by preset far1"),
    ("truth", {"preset": "white", "size": 2, "seed": 3}, "model.seed is not read by preset white"),
    ("truth", {"path": "model.json", "size": 3},
     "model.size is not read by a model path (it reads path)"),
    ("simulate", {"preset": "white", "size": 4, "sigma": [1, 2]},
     "model.sigma has 2 entries, but model.size is 4"),
], ids=["far2-eta", "far2-sigma", "far1-path", "white-seed", "path-size", "white-sigma-length"])
def test_model_key_the_model_does_not_read_exits_2(tmp_path, capsys, command, model, message):
    config = write_config(tmp_path, "bad.json", {"model": model, "T": 64})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_model_keys_each_form_reads_are_accepted():
    for model in ({"preset": "far1", "size": 2, "seed": 3, "eta": 0.3, "decay": 2, "knots": 4},
                  {"preset": "far2", "size": 2, "seed": 3, "knots": 4},
                  {"preset": "white", "size": 2, "sigma": [1, 2]},
                  {"preset": "white", "sigma": [1, 2, 3]}, {"path": "model.json"}):
        assert cli._validate({"model": model})["model"] == model


def test_top_level_settings_are_bounded_only_by_the_checks_that_read_them():
    # imse takes one replication; the bias check, which needs two, does not run
    assert cli._validate(far1_config(checks=["imse"], replications=1))["imse"]["replications"] == 1
    # a check's own setting wins over the top level, and numbers come back as floats
    config = cli._validate(far1_config(checks=["bias"], replications=1, T=512,
                                       bias={"replications": 2, "omega": 1}))
    assert config["bias"] == {"replications": 2, "T": 512, "omega": 1.0}


@pytest.mark.parametrize("argv", [
    ["evaluate", "--T", "99999"], ["truth", "--T", "64"], ["check", "--T", "64"],
    ["estimate", "series.csv", "--T", "64"], ["simulate", "--threads", "2"],
    ["truth", "--threads", "2"], ["estimate", "series.csv", "--threads", "2"],
], ids=["evaluate-T", "truth-T", "check-T", "estimate-T", "simulate-threads", "truth-threads",
        "estimate-threads"])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_documented_configs_validate():
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"```json\n(.*?)```", (root / "README.md").read_text(), re.S)
    assert blocks
    # the benchmark's imse config, whose top-level "u" no evaluate check reads
    source = ast.parse((root / "perfbench" / "run.py").read_text())
    bench = [ast.literal_eval(node.value) for node in source.body if isinstance(node, ast.Assign)
             and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["IMSE_CONFIG"]]
    assert len(bench) == 1
    for config in [*map(json.loads, blocks), *bench]:
        cli._validate(config)


def test_readme_model_table_matches_the_preset_builders():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| form | keys it reads |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.findall(r"^\| `?(\w+)`? \| (.*) \|$", table, re.M))
    assert list(rows) == [*PRESETS, "path"]
    for form, cell in rows.items():
        # each key in backquotes, then its note in parentheses, if any
        notes = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", cell)
        assert tuple(key for key, _ in notes) == cli._MODEL_FORMS[form]
        if form == "path":
            continue
        params = inspect.signature(PRESETS[form]).parameters
        assert params.keys() <= cli._TABLE["model"].keys()
        for key, note in notes:
            if key in ("size", "seed"):
                assert re.fullmatch(rf"(default )?{params[key].default}", note), (form, key)


def readme_angle(text):
    """A frequency as the README's check table writes it: a number or pi/n."""
    return np.pi / int(text[3:]) if text.startswith("pi/") else float(text)


def test_readme_check_table_matches_the_resolved_defaults():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    head = "| check | `replications` | sample sizes | `u` | `omega` |\n|---|---|---|---|---|\n"
    table = text.split(head, 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        cells = line.strip("| ").split(" | ")
        for check in re.findall(r"`(\w+)`", cells[0]):
            rows[check] = cells[1:]
    assert list(rows) == list(cli._RESOLVERS)
    model = far1(size=3)

    def defaults(check, command="evaluate"):
        """The arguments ``check`` is called with from a config that leaves its section empty."""
        run = SimpleNamespace(config=cli._validate({"checks": [check]}), seed=0, threads=1,
                              command=command)
        call = cli._RESOLVERS[check](run, model)
        return inspect.signature(call.func).bind(*call.args, **call.keywords).arguments

    for check, (reps, sizes, u, omega) in rows.items():
        got = defaults(check)
        assert got["R"] == int(re.findall(r"\d+", reps)[0]), check
        listed = re.search(r"\[[\d, ]+\]", sizes)
        if check == "imse":
            assert sorted(got["cfgs"]) == json.loads(listed.group())
            assert len(got["us"]) == int(re.search(r"default (\d+) points", u).group(1))
            count = int(re.search(r"(\d+) Fourier frequencies", omega).group(1))
            assert np.array_equal(got["omegas"], fourier_frequencies(count))
            continue
        assert got["u"] == float(re.search(r"default ([\d.]+)", u).group(1)), check
        if check == "stationarity":
            assert got["T_list"] == json.loads(listed.group())
            # under ``check`` the replications are the number in parentheses
            under_check = int(re.search(r"\((\d+) under `check`\)", reps).group(1))
            assert defaults(check, "check")["R"] == under_check
            continue
        assert got["T"] == int(re.findall(r"\d+", sizes)[-1]), check
        if check == "covariance":
            pair = re.search(r"covariance, ([\w/.]+) and ([\w/.]+)", omega).groups()
            assert (got["omega1"], got["omega2"]) == tuple(map(readme_angle, pair))
        else:
            assert got["omega"] == readme_angle(re.search(rf"{check} ([\w/.]+)", omega).group(1))
