import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvfspec
from tvfspec import cli, ingest
from tvfspec.estimator import fourier_frequencies
from tvfspec.ingest import (
    model_document,
    read_kernel_table,
    read_series,
    read_spectral_grid,
)
from tvfspec.model import InnovationSpec, OperatorCurve, TvFarmaModel
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


def test_import_needs_numpy_only():
    # numpy is the only runtime dependency: no other installed distribution
    # provides a module that the import adds to a fresh interpreter
    src = os.path.dirname(os.path.dirname(os.path.abspath(tvfspec.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, importlib.metadata as md; before = set(sys.modules); "
        "import tvfspec.cli; "
        "added = {m.split('.')[0] for m in set(sys.modules) - before} - {'numpy', 'tvfspec'}; "
        "print(sorted(added & set(md.packages_distributions())))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_import_starts_no_process_pool_machinery():
    # the pool is imported only when a run asks for more than one worker
    src = os.path.dirname(os.path.dirname(os.path.abspath(tvfspec.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, tvfspec.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


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
        assert str(series) in manifest["inputs"]

    def test_out_of_band_exits_4(self, tmp_path, capsys):
        series = self.simulate_white(tmp_path)
        config = write_config(tmp_path, "est.json", {"basis_size": 2, "u": [0.01]})
        code = cli.main(["estimate", str(series), "--config", config,
                         "--out", str(tmp_path / "est")])
        assert code == 4
        assert "valid band" in capsys.readouterr().err

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
        # thread counts are left at their defaults; at T = 4096 the 20
        # replications form three chunks, which two workers run as two passes
        config = write_config(
            tmp_path, "imse.json",
            {"model": {"preset": "far1", "size": 15}, "estimator": "auto",
             "u": {"count": 5}, "omega": {"count": 64},
             "imse": {"T_list": [512, 4096], "replications": 20}, "checks": ["imse"]},
        )
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
], ids=["simulate-render", "reproduce-render", "estimate-render", "imse-one-T",
        "bias-taper", "bias-band", "bias-projection", "imse-no-common-band"])
def test_bad_setting_writes_nothing(tmp_path, argv, config, code):
    argv = [white_series(tmp_path) if a is None else a for a in argv]
    path = write_config(tmp_path, "bad.json", config)
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", path, "--out", str(out)]) == code
    assert list(out.iterdir()) == []


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
