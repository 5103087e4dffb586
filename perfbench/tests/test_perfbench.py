"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workdir, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=workdir, capture_output=True, text=True, timeout=170,
    )


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, table", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, table):
    proc = _bench(ROOT, "--workload", "evaluate_imse", "--seed", "4", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[table]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "exact_truth", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tally(workload, out, seed, workdir):
    tally = run.Tally()
    for label, problem in workload.check_library(out, seed, workdir):
        tally.record(label, [problem] if problem else [])
    tally.record("run", workload.check_output(out, seed))
    return tally


def test_corrupted_output_raises_error_rate(tmp_path):
    workload = run.EvaluateImse()
    (tmp_path / "imse.json").write_text(json.dumps(run.IMSE_CONFIG))
    rep = run.run_program(workload, 4, tmp_path, "clean", traced=False)
    assert rep["exit"] == 0
    assert _tally(workload, rep["out"], 4, tmp_path).failed == 0

    report = rep["out"] / "imse.json"
    data = json.loads(report.read_text())
    data["quantities"]["imse_per_rep_T512"][0] *= 1.001
    report.write_text(json.dumps(data))
    tally = _tally(workload, rep["out"], 4, tmp_path)
    # The recomputed IMSE and the manifest hash both disagree.
    assert tally.failed == 2
    assert tally.failed / tally.attempted > 0


def test_exact_truth_check_rejects_bad_results(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3))
    herm = rng.standard_normal((2, 4, 3, 3)) + 1j * rng.standard_normal((2, 4, 3, 3))
    herm = herm + np.conj(np.swapaxes(herm, -1, -2))
    good = dict(stable=True, lags=64, wigner_ville=herm, truth=herm, x=x, y=x + 1e-12)
    check = run.ExactTruth().check_output
    np.savez(tmp_path / "exact_truth.npz", **good)
    assert check(tmp_path, 0) == []
    np.savez(tmp_path / "exact_truth.npz", **{**good, "y": x + 1e-6})
    assert len(check(tmp_path, 0)) == 1
    skew = herm.copy()
    skew[0, 0, 0, 1] += 1e-3
    np.savez(tmp_path / "exact_truth.npz", **{**good, "wigner_ville": skew})
    assert len(check(tmp_path, 0)) == 1


def test_recorder_links_children_to_parents():
    recorder = spans.Recorder("toy")
    ns = types.SimpleNamespace()

    def inner():
        time.sleep(0.002)

    def outer():
        ns.inner()
        ns.inner()

    ns.inner = recorder.wrap(inner, "toy.inner", "toy")
    ns.outer = recorder.wrap(outer, "toy.outer", "toy")
    ns.outer()
    ns.inner()
    parents = [(s[2], s[1]) for s in recorder.spans]
    assert parents == [("toy.outer", None), ("toy.inner", 0), ("toy.inner", 0), ("toy.inner", None)]
    stats = spans.layer_stats(recorder.spans)
    assert stats["toy.inner"]["calls"] == 3
    outer_span = recorder.spans[0]
    children = sum(s[5] - s[4] for s in recorder.spans[1:3])
    assert stats["toy.outer"]["self_s"] == pytest.approx(outer_span[5] - outer_span[4] - children)


def test_busy_time_counts_reentry_once():
    # (id, parent, name, site, start, end, attrs): f re-enters itself through g.
    trace = [
        (0, None, "m.f", "m", 0.0, 10.0, None),
        (1, 0, "m.g", "m", 1.0, 9.0, None),
        (2, 1, "m.f", "m", 2.0, 6.0, None),
    ]
    stats = spans.layer_stats(trace)
    assert stats["m.f"] == {"calls": 2, "busy_s": 10.0, "self_s": 2.0 + 4.0}
    assert stats["m.g"] == {"calls": 1, "busy_s": 8.0, "self_s": 4.0}


def test_traced_run_spans_nest_and_self_times_add_up(tmp_path):
    (tmp_path / "imse.json").write_text(json.dumps(run.IMSE_CONFIG))
    rep = run.run_program(run.EvaluateImse(), 4, tmp_path, "traced", traced=True)
    assert rep["exit"] == 0
    trace = rep["spans"]
    by_id = {s[0]: s for s in trace}
    for sid, parent, name, site, start, end, attrs in trace:
        assert start <= end
        if parent is not None:
            assert by_id[parent][4] <= start and end <= by_id[parent][5]
    stats = spans.layer_stats(trace)
    total_self = sum(entry["self_s"] for entry in stats.values())
    assert total_self == pytest.approx(spans.top_level_s(trace), rel=1e-9)
    assert stats["model.simulate"]["calls"] == 40
    assert {s[3] for s in trace if s[2] == "model.simulate"} == {"cli"}
    assert sorted(spans.replication_times(trace)) == [512, 4096]
