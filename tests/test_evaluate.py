import json
from functools import partial

import numpy as np
import pytest

from tvfspec import evaluate as evaluate_module
from tvfspec import model as model_module
from tvfspec.estimator import EstimatorConfig, estimate_grid
from tvfspec.evaluate import (
    McReport,
    _second_derivative,
    effective_dof,
    imse,
    local_stationarity_check,
    mc_covariance,
    mc_mean_bias,
    mc_normality,
    predicted_covariance,
    replicate,
)
from tvfspec.model import (
    InnovationSpec,
    OperatorCurve,
    TvFarmaModel,
    far1,
    replication_seed,
    simulate,
)
from tvfspec.spectrum import SpectralGrid, truth_grid


def white(dim=1, sigma=1.0):
    return TvFarmaModel(innovations=InnovationSpec(np.full(dim, sigma)))


def ramp_ar1():
    # scalar AR coefficient rising linearly from 0.2 to 0.6
    curve = OperatorCurve(np.array([0.0, 1.0]), np.array([[[0.2]], [[0.6]]]))
    return TvFarmaModel(ar=(curve,), innovations=InnovationSpec(np.array([1.0])))


def seed_first_value_and_chunk(xs, seeds):
    return np.column_stack([seeds, xs[:, 0, 0], np.full(len(seeds), len(seeds))])


def seed_chunk_and_rows(xs, seeds):
    return np.column_stack([seeds, np.full(len(seeds), len(seeds)), xs.reshape(len(xs), -1)])


def set_budgets(monkeypatch, per_rep, reps_per_chunk, chunks_per_pass):
    """Chunks of ``reps_per_chunk`` replications, passes of ``chunks_per_pass`` (None: any)."""
    monkeypatch.setattr(evaluate_module, "CHUNK_ELEMENTS", reps_per_chunk * per_rep)
    monkeypatch.setattr(evaluate_module, "PASS_ELEMENTS",
                        10**12 if chunks_per_pass is None
                        else chunks_per_pass * reps_per_chunk * per_rep)


PASS_CAPS = (1, 2, None)


class TestReplicate:
    def test_rows_follow_seed_order_for_any_worker_count(self, monkeypatch):
        model = far1(size=3)
        seeds = list(range(100, 107))
        rows = np.stack([simulate(model, 32, seed=s, check=False) for s in seeds])
        for reps_per_chunk in (7, 1, 2, 3):
            # a budget of c * (burn_in + n) * K elements holds c replications
            sizes = [min(reps_per_chunk, len(seeds) - i) for i in range(0, len(seeds), reps_per_chunk)]
            for chunks_per_pass in PASS_CAPS:
                set_budgets(monkeypatch, (500 + 32) * 3, reps_per_chunk, chunks_per_pass)
                for workers in (1, 2, 3):
                    stack = replicate(model, 32, seeds, seed_chunk_and_rows, workers=workers)
                    assert stack[:, 0].tolist() == seeds
                    assert stack[:, 1].tolist() == [c for c in sizes for _ in range(c)]
                    assert np.array_equal(stack[:, 2:], rows.reshape(len(seeds), -1))

    def test_never_more_workers_than_replications(self, monkeypatch):
        started = []

        class SerialPool:
            # records the pool size and runs the work in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        # three small replications share one chunk: no pool at all
        out = replicate(white(), 16, [4, 5, 6], seed_first_value_and_chunk, workers=64)
        assert started == []
        assert out[:, 0].tolist() == [4, 5, 6]
        monkeypatch.setattr(evaluate_module, "CHUNK_ELEMENTS", 1)
        out = replicate(white(), 16, [4, 5, 6], seed_first_value_and_chunk, workers=64)
        assert started == [3]
        assert out[:, 0].tolist() == [4, 5, 6]
        assert out[:, 2].tolist() == [1, 1, 1]
        replicate(white(), 16, [4], seed_first_value_and_chunk, workers=64)
        assert started == [3]

    def test_estimates_do_not_depend_on_chunks_or_workers(self, monkeypatch):
        model = far1(size=3)
        T = 256
        cfg = EstimatorConfig.auto(T)
        task = partial(evaluate_module._estimate_points, cfg, T,
                       [(0.5, 0.3), (0.4, 1.0), (0.5, -2.0)])
        seeds = [replication_seed(3, r) for r in range(5)]
        reference = replicate(model, T, seeds, task)
        for r, s in enumerate(seeds):
            x = simulate(model, T, seed=s, check=False)
            assert np.array_equal(reference[r, [0, 2]],
                                  estimate_grid(x, cfg, T, [0.5], [0.3, -2.0]).values[0])
        for reps_per_chunk in (1, 2, 3):
            for chunks_per_pass in PASS_CAPS:
                set_budgets(monkeypatch, (500 + T) * 3, reps_per_chunk, chunks_per_pass)
                for workers in (1, 2, 3):
                    assert np.array_equal(replicate(model, T, seeds, task, workers=workers),
                                          reference)

    def test_chunk_budget_bounds_the_buffer(self):
        chunks = []

        def record(xs, seeds):
            chunks.append(xs.shape)
            return np.zeros(len(seeds))

        model = far1(size=15)
        replicate(model, 4096, list(range(20)), record)
        per_rep = (500 + 4096) * 15
        assert [c for c, _, _ in chunks] == [8, 8, 4]
        assert all(c * per_rep <= evaluate_module.CHUNK_ELEMENTS for c, _, _ in chunks)


    def test_one_pass_per_worker_at_the_readme_scale(self, monkeypatch):
        # the README imse config at T = 4096: 20 far1 replications in chunks
        # of 8, 8 and 4, simulated in one time loop per worker
        passes = []
        real = evaluate_module._simulate_rows

        def spy(model, T, seeds, *args):
            passes.append(len(seeds))
            return real(model, T, seeds, *args)

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(evaluate_module, "_simulate_rows", spy)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        model = far1(size=15)
        seeds = [replication_seed(0, r) for r in range(20)]
        out = replicate(model, 4096, seeds, seed_first_value_and_chunk)
        assert passes == [20]
        assert out[:, 2].tolist() == [8] * 8 + [8] * 8 + [4] * 4
        # two workers split the three chunks into passes of one and two
        passes.clear()
        assert np.array_equal(replicate(model, 4096, seeds, seed_first_value_and_chunk,
                                        workers=2), out)
        assert passes == [8, 12]


class TestImse:
    def test_zero_for_identical_grids(self):
        truth = truth_grid(white(dim=2), [0.3, 0.7], np.linspace(-np.pi, np.pi, 33))
        assert imse(truth, truth).value == 0.0

    def test_uniform_perturbation_integrates_exactly(self):
        k, delta = 3, 0.05
        omegas = np.linspace(-np.pi, np.pi, 65)
        truth = truth_grid(white(dim=k), [0.25, 0.5, 0.75], omegas)
        shifted = SpectralGrid(
            u=truth.u, omega=truth.omega,
            values=truth.values + delta * np.eye(k),
            provenance="smoothed",
        )
        got = imse(shifted, truth)
        expected = 2.0 * np.pi * delta**2 * k
        assert got.value == pytest.approx(expected, abs=1e-12)
        assert np.allclose(got.per_u, expected, atol=1e-12)

    def test_average_over_replicate_grids(self):
        k, delta = 2, 0.1
        omegas = np.linspace(-np.pi, np.pi, 33)
        truth = truth_grid(white(dim=k), [0.5], omegas)
        plus = SpectralGrid(truth.u, truth.omega, truth.values + delta * np.eye(k), "smoothed")
        minus = SpectralGrid(truth.u, truth.omega, truth.values - delta * np.eye(k), "smoothed")
        both = imse([plus, minus], truth)
        assert both.value == pytest.approx(imse(plus, truth).value, abs=1e-12)

    def test_misaligned_grids_rejected(self):
        omegas = np.linspace(-np.pi, np.pi, 17)
        truth = truth_grid(white(), [0.5], omegas)
        other_shape = truth_grid(white(), [0.4, 0.6], omegas)
        with pytest.raises(ValueError, match="different shapes"):
            imse(other_shape, truth)
        other_points = truth_grid(white(), [0.4], omegas)
        with pytest.raises(ValueError, match="different points"):
            imse(other_points, truth)
        with pytest.raises(ValueError, match="at least one"):
            imse([], truth)


class TestSecondDerivative:
    def test_sine_curvature(self):
        d2, gap = _second_derivative(lambda x: np.sin(3.0 * x), 0.4, 1e-3)
        assert d2 == pytest.approx(-9.0 * np.sin(1.2), abs=1e-6)
        assert gap < 0.01

    def test_effective_dof_grows_with_span(self):
        small = effective_dof(EstimatorConfig.auto(512))
        large = effective_dof(EstimatorConfig.auto(4096))
        assert 0.0 < small < large


class TestMeanBias:
    def test_report_structure_and_determinism(self):
        cfg = EstimatorConfig(N=64, b_f=0.6)
        kwargs = dict(T=256, u=0.5, omega=0.0, R=24, seed=9)
        rep = mc_mean_bias(ramp_ar1(), cfg, **kwargs)
        assert rep.name == "mean_bias"
        assert rep.replications == 24
        assert set(rep.passes) == {"second_order_closer", "derivatives_consistent"}
        assert rep.passes["derivatives_consistent"] is True
        q = rep.quantities
        assert q["abs_error_order0"] >= 0.0 and q["se"] > 0.0
        again = mc_mean_bias(ramp_ar1(), cfg, **kwargs)
        assert rep.to_json() == again.to_json()
        json.loads(rep.to_json())


class TestCovariance:
    def test_equal_frequency_uses_relative_criterion(self):
        cfg = EstimatorConfig(N=64, b_f=0.6)
        rep = mc_covariance(white(), cfg, T=256, u=0.5,
                            omega1=np.pi / 2, omega2=np.pi / 2, R=16, seed=3)
        entry = rep.quantities["pairs"][0]
        assert entry["criterion"] == "relative"
        assert entry["predicted"]["re"] > 0.0

    def test_separated_frequencies_predict_zero(self):
        cfg = EstimatorConfig(N=64, b_f=0.6)
        rep = mc_covariance(white(), cfg, T=256, u=0.5,
                            omega1=np.pi / 2, omega2=np.pi / 4, R=16, seed=3)
        entry = rep.quantities["pairs"][0]
        assert entry["criterion"] == "zero_within_3se"
        pred = predicted_covariance(white(), cfg, 256, 0.5, np.pi / 2, np.pi / 4,
                                    ((0, 0), (0, 0)))
        assert pred == 0.0

    def test_worker_count_does_not_change_results(self):
        cfg = EstimatorConfig(N=64, b_f=0.6)
        kwargs = dict(T=256, u=0.5, omega1=np.pi / 2, omega2=np.pi / 2, R=8, seed=5)
        serial = mc_covariance(white(), cfg, workers=1, **kwargs)
        pooled = mc_covariance(white(), cfg, workers=2, **kwargs)
        assert serial.to_json() == pooled.to_json()


class TestNormality:
    def test_report_structure(self):
        cfg = EstimatorConfig(N=64, b_f=0.6)
        rep = mc_normality(white(dim=3), cfg, T=256, u=0.5, omega=np.pi / 2,
                           R=32, seed=2)
        keys = set(rep.passes)
        assert "proj_01_re" in keys and "proj_01_im" in keys
        assert rep.quantities["effective_dof"] > 0.0
        json.loads(rep.to_json())

    def test_low_dof_is_informational(self):
        cfg = EstimatorConfig(N=16, b_f=0.5)
        rep = mc_normality(white(dim=3), cfg, T=64, u=0.5, omega=np.pi / 2,
                           R=16, seed=2)
        assert rep.quantities["effective_dof"] < 12.0
        assert rep.passes and all(v is None for v in rep.passes.values())
        assert any("informational" in " ".join(n.split()) or "not enforced" in n
                   for n in rep.notes)
        assert rep.passed  # informational entries never fail the report


class TestMcReport:
    def test_passed_ignores_informational(self):
        rep = McReport(name="x", seed=0, replications=1)
        rep.passes = {"a": True, "b": None}
        assert rep.passed
        rep.passes["c"] = False
        assert not rep.passed

    def test_json_serializes_numpy_scalars(self):
        rep = McReport(name="x", seed=0, replications=1)
        rep.quantities = {
            "flag": np.bool_(True), "count": np.int64(3),
            "z": np.complex128(1 + 2j), "arr": np.arange(3),
        }
        decoded = json.loads(rep.to_json())
        assert decoded["quantities"]["z"] == {"re": 1.0, "im": 2.0}
        assert decoded["quantities"]["arr"] == [0, 1, 2]

    def test_non_finite_quantities_stay_valid_json(self):
        rep = McReport(name="x", seed=0, replications=1)
        rep.quantities = {
            "nan": float("nan"), "scalar": np.float64(-np.inf),
            "arr": np.array([np.inf, 1.5]), "z": np.complex128(complex(np.nan, -np.inf)),
        }

        def reject(token):
            raise ValueError(f"bare {token} is not JSON")

        decoded = json.loads(rep.to_json(), parse_constant=reject)
        assert decoded["quantities"] == {
            "nan": "NaN", "scalar": "-Infinity", "arr": ["Infinity", 1.5],
            "z": {"re": "NaN", "im": "-Infinity"},
        }


class TestLocalStationarity:
    def test_report_structure_and_determinism(self):
        model = far1(size=3)
        rep = local_stationarity_check(model, u=0.25, T_list=(64, 128), R=4, seed=11)
        assert rep.name == "local_stationarity"
        assert len(rep.quantities["mean_p2"]) == 2
        assert all(m > 0.0 for m in rep.quantities["mean_p2"])
        assert isinstance(rep.quantities["slope"], float)
        assert set(rep.passes) == {"bounded_second_moment"}
        again = local_stationarity_check(model, u=0.25, T_list=(64, 128), R=4, seed=11)
        assert rep.to_json() == again.to_json()

    def test_worker_count_does_not_change_report(self):
        kwargs = dict(u=0.25, T_list=(64, 128), R=4, seed=11)
        serial = local_stationarity_check(far1(size=3), workers=1, **kwargs)
        pooled = local_stationarity_check(far1(size=3), workers=2, **kwargs)
        assert serial.to_json() == pooled.to_json()

    def test_one_stability_check_per_model(self, monkeypatch):
        calls = []
        real = model_module.check_stability

        def spy(model, *args, **kwargs):
            calls.append(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(model_module, "check_stability", spy)
        model = far1(size=3)
        rep = local_stationarity_check(model, u=0.4, T_list=(64, 128), R=10, seed=5)
        # the model itself is simulated unchecked; its frozen copy is checked once
        assert len(calls) <= 2
        assert len({id(m) for m in calls}) == len(calls)
        # same numbers as freezing the model again for every replication
        means = []
        for ti, T in enumerate((64, 128)):
            acc = np.zeros(T)
            for r in range(10):
                rep_seed = replication_seed(5, ti, r)
                x = simulate(model, T, seed=rep_seed, burn_in=500, check=False)
                y = simulate(model.frozen(0.4), T, seed=rep_seed, burn_in=500)
                denom = np.abs(np.arange(1, T + 1) / T - 0.4) + 1.0 / T
                acc += (np.linalg.norm(x - y, axis=1) / denom) ** 2
            means.append(float((acc / 10).mean()))
        assert rep.quantities["mean_p2"] == means
