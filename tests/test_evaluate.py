import json
import tracemalloc
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvfspec import evaluate as evaluate_module
from tvfspec import model as model_module
from tvfspec.cli import FAR2_SLICE_US
from tvfspec.estimator import EstimatorConfig, TaperSpec, estimate_grid, fourier_frequencies
from tvfspec.evaluate import (
    McReport,
    _second_derivative,
    effective_dof,
    imse,
    local_stationarity_check,
    mc_covariance,
    mc_imse,
    mc_mean_bias,
    mc_normality,
    predicted_covariance,
    replicate,
)
from tvfspec import spectrum as spectrum_module
from tvfspec.ingest import write_json
from tvfspec.model import (
    InnovationSpec,
    OperatorCurve,
    StabilityError,
    TvFarmaModel,
    choose_ma_order,
    far1,
    far2,
    replication_seed,
    simulate,
)
from tvfspec.spectrum import (
    SpectralGrid,
    autocov_sequence,
    local_autocov,
    true_spectral_density,
    truth_grid,
    wigner_ville,
)

from test_model import looped_simulate


def white(dim=1, sigma=1.0):
    return TvFarmaModel(innovations=InnovationSpec(np.full(dim, sigma)))


def ramp_ar1():
    # scalar AR coefficient rising linearly from 0.2 to 0.6
    curve = OperatorCurve(np.array([0.0, 1.0]), np.array([[[0.2]], [[0.6]]]))
    return TvFarmaModel(ar=(curve,), innovations=InnovationSpec(np.array([1.0])))


@dataclass(frozen=True)
class RecordRows:
    """Replication task: each row's seed, the size of its pass, then its values in ``windows``."""

    windows: list

    def reduce(self, i, xs, seeds):
        values = xs.reshape(len(xs), -1)
        if i:
            return values
        return np.column_stack([seeds, np.full(len(seeds), len(seeds)), values])

    def combine(self, parts):
        return np.concatenate(parts, axis=1)


def set_budget(monkeypatch, model, task, rows):
    """A window budget that holds ``rows`` replications of ``task`` (None: any number),
    simulated from the task's first observed time ``task.t0`` (default 1)."""
    row_bytes = evaluate_module._row_bytes(model, task.windows, getattr(task, "t0", 1))
    monkeypatch.setattr(evaluate_module, "WINDOW_BYTES",
                        10**12 if rows is None else rows * row_bytes)


def pass_sizes(count, rows, workers):
    """Rows of each pass: at most ``rows`` and ceil(count / workers), as even as can be."""
    per_pass = min(rows or count, -(-count // workers))
    passes = -(-count // per_pass)
    return [(p + 1) * count // passes - p * count // passes for p in range(passes)]


class SerialPool:
    """Stands in for the process pool: records its size, runs the work in this process."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


ROW_BUDGETS = (1, 2, None)


def set_cpus(monkeypatch, count):
    """Lets ``replicate`` see ``count`` usable CPUs, whatever the machine has."""
    monkeypatch.setattr(evaluate_module, "_usable_cpus", lambda: count)


@pytest.fixture
def pool_for_any_run(monkeypatch):
    """Lets even the smallest run split over as many processes as it asks for."""
    monkeypatch.setattr(evaluate_module, "POOL_MIN_VALUES", 0)
    set_cpus(monkeypatch, 64)


class TestReplicate:
    @pytest.mark.usefixtures("pool_for_any_run")
    def test_rows_follow_seed_order_for_any_worker_count(self, monkeypatch):
        # overlapping and nested windows, one starting at the first observation
        model = far1(size=3)
        seeds = list(range(100, 107))
        task = RecordRows([(1, 12), (5, 32), (6, 9), (20, 32)])
        rows = np.stack([simulate(model, 32, seed=s, check=False) for s in seeds])
        want = np.concatenate([rows[:, a - 1:b].reshape(len(seeds), -1)
                               for a, b in task.windows], axis=1)
        for budget in (1, 2, 3, None):
            set_budget(monkeypatch, model, task, budget)
            for workers in (1, 2, 3):
                stack = replicate(model, 32, seeds, task, workers=workers)
                assert stack[:, 0].tolist() == seeds
                sizes = pass_sizes(len(seeds), budget, workers)
                assert stack[:, 1].tolist() == [c for c in sizes for _ in range(c)]
                assert np.array_equal(stack[:, 2:], want)

    def test_never_more_workers_than_replications(self, monkeypatch):
        started = []
        monkeypatch.setattr(SerialPool, "started", started)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        set_cpus(monkeypatch, 64)
        task = RecordRows([(1, 16)])
        # three small replications share one pass: no pool at all
        out = replicate(white(), 16, [4, 5, 6], task, workers=64)
        assert started == []
        assert out[:, 1].tolist() == [3, 3, 3]
        # past the pool threshold, three replications split over at most
        # three processes
        monkeypatch.setattr(evaluate_module, "POOL_MIN_VALUES", 3 * 516)
        out = replicate(white(), 16, [4, 5, 6], task, workers=64)
        assert started == [3]
        assert out[:, 0].tolist() == [4, 5, 6]
        assert out[:, 1].tolist() == [1, 1, 1]
        replicate(white(), 16, [4], task, workers=64)
        assert started == [3]
        monkeypatch.setattr(evaluate_module, "POOL_MIN_VALUES", 3 * 516 + 1)
        replicate(white(), 16, [4, 5, 6], task, workers=64)
        assert started == [3]

    @pytest.mark.usefixtures("pool_for_any_run")
    def test_never_more_workers_than_usable_cpus(self, monkeypatch):
        # 500 workers asked on a machine of 3 CPUs: 3 processes, 3 even passes
        monkeypatch.setattr(SerialPool, "started", [])
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        set_cpus(monkeypatch, 3)
        seeds = list(range(8))
        task = RecordRows([(1, 16)])
        out = replicate(white(), 16, seeds, task, workers=500)
        assert SerialPool.started == [3]
        assert out[:, 1].tolist() == [c for c in pass_sizes(8, None, 3) for _ in range(c)]
        assert np.array_equal(out[:, 2:], replicate(white(), 16, seeds, task)[:, 2:])

    @pytest.mark.usefixtures("pool_for_any_run")
    def test_estimates_do_not_depend_on_passes_or_workers(self, monkeypatch):
        model = far1(size=3)
        T = 256
        cfg = EstimatorConfig.auto(T)
        task = evaluate_module._EstimatePoints(cfg, T, [(0.5, 0.3), (0.4, 1.0), (0.5, -2.0)])
        seeds = [replication_seed(3, r) for r in range(5)]
        reference = replicate(model, T, seeds, task)
        for r, s in enumerate(seeds):
            x = simulate(model, T, seed=s, check=False)
            assert np.abs(x - looped_simulate(model, T, s)).max() <= 1e-12 * np.abs(x).max()
            assert np.array_equal(reference[r, [0, 2]],
                                  estimate_grid(x, cfg, T, [0.5], [0.3, -2.0]).values[0])
            assert np.array_equal(reference[r, 1],
                                  estimate_grid(x, cfg, T, [0.4], [1.0]).values[0, 0])
        for budget in ROW_BUDGETS:
            set_budget(monkeypatch, model, task, budget)
            for workers in (1, 2, 3):
                assert np.array_equal(replicate(model, T, seeds, task, workers=workers),
                                      reference)

    @pytest.mark.usefixtures("pool_for_any_run")
    def test_overlapping_windows_before_the_first_observation(self, monkeypatch):
        # the far2 figure slices at T = 512: segments observed on
        # [1 - N/2, T + N/2], the first starting before t = 1, neighbours
        # overlapping
        model = far2(size=4)
        T = 512
        cfg = EstimatorConfig.auto(T, taper=TaperSpec(name="sqrt_epanechnikov"))
        t0, t_end = 1 - cfg.N // 2, T + cfg.N // 2
        slices = [(u, 1.5 - np.cos(np.pi * u)) for u in FAR2_SLICE_US]
        task = evaluate_module._EstimatePoints(cfg, T, slices, t0, t_end)
        starts = [a for a, _ in task.windows]
        assert starts[0] < 1
        assert any(b >= a for (_, b), a in zip(task.windows, starts[1:]))
        seeds = [replication_seed(7, r) for r in range(4)]
        want = []
        for s in seeds:
            x = simulate(model, T, seed=s, t_start=t0, t_end=t_end, check=False)
            want.append([estimate_grid(x, cfg, T, [u], [omega], t0=t0).values[0, 0]
                         for u, omega in slices])
        for budget in ROW_BUDGETS:
            set_budget(monkeypatch, model, task, budget)
            for workers in (1, 2, 3):
                got = replicate(model, T, seeds, task, workers=workers)
                assert np.array_equal(got, np.array(want))

    def test_window_budget_bounds_the_open_windows(self, monkeypatch):
        shapes = []

        class Record(RecordRows):
            def reduce(self, i, xs, seeds):
                shapes.append(xs.shape)
                return np.zeros((len(seeds), 1))

        # the README imse config at T = 4096: three disjoint segments of
        # N = 1024 steps, one open at a time
        model = far1(size=15)
        T = 4096
        cfg = EstimatorConfig.auto(T)
        windows = evaluate_module._ImseTask(cfg, T, truth_grid(model, [0.18, 0.5, 0.82],
                                                               [0.0])).windows
        task = Record(windows)
        # the window and the time loop's two rolling 72-step spans
        row_bytes = evaluate_module._row_bytes(model, windows, 1)
        assert row_bytes == (cfg.N + 1 + 2 * 72) * 15 * 8
        assert model_module._open_elements(windows) == cfg.N
        replicate(model, T, list(range(20)), task)
        assert shapes == [(20, cfg.N, 15)] * 3
        # a budget of 8 rows splits the 20 rows evenly into passes of at most 8
        shapes.clear()
        monkeypatch.setattr(evaluate_module, "WINDOW_BYTES", 8 * row_bytes)
        replicate(model, T, list(range(20)), task)
        assert [c for c, _, _ in shapes[::3]] == [6, 7, 7]
        assert all(c * row_bytes <= evaluate_module.WINDOW_BYTES for c, _, _ in shapes)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 30)), min_size=1, max_size=30))
    def test_open_elements_is_the_most_steps_open_at_one_time(self, spans):
        windows = [(start, start + length) for start, length in spans]
        # the definition: at each time, the steps of every window open then
        times = range(min(a for a, _ in windows), max(b for _, b in windows) + 1)
        most = max(sum(b - a + 1 for a, b in windows if a <= t <= b) for t in times)
        assert model_module._open_elements(windows) == most

    def test_one_pass_per_worker_at_the_readme_scale(self, monkeypatch):
        # the README imse config: all 20 far1 replications in one time loop
        # at both T, also with two workers, as both runs (0.3 M and 1.3 M
        # values) are too small for a split to pay; 200 replications at
        # T = 4096 split one pass per worker
        passes = []
        real = evaluate_module._simulate_rows

        def spy(model, T, seeds, *args):
            passes.append(len(seeds))
            return real(model, T, seeds, *args)

        monkeypatch.setattr(evaluate_module, "_simulate_rows", spy)
        monkeypatch.setattr(SerialPool, "started", [])
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        model = far1(size=15)
        truth = truth_grid(model, [0.18, 0.5, 0.82], fourier_frequencies(64))
        seeds = [replication_seed(0, r) for r in range(20)]
        for T in (512, 4096):
            task = evaluate_module._ImseTask(EstimatorConfig.auto(T), T, truth)
            passes.clear()
            out = replicate(model, T, seeds, task)
            assert passes == [20]
            passes.clear()
            assert np.array_equal(replicate(model, T, seeds, task, workers=2), out)
            assert passes == [20]
            assert SerialPool.started == []
        passes.clear()
        seeds = [replication_seed(0, r) for r in range(200)]
        task = evaluate_module._ImseTask(EstimatorConfig.auto(4096), 4096, truth)
        replicate(model, 4096, seeds, task, workers=2)
        assert passes == [100, 100]
        assert SerialPool.started == [2]

    def test_draws_per_row_do_not_depend_on_the_replication_count(self, monkeypatch):
        # the criterion-06 pass (white noise, K = 1, T = 4096): every row
        # draws its 3 060 steps in 12 spans of 256, alone or among 2 000 rows
        calls = []

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *args, **kwargs):
                calls.append(1)
                return self.rng.standard_normal(*args, **kwargs)

        real = model_module.spawn_rng
        monkeypatch.setattr(model_module, "spawn_rng", lambda *key: CountingRng(real(*key)))
        T = 4096
        task = evaluate_module._EstimatePoints(EstimatorConfig.auto(T), T,
                                               [(0.5, np.pi / 2), (0.5, np.pi / 4)])
        per_row = []
        for R in (1, 2000):
            calls.clear()
            replicate(white(), T, [replication_seed(0, r) for r in range(R)], task)
            per_row.append(len(calls) / R)
        assert per_row == [12, 12]

    def test_rolling_buffers_count_in_the_window_budget(self):
        # the same pass: 2 000 rows of two 3 060-step rolling buffers would
        # take 98 MB on their own; the budget splits the rows into passes
        T = 4096
        task = evaluate_module._EstimatePoints(EstimatorConfig.auto(T), T,
                                               [(0.5, np.pi / 2), (0.5, np.pi / 4)])
        seeds = [replication_seed(0, r) for r in range(2000)]
        tracemalloc.start()
        try:
            replicate(white(), T, seeds, task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= evaluate_module.WINDOW_BYTES

    def test_coupled_runs_count_in_the_window_budget(self, monkeypatch):
        # the stationarity check simulates the frozen rows while the model's
        # window is open: 131 far1 rows at T = 1024 under a 16 MiB budget
        # held 26 MiB when a pass was sized for one run per row
        model = far1(size=15)
        frozen = model.frozen(0.25)
        model.stability, frozen.stability  # cached before tracing, as in every run
        monkeypatch.setattr(evaluate_module, "WINDOW_BYTES", 16 * 2**20)
        seeds = [replication_seed(0, 0, r) for r in range(131)]
        tracemalloc.start()
        try:
            replicate(model, 1024, seeds, evaluate_module._CouplingTask(frozen, 1024, 0.25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= evaluate_module.WINDOW_BYTES

    def test_peak_memory_is_the_open_windows_at_any_T(self):
        # one point estimate per row reads one segment of N steps: the
        # traced peak stays near the open window however long the run
        model = far1(size=3)
        model.stability  # cached before tracing, as in every run
        cfg = EstimatorConfig(N=256, b_f=0.5)
        seeds = list(range(16))
        window = len(seeds) * cfg.N * 3 * 8
        peaks = []
        for T in (2**12, 2**15):
            task = evaluate_module._EstimatePoints(cfg, T, [(0.5, 0.3)])
            tracemalloc.start()
            try:
                replicate(model, T, seeds, task)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the open window, the rolling span and the smoother's FFTs; a whole
        # (R, burn_in + T, K) buffer would take 18 and 130 windows
        assert peaks[0] < 12 * window
        assert peaks[1] < peaks[0] + window / 4


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

    def test_misaligned_grids_rejected(self):
        omegas = np.linspace(-np.pi, np.pi, 17)
        truth = truth_grid(white(), [0.5], omegas)
        other_shape = truth_grid(white(), [0.4, 0.6], omegas)
        with pytest.raises(ValueError, match="different shapes"):
            imse(other_shape, truth)
        other_points = truth_grid(white(), [0.4], omegas)
        with pytest.raises(ValueError, match="different points"):
            imse(other_points, truth)

    @pytest.mark.parametrize("omegas", [[2.0, 1.0, 0.5], [0.5, 2.0, 1.0], [0.3]],
                             ids=["descending", "unsorted", "one-point"])
    def test_frequencies_must_increase_over_two_points(self, omegas):
        # a trapezoid integral over a reversed axis is negative, over an
        # unsorted one wrong, and over one point zero
        truth = truth_grid(white(dim=2), [0.5], omegas)
        with pytest.raises(ValueError, match="omega needs 2 or more distinct frequencies "
                                             "in increasing order"):
            imse(truth, truth)


class TestMcImse:
    def test_report_pairs_the_seeds_across_sample_sizes(self):
        model = far1(size=3)
        us, omegas = [0.3, 0.5, 0.7], fourier_frequencies(16)
        cfgs = {T: EstimatorConfig.auto(T) for T in (512, 256)}
        rep = mc_imse(model, cfgs, us, omegas, R=4, seed=3)
        assert rep.name == "imse_consistency"
        assert rep.tolerances == {"win_fraction": evaluate_module.IMSE_WIN_FRACTION}
        q = rep.quantities
        assert q["wins_needed"] == 4  # ceil(0.9 * 4)
        truth = truth_grid(model, us, omegas)
        for T in (256, 512):
            # replication r at each T is the estimate grid of seed (2, r)
            want = [imse(estimate_grid(simulate(model, T, seed=replication_seed(3, r)),
                                       cfgs[T], T, us, omegas), truth).value
                    for r in range(4)]
            assert q[f"imse_per_rep_T{T}"] == pytest.approx(want, rel=1e-12)
            assert q[f"imse_mean_T{T}"] == pytest.approx(np.mean(want), rel=1e-12)
        wins = int(np.sum(q["imse_per_rep_T512"] < q["imse_per_rep_T256"]))
        assert q["wins"] == wins
        assert rep.passes == {"direction": wins >= 4}

    @pytest.mark.parametrize("kwargs, message", [
        ({"omegas": [2.0, 1.0, 0.5]}, "omega needs 2 or more distinct frequencies"),
        ({"omegas": [0.5, 2.0, 1.0]}, "omega needs 2 or more distinct frequencies"),
        ({"omegas": [0.3]}, "omega needs 2 or more distinct frequencies"),
        ({"R": 0}, "imse check needs at least 1 replications, got 0"),
        ({"Ts": (256,)}, r"imse T_list needs 2 or more distinct entries, got \[256\]"),
    ], ids=["descending", "unsorted", "one-point", "R0", "one-T"])
    def test_meaningless_settings_are_rejected_before_simulating(
        self, monkeypatch, kwargs, message
    ):
        monkeypatch.setattr(evaluate_module, "_simulate_rows", None)
        settings = {"omegas": [0.5, 1.0, 2.0], "R": 2, "Ts": (256, 512), **kwargs}
        cfgs = {T: EstimatorConfig.auto(T) for T in settings["Ts"]}
        with pytest.raises(ValueError, match=message):
            mc_imse(far1(size=3), cfgs, [0.5], settings["omegas"], settings["R"])


# a kernel support narrower than the Fourier spacing 2 pi / 64 = 0.098
DEGENERATE = EstimatorConfig(N=64, b_f=0.09)
ON_GRID = fourier_frequencies(64)[[30, 40]]


class TestBands:
    @pytest.mark.parametrize("call", [
        lambda: estimate_grid(np.ones((256, 1)), DEGENERATE, 256, [0.5], ON_GRID),
        lambda: mc_imse(white(), {256: DEGENERATE, 512: DEGENERATE}, [0.5], ON_GRID, R=1),
        lambda: mc_covariance(white(), DEGENERATE, 256, 0.5, *ON_GRID, R=2),
    ], ids=["estimate_grid", "mc_imse", "mc_covariance"])
    def test_degenerate_bandwidth_warning_names_the_caller(self, call):
        with pytest.warns(UserWarning, match="does not exceed the Fourier") as caught:
            call()
        assert {w.filename for w in caught} == {__file__}

    @pytest.mark.parametrize("check", ["imse", "bias", "covariance", "normality"])
    def test_empty_band_raises_before_any_simulation(self, monkeypatch, check):
        def spy(*args, **kwargs):
            raise AssertionError("_simulate_rows ran")

        monkeypatch.setattr(evaluate_module, "_simulate_rows", spy)
        cfg = EstimatorConfig(N=64, b_f=1e-6)
        off = 0.5 * (ON_GRID[0] + fourier_frequencies(64)[31])  # between two Fourier frequencies
        model = far1(size=3)
        call = {"imse": partial(mc_imse, model, {256: cfg, 512: cfg}, [0.5], [off, 1.0]),
                "bias": partial(mc_mean_bias, model, cfg, 256, 0.5, off),
                "covariance": partial(mc_covariance, model, cfg, 256, 0.5, off, off),
                "normality": partial(mc_normality, model, cfg, 256, 0.5, off)}[check]
        with pytest.warns(UserWarning, match="does not exceed the Fourier"):
            with pytest.raises(ValueError, match="no Fourier frequency falls inside"):
                call(R=2)


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
        assert write_json(rep.document()) == write_json(again.document())
        json.loads(write_json(rep.document()))

    def test_stencil_outside_the_unit_interval_raises_before_replicating(self, monkeypatch):
        # u = N / 2T is inside the valid band, but u - 2 DERIV_STEP < 0
        def spy(*args, **kwargs):
            raise AssertionError("replicate ran")

        monkeypatch.setattr(evaluate_module, "replicate", spy)
        cfg = EstimatorConfig(N=16, b_f=0.5)
        with pytest.raises(ValueError, match="u must lie in"):
            mc_mean_bias(far1(size=3), cfg, 4096, 0.001953125, 0.0, R=2)


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
        pred = predicted_covariance(true_spectral_density(white(), 0.5, np.pi / 2), cfg,
                                    np.pi / 2, np.pi / 4, ((0, 0), (0, 0)))
        assert pred == 0.0

    @pytest.mark.parametrize("omega", [1.0, 0.0])
    def test_limit_from_the_spectral_density_operator(self, omega):
        # 2 pi |K_t|^2 |K_f|^2 (eta(w1 - w2) F_mm' conj(F_nn') + eta(w1 + w2) F_mn' conj(F_nm'))
        # with both kernels Epanechnikov (|K|^2 = 6/5); at w = 0 both eta terms are 1
        cfg = EstimatorConfig(N=64, b_f=0.6, taper=TaperSpec(name="sqrt_epanechnikov"))
        f = truth_grid(far1(size=3), [0.4], [omega]).values[0, 0]
        lead = 2.0 * np.pi * (6.0 / 5.0) ** 2
        for pair in [((0, 0), (0, 0)), ((0, 1), (1, 2)), ((2, 0), (1, 1))]:
            (m, n), (mm, nn) = pair
            first = f[m, mm] * np.conj(f[n, nn])
            second = f[m, nn] * np.conj(f[n, mm])
            want = lead * (first + second if omega == 0.0 else first)
            got = predicted_covariance(f, cfg, omega, omega, pair)
            assert got == pytest.approx(want, rel=1e-12)
            if omega == 0.0 and pair[0] != pair[1]:
                assert abs(got - lead * first) > 1e-3 * abs(got)
                assert abs(got - lead * second) > 1e-3 * abs(got)

    def test_spectral_density_is_evaluated_once(self, monkeypatch):
        pairs = (((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (0, 1)))
        monkeypatch.setattr(evaluate_module, "COVARIANCE_PAIRS", pairs)
        calls = []
        real = spectrum_module.truth_grid

        def spy(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(spectrum_module, "truth_grid", spy)
        cfg = EstimatorConfig(N=64, b_f=0.6)
        model = white(dim=2)
        rep = mc_covariance(model, cfg, T=256, u=0.5, omega1=np.pi / 2, omega2=np.pi / 2,
                            R=4, seed=3)
        assert calls == [([0.5], [np.pi / 2])]
        f1 = real(model, [0.5], [np.pi / 2]).values[0, 0]
        for pair, entry in zip(pairs, rep.quantities["pairs"]):
            pred = predicted_covariance(f1, cfg, np.pi / 2, np.pi / 2, pair)
            assert entry["predicted"] == {"re": pred.real, "im": pred.imag}

    def test_criterion_does_not_depend_on_the_spectral_scale(self):
        # at sigma = 1e-8 the prediction is about 2e-33, yet nonzero: judged relatively
        cfg = EstimatorConfig(N=64, b_f=0.6)
        kwargs = dict(T=256, u=0.5, omega1=1.0, omega2=1.0, R=64, seed=1)
        unit, small = (mc_covariance(white(sigma=s), cfg, **kwargs) for s in (1.0, 1e-8))
        assert [p["criterion"] for p in small.quantities["pairs"]] == \
            [p["criterion"] for p in unit.quantities["pairs"]] == ["relative"]
        assert small.passes == unit.passes

    def test_worker_count_does_not_change_results(self):
        cfg = EstimatorConfig(N=64, b_f=0.6)
        kwargs = dict(T=256, u=0.5, omega1=np.pi / 2, omega2=np.pi / 2, R=8, seed=5)
        serial = mc_covariance(white(), cfg, workers=1, **kwargs)
        pooled = mc_covariance(white(), cfg, workers=2, **kwargs)
        assert write_json(serial.document()) == write_json(pooled.document())


class TestNormality:
    def test_report_structure(self):
        cfg = EstimatorConfig(N=64, b_f=0.6)
        rep = mc_normality(white(dim=3), cfg, T=256, u=0.5, omega=np.pi / 2,
                           R=32, seed=2)
        keys = set(rep.passes)
        assert "proj_01_re" in keys and "proj_01_im" in keys
        assert rep.quantities["effective_dof"] > 0.0
        json.loads(write_json(rep.document()))

    def test_vanishing_imaginary_parts_are_skipped_at_frequency_zero(self):
        rep = mc_normality(far1(size=3), EstimatorConfig.auto(512), T=512, u=0.5, omega=0.0,
                           R=4, seed=7)
        parts = [(p["projection"], p["part"]) for p in rep.quantities["projections"]]
        assert parts == [([0, 1], "re"), ([0, 2], "re"), ([1, 2], "re")]
        assert set(rep.passes) == {"proj_01_re", "proj_02_re", "proj_12_re"}

    def test_small_spectral_scale_tests_the_same_parts(self):
        cfg = EstimatorConfig(N=64, b_f=0.6)
        kwargs = dict(T=256, u=0.5, omega=np.pi / 2, R=32, seed=2)
        unit, small = (mc_normality(white(dim=3, sigma=s), cfg, **kwargs) for s in (1.0, 1e-8))
        assert len(small.passes) == 6 and small.passes == unit.passes
        for got, want in zip(small.quantities["projections"], unit.quantities["projections"]):
            assert got["part"] == want["part"]
            assert got["z_skew"] == pytest.approx(want["z_skew"], rel=1e-6)
            assert got["z_kurt"] == pytest.approx(want["z_kurt"], rel=1e-6)

    @pytest.mark.parametrize("omega", [0.0, np.pi])
    @pytest.mark.parametrize("sigma", [1.0, 1e-8])
    def test_only_real_parts_are_tested_at_multiples_of_pi(self, omega, sigma):
        rep = mc_normality(white(dim=3, sigma=sigma), EstimatorConfig(N=64, b_f=0.6), T=256,
                           u=0.5, omega=omega, R=32, seed=2)
        assert set(rep.passes) == {"proj_01_re", "proj_02_re", "proj_12_re"}

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
        decoded = json.loads(write_json(rep.document()))
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

        decoded = json.loads(write_json(rep.document()), parse_constant=reject)
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
        assert write_json(rep.document()) == write_json(again.document())

    def test_time_invariant_model_passes_with_slope_zero(self):
        # a constant AR(1) equals its frozen copy: every P_t is exactly zero,
        # so the second moment is bounded and no log of zero is taken
        model = TvFarmaModel(ar=(OperatorCurve.constant(np.array([[0.5]])),),
                             innovations=InnovationSpec(np.ones(1)))
        rep = local_stationarity_check(model, u=0.25, T_list=(64, 128), R=2, seed=3)
        assert rep.quantities["mean_p2"] == [0.0, 0.0]
        assert rep.quantities["slope"] == 0.0
        assert rep.passes == {"bounded_second_moment": True}
        assert any("identically zero" in note for note in rep.notes)

    def test_mean_vanishing_at_one_T_only_fails_without_a_slope(self):
        # a scalar AR(1) at 0.5 except for a bump on (0.5, 0.502): no time
        # t/T of T = 64 falls inside it, so that run equals its frozen copy,
        # while T = 1024 has 513/1024 there; no log-log slope exists, and
        # the report says so instead of taking the log of zero
        curve = OperatorCurve(np.array([0.0, 0.5, 0.501, 0.502, 1.0]),
                              np.array([0.5, 0.5, 0.9, 0.5, 0.5]).reshape(5, 1, 1))
        model = TvFarmaModel(ar=(curve,), innovations=InnovationSpec(np.ones(1)))
        rep = local_stationarity_check(model, u=0.25, T_list=(64, 1024), R=1)
        assert rep.quantities["mean_p2"][0] == 0.0 < rep.quantities["mean_p2"][1]
        assert np.isnan(rep.quantities["slope"])
        assert rep.passes == {"bounded_second_moment": False}
        assert any("zero at some T only" in note for note in rep.notes)

    def test_rescaled_time_outside_the_unit_interval_raises_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("replications ran")

        monkeypatch.setattr(evaluate_module, "replicate", fail)
        for u in (1.7, -0.5):
            with pytest.raises(ValueError, match=r"u must lie in \[0, 1\], got " + str(u)):
                local_stationarity_check(far1(size=3), u=u, T_list=(64, 128), R=2)

    def test_repeated_sample_size_raises_before_any_replication(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluate_module, "replicate",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=r"stationarity T_list\[1\] repeats 64; each entry "
                                             r"may appear once"):
            local_stationarity_check(far1(size=3), 0.25, [64, 64, 128], 2)
        assert calls == []

    def test_worker_count_does_not_change_report(self):
        kwargs = dict(u=0.25, T_list=(64, 128), R=4, seed=11)
        serial = local_stationarity_check(far1(size=3), workers=1, **kwargs)
        pooled = local_stationarity_check(far1(size=3), workers=2, **kwargs)
        assert write_json(serial.document()) == write_json(pooled.document())

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
                x = simulate(model, T, seed=rep_seed, check=False)
                y = simulate(model.frozen(0.4), T, seed=rep_seed)
                denom = np.abs(np.arange(1, T + 1) / T - 0.4) + 1.0 / T
                acc += (np.linalg.norm(x - y, axis=1) / denom) ** 2
            means.append(float((acc / 10).mean()))
        assert rep.quantities["mean_p2"] == means


def explosive_ar1():
    # 3 x 3 AR(1) at 1.05 I: unstable at every u
    return TvFarmaModel(ar=(OperatorCurve.constant(1.05 * np.eye(3)),),
                        innovations=InnovationSpec(np.ones(3)))


def unstable_ramp():
    # 3 x 3 AR(1) rising from 0.2 I to 1.3 I: stable where the stationarity
    # check freezes it (u = 0.25), unstable from u = 8/11 on
    curve = OperatorCurve(np.array([0.0, 1.0]), np.stack([0.2 * np.eye(3), 1.3 * np.eye(3)]))
    return TvFarmaModel(ar=(curve,), innovations=InnovationSpec(np.ones(3)))


def _entries(model):
    """Every library path that simulates or picks a truncation, as a call of ``model``."""
    T = 64
    cfg = EstimatorConfig(N=16, b_f=0.5)
    seeds = [1, 2]
    truth = SpectralGrid([0.5], [0.3], np.zeros((1, 1, 3, 3)), "truth")
    return {
        "simulate": lambda: simulate(model, T),
        "replicate": lambda: replicate(model, T, seeds,
                                       evaluate_module._EstimatePoints(cfg, T, [(0.5, 0.3)])),
        "imse": lambda: replicate(model, T, seeds, evaluate_module._ImseTask(cfg, T, truth)),
        "mc_imse": lambda: mc_imse(model, {T: cfg, 2 * T: cfg}, [0.5], [0.3, 0.6], R=2),
        "mean_bias": lambda: mc_mean_bias(model, cfg, T, 0.5, 0.3, R=2),
        "covariance": lambda: mc_covariance(model, cfg, T, 0.5, 0.6, 0.3, R=2),
        "normality": lambda: mc_normality(model, cfg, T, 0.5, 0.3, R=2),
        "stationarity": lambda: local_stationarity_check(model, u=0.25, T_list=(64, 128), R=2),
        "choose_ma_order": lambda: choose_ma_order(model, T),
        "wigner_ville": lambda: wigner_ville(model, [0.5], [0.3], T, s_max=2),
        "autocov_sequence": lambda: autocov_sequence(model, 0.5, T, 2),
        "local_autocov": lambda: local_autocov(model, 0.5, 1, T),
    }


class TestStabilityGate:
    @pytest.mark.parametrize("entry", list(_entries(None)))
    @pytest.mark.parametrize("build, message", [
        (explosive_ar1, "radius 1.05 at u = 0"), (unstable_ramp, "radius 1.3 at u = 1"),
    ], ids=["explosive", "ramp"])
    def test_unstable_model_raises_before_any_simulation_or_filter(
        self, monkeypatch, entry, build, message
    ):
        calls = []

        def spy(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran on an unstable model")
            return record

        for module in (model_module, evaluate_module):
            monkeypatch.setattr(module, "_simulate_rows", spy("_simulate_rows"))
        # every way into the filter recursion: the public call, the
        # recursion itself, and the autocovariance pass's own binding
        for module, name in [(model_module, "ma_coefficients"), (model_module, "_filter_blocks"),
                             (spectrum_module, "ma_coefficients")]:
            monkeypatch.setattr(module, name, spy(name))
        with pytest.raises(StabilityError) as err:
            _entries(build())[entry]()
        assert str(err.value) == message
        assert calls == []

    def test_frozen_model_is_gated_too(self):
        # stable as a whole, unstable where it is frozen
        with pytest.raises(StabilityError, match="radius 1.19 at u = 0"):
            local_stationarity_check(unstable_ramp(), u=0.9, T_list=(64, 128), R=2)

    @pytest.mark.parametrize("check, kwargs, message", [
        ("normality", {}, r"normality projection must be two indices in \[0, 2\), got \[0, 2\]"),
        ("bias", {"projection": (0, 2)},
         r"bias projection must be two indices in \[0, 2\), got \[0, 2\]"),
    ])
    def test_projection_outside_the_model_is_rejected_before_simulating(
        self, monkeypatch, check, kwargs, message
    ):
        monkeypatch.setattr(evaluate_module, "_simulate_rows", None)
        model = white(dim=2)
        cfg = EstimatorConfig(N=16, b_f=0.5)
        run = {"normality": mc_normality, "bias": mc_mean_bias}[check]
        with pytest.raises(ValueError, match=message):
            run(model, cfg, 64, 0.5, 0.3, 2, **kwargs)

    def test_projections_inside_the_model_pass(self):
        evaluate_module.require_projections("covariance", 1)
        evaluate_module.require_projections("normality", 3)
        evaluate_module.require_projections("bias", 2, (1, 0))

    @pytest.mark.parametrize("check, kwargs, message", [
        ("bias", {"R": 1}, "bias check needs at least 2 replications, got 1"),
        ("covariance", {"R": 1}, "covariance check needs at least 2 replications, got 1"),
        ("normality", {"R": 1}, "normality check needs at least 2 replications, got 1"),
        ("stationarity", {"T_list": (64,)}, "needs 2 or more distinct entries, got"),
        ("stationarity", {"T_list": (64, 64)}, "needs 2 or more distinct entries, got"),
        ("stationarity", {"R": 0}, "stationarity check needs at least 1 replications, got 0"),
    ], ids=["bias-R1", "covariance-R1", "normality-R1", "stationarity-one-T",
            "stationarity-repeated-T", "stationarity-R0"])
    def test_meaningless_sample_sizes_are_rejected_before_simulating(
        self, monkeypatch, check, kwargs, message
    ):
        monkeypatch.setattr(evaluate_module, "_simulate_rows", None)
        model = white(dim=3)
        cfg = EstimatorConfig(N=16, b_f=0.5)
        run = {
            "bias": lambda R=2: mc_mean_bias(model, cfg, 64, 0.5, 0.3, R),
            "covariance": lambda R=2: mc_covariance(model, cfg, 64, 0.5, 0.6, 0.3, R),
            "normality": lambda R=2: mc_normality(model, cfg, 64, 0.5, 0.3, R),
            "stationarity": lambda R=2, T_list=(64, 128): local_stationarity_check(
                model, 0.25, T_list, R),
        }[check]
        with pytest.raises(ValueError, match=message):
            run(**kwargs)
