"""Acceptance suite: the eleven headline checks, one verdict line each.

Each test prints ``criterion NN (<label>): PASS/FAIL`` so a transcript shows
every verdict; tolerances and sample sizes are pinned, not tuned per run.
All randomness is seeded, so reruns are bit-identical.
"""

import json
import time

import numpy as np

from tvfspec import cli
from tvfspec.estimator import (
    EstimatorConfig,
    TaperSpec,
    estimate_grid,
    fourier_frequencies,
    frequency_constants,
    kernel_constants,
)
from tvfspec.evaluate import (
    imse,
    local_stationarity_check,
    mc_covariance,
    mc_mean_bias,
    mc_normality,
)
from tvfspec.model import (
    InnovationSpec,
    OperatorCurve,
    TvFarmaModel,
    choose_ma_order,
    far1,
    far2,
    replication_seed,
    simulate,
    simulate_ma,
)
from tvfspec.spectrum import TWO_PI, local_autocov, true_spectral_density, truth_grid


def _verdict(num, label, ok, detail):
    print(f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num:02d} ({label}): {detail}"


def scalar_model(b=None, theta=None):
    ar = () if b is None else (OperatorCurve.constant(np.array([[b]])),)
    ma = () if theta is None else (OperatorCurve.constant(np.array([[theta]])),)
    return TvFarmaModel(ar=ar, ma=ma, innovations=InnovationSpec(np.array([1.0])))


def test_criterion_01_scalar_closed_forms():
    start = time.monotonic()
    omegas = fourier_frequencies(64)
    cases = {
        "ar": (scalar_model(b=0.5),
               lambda w: 1.0 / (TWO_PI * np.abs(1.0 - 0.5 * np.exp(-1j * w)) ** 2)),
        "ma": (scalar_model(theta=0.3),
               lambda w: np.abs(1.0 + 0.3 * np.exp(-1j * w)) ** 2 / TWO_PI),
        "arma": (scalar_model(b=0.5, theta=0.3),
                 lambda w: np.abs(1.0 + 0.3 * np.exp(-1j * w)) ** 2
                 / (TWO_PI * np.abs(1.0 - 0.5 * np.exp(-1j * w)) ** 2)),
    }
    worst = 0.0
    for model, closed in cases.values():
        for w in omegas:
            got = true_spectral_density(model, 0.5, w)[0, 0]
            worst = max(worst, abs(got - closed(w)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _verdict(1, "scalar closed forms", ok, f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_autocov_inverts_the_density():
    start = time.monotonic()
    frozen = far1(size=15).frozen(0.5)
    M = 1024
    omegas = TWO_PI * np.arange(M) / M
    dens = np.stack([true_spectral_density(frozen, 0.5, w) for w in omegas])
    worst = 0.0
    for s in range(-20, 21):
        quad = np.real(
            np.tensordot(np.exp(1j * omegas * s), dens, axes=(0, 0))
        ) * (TWO_PI / M)
        direct = local_autocov(frozen, 0.5, s, T=512)
        worst = max(worst, np.abs(quad - direct).max())
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 10.0
    _verdict(2, "inversion formula", ok, f"max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_recursion_matches_truncated_ma():
    start = time.monotonic()
    model = far2(size=5)
    T = 2**9
    x, eps = simulate(model, T, seed=0, return_innovations=True)
    lags = choose_ma_order(model, T, tol=1e-10)
    y = simulate_ma(model, T, innovations=eps, lags=lags)
    sup = float(np.abs(x - y).max())
    elapsed = time.monotonic() - start
    ok = sup < 1e-8 and elapsed < 30.0
    _verdict(3, "causal solution", ok, f"lags {lags}, sup {sup:.2e}, {elapsed:.1f}s")


def test_criterion_04_white_noise_unbiasedness():
    model = TvFarmaModel(innovations=InnovationSpec(np.array([1.0])))
    T, R = 2**12, 2000
    cfg = EstimatorConfig.auto(T)
    us = [0.35, 0.5, 0.65]
    omegas = [0.0, np.pi / 2, np.pi]
    vals = np.empty((R, len(us), len(omegas)))
    for r in range(R):
        x = simulate(model, T, seed=replication_seed(0, r), check=False)
        vals[r] = estimate_grid(x, cfg, T, us, omegas).values[:, :, 0, 0].real
    target = 1.0 / TWO_PI
    worst = 0.0
    for a in range(len(us)):
        for b in range(len(omegas)):
            se = vals[:, a, b].std(ddof=1) / np.sqrt(R)
            worst = max(worst, abs(vals[:, a, b].mean() - target) / se)
    ok = worst < 3.0
    _verdict(4, "flat-spectrum mean", ok, f"worst |mean-f|/SE {worst:.2f} over 9 points")


def test_criterion_05_second_order_bias_expansion():
    curve = OperatorCurve(np.array([0.0, 1.0]), np.array([[[0.2]], [[0.6]]]))
    ramp = TvFarmaModel(ar=(curve,), innovations=InnovationSpec(np.array([1.0])))
    # wide time window: the curvature term must clear the MC noise at R=500
    cfg = EstimatorConfig(N=3072, b_f=EstimatorConfig.auto(4096).b_f)
    rep = mc_mean_bias(ramp, cfg, T=2**12, u=0.5, omega=0.0, R=500, seed=0)
    q = rep.quantities
    ok = rep.passes["second_order_closer"] and rep.passes["derivatives_consistent"]
    _verdict(5, "bias expansion", ok,
             f"err order0 {q['abs_error_order0']:.2e} vs order2 {q['abs_error_order2']:.2e}")


def test_criterion_06_sharp_variance_limit():
    model = TvFarmaModel(innovations=InnovationSpec(np.array([1.0])))
    T, R = 2**12, 2000
    cfg = EstimatorConfig.auto(T)
    same = mc_covariance(model, cfg, T, 0.5, np.pi / 2, np.pi / 2, R, seed=0)
    entry = same.quantities["pairs"][0]
    ratio = entry["scaled_cov"]["re"] / entry["predicted"]["re"]
    sep = mc_covariance(model, cfg, T, 0.5, np.pi / 2, np.pi / 4, R, seed=0)
    zero = sep.quantities["pairs"][0]
    resid = abs(complex(zero["scaled_cov"]["re"], zero["scaled_cov"]["im"]))
    ok = same.passed and sep.passed
    _verdict(6, "variance limit", ok,
             f"variance ratio {ratio:.3f}, separated |cov| {resid:.2e} vs 3SE {3 * zero['se']:.2e}")


def test_criterion_07_imse_direction():
    model = far1(size=15)
    t_list = (2**9, 2**12)
    cfgs = {t: EstimatorConfig.auto(t) for t in t_list}
    lo = max(cfgs[t].valid_band(t)[0] for t in t_list)
    hi = min(cfgs[t].valid_band(t)[1] for t in t_list)
    us = np.linspace(lo, hi, 3)
    omegas = fourier_frequencies(64)
    truth = truth_grid(model, us, omegas)
    values = {}
    for t in t_list:
        per_rep = []
        for r in range(20):
            x = simulate(model, t, seed=replication_seed(0, r), check=False)
            per_rep.append(imse(estimate_grid(x, cfgs[t], t, us, omegas), truth).value)
        values[t] = np.asarray(per_rep)
    wins = int(np.sum(values[2**12] < values[2**9]))
    ok = wins >= 18
    _verdict(7, "IMSE consistency", ok,
             f"wins {wins}/20, mean {values[2**9].mean():.4g} -> {values[2**12].mean():.4g}")


def test_criterion_08_estimator_gaussianity():
    rep = mc_normality(far1(size=15), EstimatorConfig.auto(2**12), T=2**12,
                       u=0.5, omega=np.pi / 2, R=400, seed=0)
    zmax = max(
        max(abs(p["z_skew"]), abs(p["z_kurt"]))
        for p in rep.quantities["projections"]
    )
    ok = rep.passed and rep.quantities["effective_dof"] >= 12.0
    _verdict(8, "CLT moments", ok,
             f"max |z| {zmax:.2f} at alpha 0.01, dof {rep.quantities['effective_dof']:.1f}")


def test_criterion_09_local_stationarity_bound():
    rep = local_stationarity_check(far1(size=15), u=0.25,
                                   T_list=(2**8, 2**10, 2**12), R=32, seed=0)
    slope = rep.quantities["slope"]
    ok = rep.passed and abs(slope) <= 0.15
    _verdict(9, "coupling bound", ok, f"log-log slope {slope:.3f}")


def test_criterion_10_figure_pipelines(tmp_path):
    runs = {}
    for figure in ("far1", "far2"):
        for T in (2**9, 2**12):
            out = tmp_path / f"{figure}_{T}"
            code = cli.main(["reproduce", figure, "--T", str(T), "--out", str(out)])
            assert code == 0, f"reproduce {figure} T={T} exited {code}"
            runs[(figure, T)] = out
    shrink_ok = True
    details = []
    for figure, n_slices in (("far1", 3), ("far2", 7)):
        small = json.loads((runs[(figure, 2**9)] / "dispersion.json").read_text())
        large = json.loads((runs[(figure, 2**12)] / "dispersion.json").read_text())
        for i in range(n_slices):
            for T in (2**9, 2**12):
                slices = json.loads((runs[(figure, T)] / "slices.json").read_text())
                assert len(slices) == n_slices
                assert (runs[(figure, T)] / f"slice{i}_truth.csv").exists()
                assert (runs[(figure, T)] / f"slice{i}_rep19.csv").exists()
            lo = small["median_pointwise_iqr"][f"slice{i}"]
            hi = large["median_pointwise_iqr"][f"slice{i}"]
            shrink_ok = shrink_ok and hi < lo
        details.append(f"{figure}: all {n_slices} slices emitted, dispersion shrinks")

    config = tmp_path / "truth.json"
    config.write_text(json.dumps({"model": {"preset": "far2"}, "u": [0.5]}) + "\n")
    truth_out = tmp_path / "truth"
    assert cli.main(["truth", "--config", str(config), "--out", str(truth_out)]) == 0
    from tvfspec.ingest import read_kernel_table

    table = read_kernel_table(truth_out / "truth_kernel.csv")
    n_render = 64
    omegas = table[:, 1].reshape(64, n_render * n_render)[:, 0]
    peak_amp = table[:, 6].reshape(64, n_render * n_render).max(axis=1)
    keep = omegas >= 0.0
    peak_omega = omegas[keep][np.argmax(peak_amp[keep])]
    target = np.arccos(0.3 * np.cos(1.5 - np.cos(np.pi * 0.5)))
    step = TWO_PI / 64
    peak_ok = abs(peak_omega - target) <= step
    details.append(f"far2 peak at {peak_omega:.4f} vs {target:.4f} (step {step:.4f})")
    ok = shrink_ok and peak_ok
    _verdict(10, "figure reproduction", ok, "; ".join(details))


def test_criterion_11_kernel_constants():
    c = frequency_constants()
    errs = (abs(c.mass - 1.0), abs(c.kappa - 1.0 / 20.0), abs(c.l2 - 6.0 / 5.0))
    induced = kernel_constants(TaperSpec(name="sqrt_epanechnikov"))
    errs += (abs(induced.kappa - 1.0 / 20.0), abs(induced.l2 - 6.0 / 5.0))
    worst = max(errs)
    ok = worst < 1e-10
    _verdict(11, "kernel constants", ok, f"max deviation {worst:.2e}")
