"""One program process of the benchmark.

Usage: python3 child.py SPEC_JSON

SPEC is a JSON object with keys ``workload`` (``cli`` or ``exact_truth``),
``argv`` (CLI arguments), ``seed``, ``out`` (output directory), ``meta``
(where to write the set-up timestamps), ``trace`` (where to write spans,
or null for an untraced run) and ``setup_only`` (exit once set up).

A ``cli`` workload runs ``tvfspec.cli.main(argv)`` exactly as the
``tvfspec`` console script does.  ``exact_truth`` runs the library calls
that no CLI pipeline reaches and saves their results with ``numpy.savez``
so they can be checked after the process has ended.
"""

import json
import os
import sys
import time


def exact_truth(model_mod, spectrum_mod, estimator_mod, model, seed, out):
    """Exact spectra and the causal-filter layer of one far2 model at T = 512."""
    import numpy as np

    T = 512
    us = np.array([0.25, 0.5, 0.75])
    omegas = estimator_mod.fourier_frequencies(64)
    report = model_mod.check_stability(model)
    lags = model_mod.choose_ma_order(model, T)
    wv = spectrum_mod.wigner_ville(model, us, omegas, T, s_max=32)
    truth = spectrum_mod.truth_grid(model, us, omegas)
    x, eps = model_mod.simulate(model, T, seed=seed, return_innovations=True)
    y = model_mod.simulate_ma(model, T, eps, lags)
    np.savez(
        os.path.join(out, "exact_truth.npz"),
        stable=report.passed, lags=lags, wigner_ville=wv.values, truth=truth.values, x=x, y=y,
    )
    return 0


def main():
    import_start = time.monotonic()
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    from tvfspec import cli, estimator, evaluate, funspace, ingest, model, spectrum

    imported = time.monotonic()
    recorder = None
    if spec["trace"]:
        from spans import Recorder

        recorder = Recorder(os.path.basename(spec["trace"]))
        recorder.install({
            "cli": cli, "model": model, "spectrum": spectrum, "estimator": estimator,
            "evaluate": evaluate, "ingest": ingest, "funspace": funspace,
        })
    if spec["workload"] == "exact_truth":
        # The preset model of ``tvfspec reproduce far2``; see NOTES.md on why
        # the seed drives only the innovations.
        far2 = model.far2(size=15)
    ready = time.monotonic()
    with open(spec["meta"], "w") as fh:
        json.dump({"import_start": import_start, "imported": imported, "ready": ready}, fh)
    if spec["setup_only"]:
        return 0
    try:
        if spec["workload"] == "exact_truth":
            os.makedirs(spec["out"], exist_ok=True)
            code = exact_truth(model, spectrum, estimator, far2, spec["seed"], spec["out"])
        else:
            code = cli.main(spec["argv"])
    finally:
        if recorder is not None:
            recorder.dump(spec["trace"])
    return code


if __name__ == "__main__":
    sys.exit(main())
