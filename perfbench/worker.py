"""One measured repeat of a workload, in its own process.

Runs a seeded ``runner.run_experiment`` and then ``runner.reconstruct``
(salt-and-pepper, no image export) from the checkpoint it wrote, times
both, checks the outputs and writes a JSON result.  Started by ``run.py``;
the dataset is generated there, outside this process.

    python3 perfbench/worker.py SPEC.json RESULT.json
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import kbuild  # noqa: E402
import workloads  # noqa: E402

# one pass takes well under a second, so a repeat times several
RECON_PASSES = 2


def _timed(module, name, starts, latencies, cal, every, cal_s):
    """Wrap ``module.name`` with a timer recording each call's start and
    duration, and run one calibration block after every ``every`` calls,
    outside the timer, appending its seconds to ``cal_s``.  The
    untraced run times only ``xcsf.run_trial`` and ``xcsf.reconstruct_one``
    (milliseconds each), so the timers cost well under 0.1%.  Returns the
    original function."""
    inner = getattr(module, name)

    def timed(*args, **kwargs):
        start = perf_counter()
        result = inner(*args, **kwargs)
        starts.append(start)
        latencies.append(perf_counter() - start)
        if len(latencies) % every == 0:
            cal_s.append(cal.block())
        return result

    setattr(module, name, timed)
    return inner


def _decoder_weights(runner, xcsf, ckpt, data_path, count, out_dir) -> float:
    """Mean active prediction weights combined per reconstructed input.

    Runs one more, untimed, reconstruction pass and sums
    ``active_weights()`` over the rule list that ``xcsf.reconstruct_one``
    hands to ``xcsf.system_prediction`` for each input, so the count
    follows whatever rules the program actually combines.
    """
    inner = xcsf.system_prediction
    per_input = []

    def system_prediction(m, x):
        per_input.append(sum(layer.active_weights()
                             for cl in m for layer in cl.prediction.layers))
        return inner(m, x)

    xcsf.system_prediction = system_prediction
    try:
        runner.reconstruct(ckpt, data_path, corruption="salt_pepper",
                           noise_fraction=workloads.NOISE_FRACTION, count=count,
                           out_dir=out_dir, export_images=False)
    finally:
        xcsf.system_prediction = inner
    return sum(per_input) / len(per_input)


def run(spec: dict) -> dict:
    """One repeat.  An exception raised by the package is reported as a
    failure of the phase it happened in, never as a crash of the repeat."""
    kbuild.install(spec["kernel_path"])
    backend = kbuild.require_compiled()

    import checks
    import tracing
    from lcsae import checkpoint, data, kernels, metrics, neural, runner, xcsf
    from lcsae.config import config_from_dict

    wl = workloads.WORKLOADS[spec["workload"]]
    cfg = config_from_dict({**wl["config"], "seed": spec["seed"],
                            "dataset": spec["data_path"]})
    out_dir = spec["out_dir"]
    ckpt = os.path.join(out_dir, runner.CHECKPOINT_NAME)
    recon_dir = os.path.join(out_dir, "recon")
    count = wl["rows"]  # at least every validation row
    out = {"backend": backend, "trials": cfg.trials, "recon_attempted": 0,
           "train_failures": [], "recon_failures": [], "calib_s": [],
           "latencies_s": [], "recon_passes": [], "decoder_weights": None,
           "layer": None}

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install({"data": data, "xcsf": xcsf, "kernels": kernels,
                        "metrics": metrics, "checkpoint": checkpoint,
                        "neural": neural})
    try:
        cal = calib.Calibrator()
        trial_starts = []
        inner_run_trial = _timed(xcsf, "run_trial", trial_starts, out["latencies_s"],
                                 cal, calib.EVERY_TRIALS, out["calib_s"])
        t0 = perf_counter()
        try:
            metrics_path = runner.run_experiment(cfg, out_dir)
        except Exception as exc:  # noqa: BLE001 - the program's failure is the result
            out["train_failures"].append(f"run_experiment raised {exc!r}")
            return out
        finally:
            xcsf.run_trial = inner_run_trial
        t1 = perf_counter()
        out["setup_s"] = trial_starts[0] - t0
        out["train_s"] = t1 - trial_starts[0] - sum(out["calib_s"])

        recon, recon_mses, recon_s = None, set(), 0.0
        for _ in range(RECON_PASSES):
            per_input, cal_s = [], []
            inner_recon = _timed(xcsf, "reconstruct_one", [], per_input, cal,
                                 calib.EVERY_INPUTS, cal_s)
            start = perf_counter()
            try:
                recon = runner.reconstruct(ckpt, spec["data_path"],
                                           corruption="salt_pepper",
                                           noise_fraction=workloads.NOISE_FRACTION, count=count,
                                           out_dir=recon_dir, export_images=False)
            except Exception as exc:  # noqa: BLE001
                out["recon_failures"].append(f"reconstruct raised {exc!r}")
                break
            finally:
                xcsf.reconstruct_one = inner_recon
            elapsed = perf_counter() - start - sum(cal_s)
            out["recon_passes"].append({"s": elapsed, "latencies_s": per_input,
                                        "calib_s": cal_s})
            recon_mses.add(recon.mean_recon_mse)
            recon_s += elapsed
        out["traced_wall_s"] = (t1 - t0 - sum(out["calib_s"])) + recon_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layer"] = tracer.summary()
        tracer.write_spans(spec["spans_path"])

    # --- output checks (untimed) ---
    expected_rows = cfg.trials // cfg.checkpoint_interval + 1
    rows, failures = checks.check_metrics(metrics_path, expected_rows, cfg.N)
    out["train_failures"] += failures
    out["valid_mse"] = rows[-1].valid_mse if rows else None
    out["metrics_sha256"] = kbuild.file_sha256(metrics_path)
    out["checkpoint_sha256"] = kbuild.file_sha256(ckpt)
    valid_rows = len(runner.prepare_dataset(cfg).valid_idx)
    out["recon_attempted"] = RECON_PASSES * valid_rows
    if out["recon_failures"]:
        return out
    out["recon_failures"] += checks.check_reconstruction(recon, valid_rows)
    if len(recon_mses) > 1:
        out["recon_failures"].append(f"reconstruction passes disagree: {sorted(recon_mses)}")
    out["recon_mse"] = recon.mean_recon_mse
    if spec["full_checks"] and rows:
        # later repeats must reproduce metrics.csv and the checkpoint byte
        # for byte, so the slower checks run on the first repeat only
        failures = checks.check_checkpoint(ckpt, spec["data_path"], cfg.trials,
                                           out["valid_mse"])
        out["train_failures"] += failures
        if not failures:
            out["decoder_weights"] = _decoder_weights(runner, xcsf, ckpt,
                                                      spec["data_path"], count, recon_dir)
    return out


def main(argv) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
