"""Seeded train-and-reconstruct benchmark for lcsae.

    python3 perfbench/run.py --workload blobs64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The compiled kernels are built
from the shipped ``src/lcsae/_kernels.c`` into ``perfbench/.cache`` (build
time is excluded from every metric), the workload's dataset is generated
from ``--seed``, and then repeats run, each in its own process
(``worker.py``), until ``--seconds`` are used up.  Every repeat trains a
fresh seeded population and reconstructs the validation split from the
checkpoint it wrote; all repeats of one seed must produce the same
``metrics.csv``.  Between trials and between reconstructed inputs each
repeat also times a fixed calibration block, and the reported timings are
brought to a reference machine speed with it (``calib.py``); the raw
figures stay in the record.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced repeats alternate and the per-layer metrics are
reported.  The last line of standard output is one JSON object; a record
of the run (raw repeats, hashes, the layer map) goes to
``perfbench/records/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import calib
import kbuild
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE_DIR = os.path.join(HERE, ".cache")
WORK_DIR = os.path.join(HERE, ".work")
RECORD_DIR = os.path.join(HERE, "records")

# every metric is a median over repeats
MIN_REPEATS = 3
# every run must finish within this many seconds, build excluded
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s", "trials_per_s": "1/s", "trial_p50_ms": "ms",
    "trial_p99_ms": "ms", "recon_per_s": "1/s", "peak_rss_mb": "MB",
    "decoder_weights": "count",
}
# Reconstruction quality is recorded and printed but not reported as a
# gated metric: at a fixed trial count it varies by tens of percent from
# seed to seed (the learning curve is still falling), while equal code
# reproduces it exactly, which the metrics.csv hash already checks.
QUALITY = {"valid_mse": "mse", "recon_mse": "mse"}


class BenchError(Exception):
    pass


def source_sha256(root) -> str:
    """Hash of the package and benchmark sources: runs with equal hashes
    must produce identical outputs for one workload and seed."""
    files = sorted(glob.glob(os.path.join(root, "src", "lcsae", "*.py"))
                   + glob.glob(os.path.join(root, "src", "lcsae", "*.pyx"))
                   + glob.glob(os.path.join(HERE, "*.py"))
                   + [os.path.join(root, kbuild.KERNEL_SOURCE)])
    lines = [f"{os.path.relpath(p, root)} {kbuild.file_sha256(p)}" for p in files]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_repeat(spec: dict, index: int, work: str, deadline: float) -> dict:
    spec_path = os.path.join(work, f"spec{index}.json")
    result_path = os.path.join(work, f"result{index}.json")
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    env = {k: v for k, v in os.environ.items() if k != "LCSAE_KERNELS"}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for a repeat")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repeat {index} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"repeat {index} failed:\n{proc.stderr[-3000:]}")
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def run_repeats(args, kernel_path: str, data_path: str, work: str) -> list:
    """Alternate untraced and (with --trace 1) traced repeats until the
    measuring time is used up; at least ``MIN_REPEATS`` run.  A repeat is
    started while at least half of a mean repeat's time is left.  The first
    repeat that fails, or whose process dies, ends the run."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    results = []
    while True:
        index = len(results)
        traced = bool(args.trace) and index % 2 == 1
        out_dir = os.path.join(work, f"rep{index}")
        spec = {"workload": args.workload, "seed": args.seed,
                "data_path": data_path, "kernel_path": kernel_path,
                "out_dir": out_dir, "trace": traced, "full_checks": index == 0,
                "spans_path": os.path.join(work, f"spans{index}.json.gz")}
        try:
            result = run_repeat(spec, index, work, deadline)
        except BenchError as exc:
            result = {"error": str(exc)}
        result["traced"] = traced
        results.append(result)
        shutil.rmtree(out_dir, ignore_errors=True)
        if repeat_failures(result):
            return results
        elapsed = time.monotonic() - start
        if len(results) >= MIN_REPEATS and elapsed * (1 + 0.5 / len(results)) > args.seconds:
            return results


def repeat_failures(result: dict) -> list:
    if "error" in result:
        return [result["error"]]
    return result["train_failures"] + result["recon_failures"]


def trial_figures(result: dict, speed=calib.speed) -> dict:
    """Trial speed and latency percentiles of one repeat.

    The machine also switches between fast and slow spells of a fraction
    of a second, which would move a percentile by which spells its trials
    fell in.  So each trial's latency is multiplied by the speed of the
    ``calib.WINDOW`` calibration blocks around it, and the repeat's total
    time by the speed of all its blocks.
    """
    blocks, every, half = result["calib_s"], calib.EVERY_TRIALS, calib.WINDOW // 2
    near = [speed(blocks[max(g - half, 0):g + half + 1]) for g in range(len(blocks))]
    lat = np.array([t * near[min(i // every, len(near) - 1)]
                    for i, t in enumerate(result["latencies_s"])])
    return {"trials_per_s": len(lat) / (result["train_s"] * speed(blocks)),
            "trial_p50_ms": float(np.percentile(lat, 50)) * 1e3,
            "trial_p99_ms": float(np.percentile(lat, 99)) * 1e3}


def end_to_end(results: list, speed=calib.speed) -> dict:
    """Medians over the repeats (over every reconstruction pass for
    ``recon_per_s``).  Each timing is first multiplied by the machine speed
    measured during it, which brings it to the reference speed of
    ``calib``; ``speed=lambda blocks: 1.0`` gives the raw figures."""
    med = statistics.median
    trials = [trial_figures(r, speed) for r in results]
    recon = [len(p["latencies_s"]) / (p["s"] * speed(p["calib_s"]))
             for r in results for p in r["recon_passes"]]
    return {
        # set-up has no calls to interleave blocks with; the speed measured
        # during the training right after it is the closest
        "setup_s": med(r["setup_s"] * speed(r["calib_s"]) for r in results),
        **{name: med(t[name] for t in trials) for name in trials[0]},
        "recon_per_s": med(recon),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in results),
        "decoder_weights": results[0]["decoder_weights"],
    }


def consistency_failures(results: list, earlier: list) -> list:
    """Every repeat, and every earlier record of this workload, seed and
    source, must have produced the same outputs."""
    failures = []
    for key in ("metrics_sha256", "checkpoint_sha256", "valid_mse", "recon_mse"):
        values = {json.dumps(r[key]) for r in results}
        if len(values) > 1:
            failures.append(f"repeats disagree on {key}: {sorted(values)}")
    for rec in earlier:
        if rec["metrics_sha256"] != results[0]["metrics_sha256"]:
            failures.append(f"metrics.csv sha256 differs from record {rec['file']}")
    return failures


def earlier_records(workload: str, seed: int, src_hash: str) -> list:
    out = []
    for path in sorted(glob.glob(os.path.join(RECORD_DIR, f"{workload}-seed{seed}-*.json"))):
        try:
            with open(path, encoding="utf-8") as f:
                rec = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if rec.get("source_sha256") == src_hash and rec.get("correct"):
            out.append({"file": os.path.basename(path),
                        "metrics_sha256": rec["metrics_sha256"]})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "lcsae")):
        print(f"error: {ROOT} has no src/lcsae; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        kernel = kbuild.build(ROOT, CACHE_DIR)
    except kbuild.KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    src_hash = source_sha256(ROOT)

    wl = workloads.WORKLOADS[args.workload]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = os.path.join(WORK_DIR, tag)
    os.makedirs(work)
    try:
        data_path = workloads.write_dataset(args.workload, args.seed,
                                            os.path.join(work, "data"))
        results = run_repeats(args, kernel["path"], data_path, work)
        spans = []
        os.makedirs(RECORD_DIR, exist_ok=True)
        for i in range(len(results)):
            src = os.path.join(work, f"spans{i}.json.gz")
            if os.path.exists(src):
                dest = os.path.join(RECORD_DIR, f"{tag}-spans{i}.json.gz")
                shutil.move(src, dest)
                spans.append(os.path.basename(dest))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures, attempted, failed = [], 0, 0
    for i, r in enumerate(results):
        failures += [f"repeat {i}: {msg}" for msg in repeat_failures(r)]
        if "error" in r:
            # the repeat's process died: its trials count as attempted and failed
            attempted += wl["config"]["trials"]
            failed += wl["config"]["trials"]
            continue
        attempted += r["trials"] + r["recon_attempted"]
        failed += r["trials"] if r["train_failures"] else 0
        failed += r["recon_attempted"] if r["recon_failures"] else 0
    # the run stops at the first failed repeat, so the ones before it are done
    done = [r for r in results if not repeat_failures(r)]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if done:
        failures += consistency_failures(
            done, earlier_records(args.workload, args.seed, src_hash))
    correct = not failures

    e2e = end_to_end(plain) if plain else {}
    units = tracing.metric_units() if args.trace else END_TO_END
    values = e2e
    if args.trace:
        values = {}
        if plain and traced:
            values = tracing.layer_metrics(
                [r["layer"] for r in traced], [r["traced_wall_s"] for r in traced],
                statistics.median(trial_figures(r)["trials_per_s"] for r in plain),
                statistics.median(trial_figures(r)["trials_per_s"] for r in traced))
    quality = {k: plain[0][k] for k in QUALITY} if plain else {}

    for name, value in values.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    for name, value in quality.items():
        print(f"# {name:38s} {value:16.6g} {QUALITY[name]} (recorded, not gated)")
    if plain:
        speed = statistics.median(calib.speed(r["calib_s"]) for r in plain)
        print(f"# {args.workload} seed={args.seed}: {len(plain)} untraced + {len(traced)}"
              f" traced repeats of {plain[0]['trials']} trials; timings are medians over"
              f" repeats at the reference speed (the machine ran at {speed:.3f} of it);"
              f" backend={plain[0]['backend']}")
    for msg in failures:
        print(f"# FAILED: {msg}")

    record = {
        "workload": args.workload, "why": wl["why"], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "source_sha256": src_hash, "kernel_source_sha256": kernel["source_sha256"],
        "backend": results[0].get("backend"),
        "metrics_sha256": done[0]["metrics_sha256"] if done else None,
        "repeats": len(plain), "traced_repeats": len(traced),
        "trial_latency_samples": plain[0]["trials"] if plain else 0,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures, "end_to_end": e2e,
        "end_to_end_raw": end_to_end(plain, lambda blocks: 1.0) if plain else {},
        "quality": quality,
        "per_layer": values if args.trace else None,
        "layer_map": workloads.LAYER_MAP, "spans": spans,
        "raw": [{k: v for k, v in r.items()
                 if k not in ("latencies_s", "recon_passes", "layer")}
                | {"recon_pass_s": [p["s"] for p in r.get("recon_passes", [])]}
                for r in results],
    }
    with open(os.path.join(RECORD_DIR, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
