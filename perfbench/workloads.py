"""Workload definitions and the layer-to-metric map of the benchmark.

Every workload is a fixed shape and configuration; the data and the
learner are seeded from the benchmark's ``--seed``.  The trial count of one
repeat is a multiple of the checkpoint interval, so the final metrics row
and the saved checkpoint describe the same population.
"""

from __future__ import annotations

import os

import gen

# Salt-and-pepper fraction for the reconstruction pass (the paper's
# denoising setting); every validation row is reconstructed.
NOISE_FRACTION = 0.1

WORKLOADS = {
    "blobs64": {
        "why": "ROADMAP baseline: 8x8 blobs, N=500 xcsf; per-classifier "
               "reinforce bookkeeping dominates and the C kernel is small",
        "data": "blobs", "rows": 1000,
        "config": {"N": 500, "mode": "xcsf", "trials": 1000,
                   "checkpoint_interval": 250},
    },
    "strokes784": {
        "why": "paper-width inputs: 28x28 IDX strokes (784 features), N=250; the C "
               "reinforce kernel dominates trials and trial-0 evaluate dominates set-up",
        "data": "strokes", "rows": 250,
        "config": {"N": 250, "mode": "xcsf", "trials": 1000,
                   "checkpoint_interval": 250, "split_ratio": 0.8},
    },
    "global64": {
        "why": "blobs64 data in global_ea mode: every rule matches, so matching "
               "is bypassed and reinforce, evaluate and decoding use all rules",
        "data": "blobs", "rows": 1000,
        "config": {"N": 500, "mode": "global_ea", "trials": 1000,
                   "checkpoint_interval": 250},
    },
}

# Which end-to-end metrics each traced layer should move, and on which
# workloads it matters most / not at all.
LAYER_MAP = {
    "data": {"metrics": ["data.load_dataset.s", "data.load_dataset.bytes"],
             "moves": ["setup_s", "recon_per_s"], "most": ["strokes784"], "not": []},
    "xcsf.init": {"metrics": ["xcsf.init_population.s"],
                  "moves": ["setup_s", "peak_rss_mb"], "most": ["strokes784"], "not": []},
    "xcsf.match": {"metrics": ["xcsf.build_match_set.s", "xcsf.build_match_set.self_s",
                               "xcsf.match_set.rules", "xcsf.match_set.frac",
                               "xcsf.cover.calls"],
                   "moves": ["trials_per_s"], "most": ["strokes784", "blobs64"],
                   "not": ["global64"]},
    "kernels": {"metrics": ["kernels.match_batch.s", "kernels.match_batch.rules",
                            "kernels.reinforce_batch.s", "kernels.reinforce_batch.nets",
                            "kernels.reinforce_batch.weights",
                            "kernels.reinforce_batch.bytes"],
                "moves": ["trials_per_s", "trial_p50_ms", "recon_per_s"],
                "most": ["strokes784"], "not": ["global64 (match_batch only)"]},
    "xcsf.reinforce": {"metrics": ["xcsf.reinforce.s", "xcsf.reinforce.self_s"],
                       "moves": ["trials_per_s", "trial_p50_ms"],
                       "most": ["blobs64", "global64"], "not": []},
    "xcsf.trial": {"metrics": ["xcsf.run_trial.self_s"],
                   "moves": ["trials_per_s"], "most": ["blobs64"], "not": []},
    "xcsf.ea": {"metrics": ["xcsf.maybe_run_ea.s", "xcsf.ea.fired", "xcsf.ea.fire_rate",
                            "xcsf.make_offspring.s"],
                "moves": ["trial_p99_ms"], "most": ["blobs64"], "not": []},
    "xcsf.deletion": {"metrics": ["xcsf.enforce_population_limit.s", "xcsf.deletions"],
                      "moves": ["trial_p99_ms", "trials_per_s"],
                      "most": ["global64"], "not": []},
    "xcsf.evaluate": {"metrics": ["xcsf.evaluate.s", "xcsf.evaluate.rows"],
                      "moves": ["setup_s", "trials_per_s"],
                      "most": ["strokes784", "global64"], "not": []},
    "metrics": {"metrics": ["metrics.population_stats.s"],
                "moves": ["trials_per_s"], "most": ["blobs64"], "not": []},
    "checkpoint": {"metrics": ["checkpoint.save_population.s",
                               "checkpoint.save_population.bytes",
                               "checkpoint.load_population.s"],
                   "moves": ["trials_per_s", "recon_per_s"],
                   "most": ["strokes784"], "not": []},
    "xcsf.reconstruct": {"metrics": ["xcsf.reconstruct_one.s",
                                     "xcsf.reconstruct_one.self_s",
                                     "xcsf.system_prediction.s", "neural.forward.calls"],
                         "moves": ["recon_per_s"], "most": ["global64"], "not": []},
}


def write_dataset(name: str, seed: int, out_dir) -> str:
    """Generate the workload's dataset for ``seed``; returns its path."""
    wl = WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    if wl["data"] == "blobs":
        path = os.path.join(out_dir, "data.csv")
        gen.write_csv(path, gen.blobs(seed, wl["rows"]))
    else:
        path = os.path.join(out_dir, "data.idx")
        gen.write_idx(path, gen.strokes(seed, wl["rows"]), 28)
    return path
