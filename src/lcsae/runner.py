"""Experiment orchestration: seeded runs, resumable checkpoints, and the
reconstruction/denoising report."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import checkpoint, data, kernels, metrics, xcsf
from .config import (STREAM_AUX, STREAM_SPLIT, STREAM_TRAIN, ExperimentConfig,
                     config_to_dict, derived_rng)

METRICS_NAME = "metrics.csv"
MANIFEST_NAME = "manifest.json"
CHECKPOINT_NAME = "population.ckpt"


class TrainingError(Exception):
    pass


def dataset_fingerprint(path) -> dict:
    sha = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            sha.update(chunk)
    return {"path": str(path), "sha256": sha.hexdigest()}


def prepare_dataset(cfg: ExperimentConfig) -> data.Dataset:
    """Load the configured dataset and apply the seeded train/valid split."""
    if not cfg.dataset:
        raise data.DataError("config does not name a dataset")
    ds = data.load_dataset(cfg.dataset, fmt=cfg.dataset_format,
                           has_label_column=cfg.has_label_column,
                           image_shape=cfg.image_shape)
    return data.split(ds, cfg.split_ratio, derived_rng(cfg.seed, STREAM_SPLIT))


def _check_width(pop: xcsf.Population, ds: data.Dataset) -> None:
    """A checkpoint's rules only read inputs of the width they were
    trained on."""
    if pop.members and pop.members[0].prediction.n_inputs != ds.n:
        raise data.DataError(
            f"dataset has {ds.n} features but the checkpoint's rules take "
            f"{pop.members[0].prediction.n_inputs}")


def _emit(fh, cfg, pop, ds, train_mse, m_size):
    stats = metrics.population_stats(pop, ds.features, cfg)
    valid_mse, _ = xcsf.evaluate(pop, ds.valid(), cfg)
    cp = metrics.Checkpoint(trial=pop.trial, train_mse=train_mse,
                            valid_mse=valid_mse, M_size=m_size, **stats)
    fh.write(metrics.checkpoint_row(cp))
    fh.flush()
    return cp


def _write_manifest(out_dir, cfg, ds, start_trial, end_trial):
    manifest = {
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "dataset": dataset_fingerprint(cfg.dataset),
        "rows": ds.rows,
        "features": ds.n,
        "train_rows": int(len(ds.train_idx)),
        "valid_rows": int(len(ds.valid_idx)),
        "kernel_backend": kernels.BACKEND,
        "outputs": {"metrics": METRICS_NAME, "checkpoint": CHECKPOINT_NAME},
        "start_trial": start_trial,
        "end_trial": end_trial,
    }
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _train_loop(pop, cfg, ds, rng, fh, target_trial, window):
    """Advance the population to ``target_trial``, emitting one metrics row
    per completed checkpoint interval (a partial final window is carried in
    the checkpoint, not emitted, so resumed runs produce identical rows)."""
    xs = ds.features
    train_idx = ds.train_idx
    if len(train_idx) == 0:
        raise TrainingError("training split is empty")
    mse_sum = window["mse_sum"]
    m_sum = window["m_sum"]
    count = window["count"]
    while pop.trial < target_trial:
        i = int(rng.integers(0, len(train_idx)))
        x = xs[train_idx[i]]
        res = xcsf.run_trial(pop, x, cfg, rng)
        mse_sum += res.mse
        m_sum += res.m_micro
        count += 1
        if pop.trial % cfg.checkpoint_interval == 0:
            _emit(fh, cfg, pop, ds, mse_sum / count, m_sum / count)
            mse_sum = m_sum = 0.0
            count = 0
    return {"mse_sum": mse_sum, "m_sum": m_sum, "count": count}


def run_experiment(cfg: ExperimentConfig, out_dir) -> str:
    """Fresh seeded run: init population, train, emit metrics, checkpoint.

    Returns the metrics CSV path.
    """
    os.makedirs(out_dir, exist_ok=True)
    ds = prepare_dataset(cfg)
    rng = derived_rng(cfg.seed, STREAM_TRAIN)
    pop = xcsf.init_population(cfg, ds.n, rng)
    _write_manifest(out_dir, cfg, ds, 0, cfg.trials)

    metrics_path = os.path.join(out_dir, METRICS_NAME)
    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(metrics.CSV_HEADER)
        train_mse, m_size = xcsf.evaluate(pop, ds.train(), cfg)
        _emit(fh, cfg, pop, ds, train_mse, m_size)
        window = {"mse_sum": 0.0, "m_sum": 0.0, "count": 0}
        window = _train_loop(pop, cfg, ds, rng, fh, cfg.trials, window)
    checkpoint.save_population(os.path.join(out_dir, CHECKPOINT_NAME),
                               pop, cfg, rng, window)
    _write_manifest(out_dir, cfg, ds, 0, pop.trial)
    return metrics_path


def resume_experiment(ckpt_path, extra_trials: int, out_dir=None) -> str:
    """Continue a checkpointed run for ``extra_trials`` more trials.

    Metrics rows are appended to the run directory's existing CSV; the
    combined stream is identical to an unsplit longer run with the same
    seed.  Returns the metrics CSV path.
    """
    if extra_trials < 0:
        raise TrainingError("extra trials must be >= 0")
    pop, cfg, rng, window = checkpoint.load_population(ckpt_path)
    # the stored budget tracks how far the run has been extended, so a
    # resumed checkpoint is identical to the one from an unsplit run
    cfg.trials = pop.trial + extra_trials
    ds = prepare_dataset(cfg)
    _check_width(pop, ds)
    if out_dir is None:
        out_dir = os.path.dirname(os.path.abspath(ckpt_path))
    os.makedirs(out_dir, exist_ok=True)

    start = pop.trial
    target = start + extra_trials
    metrics_path = os.path.join(out_dir, METRICS_NAME)
    new_file = not os.path.exists(metrics_path)
    with open(metrics_path, "a", encoding="utf-8", newline="") as fh:
        if new_file:
            fh.write(metrics.CSV_HEADER)
        window = _train_loop(pop, cfg, ds, rng, fh, target, window)
    checkpoint.save_population(os.path.join(out_dir, CHECKPOINT_NAME),
                               pop, cfg, rng, window)
    _write_manifest(out_dir, cfg, ds, start, pop.trial)
    return metrics_path


# ---------------------------------------------------------------------------
# reconstruction / corruption report

@dataclass
class ReconstructionResult:
    count: int
    corruption: str
    mean_recon_mse: float
    mean_corrupt_mse: float
    per_image: list
    image_files: list


def _write_pgm(path, img: np.ndarray) -> None:
    """8-bit binary portable graymap; values are round(v * 255)."""
    height, width = img.shape
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode())
        f.write(pixels.tobytes())


def _export_images(out_dir, index, names, vectors, shape) -> list:
    height, width = shape[0], shape[1]
    channels = shape[2] if len(shape) > 2 else 1
    written = []
    for name, vec in zip(names, vectors):
        img = vec.reshape(height, width, channels)
        for c in range(channels):
            suffix = f"_c{c}" if channels > 1 else ""
            path = os.path.join(out_dir, f"{name}_{index:03d}{suffix}.pgm")
            _write_pgm(path, img[:, :, c])
            written.append(path)
    return written


def reconstruct(ckpt_path, dataset_path, corruption: str = "none",
                noise_fraction: float = 0.1, count: int = 16,
                out_dir=None, export_images: bool = True) -> ReconstructionResult:
    """Reconstruct sampled validation instances from a trained checkpoint.

    ``corruption`` is one of none/salt_pepper/cutout and is applied to the
    inputs only; errors are always measured against the clean originals.
    """
    pop, cfg, _ = checkpoint.load_population(ckpt_path)[:3]
    if not pop.members:
        raise checkpoint.CheckpointError("checkpoint holds no classifiers")
    cfg.dataset = str(dataset_path)
    ds = prepare_dataset(cfg)
    _check_width(pop, ds)
    valid = ds.valid()
    if valid.shape[0] == 0:
        raise data.DataError("validation split is empty; nothing to reconstruct")
    if corruption not in ("none", "salt_pepper", "cutout"):
        raise ValueError(f"unknown corruption {corruption!r}")

    rng = derived_rng(cfg.seed, STREAM_AUX)
    k = min(count, valid.shape[0])
    picks = rng.choice(valid.shape[0], size=k, replace=False)

    if out_dir is None:
        out_dir = os.path.dirname(os.path.abspath(ckpt_path))
    os.makedirs(out_dir, exist_ok=True)

    per_image = []
    image_files = []
    recon_sum = corrupt_sum = 0.0
    for j, row in enumerate(picks):
        x = valid[row]
        if corruption == "salt_pepper":
            xc = data.salt_pepper(x, noise_fraction, rng)
        elif corruption == "cutout":
            xc = data.cutout(x, ds.image_shape, rng)
        else:
            xc = x
        y = xcsf.reconstruct_one(pop, xc, cfg)
        recon_mse = metrics.mse(y, x)
        corrupt_mse = metrics.mse(xc, x)
        recon_sum += recon_mse
        corrupt_sum += corrupt_mse
        per_image.append({"row": int(row), "recon_mse": recon_mse,
                          "corrupt_mse": corrupt_mse})
        if export_images and ds.image_shape is not None:
            image_files += _export_images(out_dir, j, ("orig", "corrupt", "recon"),
                                          (x, xc, y), ds.image_shape)

    result = ReconstructionResult(
        count=k, corruption=corruption,
        mean_recon_mse=recon_sum / k, mean_corrupt_mse=corrupt_sum / k,
        per_image=per_image, image_files=image_files)
    report = {"count": result.count, "corruption": result.corruption,
              "noise_fraction": noise_fraction if corruption == "salt_pepper" else None,
              "mean_recon_mse": result.mean_recon_mse,
              "mean_corrupt_mse": result.mean_corrupt_mse,
              "per_image": result.per_image}
    with open(os.path.join(out_dir, "reconstruction.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    if export_images and ds.image_shape is None:
        raise data.DataError("image export requested but the dataset has no "
                             "image shape (report was still written)")
    return result
