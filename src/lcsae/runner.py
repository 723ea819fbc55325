"""Experiment orchestration: seeded runs, resumable checkpoints, and the
reconstruction/denoising report."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import checkpoint, data, kernels, metrics, xcsf
from .config import (STREAM_AUX, STREAM_SPLIT, STREAM_TRAIN, ExperimentConfig,
                     config_to_dict, derived_rng, validate)

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
    ds = data.load_dataset(cfg.dataset, has_label_column=cfg.has_label_column,
                           image_shape=cfg.image_shape)
    # an IDX file brings its own shape, but a configured one must fit too
    if cfg.image_shape is not None and math.prod(cfg.image_shape) != ds.n:
        raise data.DataError(f"image_shape {list(cfg.image_shape)} does not fit "
                             f"the dataset's {ds.n} features")
    return data.split(ds, cfg.split_ratio, derived_rng(cfg.seed, STREAM_SPLIT))


def _check_width(pop: xcsf.Population, ds: data.Dataset) -> None:
    """A checkpoint's rules only read inputs of the width they were
    trained on."""
    if pop.members and pop.members[0].prediction.n_inputs != ds.n:
        raise data.DataError(
            f"dataset has {ds.n} features but the checkpoint's rules take "
            f"{pop.members[0].prediction.n_inputs}")


def _check_fingerprint(ckpt_path, cfg: ExperimentConfig) -> None:
    """A resumed run continues the original only on the dataset recorded in
    the manifest next to its checkpoint."""
    path = os.path.join(os.path.dirname(os.path.abspath(ckpt_path)), MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
        recorded = manifest["dataset"]["sha256"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise data.DataError(f"cannot read the run manifest {path}: {exc!r}") from exc
    if recorded != dataset_fingerprint(cfg.dataset)["sha256"]:
        raise data.DataError(f"dataset {cfg.dataset} differs from the one the run "
                             f"was trained on (sha256 {recorded})")


def _emit(fh, cfg, pop, ds, train_mse, m_size):
    stats = metrics.population_stats(pop, ds.features, cfg, np.arange(ds.rows))
    valid_mse, _ = xcsf.evaluate(pop, ds.valid(), cfg, ds.valid_idx)
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
    # renamed into place, so an interrupted write keeps the previous manifest
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path + ".tmp", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(path + ".tmp", path)


def _advance(pop, cfg, ds, rng, out_dir, window) -> str:
    """Run the population to ``cfg.trials``, then save its checkpoint and the
    manifest: the one writer of a run directory.  Appends one metrics row
    per completed checkpoint interval (a partial final window is carried in
    the checkpoint, not emitted, so resumed runs produce identical rows),
    after dropping the rows past the population's trial that an interrupted
    run flushed.  Returns the metrics CSV path."""
    xs, train_idx, start = ds.features, ds.train_idx, pop.trial
    if len(train_idx) == 0:
        raise TrainingError("training split is empty")
    mse_sum, m_sum, count = window["mse_sum"], window["m_sum"], window["count"]
    metrics_path = os.path.join(out_dir, METRICS_NAME)
    with open(metrics_path, "a+", encoding="utf-8", newline="") as fh:
        fh.seek(0)
        header, *rows = fh.readlines() or [metrics.CSV_HEADER]
        try:
            kept = [row for row in rows if int(row.split(",", 1)[0]) <= start]
        except ValueError as exc:
            raise data.DataError(f"{metrics_path}: a row's trial is not an integer: "
                                 f"{exc}") from None
        if fh.tell() == 0 or len(kept) < len(rows):
            fh.truncate(0)
            fh.writelines([header, *kept])
        while pop.trial < cfg.trials:
            row = train_idx[int(rng.integers(0, len(train_idx)))]
            res = xcsf.run_trial(pop, xs[row], cfg, rng, row)
            mse_sum += res.mse
            m_sum += res.m_size
            count += 1
            if pop.trial % cfg.checkpoint_interval == 0:
                _emit(fh, cfg, pop, ds, mse_sum / count, m_sum / count)
                mse_sum = m_sum = 0.0
                count = 0
    checkpoint.save_population(os.path.join(out_dir, CHECKPOINT_NAME), pop, cfg, rng,
                               {"mse_sum": mse_sum, "m_sum": m_sum, "count": count})
    _write_manifest(out_dir, cfg, ds, start, pop.trial)
    return metrics_path


def run_experiment(cfg: ExperimentConfig, out_dir) -> str:
    """Fresh seeded run: init population, train, emit metrics, checkpoint.

    Returns the metrics CSV path.
    """
    os.makedirs(out_dir, exist_ok=True)
    ds = prepare_dataset(cfg)
    rng = derived_rng(cfg.seed, STREAM_TRAIN)
    pop = xcsf.init_population(cfg, ds.n, rng)
    pop.memoize(cfg, ds.rows)
    _write_manifest(out_dir, cfg, ds, 0, cfg.trials)
    with open(os.path.join(out_dir, METRICS_NAME), "w", encoding="utf-8", newline="") as fh:
        fh.write(metrics.CSV_HEADER)
        train_mse, m_size = xcsf.evaluate(pop, ds.train(), cfg, ds.train_idx)
        _emit(fh, cfg, pop, ds, train_mse, m_size)
    return _advance(pop, cfg, ds, rng, out_dir, checkpoint.EMPTY_WINDOW)


def resume_experiment(ckpt_path, extra_trials: int) -> str:
    """Continue a checkpointed run for ``extra_trials`` more trials.

    The run continues in the checkpoint's directory: metrics rows are
    appended to its CSV, and its checkpoint and manifest are rewritten.
    The combined stream is identical to an unsplit longer run with the same
    seed, on either kernel backend.  The dataset must be the one recorded
    in the run's manifest.  Returns the metrics CSV path.
    """
    if extra_trials < 0:
        raise TrainingError("extra trials must be >= 0")
    pop, cfg, rng, window = checkpoint.load_population(ckpt_path)
    # the stored budget tracks how far the run has been extended, so a
    # resumed checkpoint is identical to the one from an unsplit run
    cfg.trials = pop.trial + extra_trials
    validate(cfg)
    ds = prepare_dataset(cfg)
    _check_fingerprint(ckpt_path, cfg)
    _check_width(pop, ds)
    # the memo is not saved, so a resumed run fills it as rows recur
    pop.memoize(cfg, ds.rows)
    return _advance(pop, cfg, ds, rng, os.path.dirname(os.path.abspath(ckpt_path)), window)


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
    if corruption not in ("none", "salt_pepper", "cutout"):
        raise ValueError(f"unknown corruption {corruption!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    pop, cfg, _ = checkpoint.load_population(ckpt_path)[:3]
    if not pop.members:
        raise checkpoint.CheckpointError("checkpoint holds no classifiers")
    cfg.dataset = str(dataset_path)
    ds = prepare_dataset(cfg)
    _check_width(pop, ds)
    valid = ds.valid()
    if valid.shape[0] == 0:
        raise data.DataError("validation split is empty; nothing to reconstruct")

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
