"""Output checks for one benchmark repeat.

Each check returns a list of failure messages (empty when the output is
correct), so a run can count and report every failure it saw.
"""

from __future__ import annotations

import math

from lcsae import checkpoint, metrics, runner, xcsf


def check_metrics(path, expected_rows: int, population_limit: int):
    """Parse ``metrics.csv``; returns (rows, failures)."""
    try:
        rows = metrics.read_metrics(path)
    except (OSError, ValueError, TypeError) as exc:
        return [], [f"metrics.csv does not parse: {exc}"]
    failures = []
    if len(rows) != expected_rows:
        failures.append(f"metrics.csv has {len(rows)} rows, expected {expected_rows}")
    for cp in rows:
        bad = [name for name in metrics.CSV_FIELDS
               if not math.isfinite(getattr(cp, name))]
        if bad:
            failures.append(f"trial {cp.trial}: non-finite {', '.join(bad)}")
        if cp.macro_count > population_limit:
            failures.append(f"trial {cp.trial}: macro_count {cp.macro_count} "
                            f"exceeds N={population_limit}")
    return rows, failures


def check_checkpoint(ckpt_path, dataset_path, expected_trial: int,
                     expected_valid_mse: float):
    """Reload the final checkpoint and re-evaluate the validation split.

    The last metrics row was emitted from the same population, so the
    validation error must match it exactly.
    """
    try:
        pop, cfg, _, _ = checkpoint.load_population(ckpt_path)
    except (checkpoint.CheckpointError, KeyError, ValueError, TypeError) as exc:
        return [f"checkpoint does not load: {exc}"]
    cfg.dataset = str(dataset_path)
    ds = runner.prepare_dataset(cfg)
    failures = []
    if pop.trial != expected_trial:
        failures.append(f"checkpoint is at trial {pop.trial}, expected {expected_trial}")
    valid_mse, _ = xcsf.evaluate(pop, ds.valid(), cfg)
    if valid_mse != expected_valid_mse:
        failures.append(f"reloaded checkpoint gives valid_mse {valid_mse!r}, "
                        f"metrics.csv says {expected_valid_mse!r}")
    return failures


def check_reconstruction(result, valid_rows: int):
    failures = []
    if result.count != valid_rows or len(result.per_image) != valid_rows:
        failures.append(f"reconstructed {result.count} inputs, "
                        f"expected {valid_rows} validation rows")
    if not math.isfinite(result.mean_recon_mse):
        failures.append("mean_recon_mse is not finite")
    return failures
