"""Per-checkpoint measurement stream and the area-under-curve summary."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import xcsf
from .config import ExperimentConfig


def mse(a, b) -> float:
    """Mean squared error between two equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def auc_simpson(points) -> float:
    """Composite Simpson integral of a uniformly spaced series.

    ``points`` is a sequence of (trial, value); the abscissa is measured in
    checkpoint steps (spacing 1).  Even-length series use Simpson on the
    longest odd prefix plus a trapezoid on the final interval.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least 3 points for the Simpson rule")
    trials = np.asarray([p[0] for p in points], dtype=float)
    values = np.asarray([p[1] for p in points], dtype=float)
    deltas = np.diff(trials)
    if not np.all(deltas == deltas[0]) or deltas[0] <= 0:
        raise ValueError("checkpoints must be uniformly spaced and increasing")
    n = len(values)
    if n % 2 == 1:
        return _simpson_odd(values)
    return _simpson_odd(values[:-1]) + 0.5 * (values[-2] + values[-1])


def _simpson_odd(values) -> float:
    total = 0.0
    for i in range(0, len(values) - 2, 2):
        total += (values[i] + 4.0 * values[i + 1] + values[i + 2]) / 3.0
    return float(total)


@dataclass
class Checkpoint:
    """One metrics row: trial counter, error levels, and population means."""

    trial: int
    train_mse: float
    valid_mse: float
    mfrac: float
    C_h: float
    P_h: float
    C_w: float
    P_w: float
    C_w_total: int
    P_w_total: int
    M_size: float
    macro_count: int
    mean_mu_w: float
    mean_mu_h: float
    mean_mu_eta: float
    mean_mu_c: float


CSV_FIELDS = tuple(f.name for f in fields(Checkpoint))
CSV_HEADER = ",".join(CSV_FIELDS) + "\n"


def checkpoint_row(cp: Checkpoint) -> str:
    cells = []
    for name in CSV_FIELDS:
        value = getattr(cp, name)
        cells.append(repr(value) if isinstance(value, float) else str(value))
    return ",".join(cells) + "\n"


def read_metrics(path) -> list:
    """Parse a metrics CSV back into Checkpoint records."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != ",".join(CSV_FIELDS):
            raise ValueError(f"{path}: unexpected metrics header")
        for lineno, line in enumerate(f, 2):
            cells = line.strip().split(",")
            if len(cells) != len(CSV_FIELDS):
                raise ValueError(f"{path}: line {lineno} has {len(cells)} cells, "
                                 f"not {len(CSV_FIELDS)}")
            values = {}
            for name, cell, fld in zip(CSV_FIELDS, cells, fields(Checkpoint)):
                values[name] = int(cell) if fld.type == "int" else float(cell)
            out.append(Checkpoint(**values))
    return out


def auc_from_metrics(rows, field: str = "train_mse", max_trial=None) -> float:
    points = [(cp.trial, getattr(cp, field)) for cp in rows
              if max_trial is None or cp.trial <= max_trial]
    return auc_simpson(points)


def population_stats(pop: xcsf.Population, xs: np.ndarray,
                     cfg: ExperimentConfig, rows=None) -> dict:
    """Population means over the rules for one checkpoint.

    Active-weight columns count mask-enabled weights only (biases are never
    masked); the *_total variants sum over the rules.  Mutation
    rates are averaged over all four layers of both networks.  No mean
    depends on the order of its terms: exact integer sums or ``math.fsum``.
    ``mfrac`` is the fraction of ``xs`` the best rule matches; ``rows`` are
    the dataset rows of ``xs``, if any, for the match memo.
    """
    members = pop.members
    if not members:
        # an empty population (P_init off, before the first cover)
        return {"mfrac": 0.0, "C_h": 0.0, "P_h": 0.0, "C_w": 0.0, "P_w": 0.0,
                "C_w_total": 0, "P_w_total": 0, "macro_count": 0,
                "mean_mu_w": 0.0, "mean_mu_h": 0.0, "mean_mu_eta": 0.0,
                "mean_mu_c": 0.0}
    size = len(members)
    c_h = sum(cl.condition.n_hidden for cl in members)
    p_h = sum(cl.prediction.n_hidden for cl in members)
    c_w = sum(l.active_weights() for cl in members for l in cl.condition.layers)
    p_w = sum(l.active_weights() for cl in members for l in cl.prediction.layers)
    mus = np.array([[l.mu for l in cl.condition.layers + cl.prediction.layers]
                    for cl in members])  # [m, 4 layers, 4 rates]
    mean_mu = [math.fsum(rate) / size for rate in mus.mean(axis=1).T]

    _, mfrac = xcsf.best_classifier(pop, xs, cfg, rows)
    return {
        "mfrac": float(mfrac),
        "C_h": c_h / size,
        "P_h": p_h / size,
        "C_w": c_w / size,
        "P_w": p_w / size,
        "C_w_total": c_w,
        "P_w_total": p_w,
        "macro_count": size,
        "mean_mu_w": mean_mu[0],
        "mean_mu_h": mean_mu[1],
        "mean_mu_eta": mean_mu[2],
        "mean_mu_c": mean_mu[3],
    }
