"""Experiment configuration: flat key=value files covering every learning
parameter plus run/dataset settings.  Unknown keys are rejected."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    # learning parameters
    N: int = 500
    P_init: bool = True
    epsilon0: float = 0.01
    beta: float = 0.1
    alpha: float = 1.0
    nu: float = 10.0
    delta: float = 0.1
    theta_del: int = 20
    F_I: float = 0.01
    epsilon_I: float = 0.0
    F_R: float = 0.1
    epsilon_R: float = 1.0
    theta_EA: int = 50
    lam: int = 2  # config key "lambda"; the learner does no crossover
    mu_min: float = 1e-4
    omega: float = 0.9
    h_I: int = 1
    h_M: int = 5
    # structural/run settings
    h_max: int | None = None
    connection_mutation: bool = False
    mode: str = "xcsf"  # "xcsf" or "global_ea"
    stale_limit: int = 10000
    match_threshold: float = 0.5
    seed: int = 0
    trials: int = 100000
    checkpoint_interval: int = 1000
    # dataset settings
    dataset: str = ""
    has_label_column: bool = False
    split_ratio: float = 0.9
    image_shape: tuple | None = None

    @property
    def global_ea(self) -> bool:
        return self.mode == "global_ea"


# config-file key -> dataclass field ("lambda" is a Python keyword)
_KEY_TO_FIELD = {f.name: f.name for f in fields(ExperimentConfig)}
_KEY_TO_FIELD["lambda"] = "lam"
del _KEY_TO_FIELD["lam"]
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_bool(s):
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_opt_int(s):
    if s.lower() in ("", "none"):
        return None
    return int(s)


def _parse_opt_shape(s):
    if s.lower() in ("", "none"):
        return None
    parts = [int(p) for p in s.split(",")]
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3:
        raise ValueError(f"image_shape must be H,W or H,W,C: {s!r}")
    return parts


# the JSON form of a config-file value, by field annotation (a string)
_PARSERS = {"bool": _parse_bool, "float": float, "int": int,
            "int | None": _parse_opt_int, "str": str, "tuple | None": _parse_opt_shape}


def parse_config(text: str) -> ExperimentConfig:
    """Parse key=value lines ('#' starts a comment) by each field's annotation
    into the dict that ``config_from_dict`` checks and builds the config from."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[_FIELD_TYPES[_KEY_TO_FIELD[key]]](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return config_from_dict(values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def validate(cfg: ExperimentConfig) -> None:
    def require(ok, msg):
        if not ok:
            raise ConfigError(msg)

    # numpy shapes and the checkpoint's int64 columns (ts, born, the hidden
    # sizes) hold these, so every integer must fit an int64
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        require(f.type not in ("int", "int | None") or value is None or value < 2**63,
                f"{_FIELD_TO_KEY[f.name]} must be below 2**63")
    require(cfg.N >= 1, "N must be >= 1")
    require(0.0 < cfg.epsilon0 < math.inf, "epsilon0 must be finite and > 0")
    require(0.0 < cfg.beta <= 1.0, "beta must be in (0, 1]")
    require(0.0 < cfg.alpha <= 1.0, "alpha must be in (0, 1]")
    require(0.0 < cfg.nu < math.inf, "nu must be finite and > 0")
    require(0.0 < cfg.delta < 1.0, "delta must be in (0, 1)")
    require(cfg.theta_del >= 0, "theta_del must be >= 0")
    require(0.0 < cfg.F_I <= 1.0, "F_I must be in (0, 1]")
    require(0.0 <= cfg.epsilon_I < math.inf, "epsilon_I must be finite and >= 0")
    # a rule's error is a running mean of squared errors in [0, 1] that
    # starts at epsilon_I; if its accuracy underflows to 0, a match set can
    # have no accuracy at all and its fitness update divides 0 by 0
    worst = max(1.0, cfg.epsilon_I)
    require(worst < cfg.epsilon0 or cfg.alpha * math.pow(worst / cfg.epsilon0, -cfg.nu) > 0.0,
            "alpha * (max(1, epsilon_I) / epsilon0) ** -nu underflows to 0; "
            "lower nu or raise epsilon0")
    require(0.0 < cfg.F_R <= 1.0, "F_R must be in (0, 1]")
    require(0.0 < cfg.epsilon_R <= 1.0, "epsilon_R must be in (0, 1]")
    require(cfg.theta_EA >= 0, "theta_EA must be >= 0")
    require(cfg.lam >= 1, "lambda must be >= 1")
    require(0.0 < cfg.mu_min <= 1.0, "mu_min must be in (0, 1]")
    require(0.0 <= cfg.omega <= 1.0, "omega must be in [0, 1]")
    require(cfg.h_I >= 1, "h_I must be >= 1")
    require(cfg.h_M >= 1, "h_M must be >= 1")
    require(cfg.h_max is None or cfg.h_max >= cfg.h_I,
            "h_max must be >= h_I (or unset)")
    require(cfg.mode in ("xcsf", "global_ea"), "mode must be 'xcsf' or 'global_ea'")
    require(cfg.stale_limit >= 1, "stale_limit must be >= 1")
    require(0.0 <= cfg.match_threshold < 1.0, "match_threshold must be in [0, 1)")
    require(cfg.seed >= 0, "seed must be >= 0")
    require(cfg.trials >= 0, "trials must be >= 0")
    require(cfg.checkpoint_interval >= 1, "checkpoint_interval must be >= 1")
    require(0.0 < cfg.split_ratio <= 1.0, "split_ratio must be in (0, 1]")
    require(cfg.image_shape is None or len(cfg.image_shape) == 3,
            "image_shape must have three dimensions")
    require(cfg.image_shape is None or min(cfg.image_shape) >= 1,
            "image_shape dimensions must be >= 1")
    require(cfg.image_shape is None or max(cfg.image_shape) < 2**63,
            "image_shape dimensions must be below 2**63")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain dict keyed by config-file names (JSON-friendly)."""
    out = {}
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[_FIELD_TO_KEY[f.name]] = value
    return out


# the types a JSON config value of each field annotation may have; a bool
# is an int to Python but never a number here
_JSON_TYPES = {"bool": bool, "float": (int, float), "int": int,
               "int | None": (int, type(None)), "str": str,
               "tuple | None": (list, type(None))}


def _typed(key, value, annotation):
    """``value`` as the field annotated ``annotation`` holds it: a float
    field's int becomes a float and a shape's list a tuple."""
    error = ConfigError(f"{key} {value!r} is not of type {annotation}")
    if isinstance(value, bool) != (annotation == "bool") or \
            not isinstance(value, _JSON_TYPES[annotation]):
        raise error
    if annotation == "float":
        try:
            return float(value)
        except OverflowError:
            raise error from None
    if annotation == "tuple | None" and value is not None:
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise error
        return tuple(value)
    return value


def config_from_dict(d: dict) -> ExperimentConfig:
    values = {}
    for key, value in d.items():
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"unknown config key {key!r}")
        name = _KEY_TO_FIELD[key]
        values[name] = _typed(key, value, _FIELD_TYPES[name])
    cfg = ExperimentConfig(**values)
    validate(cfg)
    return cfg


# RNG stream purposes derived from the master seed
STREAM_SPLIT = 0
STREAM_TRAIN = 1
STREAM_AUX = 2


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Deterministic, independent PCG64 stream for one purpose of a run."""
    children = np.random.SeedSequence(seed).spawn(3)
    return np.random.Generator(np.random.PCG64(children[stream]))
