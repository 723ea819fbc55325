"""Versioned binary serialization of population checkpoints.

Layout: magic, u64 header length, JSON header, then the payload.  The
header holds the config, the trial, the RNG state, the partial metrics
window, the number of rules and the input width; its keys are sorted, so
identical state always produces identical bytes.

The payload (version 3) is a fixed sequence of little-endian columns, each
holding one field of every rule in member order:

- the seven rule scalars ``xcsf.SCALARS``, int64 for the counters and
  float64 for the rest, one entry per rule each;
- the hidden sizes, int64, a (condition, prediction) pair per rule;
- the gradient-descent rates, float64, one per layer of every rule;
- for each of the four layers (condition hidden, condition output,
  prediction hidden, prediction output) its ``weights``, ``biases``,
  ``mask`` (uint8), ``mu``, ``mom_w`` and ``mom_b``, flattened.

Every layer's shape follows from the input width and the rule's hidden
sizes.  Loads are atomic: the payload size is checked against the hidden
sizes before any per-rule array is cut, every column is range-checked as
one array, and any inconsistency raises before state is handed out.
Version 1 checkpoints, which listed every rule and array in the header,
and version 2 ones, which held a numerosity column, are refused.
"""

from __future__ import annotations

import json
import math
import os
import struct
from itertools import accumulate

import numpy as np

from . import neural, xcsf
from .config import ConfigError, config_from_dict, config_to_dict

POPULATION_MAGIC = b"LCSAECK1"
VERSION = 3

_SCALAR_DTYPES = {name: "<i8" if name in xcsf.INT_SCALARS else "<f8"
                  for name in xcsf.SCALARS}
_LAYER_DTYPES = {"weights": "<f8", "biases": "<f8", "mask": "|u1", "mu": "<f8",
                 "mom_w": "<f8", "mom_b": "<f8"}
_LAYERS = ("condition hidden", "condition output", "prediction hidden",
           "prediction output")

# what a header that parses as JSON but has the wrong keys, types or
# values raises while it is read
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError,
              OverflowError)


class CheckpointError(Exception):
    pass


def _pack(header: dict, payload) -> bytes:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return POPULATION_MAGIC + struct.pack("<Q", len(blob)) + blob + payload


def _unpack(data: bytes):
    """The header and a view of the payload, which is not copied."""
    magic = POPULATION_MAGIC
    if len(data) < len(magic) + 8:
        raise CheckpointError("file too short")
    if data[:len(magic)] != magic:
        raise CheckpointError(f"bad magic {data[:len(magic)]!r}")
    (hlen,) = struct.unpack("<Q", data[len(magic):len(magic) + 8])
    start = len(magic) + 8
    if len(data) < start + hlen:
        raise CheckpointError("truncated header")
    try:
        header = json.loads(data[start:start + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("corrupt header: not a JSON object")
    if header.get("version") != VERSION:
        raise CheckpointError(f"unsupported version {header.get('version')}")
    return header, memoryview(data)[start + hlen:]


# the partial metrics window of a run that has emitted every row it owes
EMPTY_WINDOW = {"mse_sum": 0.0, "m_sum": 0.0, "count": 0}


def _check_state(trial: int, cfg, c: dict, hidden, eta) -> None:
    """Every rule scalar, hidden size and rate is in the range the learner
    can run with.  Every fitness is positive, as the learner starts it at
    F_I > 0, and a rule that was ever reinforced or reproduced (``exp >= 1``)
    keeps it at or above the floor, so every fitness-weighted mean has a
    positive total.  The counters meet the invariants of every checkpoint
    the learner writes, so none can overflow on resume: it saves at exactly
    ``cfg.trials``, and every trial ends with at most N rules."""
    if trial > cfg.trials:
        raise CheckpointError(f"trial {trial} is not <= the config's trials {cfg.trials}")

    def counter(name):
        # a trial adds at most 1 to exp and mtotal, and sets ts and born to itself
        v = c[name]
        return name, v, (v >= 0) & (v <= trial), f"in [0, trial={trial}]"

    fit = c["fit"]
    checks = (*map(counter, ("exp", "mtotal", "ts", "born")),
              ("err", c["err"], np.isfinite(c["err"]) & (c["err"] >= 0), "finite and >= 0"),
              ("fit", fit, np.isfinite(fit) & (fit > 0)
               & ((c["exp"] < 1) | (fit >= xcsf._F_FLOOR)),
               f"finite, > 0 and >= {xcsf._F_FLOOR} once exp >= 1"),
              ("set_size", c["set_size"], np.isfinite(c["set_size"]) & (c["set_size"] > 0),
               "finite and > 0"),
              ("hidden sizes", hidden, hidden >= 1, ">= 1"),
              ("eta", eta, (eta >= neural.ETA_MIN) & (eta <= neural.ETA_MAX),
               f"in [{neural.ETA_MIN}, {neural.ETA_MAX}]"))
    for name, values, ok, rule in checks:
        bad = np.flatnonzero(~(ok.all(axis=1) if ok.ndim > 1 else ok))
        if len(bad):
            i = int(bad[0])
            raise CheckpointError(f"rule {i} {name} {values[i].tolist()!r} is not {rule}")
    if len(fit) > cfg.N:
        raise CheckpointError(f"{len(fit)} rules are more than N={cfg.N}")


def _check_layer(name: str, c: dict, mu_min: float) -> None:
    """One layer column of every rule holds only values the learner writes:
    finite floats, rates in [mu_min, 1], a 0/1 mask, and zero weight and
    momentum on every masked connection."""
    for field in ("weights", "biases", "mom_w", "mom_b"):
        if not np.isfinite(c[field]).all():
            raise CheckpointError(f"{name} layer {field} are not all finite")
    if not ((c["mu"] >= mu_min) & (c["mu"] <= 1.0)).all():
        raise CheckpointError(f"{name} layer mutation rates are not all in [{mu_min}, 1]")
    if (c["mask"] > 1).any():
        raise CheckpointError(f"{name} layer mask holds a value other than 0 and 1")
    off = c["mask"] == 0
    if c["weights"][off].any() or c["mom_w"][off].any():
        raise CheckpointError(f"{name} layer has a nonzero weight or momentum "
                              "on a masked connection")


def _check_window(window) -> None:
    """The partial metrics window holds two finite sums and a count."""
    if not isinstance(window, dict) or set(window) != set(EMPTY_WINDOW):
        raise CheckpointError(f"metrics window {window!r} does not have exactly "
                              f"the keys {sorted(EMPTY_WINDOW)}")
    for key in ("mse_sum", "m_sum"):
        v = window[key]
        if type(v) not in (int, float) or not math.isfinite(v):
            raise CheckpointError(f"metrics window {key} {v!r} is not a finite number")
    if type(window["count"]) is not int or window["count"] < 0:
        raise CheckpointError(f"metrics window count {window['count']!r} "
                              "is not an integer >= 0")


def population_to_bytes(pop: xcsf.Population, cfg, rng,
                        window: dict | None = None) -> bytes:
    """Serialize population, config, RNG state, and the partial metrics
    window so training can resume exactly where it stopped.  Nothing is
    validated here; the loader checks everything."""
    layers = [cl.condition.layers + cl.prediction.layers for cl in pop.members]
    columns = [np.asarray(getattr(pop.state, name), dtype)
               for name, dtype in _SCALAR_DTYPES.items()]
    columns.append(np.array([[cl.condition.n_hidden, cl.prediction.n_hidden]
                             for cl in pop.members], "<i8"))
    columns.append(np.array([[layer.eta for layer in ls] for ls in layers], "<f8"))
    for k in range(len(_LAYERS)):
        for field, dtype in _LAYER_DTYPES.items():
            columns += [np.asarray(getattr(ls[k], field), dtype) for ls in layers]
    header = {
        "version": VERSION,
        "config": config_to_dict(cfg),
        "trial": pop.trial,
        "rng": rng.bit_generator.state,
        "window": window or EMPTY_WINDOW,
        "rules": len(pop.members),
        "inputs": pop.members[0].prediction.n_inputs if pop.members else 0,
    }
    return _pack(header, b"".join(col.tobytes() for col in columns))


def population_from_bytes(data: bytes):
    """Returns (population, config, rng, window)."""
    header, payload = _unpack(data)
    try:
        return _population_from_header(header, payload)
    except _MALFORMED as exc:
        raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc


def _rule_slices(col, sizes) -> list:
    """A copy of each consecutive slice of ``col`` with the given sizes."""
    ends = list(accumulate(sizes))
    return [col[start:end].copy() for start, end in zip([0] + ends, ends)]


def _population_from_header(header: dict, payload):
    trial, rules, n = header["trial"], header["rules"], header["inputs"]
    for key, v in (("trial", trial), ("rules", rules), ("inputs", n)):
        if type(v) is not int or v < 0:
            raise CheckpointError(f"{key} {v!r} is not an integer >= 0")
    try:
        cfg = config_from_dict(header["config"])
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from exc
    _check_window(header["window"])
    bg = np.random.PCG64()
    bg.state = header["rng"]
    offset = 0

    def column(dtype, count):
        nonlocal offset
        col = np.frombuffer(payload, dtype, count, offset)
        offset += col.nbytes
        return col

    state = {name: column(dtype, rules) for name, dtype in _SCALAR_DTYPES.items()}
    hidden = column("<i8", 2 * rules).reshape(rules, 2)
    eta = column("<f8", len(_LAYERS) * rules).reshape(rules, len(_LAYERS))
    _check_state(trial, cfg, state, hidden, eta)
    # (out, in) of the four layers of every rule, and from them the element
    # counts of each layer field, all in Python ints so that no corrupt
    # hidden size can overflow them or allocate anything
    shapes = [((hc, n), (1, hc), (hp, n), (n, hp)) for hc, hp in hidden.tolist()]
    sizes = []
    for k in range(len(_LAYERS)):
        w = [s[k][0] * s[k][1] for s in shapes]
        b = [s[k][0] for s in shapes]
        sizes.append({"weights": w, "biases": b, "mask": w, "mu": [4] * rules,
                      "mom_w": w, "mom_b": b})
    need = offset + sum(np.dtype(dtype).itemsize * sum(size[field])
                        for size in sizes for field, dtype in _LAYER_DTYPES.items())
    if need != len(payload):
        raise CheckpointError(f"payload is {len(payload)} bytes, the rules' "
                              f"hidden sizes and {n} inputs need {need}")
    cuts = []
    for name, size in zip(_LAYERS, sizes):
        cols = {field: column(dtype, sum(size[field]))
                for field, dtype in _LAYER_DTYPES.items()}
        _check_layer(name, cols, cfg.mu_min)
        # a copy of each rule's slice, so no layer keeps a column alive; the
        # native-endian column is the payload itself on a little-endian host
        cuts.append({field: _rule_slices(col.astype(col.dtype.newbyteorder("="), copy=False),
                                         size[field])
                     for field, col in cols.items()})
    # rule i is row i of one table of the checked columns, which
    # ``Population`` gathers into its own
    table = xcsf.RuleState(state[name] for name in xcsf.SCALARS)
    etas = eta.tolist()
    members = []
    for i, shape in enumerate(shapes):
        layers = [neural.Layer(weights=c["weights"][i].reshape(shape[k]),
                               biases=c["biases"][i],
                               mask=c["mask"][i].reshape(shape[k]),
                               eta=etas[i][k], mu=c["mu"][i],
                               mom_w=c["mom_w"][i].reshape(shape[k]),
                               mom_b=c["mom_b"][i])
                  for k, c in enumerate(cuts)]
        members.append(xcsf.Classifier(neural.Network(layers[:2]),
                                       neural.Network(layers[2:]), table, i))
    pop = xcsf.Population(members, trial=trial)
    return pop, cfg, np.random.Generator(bg), header["window"]


def save_population(path, pop, cfg, rng, window=None) -> None:
    """Atomic write: serialize fully, then rename into place."""
    blob = population_to_bytes(pop, cfg, rng, window)
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, path)


def load_population(path):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return population_from_bytes(data)
