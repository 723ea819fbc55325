"""Versioned binary serialization for networks and population checkpoints.

Layout: magic, u64 header length, JSON header, then raw little-endian
array payload in header order.  The JSON is emitted with sorted keys so
identical state always produces identical bytes, and loads are atomic:
any inconsistency raises before state is handed out.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from . import neural, xcsf
from .config import config_from_dict, config_to_dict

NETWORK_MAGIC = b"LCSAENT1"
POPULATION_MAGIC = b"LCSAECK1"
VERSION = 1


class CheckpointError(Exception):
    pass


class _ArrayBlock:
    """Collects arrays for the payload and hands out manifest indices."""

    def __init__(self):
        self.arrays = []
        self.manifest = []

    def add(self, arr: np.ndarray) -> int:
        if arr.dtype == np.float64:
            dtype = "<f8"
        elif arr.dtype == np.uint8:
            dtype = "|u1"
        else:
            raise CheckpointError(f"unsupported array dtype {arr.dtype}")
        self.manifest.append({"shape": list(arr.shape), "dtype": dtype})
        self.arrays.append(np.ascontiguousarray(arr))
        return len(self.arrays) - 1

    def payload(self) -> bytes:
        return b"".join(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes()
                        for a in self.arrays)


_DTYPES = {"<f8": np.dtype("<f8"), "|u1": np.dtype("|u1")}

# what a header that parses as JSON but has the wrong keys, types or
# values raises while it is read
_MALFORMED = (KeyError, IndexError, TypeError, ValueError)


class _ArrayReader:
    def __init__(self, manifest, payload: bytes):
        self.entries = []
        offset = 0
        for entry in manifest:
            dtype = _DTYPES.get(entry["dtype"])
            if dtype is None:
                raise CheckpointError(f"unsupported array dtype {entry['dtype']!r}")
            shape = tuple(entry["shape"])
            if not all(type(d) is int and d >= 0 for d in shape):
                raise CheckpointError(f"bad array shape {entry['shape']!r}")
            count = math.prod(shape)
            self.entries.append((offset, dtype, shape, count))
            offset += dtype.itemsize * count
        if offset != len(payload):
            raise CheckpointError(
                f"payload is {len(payload)} bytes, manifest expects {offset}")
        self.payload = payload

    def get(self, index: int) -> np.ndarray:
        offset, dtype, shape, count = self.entries[index]
        arr = np.frombuffer(self.payload, dtype=dtype, count=count, offset=offset)
        return np.ascontiguousarray(arr.astype(dtype.newbyteorder("="), copy=True).reshape(shape))


def _layer_meta(layer: neural.Layer, block: _ArrayBlock) -> dict:
    return {
        "activation": int(layer.activation),
        "eta": layer.eta,
        "arrays": [block.add(layer.weights), block.add(layer.biases),
                   block.add(layer.mask), block.add(layer.mu),
                   block.add(layer.mom_w), block.add(layer.mom_b)],
    }


def _layer_from_meta(meta: dict, reader: _ArrayReader) -> neural.Layer:
    idx = meta["arrays"]
    layer = neural.Layer(
        weights=reader.get(idx[0]),
        biases=reader.get(idx[1]),
        mask=reader.get(idx[2]),
        activation=neural.Activation(meta["activation"]),
        eta=float(meta["eta"]),
        mu=reader.get(idx[3]),
        mom_w=reader.get(idx[4]),
        mom_b=reader.get(idx[5]),
    )
    _check_layer(layer)
    return layer


def _check_layer(layer: neural.Layer) -> None:
    """The compiled kernels index every array by the weight shape, so a
    layer whose arrays do not fit together must never be handed out."""
    w = layer.weights
    expected = (
        ("weights", w, np.float64, w.shape),
        ("mask", layer.mask, np.uint8, w.shape),
        ("mom_w", layer.mom_w, np.float64, w.shape),
        ("biases", layer.biases, np.float64, w.shape[:1]),
        ("mom_b", layer.mom_b, np.float64, w.shape[:1]),
        ("mu", layer.mu, np.float64, (4,)),
    )
    if w.ndim != 2:
        raise CheckpointError(f"layer weights must be 2-D, got shape {w.shape}")
    for name, arr, dtype, shape in expected:
        if arr.dtype != dtype or arr.shape != shape:
            raise CheckpointError(
                f"layer {name} is {arr.dtype}{list(arr.shape)}, "
                f"expected {np.dtype(dtype)}{list(shape)}")


def _network_meta(net: neural.Network, block: _ArrayBlock) -> dict:
    return {"layers": [_layer_meta(layer, block) for layer in net.layers]}


def _network_from_meta(meta: dict, reader: _ArrayReader) -> neural.Network:
    return neural.Network([_layer_from_meta(m, reader) for m in meta["layers"]])


def _pack(magic: bytes, header: dict, payload: bytes) -> bytes:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return magic + struct.pack("<Q", len(blob)) + blob + payload


def _unpack(magic: bytes, data: bytes):
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
    if header.get("version") != VERSION:
        raise CheckpointError(f"unsupported version {header.get('version')}")
    return header, data[start + hlen:]


def network_to_bytes(net: neural.Network) -> bytes:
    block = _ArrayBlock()
    meta = _network_meta(net, block)
    header = {"version": VERSION, "network": meta, "arrays": block.manifest}
    return _pack(NETWORK_MAGIC, header, block.payload())


def network_from_bytes(data: bytes) -> neural.Network:
    header, payload = _unpack(NETWORK_MAGIC, data)
    try:
        reader = _ArrayReader(header["arrays"], payload)
        return _network_from_meta(header["network"], reader)
    except _MALFORMED as exc:
        raise CheckpointError(f"malformed network: {exc!r}") from exc


_CL_SCALARS = ("err", "fit", "num", "exp", "set_size", "ts", "born", "mtotal")


def _check_widths(cl: xcsf.Classifier, n: int) -> None:
    """Every rule reads and reconstructs inputs of one width, and its
    condition has a single output."""
    widths = (cl.condition.n_inputs, cl.condition.n_outputs,
              cl.prediction.n_inputs, cl.prediction.n_outputs)
    if widths != (n, 1, n, n):
        raise CheckpointError(
            f"classifier nets map {widths[0]}->{widths[1]} and "
            f"{widths[2]}->{widths[3]}, expected {n}->1 and {n}->{n}")


def population_to_bytes(pop: xcsf.Population, cfg, rng,
                        window: dict | None = None) -> bytes:
    """Serialize population, config, RNG state, and the partial metrics
    window so training can resume exactly where it stopped."""
    block = _ArrayBlock()
    classifiers = []
    for cl in pop.members:
        meta = {name: getattr(cl, name) for name in _CL_SCALARS}
        meta["condition"] = _network_meta(cl.condition, block)
        meta["prediction"] = _network_meta(cl.prediction, block)
        classifiers.append(meta)
    header = {
        "version": VERSION,
        "config": config_to_dict(cfg),
        "trial": pop.trial,
        "rng": rng.bit_generator.state,
        "window": window or {"mse_sum": 0.0, "m_sum": 0.0, "count": 0},
        "classifiers": classifiers,
        "arrays": block.manifest,
    }
    return _pack(POPULATION_MAGIC, header, block.payload())


def population_from_bytes(data: bytes):
    """Returns (population, config, rng, window)."""
    header, payload = _unpack(POPULATION_MAGIC, data)
    try:
        return _population_from_header(header, payload)
    except _MALFORMED as exc:
        raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc


def _population_from_header(header: dict, payload: bytes):
    reader = _ArrayReader(header["arrays"], payload)
    members = []
    for meta in header["classifiers"]:
        cl = xcsf.Classifier(
            condition=_network_from_meta(meta["condition"], reader),
            prediction=_network_from_meta(meta["prediction"], reader),
            err=float(meta["err"]), fit=float(meta["fit"]),
            num=int(meta["num"]), exp=int(meta["exp"]),
            set_size=float(meta["set_size"]), ts=int(meta["ts"]),
            born=int(meta["born"]), mtotal=int(meta["mtotal"]),
        )
        members.append(cl)
    for cl in members:
        _check_widths(cl, members[0].prediction.n_inputs)
    pop = xcsf.Population(members=members, trial=int(header["trial"]))
    cfg = config_from_dict(header["config"])
    bg = np.random.PCG64()
    bg.state = header["rng"]
    rng = np.random.Generator(bg)
    return pop, cfg, rng, header["window"]


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
