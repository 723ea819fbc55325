"""Seeded synthetic datasets for the benchmark workloads.

Each generator takes the seed as an argument and writes one file that
``lcsae.data.load_dataset`` reads; the program under test only ever sees
the written file.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import struct

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803

# distinct stream tags so the two generators never share random draws
_BLOBS_TAG = 0xB10B
_STROKES_TAG = 0x5720


def blobs(seed: int, rows: int, side: int = 8, prototypes: int = 8) -> np.ndarray:
    """``rows`` noisy copies of a few Gaussian-blob prototypes, in [0, 1].

    Each prototype is one or two bumps on a ``side`` x ``side`` grid; a row
    is a prototype scaled by a random amplitude plus pixel noise.  Values
    are rounded to 4 decimals so the CSV text is exact.
    """
    rng = np.random.default_rng([seed, _BLOBS_TAG])
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    protos = np.zeros((prototypes, side * side))
    for p in range(prototypes):
        img = np.zeros((side, side))
        for _ in range(int(rng.integers(1, 3))):
            cy, cx = rng.uniform(0, side - 1, size=2)
            sigma = rng.uniform(0.8, 2.0)
            img += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
        protos[p] = (img / img.max()).ravel()
    which = rng.integers(0, prototypes, size=rows)
    amp = rng.uniform(0.6, 1.0, size=(rows, 1))
    noise = rng.normal(0.0, 0.05, size=(rows, side * side))
    return np.round(np.clip(protos[which] * amp + noise, 0.0, 1.0), 4)


def strokes(seed: int, rows: int, side: int = 28, max_strokes: int = 3) -> np.ndarray:
    """``rows`` ``side`` x ``side`` uint8 images of 1..max_strokes thick
    anti-aliased line segments on a black background (MNIST-shaped)."""
    rng = np.random.default_rng([seed, _STROKES_TAG])
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    pts = np.stack([yy.ravel(), xx.ravel()], axis=1)
    out = np.zeros((rows, side * side), dtype=np.uint8)
    lo, hi = 4.0, side - 5.0
    for r in range(rows):
        ink = np.zeros(side * side)
        for _ in range(int(rng.integers(1, max_strokes + 1))):
            a, b = rng.uniform(lo, hi, size=(2, 2))
            width = rng.uniform(1.0, 2.0)
            ab = b - a
            t = np.clip((pts - a) @ ab / max(ab @ ab, 1e-9), 0.0, 1.0)
            dist = np.linalg.norm(pts - (a + t[:, None] * ab), axis=1)
            ink = np.maximum(ink, np.clip(width - dist, 0.0, 1.0))
        out[r] = np.rint(ink * 255.0).astype(np.uint8)
    return out


def write_csv(path, arr: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        for row in arr:
            f.write(",".join(f"{v:.4f}" for v in row) + "\n")


def write_idx(path, images: np.ndarray, side: int) -> None:
    """IDX3 container of 8-bit images (big-endian header)."""
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, images.shape[0], side, side))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
