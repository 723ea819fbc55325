"""Dataset loading, scaling, splitting, and evaluation-time corruption.

A CSV file is parsed by one ``np.loadtxt`` call, numpy's C reader, when
no line is longer than the ``csv`` module's field size limit and the
reader takes every line as a row of plain numbers; any other file (a
header, quoted cells, whitespace-only lines, a cell only ``float()``
reads, undecodable bytes) goes to the ``csv.reader`` and ``float()``
scanner, which skips, reads or refuses it.  Both give the same doubles,
so the route never changes an array or an error.
"""

from __future__ import annotations

import csv
import struct
import warnings
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    pass


@dataclass
class Dataset:
    features: np.ndarray  # [rows, n] float64 in [0, 1]
    image_shape: tuple | None = None  # (height, width, channels)
    train_idx: np.ndarray | None = None
    valid_idx: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    def train(self) -> np.ndarray:
        return self.features[self.train_idx]

    def valid(self) -> np.ndarray:
        return self.features[self.valid_idx]


def load_csv(path, has_label_column: bool = False, image_shape=None) -> Dataset:
    """Numeric CSV, optionally with a header row (auto-detected) and a
    trailing label column (dropped when flagged).

    The rows come from numpy's C reader (``_parse``) when no line is longer
    than the ``csv`` field size limit and the reader takes every line as a
    row of numbers, and from the scanner (``_scan``) otherwise; either way
    they are the scanner's array, or its error.  Values above 1 trigger
    global max-scaling so everything lands in [0, 1].
    """
    arr = _parse(path)
    if arr is None:
        arr = _scan(path)
    if has_label_column:
        if arr.shape[1] < 2:
            raise DataError(f"{path}: cannot drop label column from 1-column data")
        arr = np.ascontiguousarray(arr[:, :-1])
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: non-finite value in data")
    maxv = arr.max() if arr.size else 0.0
    if maxv > 1.0:
        arr = arr / maxv
    # finite values scaled by their finite maximum are finite and at most 1
    if arr.size and arr.min() < 0.0:
        raise DataError(f"{path}: values outside [0, 1] after scaling")
    return Dataset(features=arr, image_shape=image_shape)


def _parse(path) -> np.ndarray | None:
    """The file's rows from one ``np.loadtxt`` call over its lines, or None
    when the scanner must decide.

    numpy's C reader converts each cell with ``PyOS_string_to_double``, the
    function ``float()`` calls, so an array it returns holds the scanner's
    doubles.  None is returned wherever the routes could differ: bytes that
    do not decode, a line longer than the scanner's field size limit (which
    the reader takes but the scanner may refuse), anything the reader
    refuses (quoted cells, a header, whitespace-only lines, ragged rows,
    cells such as ``1_0`` that only ``float()`` reads), and a file without
    rows, on which it warns.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as f:
            lines = f.readlines()  # split at \n, \r and \r\n, as the csv module does
        if max(map(len, lines), default=0) > csv.field_size_limit():
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None


def _scan(path) -> np.ndarray:
    """The file's rows read by ``csv.reader`` and ``float()`` per cell.

    Blank records are skipped, a first record with a cell that is not a
    number is a header, and every other record must have the first one's
    width; a file that breaks these rules raises a ``DataError`` naming
    where.
    """
    rows = []
    width = None
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as f:
            for lineno, record in enumerate(csv.reader(f), 1):
                if not record or (len(record) == 1 and not record[0].strip()):
                    continue
                if width is None:
                    # a non-numeric first line is a header
                    try:
                        [float(c) for c in record]
                    except ValueError:
                        width = len(record)
                        continue
                    width = len(record)
                if len(record) != width:
                    raise DataError(
                        f"{path}: line {lineno} has {len(record)} cells, expected {width}")
                try:
                    rows.append([float(c) for c in record])
                except ValueError:
                    for col, cell in enumerate(record, 1):
                        try:
                            float(cell)
                        except ValueError:
                            raise DataError(
                                f"{path}: line {lineno}, column {col}: "
                                f"not a number: {cell!r}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        # a binary file, or one cell beyond the csv module's size limit
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


IDX_IMAGES_MAGIC = 0x00000803


def load_idx(path) -> Dataset:
    """IDX container of 8-bit images (big-endian, 3-D), scaled by 1/255."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(blob) < 16:
        raise DataError(f"{path}: truncated IDX header")
    magic, count, height, width = struct.unpack(">IIII", blob[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{path}: bad IDX magic 0x{magic:08x}")
    if not count * height * width:
        raise DataError(f"{path}: IDX dimensions {count}x{height}x{width} include a 0")
    expected = 16 + count * height * width
    if len(blob) != expected:
        raise DataError(
            f"{path}: payload is {len(blob) - 16} bytes, expected {expected - 16}")
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16)
    arr = pixels.reshape(count, height * width).astype(float) / 255.0
    return Dataset(features=arr, image_shape=(height, width, 1))


def load_dataset(path, has_label_column: bool = False, image_shape=None) -> Dataset:
    """An IDX container when the file starts with two zero bytes, as every
    IDX magic number does and no CSV text can; otherwise CSV."""
    try:
        with open(path, "rb") as f:
            head = f.read(2)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if head == b"\0\0":
        return load_idx(path)
    return load_csv(path, has_label_column=has_label_column, image_shape=image_shape)


def split(ds: Dataset, ratio: float, rng) -> Dataset:
    """Random train/validation partition; floor(ratio * rows) rows train."""
    n_train = int(ratio * ds.rows)
    perm = rng.permutation(ds.rows)
    return Dataset(features=ds.features,
                   image_shape=ds.image_shape,
                   train_idx=np.sort(perm[:n_train]),
                   valid_idx=np.sort(perm[n_train:]))


def salt_pepper(x, fraction: float, rng) -> np.ndarray:
    """Set round(fraction * n) distinct positions to 0 or 1, equiprobably."""
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"noise fraction must be in [0, 1], got {fraction}")
    n = len(x)
    k = int(round(fraction * n))
    out = np.array(x, dtype=float)
    positions = rng.choice(n, size=k, replace=False)
    out[positions] = rng.integers(0, 2, size=k).astype(float)
    return out


def cutout(x, image_shape, rng, min_frac: float = 0.25,
           max_frac: float = 0.5) -> np.ndarray:
    """Zero a random axis-aligned rectangle across all channels.

    Each side is drawn uniformly from [min_frac, max_frac] of the image
    side (rounded); the rectangle is placed uniformly inside the image.
    """
    if image_shape is None:
        raise DataError("cutout requires a dataset with a known image shape")
    height, width = image_shape[0], image_shape[1]
    channels = image_shape[2] if len(image_shape) > 2 else 1
    side_h = int(rng.integers(round(min_frac * height), round(max_frac * height) + 1))
    side_w = int(rng.integers(round(min_frac * width), round(max_frac * width) + 1))
    top = int(rng.integers(0, height - side_h + 1))
    left = int(rng.integers(0, width - side_w + 1))
    out = np.array(x, dtype=float)
    img = out.reshape(height, width, channels)
    img[top:top + side_h, left:left + side_w, :] = 0.0
    return out
