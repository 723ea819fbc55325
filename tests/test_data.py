import csv
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcsae import data
from lcsae.data import DataError, cutout, load_csv, load_idx, salt_pepper, split


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_max_scaling(tmp_path):
    ds = load_csv(_write(tmp_path, "0,255\n128,0\n"))
    assert np.array_equal(ds.features, [[0.0, 1.0], [128.0 / 255.0, 0.0]])
    assert ds.rows == 2 and ds.n == 2


def test_load_csv_unit_data_passes_through(tmp_path):
    ds = load_csv(_write(tmp_path, "0.25,0.5\n1.0,0.0\n"))
    assert np.array_equal(ds.features, [[0.25, 0.5], [1.0, 0.0]])


def test_load_csv_header_autodetected(tmp_path):
    ds = load_csv(_write(tmp_path, "pixel_a,pixel_b\n0.1,0.2\n0.3,0.4\n"))
    assert ds.rows == 2
    assert np.array_equal(ds.features, [[0.1, 0.2], [0.3, 0.4]])


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with U+FEFF; the first row is data
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf0.1,0.2\n0.3,0.4\n")
    ds = load_csv(str(path))
    assert ds.rows == 2
    assert np.array_equal(ds.features, [[0.1, 0.2], [0.3, 0.4]])


def test_load_csv_drops_label_column(tmp_path):
    ds = load_csv(_write(tmp_path, "0.1,0.2,7\n0.3,0.4,9\n"), has_label_column=True)
    assert ds.n == 2
    assert np.array_equal(ds.features, [[0.1, 0.2], [0.3, 0.4]])


def test_load_csv_rejects_empty(tmp_path):
    with pytest.raises(DataError, match="no data rows"):
        load_csv(_write(tmp_path, ""))


def test_load_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(DataError, match="line 2"):
        load_csv(_write(tmp_path, "0.1,0.2\n0.3\n"))


def test_load_csv_reports_bad_cell_position(tmp_path):
    with pytest.raises(DataError, match="line 2, column 2"):
        load_csv(_write(tmp_path, "0.1,0.2\n0.3,oops\n"))


def test_load_csv_rejects_binary_and_oversized_files(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"0.1,0.2\n\x9a\xff\x00\n")
    with pytest.raises(DataError, match="cannot read"):
        load_csv(path)
    # one cell beyond the csv module's field size limit
    with pytest.raises(DataError, match="cannot read"):
        load_csv(_write(tmp_path, "0" * (1 << 18) + "\n"))


def test_load_csv_rejects_non_finite(tmp_path):
    with pytest.raises(DataError, match="non-finite"):
        load_csv(_write(tmp_path, "nan,0.5\n0.1,0.2\n"))
    with pytest.raises(DataError, match="non-finite"):
        load_csv(_write(tmp_path, "inf,0.5\n0.1,0.2\n"))


def test_load_csv_rejects_negative_values(tmp_path):
    with pytest.raises(DataError, match="outside"):
        load_csv(_write(tmp_path, "-0.5,0.5\n0.1,0.2\n"))


def _outcome(path):
    """The bytes of ``load_csv``'s features for ``path``, or the message of
    the error it raises."""
    try:
        return load_csv(path).features.tobytes()
    except DataError as exc:
        return str(exc)


def _scanned(monkeypatch, path):
    """``_outcome`` with the C parse switched off."""
    with monkeypatch.context() as m:
        m.setattr(data, "_parse", lambda path: None)
        return _outcome(path)


# cells both routes read, then cells that one of them or both refuse
PLAIN = ["0.5", " 0.5 ", "+.5", "5.", "1e-3", "-0", "0.25", "2"]
ODD = ["nan", "inf", "1_0", "\u0661", "0x1p3", "", '"0.5"', "0.5#", "1\x0c2"]


@st.composite
def _csv_texts(draw):
    """CSV text: an optional BOM and header, then rows of mostly one
    width, some blank or whitespace-only, ragged or with a trailing comma,
    each ended by \\n, \\r or \\r\\n (the last maybe by nothing)."""
    width = draw(st.integers(1, 3))
    lines = ["a,b,c"[:2 * width - 1]] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "ragged", "trailing"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
        else:
            spellings = PLAIN if draw(st.booleans()) else PLAIN + ODD
            size = width + (kind == "ragged")
            cells = draw(st.lists(st.sampled_from(spellings), min_size=size, max_size=size))
            lines.append(",".join(cells) + ("," if kind == "trailing" else ""))
    text = "".join(line + draw(st.sampled_from(["\n", "\r", "\r\n"])) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _assert_routes_agree(monkeypatch, path):
    """The C parse, when it reads the file, gives the scanner's array, and
    ``load_csv`` gives what it gives with the scanner alone."""
    parsed = data._parse(path)
    if parsed is not None:
        assert parsed.tobytes() == data._scan(path).tobytes()
    assert _outcome(path) == _scanned(monkeypatch, path)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts())
def test_both_csv_routes_give_the_same_array_or_error(tmp_path, monkeypatch, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_routes_agree(monkeypatch, path)


@pytest.mark.parametrize("text", [
    "0.5\n", " 0.5 ,\t0.25\n", "+.5,5.\n", "1e-3,-0\n", "nan\n", "inf\n", "1e999\n",
    "1_0\n", "\u0661\n", "0x1p3\n", "0.5#\n", "1\x0c2\n", "0.5\x00\n", "\xa00.5\n",
    "\n\n0.5\n", " \n0.5\n", "a,b\n0.5,0.25\n", "\ufeff0.5\n", "0.5\r0.25\r",
    "0.5\r\n\r\n0.25\r\n", "1,2\n3,4", '"0.5",0.25\n', "0.5,\n", "0.5,0.25\n0.5\n", "",
    "\n\r\n",
])
def test_csv_edge_cases_give_the_scanners_array_or_error(tmp_path, monkeypatch, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_routes_agree(monkeypatch, path)


def test_a_file_beyond_the_field_size_limit_with_short_lines_takes_the_c_parse(
        tmp_path, monkeypatch):
    rows = np.random.default_rng(12).random((csv.field_size_limit() // 100, 8))
    path = tmp_path / "big.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    assert path.stat().st_size > csv.field_size_limit()
    expected = _scanned(monkeypatch, path)
    monkeypatch.setattr(data, "_scan", None)  # any call to the scanner fails
    assert load_csv(path).features.tobytes() == expected == rows.tobytes()


def test_a_line_beyond_the_field_size_limit_is_left_to_the_scanner(tmp_path):
    # its cells are short, so the scanner reads it
    width = csv.field_size_limit() // 4 + 1
    path = tmp_path / "wide.csv"
    path.write_text(",".join(["0.5"] * width) + "\n")
    assert data._parse(path) is None
    assert np.array_equal(load_csv(path).features, np.full((1, width), 0.5))


def _idx_bytes(images):
    images = np.asarray(images, dtype=np.uint8)
    count, height, width = images.shape
    return struct.pack(">IIII", 0x00000803, count, height, width) + images.tobytes()


def test_load_idx_round_trip(tmp_path):
    imgs = (np.arange(3 * 4 * 4) % 251).astype(np.uint8).reshape(3, 4, 4)
    imgs[0, 0, 0] = 255
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_bytes(imgs))
    ds = load_idx(str(path))
    assert ds.rows == 3 and ds.n == 16
    assert ds.image_shape == (4, 4, 1)
    assert ds.features[0, 0] == 1.0  # pixel 255 scales to exactly one
    assert np.array_equal(ds.features, imgs.reshape(3, 16) / 255.0)


def test_load_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(DataError, match="magic"):
        load_idx(str(path))


def test_load_idx_rejects_truncation(tmp_path):
    imgs = np.zeros((2, 3, 3), dtype=np.uint8)
    blob = _idx_bytes(imgs)
    path = tmp_path / "short.idx"
    path.write_bytes(blob[:-5])
    with pytest.raises(DataError, match="payload"):
        load_idx(str(path))


@pytest.mark.parametrize("shape", [(10, 0, 5), (10, 5, 0), (0, 4, 4)])
def test_load_idx_rejects_a_zero_dimension(tmp_path, shape):
    path = tmp_path / "empty.idx"
    path.write_bytes(_idx_bytes(np.zeros(shape, dtype=np.uint8)))
    with pytest.raises(DataError, match="include a 0"):
        load_idx(str(path))


@pytest.mark.parametrize("name", ["images.csv", "images.bin"])
def test_load_dataset_reads_an_idx_container_whatever_its_name(tmp_path, name):
    imgs = (np.arange(2 * 3 * 3) * 7 % 256).astype(np.uint8).reshape(2, 3, 3)
    path = tmp_path / name
    path.write_bytes(_idx_bytes(imgs))
    ds = data.load_dataset(str(path))
    assert ds.image_shape == (3, 3, 1)
    assert np.array_equal(ds.features, imgs.reshape(2, 9) / 255.0)


def test_load_dataset_reads_csv_text_named_idx(tmp_path):
    ds = data.load_dataset(_write(tmp_path, "0.25,0.5,1\n1.0,0.0,0\n", "data.idx"),
                           has_label_column=True, image_shape=(1, 2, 1))
    assert np.array_equal(ds.features, [[0.25, 0.5], [1.0, 0.0]])
    assert ds.image_shape == (1, 2, 1)


@pytest.mark.parametrize("name", ["missing.csv", "."])
def test_load_dataset_path_that_cannot_be_opened_is_a_data_error(tmp_path, name):
    with pytest.raises(DataError, match="cannot read"):
        data.load_dataset(str(tmp_path / name))


def test_split_floor_convention():
    ds = data.Dataset(features=np.zeros((9298, 1)))
    out = split(ds, 0.9, np.random.default_rng(0))
    assert len(out.train_idx) == 8368
    assert len(out.valid_idx) == 930


def test_split_is_a_partition_and_deterministic():
    ds = data.Dataset(features=np.zeros((101, 1)))
    a = split(ds, 0.9, np.random.default_rng(42))
    b = split(ds, 0.9, np.random.default_rng(42))
    assert np.array_equal(a.train_idx, b.train_idx)
    assert np.array_equal(a.valid_idx, b.valid_idx)
    merged = np.sort(np.concatenate([a.train_idx, a.valid_idx]))
    assert np.array_equal(merged, np.arange(101))


def test_split_ratio_one_keeps_everything_in_train():
    ds = data.Dataset(features=np.zeros((10, 1)))
    out = split(ds, 1.0, np.random.default_rng(1))
    assert len(out.train_idx) == 10
    assert len(out.valid_idx) == 0


def test_salt_pepper_zero_fraction_is_identity():
    rng = np.random.default_rng(2)
    x = rng.random(50)
    assert np.array_equal(salt_pepper(x, 0.0, rng), x)


def test_salt_pepper_full_fraction_saturates_everything():
    rng = np.random.default_rng(3)
    out = salt_pepper(np.full(64, 0.5), 1.0, rng)
    assert np.all(np.isin(out, (0.0, 1.0)))


def test_salt_pepper_corrupts_exact_count():
    rng = np.random.default_rng(4)
    out = salt_pepper(np.full(784, 0.5), 0.1, rng)
    assert int((out != 0.5).sum()) == 78  # round(0.1 * 784)
    assert np.all(np.isin(out[out != 0.5], (0.0, 1.0)))


def test_salt_pepper_preserves_length_and_range():
    rng = np.random.default_rng(5)
    for frac in (0.05, 0.3, 0.7):
        x = rng.random(97)
        out = salt_pepper(x, frac, rng)
        assert out.shape == x.shape
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_cutout_zero_area_is_identity():
    rng = np.random.default_rng(6)
    x = rng.random(36)
    out = cutout(x, (6, 6, 1), rng, min_frac=0.0, max_frac=0.0)
    assert np.array_equal(out, x)


def test_cutout_full_image_zeroes_everything():
    rng = np.random.default_rng(7)
    out = cutout(np.full(36, 0.5), (6, 6, 1), rng, min_frac=1.0, max_frac=1.0)
    assert np.array_equal(out, np.zeros(36))


def test_cutout_half_side_area():
    rng = np.random.default_rng(8)
    out = cutout(np.full(28 * 28, 0.5), (28, 28, 1), rng,
                 min_frac=0.5, max_frac=0.5)
    assert int((out == 0.0).sum()) == 196  # a 14x14 rectangle


def test_cutout_rectangle_is_contiguous_and_in_range():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.2, 0.9, 16 * 16)
    out = cutout(x, (16, 16, 1), rng)
    assert out.shape == x.shape
    assert out.min() >= 0.0 and out.max() <= 1.0
    zeros = (out.reshape(16, 16) == 0.0)
    rows = np.flatnonzero(zeros.any(axis=1))
    cols = np.flatnonzero(zeros.any(axis=0))
    assert zeros[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1].all()


def test_cutout_requires_image_shape():
    with pytest.raises(DataError, match="image shape"):
        cutout(np.zeros(16), None, np.random.default_rng(10))


def test_cutout_zeroes_all_channels():
    rng = np.random.default_rng(11)
    x = np.full(4 * 4 * 3, 0.5)
    out = cutout(x, (4, 4, 3), rng, min_frac=1.0, max_frac=1.0)
    assert np.array_equal(out, np.zeros_like(x))
