"""Parity between the compiled kernels and the pure-numpy twin, and the
argument checks of the compiled kernels.

The compiled module is built here from ``src/lcsae/_kernels.c`` with the
system C compiler and the flags in ``setup.py``, so the compiled path is
tested whether or not an extension was installed.
"""

import importlib.machinery
import importlib.util
import pathlib
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

from lcsae import _kernels_py, kernels

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lcsae" / "_kernels.c"
# the flags setup.py builds the extension with
FLAGS = ["-O3", "-funroll-loops", "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION"]


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    """Compile the kernel source into a temporary directory; returns the
    module path and the compiler's diagnostics."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path_factory.mktemp("kernels") / (
        "_kernels" + importlib.machinery.EXTENSION_SUFFIXES[0])
    cmd = [cc, *FLAGS, "-Wall", "-Wextra", "-shared", "-fPIC",
           "-I", np.get_include(), "-I", sysconfig.get_paths()["include"],
           str(SOURCE), "-o", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return out, proc.stderr


@pytest.fixture(scope="module")
def cy(build):
    """The freshly compiled module, loaded without entering ``sys.modules``."""
    spec = importlib.util.spec_from_file_location("lcsae._kernels", build[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.modules.get("lcsae._kernels") is not module
    return module


def _random_net(rng, n_in, h, n_out, mask_p=0.8):
    w1 = rng.standard_normal((h, n_in)) * 0.3
    b1 = rng.standard_normal(h) * 0.1
    mask1 = (rng.random((h, n_in)) < mask_p).astype(np.uint8)
    w1 *= mask1
    w2 = rng.standard_normal((n_out, h)) * 0.3
    b2 = rng.standard_normal(n_out) * 0.1
    mask2 = (rng.random((n_out, h)) < mask_p).astype(np.uint8)
    w2 *= mask2
    return w1, b1, mask1, w2, b2, mask2


def _args(w1, b1, mask1, w2, b2, mask2):
    """The one kernel tuple of a net, with zero momentum."""
    return (w1, b1, mask1, np.zeros_like(w1), np.zeros_like(b1), 0.008,
            w2, b2, mask2, np.zeros_like(w2), np.zeros_like(b2), 0.006)


def test_source_compiles_without_warnings(build):
    # -Wall -Wextra; diagnostics from the Python and numpy headers do not count
    ours = [line for line in build[1].splitlines()
            if line.startswith(str(SOURCE)) and "warning" in line]
    assert not ours, build[1]


def test_forward_parity(cy):
    # random input widths, up to the paper's 784, hidden sizes and output
    # widths, including the two the learner uses: 1 and the input width
    rng = np.random.default_rng(0)
    for n_in in [*rng.integers(1, 9, size=30).tolist(), 784]:
        for n_out in (1, n_in, int(rng.integers(1, 9))):
            nets = [_args(*_random_net(rng, n_in, int(rng.integers(1, 9)), n_out))
                    for _ in range(int(rng.integers(1, 5)))]
            x = rng.random(n_in)
            ys_py = np.empty((len(nets), n_out))
            ys_cy = np.empty((len(nets), n_out))
            _kernels_py.forward_batch(nets, x, ys_py)
            cy.forward_batch(nets, x, ys_cy)
            assert ys_cy == pytest.approx(ys_py, rel=1e-12, abs=1e-15)


def test_single_net_reinforce_parity_over_many_steps(cy):
    rng = np.random.default_rng(1)
    n, h = 6, 3
    w1, b1, mask1, w2, b2, mask2 = _random_net(rng, n, h, n)
    state_py = [w1.copy(), b1.copy(), np.zeros_like(w1), np.zeros_like(b1),
                w2.copy(), b2.copy(), np.zeros_like(w2), np.zeros_like(b2)]
    state_cy = [a.copy() for a in state_py]

    def net(s):
        return [(s[0], s[1], mask1, s[2], s[3], 0.008,
                 s[4], s[5], mask2, s[6], s[7], 0.005)]

    y_py = np.empty((1, n))
    y_cy = np.empty((1, n))
    for _ in range(200):
        x = rng.random(n)
        _kernels_py.reinforce_batch(net(state_py), x, 0.9, y_py)
        cy.reinforce_batch(net(state_cy), x, 0.9, y_cy)
        assert y_cy == pytest.approx(y_py, rel=1e-10, abs=1e-14)
    for a_py, a_cy in zip(state_py, state_cy):
        assert a_cy == pytest.approx(a_py, rel=1e-9, abs=1e-14)
    # masked weights never moved in either backend
    assert np.array_equal(state_py[0][mask1 == 0], np.zeros(int((mask1 == 0).sum())))
    assert np.array_equal(state_cy[0][mask1 == 0], np.zeros(int((mask1 == 0).sum())))


def test_match_batch_parity(cy):
    rng = np.random.default_rng(2)
    conds = []
    for _ in range(64):
        h = int(rng.integers(1, 5))
        conds.append(_args(*_random_net(rng, 5, h, 1)))
    x = rng.random(5)
    ys_py = np.empty((len(conds), 1))
    ys_cy = np.empty((len(conds), 1))
    _kernels_py.forward_batch(conds, x, ys_py)
    cy.forward_batch(conds, x, ys_cy)
    matched = np.flatnonzero(ys_py[:, 0] > 0.5)
    assert np.array_equal(np.flatnonzero(ys_cy[:, 0] > 0.5), matched)
    assert 0 < len(matched) < len(conds)  # not a degenerate case
    # the one match rule, shared by both backends: an output must exceed the
    # threshold, and a net of zeros outputs exactly 0.5
    zero = tuple(np.zeros_like(a) if isinstance(a, np.ndarray) else a for a in conds[0])
    assert np.array_equal(kernels.match_batch(conds + [zero], x, 0.5), matched)


def test_reinforce_batch_parity(cy):
    rng = np.random.default_rng(3)

    def build(seed):
        r = np.random.default_rng(seed)
        preds = []
        for _ in range(16):
            h = int(r.integers(1, 5))
            preds.append(_args(*_random_net(r, 7, h, 7)))
        return preds

    preds_py = build(99)
    preds_cy = build(99)
    ys_py = np.empty((16, 7))
    ys_cy = np.empty((16, 7))
    for _ in range(50):
        x = rng.random(7)
        _kernels_py.reinforce_batch(preds_py, x, 0.9, ys_py)
        cy.reinforce_batch(preds_cy, x, 0.9, ys_cy)
        assert ys_cy == pytest.approx(ys_py, rel=1e-9, abs=1e-13)
    for t_py, t_cy in zip(preds_py, preds_cy):
        for a_py, a_cy in zip(t_py, t_cy):
            if isinstance(a_py, np.ndarray) and a_py.dtype == np.float64:
                assert a_cy == pytest.approx(a_py, rel=1e-8, abs=1e-13)


def _public_functions(module):
    return {name for name in dir(module)
            if not name.startswith("_") and callable(getattr(module, name))}


def test_backends_export_the_same_kernels(cy):
    expected = {"forward_batch", "reinforce_batch"}
    assert _public_functions(cy) == expected
    # the twin also holds the package's activations
    assert _public_functions(_kernels_py) - {"selu", "logistic"} == expected
    # the match rule is written once, over either backend's forward_batch
    assert _public_functions(kernels) == expected | {"match_batch"}


def test_both_backends_refuse_the_forward_only_layout(cy):
    rng = np.random.default_rng(11)
    net = _cond(rng, 4)
    four = net[:2] + net[6:8]
    for mod in (_kernels_py, cy):
        ys = _untouched(1)
        with pytest.raises((TypeError, ValueError)):
            mod.forward_batch([four], rng.random(4), ys)
        assert np.all(ys == 7.0)


def test_backends_are_internally_deterministic(cy):
    rng = np.random.default_rng(4)
    net = _args(*_random_net(rng, 5, 3, 5))
    x = rng.random(5)
    for mod in (_kernels_py, cy):
        y1, y2 = np.empty((1, 5)), np.empty((1, 5))
        mod.forward_batch([net], x, y1)
        mod.forward_batch([net], x, y2)
        assert np.array_equal(y1, y2)


# ---------------------------------------------------------------------------
# argument checks: every one of these inputs used to be read or written out
# of bounds without an error


def _cond(rng, n_in, h=2):
    return _args(*_random_net(rng, n_in, h, 1))


def _pred(rng, n, h=3):
    return _args(*_random_net(rng, n, h, n))


def _untouched(rows, cols=1):
    return np.full((rows, cols), 7.0)


def test_short_input_is_rejected(cy):
    rng = np.random.default_rng(5)
    conds = [_cond(rng, 64) for _ in range(3)]
    ys = _untouched(3)
    with pytest.raises(ValueError, match="w1 has the wrong shape"):
        cy.forward_batch(conds, rng.random(16), ys)
    assert np.all(ys == 7.0)
    preds = [_pred(rng, 64)]
    with pytest.raises(ValueError, match="w1 has the wrong shape"):
        cy.reinforce_batch(preds, rng.random(16), 0.9, np.empty((1, 16)))


def test_float32_input_is_rejected(cy):
    rng = np.random.default_rng(6)
    ys = _untouched(1)
    with pytest.raises(TypeError, match="x must be a native float64 array"):
        cy.forward_batch([_cond(rng, 64)], rng.random(64).astype(np.float32), ys)
    assert np.all(ys == 7.0)


def test_fortran_ordered_weights_are_rejected(cy):
    rng = np.random.default_rng(7)
    cond = _cond(rng, 64, h=4)
    ys = _untouched(1)
    with pytest.raises(ValueError, match="w1 must be aligned and C-contiguous"):
        cy.forward_batch([(np.asfortranarray(cond[0]),) + cond[1:]], rng.random(64), ys)
    assert np.all(ys == 7.0)


def test_short_output_buffer_is_rejected(cy):
    rng = np.random.default_rng(8)
    conds = [_cond(rng, 8) for _ in range(3)]
    ys = _untouched(1)
    with pytest.raises(ValueError, match="ys_out has the wrong shape"):
        cy.forward_batch(conds, rng.random(8), ys)
    assert np.all(ys == 7.0)


def test_bad_forward_batches_leave_ys_out_untouched(cy):
    rng = np.random.default_rng(10)
    x = rng.random(8)
    good = _cond(rng, 8)
    read_only = _untouched(2)
    read_only.flags.writeable = False
    bad_calls = [
        # the width of ys_out fixes the output width of every net
        (ValueError, "w2 has the wrong shape", [good, good], _untouched(2, 3)),
        (ValueError, "ys_out has the wrong shape", [good, good], np.full(2, 7.0)),
        (ValueError, "ys_out must be writable", [good, good], read_only),
        (TypeError, "must be list", tuple([good, good]), _untouched(2)),
        (TypeError, "item 1 must be a 12-tuple", [good, good[:11]], _untouched(2)),
        # the (w1, b1, w2, b2) layout of a forward pass is gone
        (TypeError, "item 1 must be a 12-tuple", [good, good[:2] + good[6:8]],
         _untouched(2)),
        # a bad net after a good one: no row is written before every check
        (ValueError, "b2 has the wrong shape",
         [good, good[:7] + (np.zeros(2),) + good[8:]], _untouched(2)),
    ]
    for exc, msg, nets, ys in bad_calls:
        with pytest.raises(exc, match=msg):
            cy.forward_batch(nets, x, ys)
        assert np.all(ys == 7.0), msg


def test_bad_batches_fail_before_any_update(cy):
    rng = np.random.default_rng(9)
    x = rng.random(6)
    good = _pred(rng, 6)
    before = [a.copy() for a in good if isinstance(a, np.ndarray)]
    read_only = np.empty((2, 6))
    read_only.flags.writeable = False
    bad_calls = [
        (TypeError, "item 1 must be a 12-tuple", [good, good[:11]], np.empty((2, 6))),
        (TypeError, "eta2 must be a float", [good, good[:11] + (1,)], np.empty((2, 6))),
        (ValueError, "ys_out must be writable", [good, good], read_only),
        (ValueError, "ys_out has the wrong shape", [good, good], np.empty((1, 6))),
    ]
    for exc, msg, preds, ys in bad_calls:
        with pytest.raises(exc, match=msg):
            cy.reinforce_batch(preds, x, 0.9, ys)
    after = [a for a in good if isinstance(a, np.ndarray)]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
