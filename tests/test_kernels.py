"""Bit-for-bit parity between the compiled kernels and the pure-numpy twin,
and the argument checks of both, one refusal table per entry point.

The compiled module comes from the ``build`` and ``cy`` fixtures of
``conftest.py``, which compile ``src/lcsae/_kernels.c`` with the system C
compiler and the flags in ``setup.py``.  The argument checks also run on
the package's own compiled module when ``lcsae.kernels`` loaded it, so a
sanitized build of the package runs every kernel's error exits.
"""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from conftest import KERNEL_SOURCE, spare_rules
from lcsae import _kernels_py, kernels


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


def _mse(ys, x):
    """The learner's reconstruction error, as numpy computes it."""
    return np.mean(np.square(ys - x), axis=1)


def _args(w1, b1, mask1, w2, b2, mask2):
    """The one kernel tuple of a net, with zero momentum."""
    return (w1, b1, mask1, np.zeros_like(w1), np.zeros_like(b1), 0.008,
            w2, b2, mask2, np.zeros_like(w2), np.zeros_like(b2), 0.006)


def _reinforce(mod, preds, x, rules, omega=0.9):
    """One ``reinforce_batch`` call of ``mod``; returns each net's pre-update
    output, from ``forward_batch`` before the call, and the call's output."""
    ys = np.empty((len(preds), len(x)))
    mod.forward_batch(preds, x[None], ys)
    out = np.full(len(x), 7.0)
    mod.reinforce_batch(preds, x, omega, out, *rules)
    return ys, out


def _weighted_mean(fit, ys):
    """Reference: the rows of ``ys`` weighted by ``fit``, added row by row
    from 0.0 and divided by the fitnesses added from 0.0."""
    acc, fsum = np.zeros(ys.shape[1]), 0.0
    for f, y in zip(fit.tolist(), ys):
        acc = acc + f * y
        fsum += f
    return acc / fsum


def _mse_rules(m):
    """Rule arguments for a ``reinforce_batch`` call of m nets whose ``err``
    column, ``[1]``, receives each net's mean squared error bit for bit: it
    starts at 0.0 and moves with beta = 1.0, so the update writes
    ``0.0 + 1.0 * (mse - 0.0)``."""
    rules = spare_rules(m)
    return rules[:5] + (1.0,) + rules[6:]


@pytest.fixture
def compiled(cy):
    """The compiled modules whose argument checks are tested: the ``cy``
    build, and the package's own when ``kernels`` loaded the compiled one."""
    return [cy, kernels._impl] if kernels.BACKEND == "cython" else [cy]


def test_source_compiles_without_warnings(build):
    # -Wall -Wextra; a warning counts when it, or the note right after it,
    # points into the kernel source: a warning inside a header macro such as
    # PyMem_New is reported at the header, with a note at our variable
    ours, warning = [], None
    for line in build[1].splitlines():
        if ": warning:" in line:
            warning = line
        if warning and line.startswith(str(KERNEL_SOURCE)) and (
                ": warning:" in line or ": note:" in line):
            ours.append(warning)
    assert not ours, build[1]


def test_forward_parity(cy):
    # random input widths, up to the paper's 784, hidden sizes and output
    # widths, including the two the learner uses: 1 and the input width
    rng = np.random.default_rng(0)
    for n_in in [*rng.integers(1, 9, size=30).tolist(), 784]:
        for n_out in (1, n_in, int(rng.integers(1, 9))):
            nets = [_args(*_random_net(rng, n_in, int(rng.integers(1, 9)), n_out))
                    for _ in range(int(rng.integers(1, 5)))]
            x = rng.random((1, n_in))
            ys_py = np.empty((len(nets), n_out))
            ys_cy = np.empty((len(nets), n_out))
            _kernels_py.forward_batch(nets, x, ys_py)
            cy.forward_batch(nets, x, ys_cy)
            assert ys_cy.tobytes() == ys_py.tobytes()


def test_batched_forward_parity_and_batch_invariance(cy):
    # row i * rows + r of a batched call is net i's output for input r: the
    # same bytes on both backends and as a one-input call
    rng = np.random.default_rng(19)
    for n_in in (1, 3, 8, 64, 784):
        for n_out in (1, n_in):
            nets = [_args(*_random_net(rng, n_in, h, n_out)) for h in (1, 4, 2, 3, 5, 12)]
            m = len(nets)
            for rows in (0, 1, 2, 5):
                xs = rng.random((rows, n_in))
                ys_py, ys_cy = _untouched(rows * m, n_out), _untouched(rows * m, n_out)
                _kernels_py.forward_batch(nets, xs, ys_py)
                cy.forward_batch(nets, xs, ys_cy)
                assert ys_cy.tobytes() == ys_py.tobytes(), (n_in, n_out, rows)
                for r in range(rows):
                    one = _untouched(m, n_out)
                    cy.forward_batch(nets, xs[r:r + 1], one)
                    assert one.tobytes() == ys_cy[r::rows].tobytes()


def _predict_reference(nets, xs, matched, fit, n_out):
    """``predict_batch`` as a loop over rows and their nets in list order,
    each output from a one-net, one-input ``forward_batch`` call, each row's
    sums from 0.0 and divided after its last net."""
    out, y = np.empty((len(xs), n_out)), np.empty((1, n_out))
    for r, x in enumerate(xs):
        acc, fsum = np.zeros(n_out), 0.0
        for net, f, match in zip(nets, fit.tolist(), matched[:, r]):
            if match:
                _kernels_py.forward_batch([net], x[None], y)
                acc = acc + f * y[0]
                fsum += f
        with np.errstate(divide="ignore", invalid="ignore"):
            out[r] = acc / fsum
    return out


def test_predict_batch_parity(cy):
    # every row adds f * y of its matching nets in list order and divides by
    # their fitness total: the same bytes on both backends, whatever out held
    # before, and as a loop of one-input calls; hidden sizes 1-5 and 12, row
    # counts off a multiple of four, a net that matches no row, a row that no
    # net matches (NaN) and a row that every net matches
    rng = np.random.default_rng(21)
    for n_in in (1, 3, 8, 64, 784):
        for n_out in (1, n_in):
            nets = [_args(*_random_net(rng, n_in, h, n_out))
                    for h in (1, 4, 2, 3, 5, 1, 12)]
            m = len(nets)
            fit = rng.random(m) + 0.01
            for rows in (0, 1, 3, 5, 7):
                xs = rng.random((rows, n_in))
                no_row = rng.random((m, rows)) < 0.6
                no_row[m // 2] = False
                no_row[:, rows - 1:] = False
                every_net = rng.random((m, rows)) < 0.6
                every_net[:, rows // 2:rows // 2 + 1] = True
                for matched in (no_row, every_net):
                    out = set()
                    for mod in (_kernels_py, cy):
                        for fill in (0.0, 7.0, math.nan):
                            pred = np.full((rows, n_out), fill)
                            mod.predict_batch(nets, xs, matched, fit, pred)
                            out.add(pred.tobytes())
                    expected = _predict_reference(nets, xs, matched, fit, n_out)
                    assert out == {expected.tobytes()}, (n_in, n_out, rows)
                    assert np.isnan(expected[~matched.any(axis=0)]).all()
    # no nets, as for an empty population: every row is 0.0 / 0.0, the same
    # NaN bytes on both backends, and all of out is written
    for rows in (0, 1, 3):
        out = set()
        for mod in (_kernels_py, cy):
            pred = np.full((rows, 5), 7.0)
            mod.predict_batch([], rng.random((rows, 5)), np.ones((0, rows), bool),
                              np.empty(0), pred)
            assert np.isnan(pred).all(), rows
            out.add(pred.tobytes())
        assert len(out) == 1, rows


def test_bad_predict_batches_leave_the_outputs_untouched(compiled):
    rng = np.random.default_rng(23)
    good = _pred(rng, 4, h=2)
    nets = [good, _pred(rng, 4, h=1)]
    xs, fit = rng.random((3, 4)), np.array([0.25, 0.5])
    matched = np.array([[True, False, True], [True, True, False]])

    def read_only(a):
        a.flags.writeable = False
        return a

    # (exception, message, argument, bad value)
    bad_calls = [
        (TypeError, "must be list", "nets", tuple(nets)),
        (TypeError, "item 1 must be a 12-tuple", "nets", [good, good[:11]]),
        (ValueError, "b2 has the wrong shape", "nets",
         [good, good[:7] + (np.zeros(3),) + good[8:]]),
        (ValueError, "w1 has the wrong shape", "nets", [good, _pred(rng, 5)]),
        (ValueError, "x has the wrong shape", "x", xs[0]),
        (TypeError, "x must be a native float64 array", "x", xs.astype(np.float32)),
        (TypeError, "matched must be a native bool array", "matched",
         matched.astype(np.uint8)),
        (ValueError, "matched must be aligned and C-contiguous", "matched",
         np.asfortranarray(matched)),
        (ValueError, "matched has the wrong shape", "matched", matched[:1].copy()),
        (ValueError, "matched has the wrong shape", "matched", matched.T.copy()),
        (ValueError, "fit has the wrong shape", "fit", fit[:1].copy()),
        (TypeError, "fit must be a native float64 array", "fit", [0.25, 0.5]),
        (ValueError, "out must be writable", "out", read_only(np.full((3, 4), 7.0))),
        (TypeError, "out must be a native float64 array", "out",
         np.full((3, 4), 7.0, np.float32)),
        # the width of out fixes every net's output width
        (ValueError, "w2 has the wrong shape", "out", np.full((3, 5), 7.0)),
        (ValueError, "out has the wrong shape", "out", np.full((2, 4), 7.0)),
        (ValueError, "out has the wrong shape", "out", np.full(12, 7.0)),
    ]
    for mod in (_kernels_py, *compiled):
        for exc, msg, name, bad in bad_calls:
            args = dict(nets=nets, x=xs, matched=matched, fit=fit, out=np.full((3, 4), 7.0))
            if name == "nets" and mod is _kernels_py and isinstance(bad, tuple):
                continue  # only the compiled argument parser types the list
            args[name] = bad
            with pytest.raises(exc, match=msg):
                mod.predict_batch(**args)
            assert np.all(args["out"] == 7.0), (mod, msg)


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

    for _ in range(200):
        x = rng.random(n)
        rules_py, rules_cy = _mse_rules(1), _mse_rules(1)
        y_py, out_py = _reinforce(_kernels_py, net(state_py), x, rules_py)
        y_cy, out_cy = _reinforce(cy, net(state_cy), x, rules_cy)
        err_py, err_cy = rules_py[1], rules_cy[1]
        assert out_cy.tobytes() == out_py.tobytes()
        assert err_cy.tobytes() == err_py.tobytes()
        for y, out, err in ((y_py, out_py, err_py), (y_cy, out_cy, err_cy)):
            # one rule of fitness 1.0 predicts its own net's output
            assert np.array_equal(out, y[0])
            assert np.array_equal(err, _mse(y, x))
    for a_py, a_cy in zip(state_py, state_cy):
        assert a_cy.tobytes() == a_py.tobytes()
    # masked weights never moved in either backend
    assert np.array_equal(state_py[0][mask1 == 0], np.zeros(int((mask1 == 0).sum())))
    assert np.array_equal(state_cy[0][mask1 == 0], np.zeros(int((mask1 == 0).sum())))


def test_match_batch_parity(cy, monkeypatch):
    rng = np.random.default_rng(2)
    conds = []
    for _ in range(64):
        h = int(rng.integers(1, 5))
        conds.append(_args(*_random_net(rng, 5, h, 1)))
    x = rng.random(5)
    ys_py = np.empty((len(conds), 1))
    ys_cy = np.empty((len(conds), 1))
    _kernels_py.forward_batch(conds, x[None], ys_py)
    cy.forward_batch(conds, x[None], ys_cy)
    assert ys_cy.tobytes() == ys_py.tobytes()
    matched = ys_py[:, 0] > 0.5
    assert 0 < matched.sum() < len(conds)  # not a degenerate case
    # the one match rule, shared by both backends: an output must exceed the
    # threshold, and a net of zeros outputs exactly 0.5
    zero = tuple(np.zeros_like(a) if isinstance(a, np.ndarray) else a for a in conds[0])
    conds.append(zero)
    xs = rng.random((5, 5))
    for impl in (_kernels_py, cy):
        monkeypatch.setattr(kernels, "forward_batch", impl.forward_batch)
        assert np.array_equal(kernels.match_batch(conds, x[None], 0.5)[:, 0],
                              np.append(matched, False))
        # a batch's column r is the one-input call on its row r
        for rows in (0, 1, 5):
            batch = kernels.match_batch(conds, xs[:rows], 0.5)
            assert batch.shape == (len(conds), rows) and batch.dtype == bool
            assert batch.flags.c_contiguous
            for r in range(rows):
                assert np.array_equal(batch[:, r],
                                      kernels.match_batch(conds, xs[r:r + 1], 0.5)[:, 0])


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
    for _ in range(50):
        x = rng.random(7)
        rules_py, rules_cy = _mse_rules(16), _mse_rules(16)
        # the output weighs each net by its rule's fitness before the update
        fit = rng.uniform(0.01, 1.0, 16)
        rules_py[2][:] = rules_cy[2][:] = fit
        ys_py, out_py = _reinforce(_kernels_py, preds_py, x, rules_py)
        ys_cy, out_cy = _reinforce(cy, preds_cy, x, rules_cy)
        err_py, err_cy = rules_py[1], rules_cy[1]
        assert ys_cy.tobytes() == ys_py.tobytes()
        assert out_cy.tobytes() == out_py.tobytes()
        assert err_cy.tobytes() == err_py.tobytes()
        for ys, out, err in ((ys_py, out_py, err_py), (ys_cy, out_cy, err_cy)):
            assert np.array_equal(out, _weighted_mean(fit, ys))
            assert np.array_equal(err, _mse(ys, x))
    for t_py, t_cy in zip(preds_py, preds_cy):
        for a_py, a_cy in zip(t_py, t_cy):
            if isinstance(a_py, np.ndarray):
                assert a_cy.tobytes() == a_py.tobytes()


def _disagreements(numpy_f, libm_f, zs, count=20):
    """Up to ``count`` of ``zs`` on which an array version of a function
    (numpy's, or the package's own) and libm's differ on this machine
    (none where numpy calls libm)."""
    libm = np.array([libm_f(z) for z in zs.tolist()])
    return zs[numpy_f(zs) != libm][:count].tolist()


def _edge_net(b1, b2, w2=1.0):
    """A net of one input, hidden unit and output whose hidden
    pre-activation is ``b1`` and whose output pre-activation is ``b2`` plus
    ``w2`` times the hidden activation, exactly, for the input -1: the input
    weight is zero, so its product is -0.0.  The momenta are -0.0, so a
    signed zero in a step's product reaches them."""
    def new(value):
        return np.full((1, 1), value)
    return (new(0.0), np.array([b1]), new(1).astype(np.uint8), new(-0.0), np.array([-0.0]),
            0.008, new(w2), np.array([b2]), new(1).astype(np.uint8), new(-0.0),
            np.array([-0.0]), 0.006)


def _edge_values():
    """(hidden, output) pre-activation pairs at the activations' edges: the
    special values, SELU's expm1 where numpy's differs from libm, and the
    logistic's plain exp where it differs from libm, at the clamp of +-750,
    in the subnormal band (-745 to -708) and beyond, and at halves of ln 2,
    where the reduction rounds k."""
    # the logistic takes exp of -|z| and SELU takes expm1 of z <= 0
    zs = -np.random.default_rng(18).uniform(0.0, 40.0, 20000)
    edges = [0.0, -0.0, 745.0, -745.0, 5e-324, -5e-324, 1e-310, -1e-310,
             1e-17, -1e-17, math.inf, -math.inf, math.nan, -math.nan]
    clamp = [c * v for c in (1.0, -1.0)
             for v in (750.0, np.nextafter(750.0, 0.0), np.nextafter(750.0, 1e4), 749.5,
                       751.0, 1e4, 1e300, 36.7, 37.0, 708.0, 708.4)]
    band = np.random.default_rng(19).uniform(-745.2, -708.0, 40).tolist()
    band += [-708.4, -744.44, -745.13, -745.14, -746.0, -749.0]
    halves = [-(k + 0.5) * math.log(2.0) for k in (0, 1, 2, 10, 100, 1000, 1021)]
    hidden = edges + _disagreements(np.expm1, math.expm1, zs)
    output = (edges + clamp + band + halves
              + _disagreements(_kernels_py.exp, math.exp, zs))
    # -0.0 into the other layer keeps the chosen value, signed zeros too
    return [(v, -0.0) for v in hidden] + [(-0.0, v) for v in output]


def _assert_edges_match_the_twin(mod, mixed_nan_sums=True):
    """The edge values through every entry point of ``mod`` give the twin's
    bytes.  Without ``mixed_nan_sums``, no predict_batch call adds NaNs of
    both signs: such a sum takes the sign of whichever operand the compiler
    puts first, and the CI sanitize job's build of the unchanged
    accumulation puts the other first."""
    values = _edge_values()
    x = np.array([-1.0])
    edge_nets = [_edge_net(*v) for v in values]
    ys = [np.full((len(values), 1), 7.0) for _ in range(2)]
    for kernels_mod, y in zip((_kernels_py, mod), ys):
        kernels_mod.forward_batch(edge_nets, x[None], y)
    assert ys[0].tobytes() == ys[1].tobytes()
    # the same nets through predict_batch, on one row that every net matches
    # with fit 1.0: all nets in one call (or all but the NaNs of one sign),
    # and each on its own
    sign = np.signbit(ys[0][:, 0])
    nan = np.isnan(ys[0][:, 0])
    groups = [edge_nets] if mixed_nan_sums else [
        [net for net, drop in zip(edge_nets, nan & (sign == s)) if not drop] for s in (0, 1)]
    for nets in groups + [[net] for net in edge_nets]:
        means = []
        for kernels_mod in (_kernels_py, mod):
            out = np.full((1, 1), 7.0)
            kernels_mod.predict_batch(nets, x[None], np.ones((len(nets), 1), bool),
                                      np.ones(len(nets)), out)
            means.append(out.tobytes())
        assert means[0] == means[1]
    # a training step, from the finite values, which need no NaN arithmetic;
    # the output of the last net saturates, so its hidden gradient is the
    # sum of one -0.0, which starts from +0.0 as in C
    finite = [v for v in values if np.isfinite(v).all()] + [(745.0, 1e6, -1.0)]
    m = len(finite)
    nets = [[_edge_net(*v) for v in finite] for _ in range(2)]
    stepped = []
    for kernels_mod, preds in zip((_kernels_py, mod), nets):
        out, rules = np.empty(1), _mse_rules(m)
        kernels_mod.reinforce_batch(preds, x, 0.9, out, *rules)
        stepped.append([np.asarray(a).tobytes() for a in (out, *rules, *sum(preds, ()))])
    assert stepped[0] == stepped[1]


def test_activations_at_the_edges_are_bit_for_bit(compiled):
    # on the cy build and on the package's own module, so a sanitized build
    # of the package runs the plain exp's integer steps on every edge
    for mod in compiled:
        _assert_edges_match_the_twin(mod, mixed_nan_sums=mod is compiled[0])


def test_every_clone_gives_the_twins_bits(clone):
    # each clone of logistic_row the CPU runs, at the edges and on random
    # nets of output widths that leave every remainder of the vector lanes,
    # through all three entry points
    _assert_edges_match_the_twin(clone)
    rng = np.random.default_rng(23)
    for n_out in [*range(1, 18), 64, 784]:
        n_in = n_out
        nets = [_args(*_random_net(rng, n_in, h, n_out)) for h in (1, 3, 1, 8)]
        for net in nets:
            net[7][:] = rng.standard_normal(n_out) * 20.0  # outputs near 0 and 1 too
        xs = rng.random((3, n_in))
        fit = rng.random(len(nets)) + 0.01
        matched = rng.random((len(nets), 3)) < 0.7
        results = []
        for mod in (_kernels_py, clone):
            ys = np.empty((len(nets) * 3, n_out))
            mod.forward_batch(nets, xs, ys)
            pred = np.empty((3, n_out))
            mod.predict_batch(nets, xs, matched, fit, pred)
            preds = [tuple(a.copy() if isinstance(a, np.ndarray) else a for a in net)
                     for net in nets]
            out, rules = np.empty(n_in), _mse_rules(len(nets))
            mod.reinforce_batch(preds, xs[0], 0.9, out, *rules)
            results.append([ys.tobytes(), pred.tobytes(), out.tobytes(), rules[1].tobytes(),
                            *(a.tobytes() for net in preds for a in net
                              if isinstance(a, np.ndarray))])
        assert results[0] == results[1], n_out


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_err_out_is_the_np_mean_of_the_squared_errors_bit_for_bit(backend, request):
    # each net's error, which the update writes into the err column, follows
    # numpy's pairwise summation in the compiled kernel: eight partial sums
    # up to 128 terms, halving above; every width pins one split
    mod = request.getfixturevalue("cy") if backend == "compiled" else _kernels_py
    rng = np.random.default_rng(12)
    for n in [*range(1, 1001), 784]:
        preds = [_pred(rng, n, h=1), _pred(rng, n, h=2)]
        x = rng.random(n)
        rules = _mse_rules(2)
        ys, _ = _reinforce(mod, preds, x, rules)
        assert np.array_equal(rules[1], _mse(ys, x)), n


def test_compiled_steps_do_not_depend_on_the_batch(cy):
    # the hidden sums of a batch run four units at a time across nets; each
    # net must still get the same bits as when it is stepped alone
    rng = np.random.default_rng(13)
    n = 37
    totals = set()
    for size in range(1, 10):
        hs = rng.integers(1, 6, size).tolist()
        totals.add(sum(hs) % 4)
        batch = [_pred(rng, n, h) for h in hs]
        alone = [tuple(a.copy() if isinstance(a, np.ndarray) else a for a in net)
                 for net in batch]
        for _ in range(3):  # later steps start from non-zero momentum
            x = rng.random(n)
            out, rules = np.empty(n), _mse_rules(size)
            cy.reinforce_batch(batch, x, 0.9, out, *rules)
            ys = _untouched(size, n)
            for i, net in enumerate(alone):
                # a rule of fitness 1.0 alone predicts its own net's output
                r1 = _mse_rules(1)
                cy.reinforce_batch([net], x, 0.9, ys[i], *r1)
                assert rules[1][i] == r1[1][0]
            assert np.array_equal(out, _weighted_mean(np.ones(size), ys))
        for a, b in zip(batch, alone):
            for u, v in zip(a, b):
                assert np.array_equal(u, v)
        ys, y1 = np.empty((size, n)), np.empty((1, n))
        cy.forward_batch(batch, x[None], ys)
        for i, net in enumerate(batch):
            cy.forward_batch([net], x[None], y1)
            assert np.array_equal(ys[i], y1[0])
    assert totals == {0, 1, 2, 3}


def _public_functions(module):
    return {name for name in dir(module)
            if not name.startswith("_") and callable(getattr(module, name))}


def test_backends_export_the_same_kernels(cy):
    expected = {"forward_batch", "predict_batch", "reinforce_batch"}
    assert _public_functions(cy) == expected
    # the twin also holds the package's activations and the logistic's exp
    assert _public_functions(_kernels_py) - {"selu", "logistic", "exp"} == expected
    # match_batch, the package's one match rule, for one input or a batch,
    # serves both backends over their forward_batch
    assert _public_functions(kernels) == expected | {"match_batch"}


def test_backends_are_internally_deterministic(cy):
    rng = np.random.default_rng(4)
    net = _args(*_random_net(rng, 5, 3, 5))
    x = rng.random((1, 5))
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


def _read_only(a):
    a.flags.writeable = False
    return a


def _forward_refusals():
    """(exception, message, nets, x, ys_out, whether the twin refuses it
    too) of each bad forward_batch call: two condition nets of width 8 on
    three inputs, six output rows, with one argument bad.  Each call builds
    the table afresh, the same every time."""
    rng = np.random.default_rng(10)
    good = _cond(rng, 8)
    nets, xs = [good, _cond(rng, 8, h=3)], rng.random((3, 8))

    def second(i, value):
        # a bad net after a good one: no row is written before every check
        return [good, nets[1][:i] + (value,) + nets[1][i + 1:]]

    zero_width = [_cond(rng, 0) for _ in range(32)]
    return [
        # one input is a batch of one row, never a 1-D x
        (ValueError, "x has the wrong shape", nets, xs[0], _untouched(2), True),
        (ValueError, "x has the wrong shape", nets, xs[None], _untouched(6), True),
        (TypeError, "x must be a native float64 array", nets, xs.astype(np.float32),
         _untouched(6), True),
        (ValueError, "x must be aligned and C-contiguous", nets, np.asfortranarray(xs),
         _untouched(6), True),
        # 2**59 zero-width inputs (numpy's largest such float64 batch) for
        # 32 nets: rows * m wraps to 0 in a 64-bit product, which an empty
        # ys_out would match
        (ValueError, "x has too many rows for 32 nets", zero_width, np.empty((2**59, 0)),
         np.empty((0, 1)), True),
        (ValueError, "x has too many rows for 32 nets", zero_width, np.empty((2**59, 0)),
         _untouched(32), True),
        # an input narrower than the nets
        (ValueError, "w1 has the wrong shape", nets, xs[:, :7].copy(), _untouched(6), True),
        (ValueError, "ys_out has the wrong shape", nets, xs, _untouched(5), True),
        (ValueError, "ys_out has the wrong shape", nets, xs, _untouched(7), True),
        (ValueError, "ys_out has the wrong shape", nets, xs, np.full(6, 7.0), True),
        (ValueError, "ys_out must be writable", nets, xs, _read_only(_untouched(6)), True),
        (TypeError, "item 1 must be a 12-tuple", [good, good[:11]], xs, _untouched(6), True),
        # the (w1, b1, w2, b2) layout of a forward pass is gone
        (TypeError, "item 1 must be a 12-tuple", [good, good[:2] + good[6:8]], xs,
         _untouched(6), True),
        # compiled only: its argument parser types the list, and of each net
        # the twin's forward pass checks only the tuple size and w1's width
        # (its docstring says why), so it takes these or fails on them with
        # numpy's own errors
        (TypeError, "must be list", tuple(nets), xs, _untouched(6), False),
        (ValueError, "w1 must be aligned and C-contiguous",
         second(0, np.asfortranarray(nets[1][0])), xs, _untouched(6), False),
        (TypeError, "w2 must be a native float64 array",
         second(6, nets[1][6].astype(np.float32)), xs, _untouched(6), False),
        # the width of ys_out fixes the output width of every net
        (ValueError, "w2 has the wrong shape", nets, xs, _untouched(6, 3), False),
        (ValueError, "b1 has the wrong shape", second(1, np.zeros(2)), xs, _untouched(6), False),
        (ValueError, "b2 has the wrong shape", second(7, np.zeros(2)), xs, _untouched(6), False),
    ]


@pytest.mark.parametrize("row", range(len(_forward_refusals())))
def test_bad_forward_batches_leave_ys_out_untouched(compiled, row):
    exc, msg, nets, x, ys, twin = _forward_refusals()[row]
    for mod in (_kernels_py, *compiled) if twin else compiled:
        with pytest.raises(exc, match=msg):
            mod.forward_batch(nets, x, ys)
        assert np.all(ys == 7.0), (mod, msg)


def _traced_growth(call, times=300):
    """Bytes still allocated through Python's allocators after ``times``
    more calls of ``call``, once caches have warmed up."""
    tracemalloc.start()
    try:
        for _ in range(20):
            call()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(times):
            call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _fails(exc, f, *args):
    """A call of ``f(*args)`` that must raise ``exc``.  A plain handler:
    pytest.raises keeps objects of its own alive, about 48 bytes a call."""
    def call():
        try:
            f(*args)
        except exc:
            return
        raise AssertionError(f"{f.__name__} did not raise")
    return call


def test_kernel_calls_free_what_they_allocated(compiled):
    # every call allocates an array of checked nets; a failing call fails
    # after that: on the last net, or, for reinforce_batch, on a rule
    # argument checked after every net.  A leak of that array alone would
    # be 300 times 16 net_t structs
    rng = np.random.default_rng(24)
    conds, preds = [_cond(rng, 8) for _ in range(16)], [_pred(rng, 8) for _ in range(16)]
    bad_cond = conds[-1][:7] + (np.zeros(2),) + conds[-1][8:]
    bad_pred = preds[-1][:7] + (np.zeros(2),) + preds[-1][8:]
    xs, out = rng.random((3, 8)), _untouched(3, 8)
    matched, fit = np.ones((16, 3), bool), np.ones(16)
    pos, *columns = (np.arange(16), np.zeros(16), np.ones(16), np.ones(16),
                     np.zeros(16, np.int64))
    rates = (0.1, 0.01, 0.1, 5.0)
    for mod in compiled:
        calls = [
            lambda: mod.forward_batch(conds, xs, np.empty((48, 1))),
            lambda: mod.predict_batch(preds, xs, matched, fit, np.empty((3, 8))),
            lambda: mod.reinforce_batch(preds, xs[0], 0.9, np.empty(8), pos, *columns, *rates),
            _fails(ValueError, mod.forward_batch, conds[:-1] + [bad_cond], xs, _untouched(48)),
            _fails(ValueError, mod.predict_batch, preds[:-1] + [bad_pred], xs, matched, fit,
                   out),
            _fails(ValueError, mod.reinforce_batch, preds[:-1] + [bad_pred], xs[0], 0.9,
                   out[0], pos, *columns, *rates),
            # a repeated position fails on the comparison with the one
            # before it, which allocates nothing more
            _fails(ValueError, mod.reinforce_batch, preds, xs[0], 0.9, out[0],
                   np.full(16, 3), *columns, *rates),
            _fails(TypeError, mod.reinforce_batch, preds, xs[0], 0.9, out[0], pos,
                   *columns[:-1], columns[-1].astype(np.int32), *rates),
        ]
        for k, call in enumerate(calls):
            assert _traced_growth(call) < 1024, (mod, k)


_RULE_ARGS = ("pos", "err", "fit", "set_size", "exp")


def _rule_columns():
    """Positions 1 and 3 of five rules' state columns."""
    return (np.array([1, 3]), np.full(5, 0.5), np.full(5, 0.25), np.full(5, 3.0),
            np.full(5, 4))


def _reinforce_refusals():
    """(exception, message, keyword arguments) of each bad reinforce_batch
    call: two prediction nets of width 6 over ``_rule_columns``, with one
    argument bad.  Each call builds the table afresh, the same every time."""
    rng = np.random.default_rng(9)
    good, second = preds = [_pred(rng, 6), _pred(rng, 6, h=1)]
    call = dict(preds=preds, x=rng.random(6), omega=0.9, out=np.full(6, 7.0),
                **dict(zip(_RULE_ARGS, _rule_columns())), beta=0.1, epsilon0=0.01,
                alpha=0.1, nu=5.0)

    def bad(i, value):
        # a bad net after a good one
        return [good, second[:i] + (value,) + second[i + 1:]]

    rows = [
        (TypeError, "item 1 must be a 12-tuple", "preds", [good, second[:11]]),
        (TypeError, "eta2 must be a float", "preds", bad(11, 1)),
        (TypeError, "eta1 must be a float", "preds", bad(5, 1)),
        (TypeError, "mw1 must be a native float64 array", "preds",
         bad(3, second[3].astype(np.float32))),
        (ValueError, "mask1 has the wrong shape", "preds", bad(2, np.ones((1, 7), np.uint8))),
        (ValueError, "w1 must be writable", "preds", bad(0, _read_only(second[0].copy()))),
        # an input narrower than a net
        (ValueError, "w1 has the wrong shape", "preds", [good, _pred(rng, 7)]),
        (ValueError, "out must be writable", "out", _read_only(np.full(6, 7.0))),
        (ValueError, "out has the wrong shape", "out", np.full(5, 7.0)),
        (ValueError, "out has the wrong shape", "out", np.full((1, 6), 7.0)),
        (TypeError, "out must be a native float64 array", "out", np.full(6, 7.0, np.float32)),
        (TypeError, "pos must be a native int64 array", "pos", np.array([3.0, 1.0])),
        (TypeError, "pos must be a native int64 array", "pos", np.array([3, 1], np.int32)),
        (TypeError, "pos must be a native int64 array", "pos", [3, 1]),
        (ValueError, "pos has the wrong shape", "pos", np.array([3, 1, 0])),
        (ValueError, "pos has the wrong shape", "pos", np.array([[3, 1]])),
        (ValueError, "pos must be aligned and C-contiguous", "pos",
         np.array([3, 0, 1, 0])[::2]),
        (ValueError, "pos is not increasing", "pos", np.array([3, 3])),
        (ValueError, "pos is not increasing", "pos", np.array([3, 1])),
        # the order is checked first, then the range
        (ValueError, "pos is not increasing", "pos", np.array([5, -1])),
        (ValueError, "pos holds a row out of range", "pos", np.array([3, 5])),
        (ValueError, "pos holds a row out of range", "pos", np.array([-1, 1])),
        # increasing, though their difference overflows an int64
        (ValueError, "pos holds a row out of range", "pos", np.array([-2**62, 2**62])),
        (TypeError, "err must be a native float64 array", "err", np.full(5, 0.5, np.float32)),
        (TypeError, "err must be a native float64 array", "err", np.full(5, 0.5, ">f8")),
        (ValueError, "err has the wrong shape", "err", np.full((5, 1), 0.5)),
        (ValueError, "err must be writable", "err", _read_only(np.full(5, 0.5))),
        (ValueError, "fit has the wrong shape", "fit", np.full(4, 0.25)),
        (ValueError, "fit must be writable", "fit", _read_only(np.full(5, 0.25))),
        (ValueError, "set_size must be aligned and C-contiguous", "set_size",
         np.full(10, 3.0)[::2]),
        (ValueError, "set_size must be writable", "set_size", _read_only(np.full(5, 3.0))),
        (TypeError, "exp must be a native int64 array", "exp", np.full(5, 4, np.int32)),
        (TypeError, "exp must be a native int64 array", "exp", None),
        (ValueError, "exp must be writable", "exp", _read_only(np.full(5, 4))),
    ]
    return [(exc, msg, {**call, name: value}) for exc, msg, name, value in rows]


def _arrays(values):
    """Every array among ``values`` and in their nets' tuples."""
    if isinstance(values, (list, tuple)):
        return [a for v in values for a in _arrays(v)]
    return [values] if isinstance(values, np.ndarray) else []


@pytest.mark.parametrize("row", range(len(_reinforce_refusals())))
def test_bad_batches_fail_before_any_update(compiled, row):
    # both backends check every net, the output, the positions and the
    # columns before they step any net or write the output or any column
    exc, msg, args = _reinforce_refusals()[row]
    for mod in (_kernels_py, *compiled):
        before = [a.copy() for a in _arrays(list(args.values()))]
        with pytest.raises(exc, match=msg):
            mod.reinforce_batch(**args)
        after = _arrays(list(args.values()))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after)), (mod, msg)


def test_good_rule_arguments_update_only_their_rows(cy):
    # rows 0, 2 and 4 are not in the match set and stay as they were
    rng = np.random.default_rng(15)
    x = rng.random(6)
    results = []
    for mod in (_kernels_py, cy):
        pos, err, fit, set_size, exp = _rule_columns()
        preds = [_pred(np.random.default_rng(16), 6), _pred(np.random.default_rng(17), 6)]
        ys, out = _reinforce(mod, preds, x, (pos, err, fit, set_size, exp, 0.1, 0.01, 0.1, 5.0))
        # both rules had fitness 0.25 before the update
        assert np.array_equal(out, _weighted_mean(np.full(2, 0.25), ys))
        mse = _mse(ys, x)
        for col, start in ((err, 0.5), (fit, 0.25), (set_size, 3.0), (exp, 4)):
            assert np.all(col[[0, 2, 4]] == start)
        assert exp[[1, 3]].tolist() == [5, 5]
        # each set size moves toward the match set's two rules
        assert set_size[[1, 3]].tolist() == [3.0 + 0.1 * (2 - 3.0)] * 2
        assert np.array_equal(err[[1, 3]], 0.5 + 0.1 * (mse - 0.5))
        results.append((err, fit, set_size))
    # every rule's error is above epsilon0, so the fitness follows the
    # errors, which both backends compute alike
    assert results[1][0].tobytes() == results[0][0].tobytes()
    assert results[1][1].tobytes() == results[0][1].tobytes()


def test_an_empty_match_set_predicts_nan_alike_on_both_backends(cy):
    # no nets: the output is 0.0 / 0.0 from the same division on both
    # backends, and no state column moves
    x = np.random.default_rng(19).random(6)
    outs = []
    for mod in (_kernels_py, cy):
        pos, *columns = _rule_columns()
        before = [c.copy() for c in columns]
        out = np.full(6, 7.0)
        mod.reinforce_batch([], x, 0.9, out, pos[:0], *columns, 0.1, 0.01, 0.1, 5.0)
        assert np.isnan(out).all()
        assert all(np.array_equal(a, b) for a, b in zip(columns, before))
        outs.append(out.tobytes())
    assert outs[0] == outs[1]


def test_backends_take_the_same_parameters(cy):
    # the compiled signatures come from the text signatures of the docstrings
    for name in ("forward_batch", "predict_batch", "reinforce_batch"):
        compiled = list(inspect.signature(getattr(cy, name)).parameters)
        assert list(inspect.signature(getattr(_kernels_py, name)).parameters) == compiled
        # perfbench's tracer reads the nets and x as the first two arguments
        assert compiled[1] == "x"
