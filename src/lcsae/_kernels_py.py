"""Pure-numpy twin of the hot per-trial kernels, and the reference for them.

Three entry points, one contract: batches in, finished results out, never
sums for the caller to finish.  ``forward_batch`` writes the outputs of
many networks on each input of a batch, net-major; ``predict_batch`` the
fitness-weighted mean output of the networks that match each input;
``reinforce_batch`` steps every prediction net of a match set toward its
one input, writes their fitness-weighted mean output and runs the XCS
update of each rule's error, fitness, set size and experience in the
population's state columns.
Every network on the hot path has the same shape: one SELU hidden layer
followed by a logistic output layer, all float64 C-contiguous arrays.  It
reaches every entry point as one 12-tuple ``(w1, b1, mask1, mw1, mb1,
eta1, w2, b2, mask2, mw2, mb2, eta2)``, of which ``forward_batch`` and
``predict_batch`` read only w1, b1, w2 and b2.  This module is the
executable specification of ``_kernels.c``, which is used when it imports:
both backends give the same bits, because this one adds each C loop's
terms one at a time, in C's order and from the same first value, groups
each product as C does, and takes ``exp`` and ``expm1`` from libm through
the math module (numpy's SIMD versions differ on some CPUs).  Like the
compiled kernel, every entry point checks the input and output arrays,
``predict_batch`` the match matrix, the fitnesses and every net, and
``reinforce_batch`` every net, the match-set positions and the state
columns, before they write anything.  ``forward_batch`` checks less than
the compiled kernel: of each net only the tuple size and w1's width (see
its docstring).  No entry point requires ``nets`` to be a list, as the
compiled argument parser does.  The module also holds the package's one
definition of each activation and of the fitness floor, and imports
nothing from the package.
"""

import itertools
import math

import numpy as np

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

_SELU_LA = SELU_LAMBDA * SELU_ALPHA

# fitness decays multiplicatively and could underflow to exact zero after
# a few thousand zero-accuracy updates; keep it strictly positive
F_FLOOR = 1e-300


# the most elements (2 MB) a temporary of the batched forward pass holds,
# unless one input's (hidden units, n) product or (nets, n_out) outputs do
_CHUNK = 1 << 18


def _libm(f):
    """``f``, a function of the math module and so libm's, element-wise."""
    return lambda z: np.fromiter(map(f, z.ravel().tolist()), float, z.size).reshape(z.shape)


def selu(z):
    """Scaled exponential linear unit, with libm's ``expm1``."""
    z = np.asarray(z, dtype=float)
    pos = z > 0.0
    return np.where(pos, SELU_LAMBDA * z, _SELU_LA * _libm(math.expm1)(np.where(pos, 0.0, z)))


def logistic(z):
    """Numerically stable standard logistic function, with libm's ``exp``;
    a scalar gives a float."""
    z = np.asarray(z, dtype=float)
    # exp(-z) for z >= 0 and exp(z) below never overflows; unlike -|z|,
    # the argument keeps the sign of a NaN input
    pos = z >= 0.0
    e = _libm(math.exp)(np.where(pos, -z, z))
    out = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def _ordered_sums(start, terms):
    """``start + terms[..., 0] + terms[..., 1] + ...`` added left to right, as
    C adds and ``np.sum`` does not, in place of the temporary ``terms``."""
    np.add(start, terms[..., 0], out=terms[..., 0])
    return np.add.accumulate(terms, axis=-1, out=terms)[..., -1]


def _array(a, name, dtype, shape, writable=False):
    """``a`` if the compiled kernel accepts it: a native ``dtype`` array of
    ``shape`` (None is any length), aligned and C-contiguous, and writable
    when asked; its errors are the kernel's."""
    if not isinstance(a, np.ndarray) or a.dtype != dtype or not a.dtype.isnative:
        raise TypeError(f"{name} must be a native {np.dtype(dtype).name} array")
    flags = a.flags
    if not (flags.c_contiguous and flags.aligned):
        raise ValueError(f"{name} must be aligned and C-contiguous")
    # an exact shape skips the per-dimension test, most of a net check's cost
    if a.shape != shape and (a.ndim != len(shape) or any(
            d not in (None, k) for d, k in zip(shape, a.shape))):
        raise ValueError(f"{name} has the wrong shape")
    if writable and not flags.writeable:
        raise ValueError(f"{name} must be writable")
    return a


def _float(v, name):
    """Refuse ``v`` unless it is a float or a float subclass such as
    ``np.float64``, as the compiled kernel does."""
    if not isinstance(v, float):
        raise TypeError(f"{name} must be a float")


def _forward(nets, xs):
    """For each chunk of the inputs ``xs (rows, n)``, its first row, the
    outputs ``(chunk, m, n_out)`` of the m nets and their hidden activations
    ``(chunk, units)``, the units of all nets one after another as in
    ``hidden_batch``; the nets are checked first."""
    for i, net in enumerate(nets):
        if not isinstance(net, tuple) or len(net) != 12:
            raise TypeError(f"item {i} must be a 12-tuple")
    w1 = np.concatenate([net[0] for net in nets])
    if w1.shape[1] != xs.shape[1]:
        raise ValueError("w1 has the wrong shape")
    b1 = np.concatenate([net[1] for net in nets])
    h = np.array([len(net[1]) for net in nets])
    first = np.cumsum(h) - h
    w2t = np.concatenate([net[6].T for net in nets])  # each unit's outgoing weights
    b2 = np.stack([net[7] for net in nets])
    step = max(1, _CHUNK // max(w1.size, b2.size, 1))
    for r in range(0, len(xs), step):
        units = selu(_ordered_sums(b1, w1 * xs[r:r + step, None, :]))
        # each output adds w2[:, j] * a1[j] to b2 in hidden order: the j-th
        # step of every net with more than j hidden units at once
        z2 = np.repeat(b2[None], len(units), axis=0)
        for j in range(h.max()):
            on = first[h > j] + j
            z2[:, h > j] += w2t[on] * units[:, on, None]
        yield r, logistic(z2), units


def forward_batch(nets, x, ys_out):
    """Forward pass of many networks on each input of a batch ``x (rows,
    n)``, with no update: row ``i * rows + r`` of ``ys_out`` receives net i's
    output for input r, the (nets, rows) order of ``predict_batch``'s match
    matrix.  ``nets`` holds 12-tuples, as for ``reinforce_batch``.  ``x``
    and ``ys_out`` are checked as the compiled kernel checks them, but of
    each net only the tuple size and w1's width: a w2, b1 or b2 the compiled
    kernel refuses may pass.  A float32 w2 gives an output, and a net of
    one output broadcasts it across a wider ``ys_out`` row.  The full check,
    ``_check_nets(nets, n, n_out, False)``, took 1.8 ms on the 500 condition
    nets of a blobs64 population, longer than this whole pass (1.1-1.2 ms),
    so it waits for a check made once per group of nets.  The first chunk of
    inputs is computed before anything is written, so an argument that is
    checked, or that makes the pass raise, leaves ``ys_out`` untouched.
    """
    xs = _array(x, "x", np.float64, (None, None))
    m = len(nets)
    if m and len(xs) > np.iinfo(np.intp).max // m:
        raise ValueError(f"x has too many rows for {m} nets")
    n_out = ys_out.shape[1] if isinstance(ys_out, np.ndarray) and ys_out.ndim == 2 else 0
    ys = _array(ys_out, "ys_out", np.float64, (m * len(xs), n_out), True)
    for r, out, _ in _forward(nets, xs) if m else ():
        ys.reshape(m, len(xs), n_out)[:, r:r + len(out)] = out.swapaxes(0, 1)


def _check_nets(nets, n_in, n_out, train):
    """Every 12-tuple of ``nets`` checked as the compiled kernel checks a net
    for an input of width ``n_in`` and outputs of width ``n_out``: w1, b1,
    w2 and b2 for a forward pass, and for a training step (``train``) all
    twelve, with every weight and momentum writable."""
    for i, net in enumerate(nets):
        if not isinstance(net, tuple) or len(net) != 12:
            raise TypeError(f"item {i} must be a 12-tuple")
        w1, b1, mask1, mw1, mb1, eta1, w2, b2, mask2, mw2, mb2, eta2 = net
        h = len(_array(w1, "w1", np.float64, (None, n_in), train))
        _array(w2, "w2", np.float64, (n_out, h), train)
        _array(b1, "b1", np.float64, (h,), train)
        _array(b2, "b2", np.float64, (n_out,), train)
        if train:
            _array(mask1, "mask1", np.uint8, (h, n_in))
            _array(mw1, "mw1", np.float64, (h, n_in), True)
            _array(mb1, "mb1", np.float64, (h,), True)
            _float(eta1, "eta1")
            _array(mask2, "mask2", np.uint8, (n_out, h))
            _array(mw2, "mw2", np.float64, (n_out, h), True)
            _array(mb2, "mb2", np.float64, (n_out,), True)
            _float(eta2, "eta2")


def predict_batch(nets, x, matched, fit, out):
    """Fitness-weighted mean outputs of many networks on the inputs ``x
    (rows, n)``, with no update: row r of ``out (rows, n_out)``, never read,
    receives ``fit[i]`` times net i's output for input r summed over the
    nets that match it (``matched[i, r]``, a bool ``(len(nets), rows)``
    matrix) in list order, one rounded product at a time, divided by their
    ``fit[i]`` summed the same way, both sums from 0.0 (NaN for no nets).
    Each output is the double ``forward_batch`` gives.  Every argument is
    checked as the compiled kernel checks it before anything is written.
    """
    m = len(nets)
    xs = _array(x, "x", np.float64, (None, None))
    _array(matched, "matched", np.bool_, (m, len(xs)))
    _array(fit, "fit", np.float64, (m,))
    n_out = out.shape[1] if isinstance(out, np.ndarray) and out.ndim == 2 else 0
    _array(out, "out", np.float64, (len(xs), n_out), True)
    _check_nets(nets, xs.shape[1], n_out, False)
    acc, fsum = np.zeros((len(xs), n_out)), np.zeros(len(xs))
    for net, f, sel in zip(nets, fit.tolist(), matched):
        count = int(sel.sum())
        if not count:
            continue
        # a net that matches every row reads x itself, without a copy
        sel = slice(None) if count == len(xs) else sel
        ys = np.concatenate([y[:, 0] for _, y, _ in _forward([net], xs[sel])])
        acc[sel] += np.multiply(f, ys, out=ys)
        fsum[sel] += f
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(acc, fsum[:, None], out=out)


def _fused_sgd(a1, g, w1, b1, mask1, mw1, mb1, eta1,
               w2, b2, mask2, mw2, mb2, eta2, omega, x):
    """The update half of ``fused_sgd``, from the hidden activations ``a1``
    and output gradients ``g``; masked weights and momenta stay zero."""
    # the hidden gradient adds from +0.0 in output order, before w2 moves
    e1 = _ordered_sums(0.0, w2.T * g)
    step = -eta2 * g
    dw2 = (step[:, None] * a1 + omega * mw2) * mask2
    w2 += dw2
    mw2[:] = dw2
    db2 = step + omega * mb2
    b2 += db2
    mb2[:] = db2
    # SELU derivative recovered from the activation: lambda on the positive
    # branch, activation + lambda*alpha on the non-positive branch.
    step = -eta1 * (e1 * np.where(a1 > 0.0, SELU_LAMBDA, a1 + _SELU_LA))
    dw1 = (step[:, None] * x + omega * mw1) * mask1
    w1 += dw1
    mw1[:] = dw1
    db1 = step + omega * mb1
    b1 += db1
    mb1[:] = db1


def _check_rules(pos, m, err, fit, set_size, exp):
    """The state columns and the m match-set positions, checked as the
    compiled kernel checks them: numpy's fancy indexing would accept a
    negative or repeated position."""
    rows = len(_array(err, "err", np.float64, (None,), True))
    _array(fit, "fit", np.float64, (rows,), True)
    _array(set_size, "set_size", np.float64, (rows,), True)
    _array(exp, "exp", np.int64, (rows,), True)
    _array(pos, "pos", np.int64, (m,))
    if m and (pos.min() < 0 or pos.max() >= rows):
        raise ValueError("pos holds a row out of range")
    if len(np.unique(pos)) != m:
        raise ValueError("pos holds a row twice")


def _accuracies(err, epsilon0, alpha, nu):
    """1 below the target error, else the power-law fall-off.

    The power is libm ``pow`` per element, the same double as Python's
    ``**``; vector ``np.power`` may differ in the last bit.
    """
    kappa = np.ones(len(err))
    above = ~(err < epsilon0)
    ratios = (err[above] / epsilon0).tolist()
    kappa[above] = alpha * np.fromiter(map(math.pow, ratios, itertools.repeat(-nu)),
                                       float, len(ratios))
    return kappa


def _relative_accuracies(kappas):
    """Accuracies normalised over the match set."""
    return kappas / kappas.sum()


def reinforce_batch(preds, x, omega, out, pos, err, fit, set_size, exp,
                    beta, epsilon0, alpha, nu):
    """One trial's reinforcement of a match set.

    First one momentum-SGD step on the MSE toward ``x`` for every net of
    ``preds``, which holds (w1, b1, mask1, mw1, mb1, eta1, w2, b2, mask2,
    mw2, mb2, eta2) tuples: ``out`` receives their pre-update outputs ``y``
    weighted by ``fit[pos]`` before the update as ``predict_batch`` adds
    them, divided by the fitness total (0.0 / 0.0 for no nets).  Every
    hidden layer is computed before any net is updated, as in C.

    Then the XCS update (Butz & Wilson 2002) of classifier i's row
    ``pos[i]`` of the state columns ``err``, ``fit``, ``set_size`` and
    ``exp``, as array operations in the order of the per-rule loop, so
    every result is the double a rule-by-rule loop gives: the error moves
    by ``beta`` toward net i's ``np.mean(np.square(y - x))`` (numpy's
    pairwise sum of the squares, divided by the width), the fitness toward
    the rule's relative accuracy (never below ``F_FLOOR``), the set size
    toward the match set's size m, and the experience grows by one.
    """
    m = len(preds)
    _array(x, "x", np.float64, (None,))
    _array(out, "out", np.float64, (len(x),), True)
    _check_nets(preds, len(x), len(x), True)
    _check_rules(pos, m, err, fit, set_size, exp)
    acc, fsum = np.zeros(len(x)), 0.0
    if m:
        (_, (ys,), (units,)), = _forward(preds, x[None])
        hidden = np.split(units, np.cumsum([len(net[1]) for net in preds])[:-1])
        g = (2.0 / len(x)) * (ys - x) * ys * (1.0 - ys)
        for a1, g_i, args in zip(hidden, g, preds):
            _fused_sgd(a1, g_i, *args, omega, x)
        mse = np.mean(np.square(ys - x), axis=1)
        # fit * y net by net from 0.0, as predict_batch adds them
        acc = _ordered_sums(0.0, np.multiply(ys.T, fit[pos], order="C"))
        fsum = _ordered_sums(0.0, fit[pos])
        e, f, s = err[pos], fit[pos], set_size[pos]
        e = e + beta * (mse - e)
        f = f + beta * (_relative_accuracies(_accuracies(e, epsilon0, alpha, nu)) - f)
        exp[pos] += 1
        err[pos] = e
        fit[pos] = np.maximum(f, F_FLOOR)
        set_size[pos] = s + beta * (m - s)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(acc, fsum, out=out)
