"""Pure-numpy twin of the hot per-trial kernels, and the reference for them.

Two entry points: ``forward_batch`` (the forward pass of many networks on
one input, with no update) and ``reinforce_batch`` (one trial's
reinforcement of a match set: one momentum-SGD step toward the input for
every prediction net, which also returns each net's mean squared error,
then the XCS update of each rule's error, fitness, set size and experience
in the population's state columns).  Every network on the hot path has the
same shape: one SELU hidden layer followed by a logistic output layer, all
float64 C-contiguous arrays.  It reaches both entry points as one 12-tuple
``(w1, b1, mask1, mw1, mb1, eta1, w2, b2, mask2, mw2, mb2, eta2)``, of
which ``forward_batch`` reads only w1, b1, w2 and b2.  This module is the
executable specification of ``_kernels.c``, which is used when it imports:
both backends give the same bits, because this one adds each C loop's
terms one at a time, in C's order and from the same first value,
groups each product as C does, and takes ``exp`` and ``expm1`` from libm
through the math module (numpy's SIMD versions differ on some CPUs).  Like
the compiled kernel, ``reinforce_batch`` checks the match-set positions and
the state columns before it updates anything.  The module also holds the
package's one definition of each activation and of the fitness floor, and
imports nothing from the package.
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


def selu(z, expm1=np.expm1):
    """Scaled exponential linear unit; ``expm1`` computes the negative branch."""
    z = np.asarray(z, dtype=float)
    pos = z > 0.0
    return np.where(pos, SELU_LAMBDA * z, _SELU_LA * expm1(np.where(pos, 0.0, z)))


def logistic(z, exp=np.exp):
    """Numerically stable standard logistic function; a scalar gives a float."""
    z = np.asarray(z, dtype=float)
    # exp(-z) for z >= 0 and exp(z) below never overflows; unlike -|z|,
    # the argument keeps the sign of a NaN input
    pos = z >= 0.0
    e = exp(np.where(pos, -z, z))
    out = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def _libm(f):
    """``f``, a function of the math module and so libm's, element-wise."""
    return lambda z: np.fromiter(map(f, z.ravel().tolist()), float, z.size).reshape(z.shape)


def _ordered_sums(start, terms):
    """``start + terms[:, 0] + terms[:, 1] + ...`` added left to right, as C
    adds and ``np.sum`` does not, in place of the temporary ``terms``."""
    np.add(start, terms[:, 0], out=terms[:, 0])
    return np.add.accumulate(terms, axis=1, out=terms)[:, -1]


def forward_batch(nets, x, ys_out):
    """Forward pass of many networks on one input, with no update.

    ``nets`` holds 12-tuples, as for ``reinforce_batch``; row i of
    ``ys_out`` receives net i's output.  Returns the nets' hidden
    activations, all computed first, as in ``hidden_batch``.
    """
    if not nets:
        return []
    z1 = _ordered_sums(np.concatenate([net[1] for net in nets]),
                       np.concatenate([net[0] for net in nets]) * x)
    units = selu(z1, _libm(math.expm1))
    hidden = np.split(units, np.cumsum([len(net[1]) for net in nets])[:-1])
    for z2, a1, (_, _, _, _, _, _, w2, b2, _, _, _, _) in zip(ys_out, hidden, nets):
        z2[:] = b2
        for w, a in zip(w2.T, a1):
            z2 += w * a
    ys_out[:] = logistic(ys_out, _libm(math.exp))
    return hidden


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


def _column(a, name, dtype, length, writable):
    """``a`` if the compiled kernel accepts it: a native 1-D ``dtype`` array
    (of ``length``, unless None), aligned and C-contiguous, and writable when
    asked; its errors are the kernel's."""
    if not isinstance(a, np.ndarray) or a.dtype != dtype or not a.dtype.isnative:
        raise TypeError(f"{name} must be a native {np.dtype(dtype).name} array")
    if not (a.flags.c_contiguous and a.flags.aligned):
        raise ValueError(f"{name} must be aligned and C-contiguous")
    if a.ndim != 1 or (length is not None and len(a) != length):
        raise ValueError(f"{name} has the wrong shape")
    if writable and not a.flags.writeable:
        raise ValueError(f"{name} must be writable")
    return a


def _check_rules(pos, m, err, fit, num, set_size, exp):
    """The state columns and the m match-set positions, checked as the
    compiled kernel checks them: numpy's fancy indexing would accept a
    negative or repeated position."""
    rows = len(_column(err, "err", np.float64, None, True))
    _column(fit, "fit", np.float64, rows, True)
    _column(num, "num", np.int64, rows, False)
    _column(set_size, "set_size", np.float64, rows, True)
    _column(exp, "exp", np.int64, rows, True)
    _column(pos, "pos", np.int64, m, False)
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


def _relative_accuracies(kappas, nums):
    """Numerosity-weighted accuracies normalised over the match set."""
    weighted = np.asarray(kappas, dtype=float) * np.asarray(nums, dtype=float)
    return weighted / weighted.sum()


def reinforce_batch(preds, x, omega, ys_out, err_out, pos, err, fit, num,
                    set_size, exp, beta, epsilon0, alpha, nu):
    """One trial's reinforcement of a match set.

    First one momentum-SGD step on the MSE toward ``x`` for every net of
    ``preds``, which holds (w1, b1, mask1, mw1, mb1, eta1, w2, b2, mask2,
    mw2, mb2, eta2) tuples: row i of ``ys_out`` receives classifier i's
    pre-update reconstruction, and ``err_out[i]`` its mean squared error
    from ``x``, ``np.mean(np.square(ys_out[i] - x))``: numpy's pairwise
    sum of the squares, divided by the width.  Every hidden layer is
    computed before any net is updated, as in the compiled kernel.

    Then the XCS update (Butz & Wilson 2002) of classifier i's row
    ``pos[i]`` of the state columns ``err``, ``fit``, ``num``, ``set_size``
    and ``exp``, as array operations in the order of the per-rule loop, so
    every result is the double a rule-by-rule loop gives: the error moves
    toward ``err_out[i]`` by ``beta``, the fitness toward the rule's
    numerosity-weighted relative accuracy (never below ``F_FLOOR``), the
    set size toward the match set's micro count, and the experience grows
    by one.  ``num`` is only read.
    """
    _check_rules(pos, len(preds), err, fit, num, set_size, exp)
    hidden = forward_batch(preds, x, ys_out)
    g = (2.0 / len(x)) * (ys_out - x) * ys_out * (1.0 - ys_out)
    for a1, g_i, args in zip(hidden, g, preds):
        _fused_sgd(a1, g_i, *args, omega, x)
    err_out[:] = np.mean(np.square(ys_out - x), axis=1)

    e, f, k, s = err[pos], fit[pos], num[pos], set_size[pos]
    micro = int(k.sum())
    e = e + beta * (err_out - e)
    f = f + beta * (_relative_accuracies(_accuracies(e, epsilon0, alpha, nu), k) - f)
    exp[pos] += 1
    err[pos] = e
    fit[pos] = np.maximum(f, F_FLOOR)
    set_size[pos] = s + beta * (micro - s)
