"""Pure-numpy twin of the hot per-trial kernels, and the reference for them.

Every network on the hot path has the same shape: one SELU hidden layer
followed by a logistic output layer, all float64 C-contiguous arrays.
The compiled extension built from ``_kernels.c`` implements the same
functions with identical semantics; this module is used when it is not
available.  It also holds the package's one definition of each
activation, and imports nothing from the package.
"""

import numpy as np

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

_SELU_LA = SELU_LAMBDA * SELU_ALPHA


def selu(z):
    """Scaled exponential linear unit."""
    z = np.asarray(z, dtype=float)
    return np.where(z > 0.0, SELU_LAMBDA * z, _SELU_LA * np.expm1(np.minimum(z, 0.0)))


def logistic(z):
    """Numerically stable standard logistic function; a scalar gives a float."""
    z = np.asarray(z, dtype=float)
    # exp(-z) for z >= 0 and exp(z) below never overflows; unlike -|z|,
    # the argument keeps the sign of a NaN input
    pos = z >= 0.0
    e = np.exp(np.where(pos, -z, z))
    out = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def forward2(w1, b1, w2, b2, x):
    """Hidden SELU + logistic output forward pass.

    Returns (hidden activations, outputs).
    """
    a1 = selu(w1 @ x + b1)
    y = logistic(w2 @ a1 + b2)
    return a1, y


def fused_sgd2(w1, b1, mask1, mw1, mb1, eta1,
               w2, b2, mask2, mw2, mb2, eta2,
               omega, x, target, y_out):
    """One forward pass plus one momentum-SGD step on the MSE loss.

    The pre-update outputs are written into ``y_out``.  Masked weights are
    excluded: their value, gradient, and momentum stay exactly zero.
    """
    n_out = w2.shape[0]
    a1, y = forward2(w1, b1, w2, b2, x)
    y_out[:] = y

    d2 = (2.0 / n_out) * (y - target) * y * (1.0 - y)
    e1 = w2.T @ d2

    dw2 = -eta2 * np.outer(d2, a1) + omega * mw2
    dw2 *= mask2
    w2 += dw2
    mw2[:] = dw2
    db2 = -eta2 * d2 + omega * mb2
    b2 += db2
    mb2[:] = db2

    # SELU derivative recovered from the activation: lambda on the positive
    # branch, activation + lambda*alpha on the non-positive branch.
    d1 = e1 * np.where(a1 > 0.0, SELU_LAMBDA, a1 + _SELU_LA)
    dw1 = -eta1 * np.outer(d1, x) + omega * mw1
    dw1 *= mask1
    w1 += dw1
    mw1[:] = dw1
    db1 = -eta1 * d1 + omega * mb1
    b1 += db1
    mb1[:] = db1


def match_batch(conds, x, threshold, out):
    """Evaluate many condition networks on one input.

    ``conds`` holds (w1, b1, w2, b2) tuples; ``out`` is a uint8 array that
    receives 1 where the first output exceeds ``threshold``.
    """
    for i, (w1, b1, w2, b2) in enumerate(conds):
        _, y = forward2(w1, b1, w2, b2, x)
        out[i] = 1 if y[0] > threshold else 0


def reinforce_batch(preds, x, omega, ys_out):
    """Run ``fused_sgd2`` with target ``x`` over a whole match set.

    ``preds`` holds (w1, b1, mask1, mw1, mb1, eta1, w2, b2, mask2, mw2,
    mb2, eta2) tuples; row i of ``ys_out`` receives classifier i's
    pre-update reconstruction.
    """
    for i, args in enumerate(preds):
        (w1, b1, mask1, mw1, mb1, eta1,
         w2, b2, mask2, mw2, mb2, eta2) = args
        fused_sgd2(w1, b1, mask1, mw1, mb1, eta1,
                   w2, b2, mask2, mw2, mb2, eta2,
                   omega, x, x, ys_out[i])
