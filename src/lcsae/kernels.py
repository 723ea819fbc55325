"""Backend selection for the hot per-trial kernels.

Three entry points, one contract: batches in, finished results out, never
sums for the caller to finish.

- ``forward_batch(nets, x, ys_out)``, the outputs of many networks on each
  input of ``x (rows, n)``, with no update: row ``i * rows + r`` of
  ``ys_out`` receives net i's output for input r (net-major, as
  ``matched``);
- ``predict_batch(nets, x, matched, fit, out)``, with no update: row r of
  ``out (rows, n_out)``, never read, receives ``fit[i]`` times net i's
  output summed over the nets that match row r (``matched[i, r]``) in list
  order, divided by their ``fit[i]`` summed the same way (NaN for no nets);
- ``reinforce_batch(preds, x, omega, out, pos, err, fit, set_size, exp,
  beta, epsilon0, alpha, nu)``, one trial's reinforcement of a match
  set: one momentum-SGD step toward the input ``x (n,)`` for every
  prediction net, whose mean output, formed as ``predict_batch`` forms it,
  goes to ``out (n,)``, then the XCS update of the rules at the increasing
  rows ``pos``.

All take one 12-tuple per network, built by ``neural.net_args``, and every
network output of the package comes from them; their argument checks are
the run-time checks of the arrays of ``neural``'s plain-data layers.
``match_batch`` is the package's one match rule, for one input (a one-row
``xs``) or a batch, on either backend's ``forward_batch``: whether each
condition net's output for each row exceeds the threshold, in the layout
of ``matched``.

The compiled extension ``_kernels``, built from the hand-written C source
``_kernels.c``, is used when it imports, and otherwise its executable
specification, the pure-numpy twin ``_kernels_py``, which gives the same
bits.  The logistic's ``exp`` is the package's own on both (plain C, and
the same operations as numpy ufuncs), so no libm decides a logistic
output; SELU's ``expm1`` and the accuracy's ``pow`` are still libm's.  The
compiled logistic runs as the widest of its AVX-512F, AVX2 and default
builds that the CPU runs, each giving the same bits.  The backend name
``"cython"`` is historical: it names the compiled extension, which no
longer needs Cython.
"""

import numpy as np

try:
    from . import _kernels as _impl

    BACKEND = "cython"
except ImportError:
    from . import _kernels_py as _impl  # type: ignore[no-redef]

    BACKEND = "python"

forward_batch = _impl.forward_batch
predict_batch = _impl.predict_batch
reinforce_batch = _impl.reinforce_batch


def match_batch(conds, xs, threshold):
    """C-contiguous boolean ``(len(conds), rows)`` matrix: whether the output
    of each net of ``conds``, a list of condition-net 12-tuples, for each row
    of ``xs (rows, n)`` exceeds ``threshold``."""
    ys = np.empty((len(conds) * xs.shape[0], 1))
    forward_batch(conds, xs, ys)
    return ys.reshape(len(conds), xs.shape[0]) > threshold
