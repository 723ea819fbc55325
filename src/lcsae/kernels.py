"""Backend selection for the hot per-trial kernels.

Three entry points:

- ``forward_batch(nets, x, ys_out)``, the forward pass of many networks on
  one input ``x (n,)`` or on each input of a batch ``x (rows, n)``, with no
  update: row ``r * len(nets) + i`` of ``ys_out`` receives net i's output
  for input r;
- ``predict_batch(nets, x, matched, fit, acc_out, fsum_out)``, the
  fitness-weighted sums of the outputs of many networks on a batch ``x
  (rows, n)``, with no update: for every row r that net i matches
  (``matched[i, r]``), ``fit[i]`` times net i's output is added to row r of
  ``acc_out`` and ``fit[i]`` to ``fsum_out[r]``, each row's nets in list
  order;
- ``reinforce_batch(preds, x, omega, out, pos, err, fit, num, set_size,
  exp, beta, epsilon0, alpha, nu)``, one trial's reinforcement of a match
  set: one momentum-SGD step toward the input for every prediction net,
  whose fitness-weighted mean output goes to ``out (n,)``, then the XCS
  update of the rules at rows ``pos`` of the state columns.

All take one 12-tuple per network, built by ``neural.net_args``, and every
network output of the package comes from them.  The match rule ``match_batch`` is written once
here, on top of ``forward_batch``, for both backends.

The compiled extension ``_kernels``, built from the hand-written C source
``_kernels.c``, is used when it imports, and otherwise its executable
specification, the pure-numpy twin ``_kernels_py``, which gives the same
bits.  The backend name ``"cython"`` is historical: it names the compiled
extension, which no longer needs Cython.
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


def match_batch(conds, x, threshold):
    """Positions in ``conds``, a list of condition-net 12-tuples, of the nets
    whose output for ``x`` exceeds ``threshold``."""
    ys = np.empty((len(conds), 1))
    forward_batch(conds, x, ys)
    return np.flatnonzero(ys[:, 0] > threshold)
