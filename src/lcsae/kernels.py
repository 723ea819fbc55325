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
  goes to ``out (n,)``, then the XCS update of the rules at rows ``pos``.

All take one 12-tuple per network, built by ``neural.net_args``, and every
network output of the package comes from them.  ``match_batch`` applies
the match rule to one input on either backend's ``forward_batch``, and
``xcsf._match_matrix`` to a batch.

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
    forward_batch(conds, x[None], ys)
    return np.flatnonzero(ys[:, 0] > threshold)
