"""Backend selection for the hot per-trial kernels.

Two entry points: ``forward_batch`` (the forward pass of many networks on
one input, with no update) and ``reinforce_batch`` (one momentum-SGD step
toward the input for every prediction net of a match set).  Both take one
12-tuple per network, built by ``neural.net_args``.  The match rule
``match_batch`` is written once here, on top of ``forward_batch``, for both
backends.

The compiled extension ``_kernels``, built from the hand-written C source
``_kernels.c``, is preferred; the pure-numpy twin ``_kernels_py`` is used
when it is missing.  The backend name ``"cython"`` is historical: it names
the compiled extension, which no longer needs Cython.  Set
``LCSAE_KERNELS=python`` (or ``cython``) to force a backend; forcing
``cython`` raises if the extension is unavailable.
"""

import os

import numpy as np

_forced = os.environ.get("LCSAE_KERNELS", "").strip().lower()
if _forced not in ("", "cython", "python"):
    raise RuntimeError(f"LCSAE_KERNELS must be 'cython' or 'python', got {_forced!r}")

if _forced == "python":
    from . import _kernels_py as _impl

    BACKEND = "python"
else:
    try:
        from . import _kernels as _impl  # type: ignore[no-redef]

        BACKEND = "cython"
    except ImportError:
        if _forced == "cython":
            raise
        from . import _kernels_py as _impl  # type: ignore[no-redef]

        BACKEND = "python"

forward_batch = _impl.forward_batch
reinforce_batch = _impl.reinforce_batch


def match_batch(conds, x, threshold):
    """Positions in ``conds``, a list of condition-net 12-tuples, of the nets
    whose output for ``x`` exceeds ``threshold``."""
    ys = np.empty((len(conds), 1))
    forward_batch(conds, x, ys)
    return np.flatnonzero(ys[:, 0] > threshold)
