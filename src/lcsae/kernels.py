"""Backend selection for the hot per-trial kernels.

Three entry points: ``forward2`` (one network's forward pass),
``match_batch`` (every condition net on one input) and ``reinforce_batch``
(one momentum-SGD step toward the input for every prediction net of a
match set).

The compiled extension ``_kernels``, built from the hand-written C source
``_kernels.c``, is preferred; the pure-numpy twin ``_kernels_py`` is used
when it is missing.  The backend name ``"cython"`` is historical: it names
the compiled extension, which no longer needs Cython.  Set
``LCSAE_KERNELS=python`` (or ``cython``) to force a backend; forcing
``cython`` raises if the extension is unavailable.
"""

import os

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

forward2 = _impl.forward2
match_batch = _impl.match_batch
reinforce_batch = _impl.reinforce_batch
