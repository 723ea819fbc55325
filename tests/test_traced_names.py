"""The benchmark wraps package functions by name; every one must exist.

``perfbench/tracing.py`` replaces each ``(module, function)`` of ``TRACED``
with a timing wrapper, and ``perfbench/worker.py`` wraps three more, so a
refactor that deletes or renames one of them breaks the benchmark.  This
guard makes it fail the tests instead.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# the functions worker.py times or counts through, besides TRACED
WORKER_WRAPS = (("xcsf", "run_trial"), ("xcsf", "reconstruct_one"),
                ("xcsf", "system_prediction"))


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("mod, fn", sorted(set(_traced()) | set(WORKER_WRAPS)))
def test_every_name_the_benchmark_wraps_resolves(mod, fn):
    assert callable(getattr(importlib.import_module(f"lcsae.{mod}"), fn, None))
