"""The benchmark wraps package functions by name; every one must exist.

``perfbench/tracing.py`` replaces each ``(module, function)`` of ``TRACED``
with a timing wrapper, and ``perfbench/worker.py`` wraps three more, so a
refactor that deletes or renames one of them breaks the benchmark.  The
tracer's hooks also read the arguments of some of them.  These guards make
either break fail the tests instead.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from conftest import write_csv
from lcsae import checkpoint, data, kernels, metrics, neural, runner, xcsf
from lcsae.config import ExperimentConfig

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# the functions worker.py times or counts through, besides TRACED
WORKER_WRAPS = (("xcsf", "run_trial"), ("xcsf", "reconstruct_one"),
                ("xcsf", "system_prediction"))


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mod, fn", sorted(set(_tracing().TRACED) | set(WORKER_WRAPS)))
def test_every_name_the_benchmark_wraps_resolves(mod, fn):
    assert callable(getattr(importlib.import_module(f"lcsae.{mod}"), fn, None))


def test_the_benchmark_hooks_read_what_the_package_passes(tmp_path):
    # the hooks read argument shapes: p[1] of each reinforce_batch tuple,
    # len(a[0]) of match_batch and a[1].shape[0] of evaluate
    path = write_csv(tmp_path / "data.csv", np.random.default_rng(0).random((40, 6)))
    cfg = ExperimentConfig(N=20, trials=40, checkpoint_interval=20, seed=1, dataset=path)
    tracer = _tracing().Tracer()
    tracer.install({"data": data, "xcsf": xcsf, "kernels": kernels, "metrics": metrics,
                    "checkpoint": checkpoint, "neural": neural})
    try:
        runner.run_experiment(cfg, tmp_path / "run")
        runner.reconstruct(tmp_path / "run" / runner.CHECKPOINT_NAME, path,
                           corruption="salt_pepper", noise_fraction=0.1, count=4,
                           out_dir=tmp_path / "rec", export_images=False)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for name in ("xcsf.reinforce", "kernels.reinforce_batch", "kernels.match_batch",
                 "xcsf.evaluate", "checkpoint.save_population",
                 "checkpoint.load_population", "xcsf.reconstruct_one",
                 "xcsf.system_prediction"):
        assert summary["s"].get(name, 0.0) > 0.0, name
    for key in ("kernels.reinforce_batch.nets", "kernels.reinforce_batch.weights",
                "kernels.reinforce_batch.bytes", "kernels.match_batch.rules",
                "xcsf.evaluate.rows", "checkpoint.save_population.bytes"):
        assert summary["counts"].get(key, 0.0) > 0.0, key
    # every wrapper is gone again
    assert xcsf.evaluate.__module__ == "lcsae.xcsf"
