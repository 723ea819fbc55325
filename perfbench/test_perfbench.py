"""Tests of the benchmark's own parts: seeded generators, output checks,
span accounting, and agreement with BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import kbuild  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from lcsae import checkpoint, data, runner, xcsf  # noqa: E402
from lcsae.config import ExperimentConfig  # noqa: E402


def _bytes(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_dataset_is_a_function_of_the_seed(tmp_path, name):
    a = workloads.write_dataset(name, 7, tmp_path / "a")
    b = workloads.write_dataset(name, 7, tmp_path / "b")
    c = workloads.write_dataset(name, 8, tmp_path / "c")
    assert _bytes(a) == _bytes(b)
    assert _bytes(a) != _bytes(c)
    ds = data.load_dataset(a)
    wl = workloads.WORKLOADS[name]
    assert ds.rows == wl["rows"]
    assert ds.n == (784 if wl["data"] == "strokes" else 64)
    assert 0.0 <= ds.features.min() and ds.features.max() <= 1.0
    assert ds.features.std() > 0.05


def test_strokes_images_have_ink_and_background():
    imgs = gen.strokes(3, 20)
    assert imgs.dtype == np.uint8 and imgs.shape == (20, 784)
    assert (imgs.max(axis=1) == 255).all()
    assert ((imgs == 0).mean(axis=1) > 0.5).all()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A small seeded run plus its reconstruction, on whatever backend the
    test process has."""
    root = tmp_path_factory.mktemp("run")
    path = str(root / "data.csv")
    gen.write_csv(path, gen.blobs(1, 60))
    cfg = ExperimentConfig(N=30, trials=40, checkpoint_interval=20, seed=1,
                           dataset=path)
    metrics_path = runner.run_experiment(cfg, str(root / "out"))
    ckpt = os.path.join(root, "out", runner.CHECKPOINT_NAME)
    recon = runner.reconstruct(ckpt, path, corruption="salt_pepper", count=60,
                               out_dir=str(root / "recon"), export_images=False)
    return {"cfg": cfg, "data": path, "metrics": metrics_path, "ckpt": ckpt,
            "recon": recon, "root": root}


def _lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines(keepends=True)


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)
    return str(path)


def test_checks_accept_a_correct_run(tiny_run):
    rows, failures = checks.check_metrics(tiny_run["metrics"], 3, 30)
    assert failures == [] and len(rows) == 3
    failures = checks.check_checkpoint(
        tiny_run["ckpt"], tiny_run["data"], 40, rows[-1].valid_mse)
    assert failures == []
    valid_rows = len(runner.prepare_dataset(tiny_run["cfg"]).valid_idx)
    assert checks.check_reconstruction(tiny_run["recon"], valid_rows) == []


def _corrupt_cell(line, field, value):
    cells = line.rstrip("\n").split(",")
    cells[runner.metrics.CSV_FIELDS.index(field)] = value
    return ",".join(cells) + "\n"


@pytest.mark.parametrize("corruption", ["drop_row", "nan", "macro_count", "header",
                                        "garbage"])
def test_check_metrics_rejects_corrupted_csv(tiny_run, tmp_path, corruption):
    lines = _lines(tiny_run["metrics"])
    if corruption == "drop_row":
        lines = lines[:-1]
    elif corruption == "nan":
        lines[-1] = _corrupt_cell(lines[-1], "valid_mse", "nan")
    elif corruption == "macro_count":
        lines[-1] = _corrupt_cell(lines[-1], "macro_count", "31")
    elif corruption == "header":
        lines[0] = lines[0].replace("valid_mse", "validation")
    else:
        lines[1] = "1,2,three\n"
    path = _write(tmp_path / "metrics.csv", lines)
    _, failures = checks.check_metrics(path, 3, 30)
    assert failures


def test_check_checkpoint_rejects_a_changed_population(tiny_run, tmp_path):
    rows, _ = checks.check_metrics(tiny_run["metrics"], 3, 30)
    pop, cfg, rng, window = checkpoint.load_population(tiny_run["ckpt"])
    pop.members[0].prediction.layers[1].biases += 0.5
    bad = str(tmp_path / "changed.ckpt")
    checkpoint.save_population(bad, pop, cfg, rng, window)
    failures = checks.check_checkpoint(bad, tiny_run["data"], 40, rows[-1].valid_mse)
    assert any("valid_mse" in f for f in failures)
    failures = checks.check_checkpoint(tiny_run["ckpt"], tiny_run["data"], 60,
                                       rows[-1].valid_mse)
    assert any("trial" in f for f in failures)


def test_check_checkpoint_rejects_a_truncated_file(tiny_run, tmp_path):
    blob = _bytes(tiny_run["ckpt"])
    bad = tmp_path / "truncated.ckpt"
    bad.write_bytes(blob[:len(blob) // 2])
    failures = checks.check_checkpoint(str(bad), tiny_run["data"], 40, 0.1)
    assert any("does not load" in f for f in failures)


def test_check_reconstruction_rejects_a_short_pass(tiny_run):
    recon = tiny_run["recon"]
    assert checks.check_reconstruction(recon, recon.count + 1)


def test_decoder_weights_counts_the_rules_reconstruction_uses(tiny_run, tmp_path):
    original = xcsf.system_prediction
    pop, cfg, rng, window = checkpoint.load_population(tiny_run["ckpt"])
    everything = sum(l.active_weights() for cl in pop.members
                     for l in cl.prediction.layers)
    used = worker._decoder_weights(runner, xcsf, tiny_run["ckpt"], tiny_run["data"],
                                   60, str(tmp_path))
    assert 0 < used < everything
    cfg.mode = "global_ea"
    ckpt = str(tmp_path / "global.ckpt")
    checkpoint.save_population(ckpt, pop, cfg, rng, window)
    assert worker._decoder_weights(runner, xcsf, ckpt, tiny_run["data"], 60,
                                   str(tmp_path)) == everything
    assert xcsf.system_prediction is original


def test_repeats_must_agree():
    base = {"metrics_sha256": "a", "checkpoint_sha256": "c", "valid_mse": 0.1,
            "recon_mse": 0.2}
    assert run.consistency_failures([base, dict(base)], []) == []
    assert run.consistency_failures([base, dict(base, metrics_sha256="b")], [])
    assert run.consistency_failures([base, dict(base, checkpoint_sha256="d")], [])
    assert run.consistency_failures([base, dict(base, recon_mse=0.3)], [])
    assert run.consistency_failures([base], [{"file": "r.json", "metrics_sha256": "b"}])


def test_self_time_excludes_traced_children():
    mod = types.ModuleType("lcsae.fake")

    def outer():
        for _ in range(3):
            mod.inner()
        return sum(range(20000))

    mod.outer = outer
    mod.inner = lambda: sum(range(50000))
    tracer = tracing.Tracer()
    tracer._wrap(mod, "outer")
    tracer._wrap(mod, "inner")
    mod.outer()
    tracer.uninstall()
    assert mod.outer is outer
    sm = tracer.summary()
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    assert sm["s"]["fake.outer"] == pytest.approx(
        sm["self_s"]["fake.outer"] + sm["s"]["fake.inner"])
    assert sm["root_s"] == sm["s"]["fake.outer"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: wl["why"] for name, wl in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.metric_units()
    mapped = {m for layer in workloads.LAYER_MAP.values() for m in layer["metrics"]}
    assert mapped <= set(tracing.metric_units())


def test_timings_are_scaled_to_the_reference_speed():
    ref = calib.REFERENCE_S
    assert calib.speed([ref] * 10) == pytest.approx(1.0)
    assert calib.speed([ref, 3 * ref]) == pytest.approx(0.5)
    rep = {"setup_s": 2.0, "train_s": 1.0, "latencies_s": [0.1] * 10, "calib_s": [ref],
           "recon_passes": [{"s": 1.0, "latencies_s": [0.05] * 20, "calib_s": [ref]}],
           "peak_rss_mb": 50.0, "decoder_weights": 7.0}
    # the same work on a machine running at half the reference speed
    slow = {**rep, "setup_s": 4.0, "train_s": 2.0, "latencies_s": [0.2] * 10,
            "calib_s": [2 * ref],
            "recon_passes": [{"s": 2.0, "latencies_s": [0.1] * 20, "calib_s": [2 * ref]}]}
    expected = {"setup_s": 2.0, "trials_per_s": 10.0, "trial_p50_ms": 100.0,
                "trial_p99_ms": 100.0, "recon_per_s": 20.0, "peak_rss_mb": 50.0,
                "decoder_weights": 7.0}
    assert run.end_to_end([slow]) == pytest.approx(expected)
    raw = run.end_to_end([slow], lambda blocks: 1.0)
    assert raw["trials_per_s"] == pytest.approx(5.0)
    # a median over repeats: one repeat at another speed does not move it
    assert run.end_to_end([rep, slow, {**rep, "train_s": 3.0}]) == pytest.approx(expected)


@pytest.fixture
def in_process_bench(monkeypatch, tmp_path):
    """``run.main`` on a tiny workload, with each repeat run in this
    process on whatever backend it has, and records kept in ``tmp_path``."""
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", {
        "why": "test", "data": "blobs", "rows": 60,
        "config": {"N": 30, "mode": "xcsf", "trials": 40, "checkpoint_interval": 20}})
    monkeypatch.setattr(kbuild, "build", lambda root, cache: {"path": None,
                                                              "source_sha256": "x"})
    monkeypatch.setattr(kbuild, "install", lambda path: None)
    monkeypatch.setattr(kbuild, "require_compiled", lambda: "test")
    monkeypatch.setattr(run, "run_repeat", lambda spec, *_: worker.run(spec))
    monkeypatch.setattr(run, "RECORD_DIR", str(tmp_path / "records"))
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    return ["--workload", "tiny", "--seed", "1", "--seconds", "0"]


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_main_reports_every_end_to_end_metric(in_process_bench, capsys):
    assert run.main(in_process_bench) == 0
    out = _last_json(capsys)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == run.MIN_REPEATS * (40 + worker.RECON_PASSES * 6)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END


def test_main_counts_a_checkpoint_that_does_not_load_as_failed(
        in_process_bench, capsys, monkeypatch, tmp_path):
    save = checkpoint.save_population

    def save_truncated(path, *args, **kwargs):
        save(path, *args, **kwargs)
        with open(path, "r+b") as f:
            f.truncate(100)

    monkeypatch.setattr(checkpoint, "save_population", save_truncated)
    assert run.main(in_process_bench) == 1
    out = _last_json(capsys)
    assert not out["correct"]
    # the trials ran; both reconstruction passes of the 6 validation rows failed
    assert out["attempted"] == 40 + worker.RECON_PASSES * 6
    assert out["failed"] == worker.RECON_PASSES * 6
    [record] = (tmp_path / "records").glob("tiny-*.json")
    assert any("reconstruct raised" in f for f in json.loads(record.read_text())["failures"])


@pytest.mark.skipif(not (shutil.which("cc") or shutil.which("gcc")),
                    reason="no C compiler")
def test_kernel_build_is_cached_by_source_hash(tmp_path):
    first = kbuild.build(ROOT, str(tmp_path))
    if first["path"] is None:
        pytest.skip("src/ already holds a compiled extension")
    digest = kbuild.file_sha256(os.path.join(ROOT, kbuild.KERNEL_SOURCE))
    assert first["source_sha256"] == digest
    assert os.path.dirname(first["path"]) == os.path.join(str(tmp_path), digest[:16])
    mtime = os.path.getmtime(first["path"])
    assert kbuild.build(ROOT, str(tmp_path)) == first
    assert os.path.getmtime(first["path"]) == mtime


def test_backend_guard_rejects_the_numpy_twin(monkeypatch):
    import lcsae

    with pytest.raises(kbuild.KernelError):
        kbuild.install(None)  # lcsae is already imported here
    monkeypatch.setattr(lcsae, "kernel_backend", "python")
    with pytest.raises(kbuild.KernelError):
        kbuild.require_compiled()
