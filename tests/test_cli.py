"""End-to-end runs through the command-line interface."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import write_config, write_csv
from lcsae import cli, metrics

BASE = dict(N=30, theta_EA=25, h_M=2, trials=200, checkpoint_interval=50,
            split_ratio=0.9, seed=11)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "lcsae", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Tiny structured dataset: two blurred prototypes plus noise."""
    rng = np.random.default_rng(5)
    protos = np.array([[0.9, 0.1, 0.8, 0.2, 0.7, 0.1, 0.9, 0.2],
                       [0.1, 0.8, 0.2, 0.9, 0.1, 0.9, 0.2, 0.8]])
    rows = protos[rng.integers(0, 2, 120)] + rng.normal(0, 0.03, (120, 8))
    rows = np.clip(rows, 0.0, 1.0)
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    return write_csv(path, rows)


def _config(tmp_path, dataset, name="run.cfg", **overrides):
    keys = dict(BASE, dataset=dataset)
    keys.update(overrides)
    return write_config(tmp_path / name, **keys)


def test_usage_errors_exit_1(tmp_path):
    assert run_cli().returncode == 1
    assert run_cli("run").returncode == 1
    assert run_cli("frob", "x").returncode == 1


def test_bad_config_exits_1(tmp_path, dataset):
    cfg = write_config(tmp_path / "bad.cfg", dataset=dataset, nonsense=3)
    proc = run_cli("run", cfg, "--outdir", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "unknown key" in proc.stderr


def test_missing_dataset_exits_2(tmp_path):
    cfg = _config(tmp_path, str(tmp_path / "nowhere.csv"))
    proc = run_cli("run", cfg, "--outdir", str(tmp_path / "out"))
    assert proc.returncode == 2


def test_run_produces_outputs(tmp_path, dataset):
    out = tmp_path / "out"
    proc = run_cli("run", _config(tmp_path, dataset), "--outdir", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = metrics.read_metrics(out / "metrics.csv")
    assert [cp.trial for cp in rows] == [0, 50, 100, 150, 200]
    trials = [cp.trial for cp in rows]
    assert trials == sorted(trials)
    assert (out / "population.ckpt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["end_trial"] == 200
    assert manifest["features"] == 8
    assert manifest["kernel_backend"] in ("cython", "python")
    assert manifest["dataset"]["sha256"]


def test_zero_trials_emits_only_initialization_row(tmp_path, dataset):
    out = tmp_path / "out0"
    cfg = _config(tmp_path, dataset, name="zero.cfg", trials=0)
    proc = run_cli("run", cfg, "--outdir", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = metrics.read_metrics(out / "metrics.csv")
    assert [cp.trial for cp in rows] == [0]


def test_same_seed_is_byte_identical(tmp_path, dataset):
    cfg = _config(tmp_path, dataset)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", cfg, "--outdir", str(out1)).returncode == 0
    assert run_cli("run", cfg, "--outdir", str(out2)).returncode == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "population.ckpt").read_bytes() == (out2 / "population.ckpt").read_bytes()


def test_outdir_env_override(tmp_path, dataset):
    out = tmp_path / "envout"
    proc = run_cli("run", _config(tmp_path, dataset),
                   env_extra={"LCSAE_OUTDIR": str(out)})
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").exists()


def test_resume_matches_unsplit_run_byte_for_byte(tmp_path, dataset):
    full_cfg = _config(tmp_path, dataset, name="full.cfg", trials=200)
    half_cfg = _config(tmp_path, dataset, name="half.cfg", trials=100)
    full_out, half_out = tmp_path / "full", tmp_path / "half"
    assert run_cli("run", full_cfg, "--outdir", str(full_out)).returncode == 0
    assert run_cli("run", half_cfg, "--outdir", str(half_out)).returncode == 0
    proc = run_cli("resume", str(half_out / "population.ckpt"), "--trials", "100")
    assert proc.returncode == 0, proc.stderr
    assert (half_out / "metrics.csv").read_bytes() == \
           (full_out / "metrics.csv").read_bytes()
    assert (half_out / "population.ckpt").read_bytes() == \
           (full_out / "population.ckpt").read_bytes()


def test_resume_zero_trials_changes_nothing(tmp_path, dataset):
    out = tmp_path / "r0"
    assert run_cli("run", _config(tmp_path, dataset), "--outdir", str(out)).returncode == 0
    before_metrics = (out / "metrics.csv").read_bytes()
    before_ckpt = (out / "population.ckpt").read_bytes()
    proc = run_cli("resume", str(out / "population.ckpt"), "--trials", "0")
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").read_bytes() == before_metrics
    assert (out / "population.ckpt").read_bytes() == before_ckpt


def test_resume_corrupted_checkpoint_exits_2(tmp_path, dataset):
    out = tmp_path / "corrupt"
    assert run_cli("run", _config(tmp_path, dataset), "--outdir", str(out)).returncode == 0
    ckpt = out / "population.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:100])
    proc = run_cli("resume", str(ckpt), "--trials", "10")
    assert proc.returncode == 2


def test_global_ea_and_xcsf_both_run(tmp_path, dataset):
    for mode in ("xcsf", "global_ea"):
        cfg = _config(tmp_path, dataset, name=f"{mode}.cfg", mode=mode)
        out = tmp_path / mode
        assert run_cli("run", cfg, "--outdir", str(out)).returncode == 0
        rows = metrics.read_metrics(out / "metrics.csv")
        assert len(rows) == 5
        if mode == "global_ea":
            assert all(cp.M_size == 30.0 for cp in rows)
            assert all(cp.mfrac == 1.0 for cp in rows)


def test_reconstruct_noise_zero_equals_none(tmp_path, dataset):
    out = tmp_path / "recon_src"
    cfg = _config(tmp_path, dataset, name="recon.cfg",
                  image_shape="2,4", trials=100)
    assert run_cli("run", cfg, "--outdir", str(out)).returncode == 0
    ckpt = str(out / "population.ckpt")

    out_none, out_zero = tmp_path / "rec_none", tmp_path / "rec_zero"
    p1 = run_cli("reconstruct", ckpt, dataset, "--count", "5",
                 "--outdir", str(out_none))
    p2 = run_cli("reconstruct", ckpt, dataset, "--noise", "0", "--count", "5",
                 "--outdir", str(out_zero))
    assert p1.returncode == 0, p1.stderr
    assert p2.returncode == 0, p2.stderr
    r1 = json.loads((out_none / "reconstruction.json").read_text())
    r2 = json.loads((out_zero / "reconstruction.json").read_text())
    assert r1["mean_recon_mse"] == r2["mean_recon_mse"]
    assert r2["mean_corrupt_mse"] == 0.0
    pgms = list(out_none.glob("*.pgm"))
    assert len(pgms) == 3 * 5  # original, corrupted, reconstruction per sample
    header = pgms[0].read_bytes()[:2]
    assert header == b"P5"


def test_reconstruct_without_image_shape_reports_then_errors(tmp_path, dataset):
    out = tmp_path / "novec"
    cfg = _config(tmp_path, dataset, name="vec.cfg", trials=100)
    assert run_cli("run", cfg, "--outdir", str(out)).returncode == 0
    rec_out = tmp_path / "vec_rec"
    proc = run_cli("reconstruct", str(out / "population.ckpt"), dataset,
                   "--outdir", str(rec_out))
    assert proc.returncode == 2
    assert (rec_out / "reconstruction.json").exists()  # report still produced

    proc = run_cli("reconstruct", str(out / "population.ckpt"), dataset,
                   "--no-images", "--outdir", str(rec_out))
    assert proc.returncode == 0, proc.stderr


def test_dataset_of_another_width_exits_2(tmp_path, dataset, capsys):
    out = tmp_path / "w8"
    cfg = _config(tmp_path, dataset, name="w8.cfg", trials=50)
    assert cli.main(["run", cfg, "--outdir", str(out)]) == 0
    ckpt = str(out / "population.ckpt")
    wide = write_csv(tmp_path / "wide.csv", np.full((20, 16), 0.5))
    assert cli.main(["reconstruct", ckpt, wide, "--no-images",
                     "--outdir", str(tmp_path / "rec")]) == 2
    assert "16 features" in capsys.readouterr().err
    # resume reads the dataset named in the checkpoint's config again
    changing = write_csv(tmp_path / "changing.csv", np.full((20, 16), 0.5))
    cfg2 = _config(tmp_path, changing, name="w16.cfg", trials=50)
    assert cli.main(["run", cfg2, "--outdir", str(tmp_path / "w16")]) == 0
    write_csv(changing, np.full((20, 8), 0.5))
    assert cli.main(["resume", str(tmp_path / "w16" / "population.ckpt"),
                     "--trials", "10"]) == 2


def test_run_without_initial_population_completes(tmp_path, dataset):
    out = tmp_path / "empty"
    cfg = _config(tmp_path, dataset, name="empty.cfg", P_init=False)
    assert cli.main(["run", cfg, "--outdir", str(out)]) == 0
    rows = metrics.read_metrics(out / "metrics.csv")
    assert [cp.trial for cp in rows] == [0, 50, 100, 150, 200]
    # nothing to predict with before the first cover
    assert np.isnan(rows[0].train_mse) and np.isnan(rows[0].valid_mse)
    assert rows[0].macro_count == 0 and rows[0].M_size == 0.0
    assert all(cp.macro_count > 0 for cp in rows[1:])
    # a checkpoint that still holds no rules has nothing to reconstruct with
    cfg0 = _config(tmp_path, dataset, name="empty0.cfg", P_init=False, trials=0)
    assert cli.main(["run", cfg0, "--outdir", str(tmp_path / "empty0")]) == 0
    assert cli.main(["reconstruct", str(tmp_path / "empty0" / "population.ckpt"),
                     dataset, "--no-images", "--outdir", str(tmp_path / "rec0")]) == 2


def test_global_ea_without_initial_population_completes(tmp_path, dataset):
    out = tmp_path / "empty_global"
    cfg = _config(tmp_path, dataset, name="empty_global.cfg", mode="global_ea",
                  P_init=False, N=20, trials=10, checkpoint_interval=5)
    assert cli.main(["run", cfg, "--outdir", str(out)]) == 0
    rows = metrics.read_metrics(out / "metrics.csv")
    assert [cp.trial for cp in rows] == [0, 5, 10]
    assert rows[0].macro_count == 0 and rows[-1].macro_count > 0


def test_resume_on_changed_dataset_exits_2(tmp_path, dataset, capsys):
    data = tmp_path / "moving.csv"
    shutil.copyfile(dataset, data)
    out = tmp_path / "moving"
    cfg = _config(tmp_path, str(data), name="moving.cfg", trials=20, checkpoint_interval=10)
    assert cli.main(["run", cfg, "--outdir", str(out)]) == 0
    ckpt = str(out / "population.ckpt")
    # same width, different rows
    write_csv(data, np.random.default_rng(3).random((120, 8)))
    assert cli.main(["resume", ckpt, "--trials", "10"]) == 2
    assert "differs from the one the run was trained on" in capsys.readouterr().err
    # an unchanged dataset with a different backend in the manifest
    shutil.copyfile(dataset, data)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["kernel_backend"] = "elsewhere"
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["resume", ckpt, "--trials", "10"]) == 2
    assert "'elsewhere' kernel backend" in capsys.readouterr().err
    # a checkpoint without its run's manifest
    (out / "manifest.json").unlink()
    assert cli.main(["resume", ckpt, "--trials", "10"]) == 2
    assert "manifest" in capsys.readouterr().err
