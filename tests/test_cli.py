"""End-to-end runs through the command-line interface."""

import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FailingWrites, use_backend, write_config, write_csv
from lcsae import checkpoint, cli, metrics, runner, xcsf
from lcsae.config import ExperimentConfig, config_to_dict

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


@pytest.mark.parametrize("key, value", [("chi", 0), ("dataset_format", "idx")])
def test_a_config_naming_a_removed_key_exits_1(key, value, dataset, tmp_path, capsys):
    # the learner does no crossover, and a data file names its own format
    # tests/test_config.py's table holds a row per check; this is the
    # command line's side of one of them
    cfg = _config(tmp_path, dataset, **{key: value})
    assert cli.main(["run", cfg, "--outdir", str(tmp_path / "out")]) == 1
    # the key follows BASE's keys and the dataset's
    line = len(BASE) + 2
    assert capsys.readouterr().err == f"config error: line {line}: unknown key '{key}'\n"
    assert not (tmp_path / "out").exists()


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


def test_checkpoint_bytes_do_not_depend_on_where_the_data_lives(tmp_path, dataset):
    # one config against two copies of one dataset in different directories
    runs = {}
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        data = str(shutil.copyfile(dataset, tmp_path / name / "data.csv"))
        out = tmp_path / f"run_{name}"
        cfg = _config(tmp_path, data, name=f"{name}.cfg", trials=100)
        assert cli.main(["run", cfg, "--outdir", str(out)]) == 0
        runs[name] = (data, out)
    (data_a, a), (_, b) = runs["a"], runs["b"]
    assert (a / "population.ckpt").read_bytes() == (b / "population.ckpt").read_bytes()
    # the resume reads its data from the path in the manifest and continues
    # as the unsplit run does
    full = tmp_path / "full"
    cfg = _config(tmp_path, data_a, name="full.cfg", trials=200)
    assert cli.main(["run", cfg, "--outdir", str(full)]) == 0
    assert cli.main(["resume", str(a / "population.ckpt"), "--trials", "100"]) == 0
    for name in ("metrics.csv", "population.ckpt"):
        assert (a / name).read_bytes() == (full / name).read_bytes(), name
    assert json.loads((a / "manifest.json").read_text())["dataset"]["path"] == data_a


def test_resume_after_an_interrupted_resume_matches_the_unsplit_run(tmp_path, monkeypatch):
    # the interrupted resume flushed the row for trial 150 but saved no
    # checkpoint, so the next resume starts from trial 100 again
    data = write_csv(tmp_path / "data.csv", np.random.default_rng(8).random((80, 6)))
    full, half = tmp_path / "full", tmp_path / "half"
    for out, trials in ((full, 200), (half, 100)):
        cfg = _config(tmp_path, data, name=f"{trials}.cfg", N=20, trials=trials)
        assert cli.main(["run", cfg, "--outdir", str(out)]) == 0
    emit = runner._emit

    def interrupt_after_150(fh, cfg, pop, *args):
        emit(fh, cfg, pop, *args)
        if pop.trial == 150:
            raise KeyboardInterrupt

    monkeypatch.setattr(runner, "_emit", interrupt_after_150)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["resume", str(half / "population.ckpt"), "--trials", "100"])
    monkeypatch.setattr(runner, "_emit", emit)
    assert cli.main(["resume", str(half / "population.ckpt"), "--trials", "100"]) == 0
    trials = [row.trial for row in metrics.read_metrics(half / "metrics.csv")]
    assert trials == [0, 50, 100, 150, 200]
    for name in ("metrics.csv", "population.ckpt"):
        assert (half / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("failure", ["empty split", "interrupt"])
def test_a_failed_run_leaves_no_old_checkpoint_to_resume(failure, tmp_path, monkeypatch,
                                                         capsys):
    # run B fails in run A's directory.  Refused for its data, it leaves A
    # as it was; interrupted after writing its manifest and first metrics
    # row, it leaves nothing to resume rather than A's rules on B's data
    keys = dict(N=20, trials=40, checkpoint_interval=20, seed=1)
    a = write_csv(tmp_path / "a.csv", np.random.default_rng(1).random((60, 6)))
    b = write_csv(tmp_path / "b.csv", np.random.default_rng(2).random((60, 6)))
    out = tmp_path / "run"
    assert cli.main(["run", write_config(tmp_path / "a.cfg", dataset=a, **keys),
                     "--outdir", str(out)]) == 0
    ckpt = out / "population.ckpt"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # a config or data error leaves the old run as it was
    assert cli.main(["run", write_config(tmp_path / "bad.cfg", dataset=a, nonsense=1),
                     "--outdir", str(out)]) == 1
    gone = write_config(tmp_path / "gone.cfg", dataset=str(tmp_path / "no.csv"), **keys)
    assert cli.main(["run", gone, "--outdir", str(out)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # nor does a run refused for its data make a new directory
    assert cli.main(["run", gone, "--outdir", str(tmp_path / "new")]) == 2
    assert not (tmp_path / "new").exists()
    if failure == "empty split":
        # refused before its first write, so run A stays whole and resumes
        # as the unsplit longer run
        cfg_b = write_config(tmp_path / "b.cfg", dataset=b, split_ratio=0.01, **keys)
        assert cli.main(["run", cfg_b, "--outdir", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert cli.main(["resume", str(ckpt), "--trials", "20"]) == 0
        longer = tmp_path / "longer"
        assert cli.main(["run", write_config(tmp_path / "a60.cfg", dataset=a,
                                             **{**keys, "trials": 60}),
                         "--outdir", str(longer)]) == 0
        for name in ("metrics.csv", "population.ckpt"):
            assert (out / name).read_bytes() == (longer / name).read_bytes(), name
        return
    run_trial = xcsf.run_trial

    def interrupt_after_5(pop, *args):
        if pop.trial == 5:
            raise KeyboardInterrupt
        return run_trial(pop, *args)

    monkeypatch.setattr(xcsf, "run_trial", interrupt_after_5)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", write_config(tmp_path / "b.cfg", dataset=b, **keys),
                  "--outdir", str(out)])
    monkeypatch.undo()
    assert json.loads((out / "manifest.json").read_text())["dataset"]["path"] == b
    assert not ckpt.exists()
    capsys.readouterr()
    assert cli.main(["resume", str(ckpt), "--trials", "20"]) == 2
    assert "cannot read checkpoint" in capsys.readouterr().err


def test_a_manifest_write_interrupted_midway_still_resumes(tmp_path, monkeypatch):
    # the resume saved its checkpoint and then failed inside json.dump; the
    # previous manifest stays whole, so the next resume passes the dataset
    # check and ends where the unsplit run does
    data = write_csv(tmp_path / "data.csv", np.random.default_rng(9).random((60, 6)))
    full, half = tmp_path / "full", tmp_path / "half"
    for out, trials in ((full, 80), (half, 40)):
        cfg = _config(tmp_path, data, name=f"{trials}.cfg", N=20, trials=trials,
                      checkpoint_interval=20)
        assert cli.main(["run", cfg, "--outdir", str(out)]) == 0

    def fail_midway(obj, fp, **kwargs):
        fp.write(json.dumps(obj, **kwargs)[:40])
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", fail_midway)
    assert cli.main(["resume", str(half / "population.ckpt"), "--trials", "20"]) == 2
    monkeypatch.undo()
    assert json.loads((half / runner.MANIFEST_NAME).read_text())["end_trial"] == 40
    assert cli.main(["resume", str(half / "population.ckpt"), "--trials", "20"]) == 0
    for name in ("metrics.csv", "population.ckpt"):
        assert (half / name).read_bytes() == (full / name).read_bytes(), name


def test_a_report_write_interrupted_midway_keeps_the_previous_report(small_run, dataset,
                                                                   tmp_path, monkeypatch):
    # the disk fills on the report's first write; the report of the earlier
    # pass into the same directory stays whole
    out = tmp_path / "rec"
    ckpt = small_run / "population.ckpt"
    runner.reconstruct(ckpt, dataset, count=4, out_dir=out, export_images=False)
    before = (out / "reconstruction.json").read_bytes()

    class FullDisk:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[:40])
            raise OSError("no space left on device")

    def open_report(path, *args, **kwargs):
        f = open(path, *args, **kwargs)
        return FullDisk(f) if "reconstruction.json" in str(path) else f

    monkeypatch.setattr(checkpoint, "open", open_report, raising=False)
    with pytest.raises(OSError, match="no space"):
        runner.reconstruct(ckpt, dataset, corruption="salt_pepper", count=4, out_dir=out,
                           export_images=False)
    monkeypatch.undo()
    assert (out / "reconstruction.json").read_bytes() == before


def test_a_metrics_row_without_an_integer_trial_exits_2(small_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    before = (run / "population.ckpt").read_bytes()
    with open(run / "metrics.csv", "a", encoding="utf-8") as f:
        f.write("forty,0.1\n")
    assert cli.main(["resume", str(run / "population.ckpt"), "--trials", "5"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'forty'" in err and "Traceback" not in err
    assert (run / "population.ckpt").read_bytes() == before


@pytest.fixture(scope="module")
def fault_runs(tmp_path_factory):
    """A 40-trial run, the unsplit runs that it resumes into, and their data."""
    d = tmp_path_factory.mktemp("faults")
    data = write_csv(d / "data.csv", np.random.default_rng(1).random((60, 6)))
    cfgs = {}
    for trials in (40, 60, 80):
        cfgs[trials] = write_config(d / f"{trials}.cfg", N=20, trials=trials,
                                    checkpoint_interval=10, seed=1, dataset=data,
                                    image_shape="2,3")
        assert cli.main(["run", cfgs[trials], "--outdir", str(d / f"run{trials}")]) == 0
    return d, data, cfgs


def test_resume_refuses_a_metrics_file_that_lost_rows(fault_runs, tmp_path, capsys):
    # rows 20 to 40 are gone, so no unsplit run gives the stream a resume
    # would append to
    run = tmp_path / "run"
    shutil.copytree(fault_runs[0] / "run40", run)
    lines = (run / "metrics.csv").read_bytes().splitlines(keepends=True)
    (run / "metrics.csv").write_bytes(b"".join(lines[:3]))
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert cli.main(["resume", str(run / "population.ckpt"), "--trials", "20"]) == 2
    err = capsys.readouterr().err
    assert "no row for trial 20" in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    # a row written twice is refused as well
    (run / "metrics.csv").write_bytes(b"".join(lines + lines[-1:]))
    assert cli.main(["resume", str(run / "population.ckpt"), "--trials", "20"]) == 2
    assert "one row too many (trial 40)" in capsys.readouterr().err


@pytest.fixture
def disk_log(tmp_path, monkeypatch):
    """The package's writing opens, ``os.fsync`` and ``os.replace`` calls,
    in order, with paths relative to ``tmp_path``."""
    log, fds = [], {}
    real_open, real_os_open, real_fsync, real_replace = open, os.open, os.fsync, os.replace

    def rel(path):
        return os.path.relpath(path, tmp_path)

    def logged_open(path, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            log.append(("open", rel(path), mode))
        return real_open(path, mode, *args, **kwargs)

    def logged_os_open(path, *args, **kwargs):
        fd = real_os_open(path, *args, **kwargs)
        fds[fd] = rel(path)
        return fd

    def logged_fsync(fd):
        log.append(("fsync", fds.get(fd)))
        real_fsync(fd)

    def logged_replace(src, dst):
        log.append(("replace", rel(src), rel(dst)))
        real_replace(src, dst)

    for module in (runner, checkpoint):
        monkeypatch.setattr(module, "open", logged_open, raising=False)
    monkeypatch.setattr(os, "open", logged_os_open)
    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged_replace)
    return log


def _replaced(name, mode):
    """What the one atomic writer logs for one file: the ``.tmp`` reaches
    the disk before the rename, and the rename after it."""
    tmp = name + ".tmp"
    return [("open", tmp, mode), ("fsync", tmp), ("replace", tmp, name),
            ("fsync", os.path.dirname(name))]


def test_every_write_reaches_the_disk_before_the_rename_that_publishes_it(
        tmp_path, disk_log):
    # a power cut cannot be made here, so this checks the order of the
    # calls that make each file durable
    data = write_csv(tmp_path / "data.csv", np.random.default_rng(1).random((60, 6)))
    cfg = write_config(tmp_path / "run.cfg", N=20, trials=40, checkpoint_interval=10,
                       seed=1, dataset=data, image_shape="2,3")
    manifest, metrics_csv, ckpt = "run/manifest.json", "run/metrics.csv", "run/population.ckpt"
    # the metrics rows reach the disk before the checkpoint that implies them
    advance = [("open", metrics_csv, "a"), ("fsync", metrics_csv),
               *_replaced(ckpt, "wb"), *_replaced(manifest, "w")]
    assert cli.main(["run", cfg, "--outdir", str(tmp_path / "run")]) == 0
    assert disk_log == [*_replaced(manifest, "w"), *_replaced(metrics_csv, "w"), *advance]
    # a resume after an interrupted one drops the row it flushed
    with open(tmp_path / metrics_csv, "a", encoding="utf-8") as f:
        f.write("50,0.1\n")
    disk_log.clear()
    assert cli.main(["resume", str(tmp_path / ckpt), "--trials", "20"]) == 0
    assert disk_log == [*_replaced(metrics_csv, "wb"), *advance]
    disk_log.clear()
    assert cli.main(["reconstruct", str(tmp_path / ckpt), data, "--count", "2",
                     "--outdir", str(tmp_path / "rec")]) == 0
    images = [f"rec/{kind}_{j:03d}.pgm" for j in range(2) for kind in ("orig", "corrupt", "recon")]
    assert disk_log == [entry for name in images for entry in _replaced(name, "wb")] + \
        _replaced("rec/reconstruction.json", "w")


# (command, the file whose write faults): every whole-file write of the
# package, under the commands that make it
FAULT_TARGETS = [("run", "manifest.json"), ("run", "population.ckpt"),
                 ("resume", "manifest.json"), ("resume", "population.ckpt"),
                 ("resume", "metrics.csv"), ("reconstruct", "reconstruction.json"),
                 ("reconstruct", "recon_000.pgm")]


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["OSError", "KeyboardInterrupt"])
@pytest.mark.parametrize("at", ["write", "rename"])
@pytest.mark.parametrize("command, target", FAULT_TARGETS,
                         ids=[f"{c}-{t}" for c, t in FAULT_TARGETS])
def test_a_fault_in_a_whole_file_write_leaves_the_file_and_no_tmp(
        command, target, at, exc, fault_runs, tmp_path, monkeypatch, capsys):
    d, data, cfgs = fault_runs
    run = tmp_path / "run"
    ckpt = run / "population.ckpt"
    if command == "run":
        args = ["run", cfgs[40], "--outdir", str(run)]
    else:
        shutil.copytree(d / "run40", run)
        args = ["resume", str(ckpt), "--trials", "20"]
    if command == "reconstruct":
        # the report and images of an earlier pass are the files to keep
        assert cli.main(["reconstruct", str(ckpt), data, "--count", "2",
                         "--outdir", str(run)]) == 0
        args = ["reconstruct", str(ckpt), data, "--noise", "0.5", "--count", "2",
                "--outdir", str(run)]
    if target == "metrics.csv":
        # an interrupted resume flushed the row for trial 50
        with open(run / target, "ab") as f:
            f.write((d / "run60" / target).read_bytes().splitlines(keepends=True)[6])
    path = run / target
    before = path.read_bytes() if path.exists() else None
    hit = []

    def faulty_open(name, mode="r", *a, _open=open, **kw):
        f = _open(name, mode, *a, **kw)
        if (at == "write" and not hit and set(mode) & set("wax+")
                and os.path.basename(name) in (target, target + ".tmp")):
            hit.append(name)
            return FailingWrites(f, 1, exc)
        return f

    def faulty_replace(src, dst, _replace=os.replace):
        if at == "rename" and os.path.basename(dst) == target:
            hit.append(dst)
            raise exc
        _replace(src, dst)

    for module in (runner, checkpoint):
        monkeypatch.setattr(module, "open", faulty_open, raising=False)
    monkeypatch.setattr(os, "replace", faulty_replace)
    if isinstance(exc, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            cli.main(args)
    else:
        assert cli.main(args) == 2
    monkeypatch.undo()
    assert hit, f"no {at} of {target} was reached"
    assert (path.read_bytes() if path.exists() else None) == before
    assert not list(run.glob("*.tmp"))
    # the next resume continues as the unsplit run, or has nothing to resume
    if not ckpt.exists():
        files = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert cli.main(["resume", str(ckpt), "--trials", "20"]) == 2
        assert "cannot read checkpoint" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == files
        return
    trial = checkpoint.load_population(ckpt)[0].trial
    assert cli.main(["resume", str(ckpt), "--trials", "20"]) == 0
    for name in ("metrics.csv", "population.ckpt"):
        assert (run / name).read_bytes() == (d / f"run{trial + 20}" / name).read_bytes(), name


def test_resume_past_the_int64_trial_limit_is_a_config_error(small_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    before = (run / "population.ckpt").read_bytes()
    assert cli.main(["resume", str(run / "population.ckpt"), "--trials",
                     str(2**63 - 40)]) == 1
    assert "trials must be below 2**63" in capsys.readouterr().err
    assert (run / "population.ckpt").read_bytes() == before


def test_resume_zero_trials_changes_nothing(tmp_path, dataset):
    out = tmp_path / "r0"
    assert run_cli("run", _config(tmp_path, dataset), "--outdir", str(out)).returncode == 0
    before_metrics = (out / "metrics.csv").read_bytes()
    before_ckpt = (out / "population.ckpt").read_bytes()
    proc = run_cli("resume", str(out / "population.ckpt"), "--trials", "0")
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").read_bytes() == before_metrics
    assert (out / "population.ckpt").read_bytes() == before_ckpt


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


def test_reconstruct_exports_one_image_per_channel(tmp_path, monkeypatch):
    path = write_csv(tmp_path / "rgb.csv", np.random.default_rng(8).random((40, 12)))
    cfg = ExperimentConfig(N=10, trials=20, checkpoint_interval=10, seed=3, dataset=path,
                           image_shape=(2, 2, 3))
    runner.run_experiment(cfg, tmp_path / "run")
    # the corrupted and reconstructed vectors the report was made from
    seen = {"corrupt": [], "recon": []}
    for key, module, name in (("corrupt", runner.data, "salt_pepper"),
                              ("recon", xcsf, "reconstruct_one")):
        def recording(*args, _inner=getattr(module, name), _out=seen[key]):
            _out.append(_inner(*args))
            return _out[-1]
        monkeypatch.setattr(module, name, recording)
    out = tmp_path / "rec"
    result = runner.reconstruct(tmp_path / "run" / runner.CHECKPOINT_NAME, path,
                                corruption="salt_pepper", count=2, out_dir=out)
    valid = runner.prepare_dataset(cfg).valid()
    seen["orig"] = [valid[image["row"]] for image in result.per_image]
    names = {f"{kind}_{j:03d}_c{c}.pgm" for kind in seen for j in range(2) for c in range(3)}
    assert {os.path.basename(f) for f in result.image_files} == names
    assert {f.name for f in out.glob("*.pgm")} == names
    for kind, vectors in seen.items():
        for j, vec in enumerate(vectors):
            for c in range(3):
                pgm = (out / f"{kind}_{j:03d}_c{c}.pgm").read_bytes()
                magic, size, depth, pixels = pgm.split(b"\n", 3)
                assert (magic, size, depth) == (b"P5", b"2 2", b"255")
                assert np.array_equal(np.frombuffer(pixels, np.uint8).reshape(2, 2),
                                      np.rint(255 * vec.reshape(2, 2, 3)[:, :, c]))


def test_reconstruct_without_image_shape_refuses_before_writing(tmp_path, dataset):
    out = tmp_path / "novec"
    cfg = _config(tmp_path, dataset, name="vec.cfg", trials=100)
    assert run_cli("run", cfg, "--outdir", str(out)).returncode == 0
    rec_out = tmp_path / "vec_rec"
    # image export and cutout both need an image shape, and neither writes
    # anything before it is refused
    for flags in ((), ("--cutout", "--no-images")):
        proc = run_cli("reconstruct", str(out / "population.ckpt"), dataset, *flags,
                       "--outdir", str(rec_out))
        assert proc.returncode == 2
        assert "requires a dataset with an image shape" in proc.stderr
        assert not rec_out.exists()

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
    # a manifest whose dataset path is not a string, which open() would take
    # for a file descriptor
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["dataset"]["path"] = 0
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["resume", ckpt, "--trials", "10"]) == 2
    assert "records no dataset path" in capsys.readouterr().err
    # a checkpoint without its run's manifest
    (out / "manifest.json").unlink()
    assert cli.main(["resume", ckpt, "--trials", "10"]) == 2
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize("first, then", [("numpy", "compiled"), ("compiled", "numpy")])
def test_resume_on_the_other_backend_matches_the_unsplit_run(first, then, tmp_path, dataset,
                                                             request, monkeypatch):
    # both backends give the same bits, so a run may change backend when it
    # resumes
    use_backend(first, request, monkeypatch)
    full, half = tmp_path / "full", tmp_path / "half"
    for out, trials in ((full, 40), (half, 20)):
        cfg = _config(tmp_path, dataset, name=f"{trials}.cfg", trials=trials,
                      checkpoint_interval=10)
        assert cli.main(["run", cfg, "--outdir", str(out)]) == 0
    use_backend(then, request, monkeypatch)
    assert cli.main(["resume", str(half / "population.ckpt"), "--trials", "20"]) == 0
    for name in ("metrics.csv", "population.ckpt"):
        assert (half / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("mode", ["xcsf", "global_ea"])
def test_both_backends_write_the_same_bytes(mode, tmp_path, request, monkeypatch):
    # 150 features: above 128, numpy's pairwise sum of each rule's squared
    # errors halves, and the compiled kernel must halve alike
    rows = np.random.default_rng(6).random((40, 150))
    cfg = _config(tmp_path, write_csv(tmp_path / "wide.csv", rows), mode=mode, N=20,
                  trials=300, checkpoint_interval=50)
    for backend in ("numpy", "compiled"):
        use_backend(backend, request, monkeypatch)
        assert cli.main(["run", cfg, "--outdir", str(tmp_path / backend)]) == 0
    for name in ("metrics.csv", "population.ckpt"):
        assert (tmp_path / "numpy" / name).read_bytes() == \
               (tmp_path / "compiled" / name).read_bytes(), name


def _dynamic_openblas_on_avx2():
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, which
    picks its kernels for the CPU at load time, on an x86-64 CPU with AVX2,
    which can run both the Haswell and the Prescott kernels."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    found = set(simd.get("baseline") or ()) | set(simd.get("found") or ())
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))
            and config.get("Machine Information", {}).get("host", {}).get("cpu") == "x86_64"
            and bool(found & {"AVX2", "X86_V3", "X86_V4"}))


# ``lcsae`` on the numpy twin, or on the compiled module at argv[1]
_CLI_ON_BACKEND = """
import importlib.util, sys
from lcsae import _kernels_py, cli, kernels
impl = _kernels_py
if sys.argv[1]:
    spec = importlib.util.spec_from_file_location("lcsae._kernels", sys.argv[1])
    impl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(impl)
for name in ("forward_batch", "predict_batch", "reinforce_batch"):
    setattr(kernels, name, getattr(impl, name))
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(not _dynamic_openblas_on_avx2(),
                    reason="needs a DYNAMIC_ARCH OpenBLAS on an x86-64 CPU with AVX2")
def test_outputs_do_not_depend_on_the_blas_kernels(tmp_path, request):
    # OPENBLAS_CORETYPE makes a DYNAMIC_ARCH OpenBLAS use one core type's
    # kernels, whose sums add in other orders; no output of a run or of a
    # reconstruction may depend on them, on either backend
    rng = np.random.default_rng(12)
    protos = rng.random((6, 64))
    rows = protos[rng.integers(0, 6, 120)] * rng.uniform(0.6, 1.0, (120, 1))
    rows = np.round(np.clip(rows + rng.normal(0.0, 0.05, rows.shape), 0.0, 1.0), 4)
    data = write_csv(tmp_path / "blobs.csv", rows)
    cfg = write_config(tmp_path / "run.cfg", dataset=data, N=50, trials=100,
                       checkpoint_interval=50, seed=3)
    names = ("metrics.csv", "population.ckpt", "reconstruction.json")
    backends = {"numpy": ""}
    if shutil.which("cc"):
        backends["compiled"] = str(request.getfixturevalue("build")[0])
    outputs = {}
    for backend, module in backends.items():
        for core in ("Haswell", "Prescott"):
            out = str(tmp_path / f"{backend}-{core}")
            env = dict(os.environ, OPENBLAS_CORETYPE=core)
            for argv in (["run", cfg, "--outdir", out],
                         ["reconstruct", os.path.join(out, "population.ckpt"), data,
                          "--noise", "0.1", "--count", "20", "--no-images", "--outdir", out]):
                proc = subprocess.run([sys.executable, "-c", _CLI_ON_BACKEND, module, *argv],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
            outputs[backend, core] = {name: open(os.path.join(out, name), "rb").read()
                                      for name in names}
    first = outputs["numpy", "Haswell"]
    for key, files in outputs.items():
        assert [name for name in names if files[name] != first[name]] == [], key


def test_resume_reaches_the_width_check(tmp_path, dataset, capsys):
    narrow = tmp_path / "w8"
    cfg = _config(tmp_path, dataset, name="w8.cfg", trials=20, checkpoint_interval=10)
    assert cli.main(["run", cfg, "--outdir", str(narrow)]) == 0
    wide_data = write_csv(tmp_path / "wide.csv", np.random.default_rng(4).random((40, 16)))
    cfg = _config(tmp_path, wide_data, name="w16.cfg", trials=20, checkpoint_interval=10)
    assert cli.main(["run", cfg, "--outdir", str(tmp_path / "w16")]) == 0
    # 16-wide rules pointed at the 8-wide dataset, next to that run's
    # manifest, so the dataset fingerprint matches
    pop, cfg, rng, window = checkpoint.load_population(tmp_path / "w16" / "population.ckpt")
    cfg.dataset = dataset
    checkpoint.save_population(narrow / "wide.ckpt", pop, cfg, rng, window)
    assert cli.main(["resume", str(narrow / "wide.ckpt"), "--trials", "5"]) == 2
    assert "8 features but the checkpoint's rules take 16" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("small")
    cfg = write_config(out / "small.cfg", **dict(BASE, dataset=dataset, N=30,
                                                 trials=40, checkpoint_interval=20))
    assert cli.main(["run", cfg, "--outdir", str(out / "run")]) == 0
    return out / "run"


def test_output_location_that_cannot_be_written_exits_2(small_run, dataset, tmp_path,
                                                        capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n")
    cfg = _config(tmp_path, dataset, trials=20, checkpoint_interval=10)
    # a directory below a file, and a file where a directory should be
    assert cli.main(["run", cfg, "--outdir", str(blocker / "sub")]) == 2
    assert cli.main(["reconstruct", str(small_run / "population.ckpt"), dataset,
                     "--no-images", "--outdir", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.count("data error") == 2 and str(blocker) in err
    assert blocker.read_text() == "not a directory\n"


def test_a_refused_checkpoint_exits_2_and_changes_nothing(small_run, dataset, tmp_path,
                                                          capsys):
    # tests/test_checkpoint.py's loader table holds a row per check; this is
    # the command line's side of one of them, refused on the last layer read
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    ckpt = run / "population.ckpt"
    pop, cfg, rng, window = checkpoint.load_population(ckpt)
    pop.members[0].prediction.layers[1].weights[2, 0] = float("nan")
    checkpoint.save_population(ckpt, pop, cfg, rng, window)
    files = {p.name: p.read_bytes() for p in run.iterdir()}
    assert cli.main(["resume", str(ckpt), "--trials", "5"]) == 2
    assert cli.main(["reconstruct", str(ckpt), dataset, "--no-images",
                     "--outdir", str(tmp_path / "rec")]) == 2
    err = capsys.readouterr().err
    assert err == "data error: prediction output layer weights are not all finite\n" * 2
    assert {p.name: p.read_bytes() for p in run.iterdir()} == files
    assert not (tmp_path / "rec").exists()


# ---------------------------------------------------------------------------
# arguments and config values that used to end in a traceback


_RECONSTRUCT = ["reconstruct", "{ckpt}", "{data}", "--outdir", "{rec}"]


@pytest.mark.parametrize("argv, message", [
    (_RECONSTRUCT + ["--count", "0"], "--count must be >= 1"),
    (_RECONSTRUCT + ["--count", "-3"], "--count must be >= 1"),
    (_RECONSTRUCT + ["--noise", "1.5"], "--noise must be in [0, 1]"),
    (_RECONSTRUCT + ["--noise", "nan"], "--noise must be in [0, 1]"),
    (["resume", "{ckpt}", "--trials", "-5"], "--trials must be >= 0"),
])
def test_out_of_range_arguments_are_usage_errors(
        argv, message, small_run, dataset, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    before = (run / "population.ckpt").read_bytes()
    for ckpt in (run / "population.ckpt", tmp_path / "missing.ckpt"):
        # refused before the checkpoint is read, so a missing one gives the
        # same usage error
        args = [a.format(ckpt=ckpt, data=dataset, rec=tmp_path / "rec") for a in argv]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {message}") and "Traceback" not in err
    assert (run / "population.ckpt").read_bytes() == before
    with pytest.raises(ValueError, match="count must be >= 1"):
        runner.reconstruct(run / "population.ckpt", dataset, count=0)


@pytest.fixture(scope="module")
def wide16(tmp_path_factory):
    return write_csv(tmp_path_factory.mktemp("wide16") / "wide.csv",
                     np.random.default_rng(8).random((40, 16)))


def test_image_shape_that_does_not_fit_the_data_exits_2(wide16, tmp_path, capsys):
    out = tmp_path / "out"
    idx = tmp_path / "wide.idx"
    idx.write_bytes(struct.pack(">IIII", 0x00000803, 40, 4, 4) + bytes(40 * 16))
    for data in (wide16, str(idx)):
        cfg = _config(tmp_path, data, image_shape="3,3")
        assert cli.main(["run", cfg, "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: image_shape [3, 3, 1] does not fit the "
                              "dataset's 16 features")
        assert not (out / "metrics.csv").exists()  # refused before training
    # a checkpoint that names an image shape its data does not fit
    cfg = _config(tmp_path, wide16, name="fits.cfg", image_shape="4,4", trials=20,
                  checkpoint_interval=10)
    assert cli.main(["run", cfg, "--outdir", str(out)]) == 0
    pop, cfg, rng, window = checkpoint.load_population(out / "population.ckpt")
    cfg.image_shape = (3, 3, 1)
    checkpoint.save_population(out / "population.ckpt", pop, cfg, rng, window)
    for extra in ([], ["--cutout"]):
        assert cli.main(["reconstruct", str(out / "population.ckpt"), wide16,
                         "--outdir", str(tmp_path / "rec"), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: image_shape") and "Traceback" not in err


@pytest.mark.parametrize("shape", [(10, 0, 5), (10, 5, 0), (0, 4, 4)])
def test_idx_data_with_a_zero_dimension_exits_2(shape, tmp_path, capsys):
    idx = tmp_path / "empty.idx"
    idx.write_bytes(struct.pack(">IIII", 0x00000803, *shape))
    cfg = _config(tmp_path, str(idx))
    assert cli.main(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "include a 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("keys", [dict(h_I=2**40), dict(h_I=2**40, h_max=2**40),
                                  dict(h_I=2**60)])
def test_a_network_too_large_for_memory_is_a_training_error(keys, dataset, tmp_path,
                                                            capsys):
    # numpy refuses the 2**40-row weight matrix before it allocates anything;
    # a 2**60-row one has more bytes than numpy can count, which it refuses
    # with a ValueError, so the layer raises MemoryError before asking
    cfg = _config(tmp_path, dataset, N=1, **keys)
    assert cli.main(["run", cfg, "--outdir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("training error: out of memory") and "Traceback" not in err


@pytest.fixture(scope="module")
def argv_run(tmp_path_factory, dataset):
    """A tiny run with images, whose directory each fuzzed command gets a
    fresh copy of."""
    out = tmp_path_factory.mktemp("argv")
    cfg = write_config(out / "argv.cfg", **dict(BASE, dataset=dataset, N=10, trials=20,
                                                checkpoint_interval=10,
                                                image_shape="2,4"))
    assert cli.main(["run", cfg, "--outdir", str(out / "run")]) == 0
    return out


_JUNK = st.sampled_from(["", "x", "1.5", "1e400"])
_COUNTS = st.one_of(st.integers(-3, 30).map(str), st.just("99999999999999999999"), _JUNK)
_FRACTIONS = st.one_of(st.floats(0, 1).map(repr), st.floats().map(repr), _JUNK)
# few trials, so that a resume that runs stays quick
_TRIALS = st.one_of(st.integers(-2, 3).map(str), _JUNK)
_FLAGS = (("--count", _COUNTS), ("--noise", _FRACTIONS), ("--trials", _TRIALS),
          ("--cutout", None), ("--no-images", None), ("--bogus", None))
# how often, in sixteenths, each command gets each of its own options; any
# other option comes once in sixteen
_OWN_FLAGS = {"reconstruct": {"--count": 8, "--noise": 6, "--cutout": 4, "--no-images": 8},
              "resume": {"--trials": 14}}


@st.composite
def _cli_argv(draw, run, dataset):
    """``reconstruct`` or ``resume`` with arguments dropped, added or bent."""
    command = draw(st.sampled_from(["reconstruct", "resume"]))
    ckpt = str(run / "population.ckpt")
    positional = [ckpt, dataset] if command == "reconstruct" else [ckpt]
    # a missing or an extra argument now and then
    if draw(st.integers(0, 3)) == 0:
        positional = positional[:draw(st.integers(0, len(positional) - 1))]
    if draw(st.integers(0, 3)) == 0:
        positional.append(draw(st.sampled_from([ckpt, dataset, "extra"])))
    options = []
    for flag, values in _FLAGS:
        if draw(st.integers(0, 15)) < _OWN_FLAGS[command].get(flag, 1):
            options += [flag] if values is None else [flag, draw(values)]
    if command == "reconstruct":
        options += ["--outdir", str(run / "rec")]
    return [command, *positional, *options]


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reconstruct_and_resume_argument_vectors_fail_closed(argv_run, dataset,
                                                             capsys, data):
    run = argv_run / "example"
    shutil.rmtree(run, ignore_errors=True)
    shutil.copytree(argv_run / "run", run)
    code = cli.main(data.draw(_cli_argv(run, dataset), label="argv"))
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3) and "Traceback" not in err


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    return write_csv(tmp_path_factory.mktemp("tiny") / "tiny.csv",
                     np.random.default_rng(12).random((30, 6)))


# values every fuzzed key refuses, and values of any kind
_REFUSED = st.sampled_from(["-1", "nan", "inf", "1e308", "text", ""])
# integers at and beyond the int64 range of numpy shapes and checkpoint columns
_HUGE = st.one_of(st.sampled_from([str(2**63), "99999999999999999999"]),
                  st.integers(2**63, 2**80).map(str))
_WILD = st.one_of(
    _REFUSED,
    st.sampled_from(["0", "-0.01", "-inf", "-1e308", "1e-320", "true", "none"]),
    _HUGE,
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str))
# values at and around the legal range, by key and else by field type
_NEAR = {
    "float": st.one_of(st.floats(0.0, 1.0, exclude_min=True).map(repr),
                       st.floats(1.0, 300.0).map(repr),
                       st.sampled_from(["0", "1", "1e-320", "1e-300", "1e300"])),
    "int": st.one_of(st.integers(0, 50).map(str), st.just(str(2**63 - 1)), _HUGE),
    "bool": st.sampled_from(["true", "false"]),
    "mode": st.sampled_from(["xcsf", "global_ea", "banana"]),
    "image_shape": st.sampled_from(["2,3", "3,2,1", "4,4", "0,6", "-2,-3", "none"]),
}
# keys whose legal values only cost time (N, trials, the hidden sizes,
# lambda, and a match_threshold near 1, which makes covering sample up to
# 10**6 nets) get small legal ranges and otherwise refused values
_COSTLY = {"N": st.integers(0, 30), "trials": st.integers(0, 30),
           "h_I": st.integers(0, 4), "h_M": st.integers(0, 4), "h_max": st.integers(0, 6),
           "lambda": st.integers(0, 4)}
_KEY_VALUES = {}  # config key -> (near values, wild values)
for _f in fields(ExperimentConfig):
    _key = "lambda" if _f.name == "lam" else _f.name
    if _key in _COSTLY:
        _KEY_VALUES[_key] = (_COSTLY[_key].map(str), st.one_of(_REFUSED, _HUGE))
    elif _key != "dataset":
        _KEY_VALUES[_key] = (_NEAR.get(_key, _NEAR.get(_f.type)), _WILD)
_KEY_VALUES["match_threshold"] = (st.floats(0.0, 0.9).map(repr), _REFUSED)


@settings(derandomize=True, database=None, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_config_values_fail_closed(tiny_csv, tmp_path, capsys, data):
    keys = dict(N=10, trials=20, checkpoint_interval=5, seed=3, dataset=tiny_csv)
    for key in data.draw(st.sets(st.sampled_from(sorted(_KEY_VALUES)), max_size=5),
                         label="keys"):
        near, wild = _KEY_VALUES[key]
        keys[key] = data.draw(wild if data.draw(st.integers(0, 3)) == 0 else near, label=key)
    out = tmp_path / "fuzz"
    shutil.rmtree(out, ignore_errors=True)
    code = cli.main(["run", write_config(tmp_path / "fuzz.cfg", **keys),
                     "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if code == 0:
        valid_rows = json.loads((out / runner.MANIFEST_NAME).read_text())["valid_rows"]
        for row in metrics.read_metrics(out / runner.METRICS_NAME):
            if row.trial > 0:
                assert np.isfinite(row.train_mse), row
                assert np.isfinite(row.valid_mse) or valid_rows == 0, row


# a legal value other than the default for every config key, as the config
# file spells it and as manifest.json records it; the dataset is an IDX
# container, in the working directory, whose name says nothing of its format
_KEY_EXAMPLES = {
    "N": ("12", 12), "P_init": ("false", False), "epsilon0": ("0.02", 0.02),
    "beta": ("0.2", 0.2), "alpha": ("0.5", 0.5), "nu": ("5", 5.0), "delta": ("0.2", 0.2),
    "theta_del": ("10", 10), "F_I": ("0.02", 0.02), "epsilon_I": ("0.1", 0.1),
    "F_R": ("0.2", 0.2), "epsilon_R": ("0.5", 0.5), "theta_EA": ("10", 10),
    "lambda": ("4", 4), "mu_min": ("0.001", 0.001), "omega": ("0.8", 0.8),
    "h_I": ("2", 2), "h_M": ("3", 3), "h_max": ("4", 4),
    "connection_mutation": ("true", True), "mode": ("global_ea", "global_ea"),
    "stale_limit": ("5", 5), "match_threshold": ("0.3", 0.3), "seed": ("7", 7),
    "trials": ("25", 25), "checkpoint_interval": ("10", 10),
    "dataset": ("images.bin", "images.bin"), "has_label_column": ("true", True),
    "split_ratio": ("0.8", 0.8), "image_shape": ("2,3", [2, 3, 1]),
}


def test_every_config_key_works_end_to_end(tiny_csv, tmp_path, monkeypatch, capsys):
    defaults = config_to_dict(ExperimentConfig())
    assert set(_KEY_EXAMPLES) == set(defaults)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "images.bin").write_bytes(
        struct.pack(">IIII", 0x00000803, 30, 2, 3)
        + np.random.default_rng(13).integers(0, 256, 180, np.uint8).tobytes())
    for key, (text, recorded) in _KEY_EXAMPLES.items():
        assert recorded != defaults[key], key
        keys = dict(N=10, trials=20, checkpoint_interval=5, seed=3, dataset=tiny_csv)
        keys[key] = text
        out = tmp_path / key
        assert cli.main(["run", write_config(tmp_path / f"{key}.cfg", **keys),
                         "--outdir", str(out)]) == 0, capsys.readouterr().err
        config = json.loads((out / runner.MANIFEST_NAME).read_text())["config"]
        assert config[key] == recorded, key
