import builtins
import dataclasses
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (FailingWrites, assert_network_layout, make_classifier,
                      make_population, spare_rules, split_checkpoint, write_csv)
from lcsae import checkpoint, cli, kernels, neural, runner, xcsf
from lcsae.checkpoint import (CheckpointError, load_population,
                              population_from_bytes, population_to_bytes,
                              save_population)
from lcsae.config import ExperimentConfig, derived_rng


def _assert_layers_bit_equal(a, b):
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.mom_w, b.mom_w)
    assert np.array_equal(a.mom_b, b.mom_b)
    assert a.eta == b.eta


def test_trained_masked_rule_round_trips_bit_exact():
    rng = np.random.default_rng(0)
    cl = make_classifier(n=5, h=3, seed=0)
    net = cl.prediction
    kernels.reinforce_batch([cl.pred_args], rng.random(5), 0.9, np.empty(5),
                            *spare_rules(1))
    # a masked connection has zero weight and zero momentum, as in the learner
    net.layers[0].mask[0, 2] = 0
    net.layers[0].weights[0, 2] = net.layers[0].mom_w[0, 2] = 0.0
    pop = make_population([cl], trial=1)
    blob = population_to_bytes(pop, ExperimentConfig(), rng)
    again = population_from_bytes(blob)[0].members[0].prediction
    for a, b in zip(net.layers, again.layers):
        _assert_layers_bit_equal(a, b)
    assert np.any(net.layers[0].mom_w != 0.0)  # the momentum survived too
    x = rng.random(5)
    assert np.array_equal(neural.forward(net, x), neural.forward(again, x))
    # serialization is deterministic
    again_pop = population_from_bytes(blob)[0]
    assert population_to_bytes(again_pop, ExperimentConfig(), rng) == \
        population_to_bytes(pop, ExperimentConfig(), rng)


def _sample_population(seed=2, n=6, members=5):
    rng = np.random.default_rng(seed)
    k = np.arange(members)
    pop = make_population([make_classifier(n=n, seed=seed + i) for i in range(members)],
                          trial=123, err=0.1 * k, fit=0.01 + 0.1 * k, exp=k, set_size=1.0 + k,
                          ts=k, born=0, mtotal=k)
    return pop, rng


def test_population_round_trip_restores_everything():
    pop, rng = _sample_population()
    cfg = ExperimentConfig(N=40, seed=9, dataset="x.csv", h_max=6)
    window = {"mse_sum": 1.5, "m_sum": 20.0, "count": 3}
    blob = population_to_bytes(pop, cfg, rng, window)
    pop2, cfg2, rng2, window2 = population_from_bytes(blob)

    # the run's manifest, not the checkpoint, names the data
    assert cfg2 == dataclasses.replace(cfg, dataset="")
    assert window2 == window
    assert pop2.trial == pop.trial
    assert len(pop2.members) == len(pop.members)
    for name in xcsf.SCALARS:
        col, col2 = getattr(pop.state, name), getattr(pop2.state, name)
        assert col2.dtype == col.dtype and col2.tolist() == col.tolist(), name
    for a, b in zip(pop.members, pop2.members):
        for la, lb in zip(a.prediction.layers + a.condition.layers,
                          b.prediction.layers + b.condition.layers):
            _assert_layers_bit_equal(la, lb)
    # restored generator continues the exact stream
    assert np.array_equal(rng.random(8), rng2.random(8))


def test_population_serialization_is_deterministic():
    pop, _ = _sample_population()
    cfg = ExperimentConfig()
    blob1 = population_to_bytes(pop, cfg, derived_rng(3, 1))
    blob2 = population_to_bytes(pop, cfg, derived_rng(3, 1))
    assert blob1 == blob2


def test_save_and_load_population_file(tmp_path):
    pop, rng = _sample_population()
    cfg = ExperimentConfig()
    window = {"mse_sum": 1.5, "m_sum": 20.0, "count": 3}
    path = tmp_path / "pop.ckpt"
    save_population(path, pop, cfg, rng, window)
    assert path.read_bytes() == population_to_bytes(pop, cfg, rng, window)
    pop2, cfg2, rng2, window2 = load_population(path)
    assert cfg2 == cfg
    assert pop2.trial == pop.trial
    # what a load reads, a save writes back byte for byte
    save_population(tmp_path / "again.ckpt", pop2, cfg2, rng2, window2)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_loaded_layers_own_their_memory():
    pop, rng = _sample_population()
    blob = population_to_bytes(pop, ExperimentConfig(), rng)
    again = population_from_bytes(blob)[0]
    loaded = []
    for cl in again.members:
        # the layout the learner's own layers have
        assert_network_layout(cl.condition, 6, 1)
        assert_network_layout(cl.prediction, 6, 6)
        for layer in cl.condition.layers + cl.prediction.layers:
            for arr in (layer.weights, layer.biases, layer.mask, layer.mu,
                        layer.mom_w, layer.mom_b):
                # a copy of its own slice (reshaped), never a view of a column
                owner = arr if arr.base is None else arr.base
                assert owner.flags.owndata and owner.size == arr.size
                assert arr.flags.writeable
                loaded.append(arr)
    # no array reads the checkpoint's bytes or another array's memory
    payload = np.frombuffer(blob, np.uint8)
    loaded += [getattr(again.state, name) for name in xcsf.SCALARS]
    for i, arr in enumerate(loaded):
        assert not np.may_share_memory(arr, payload)
        assert not any(np.may_share_memory(arr, other) for other in loaded[i + 1:])


@pytest.fixture(scope="module")
def run_checkpoint(tmp_path_factory):
    """The checkpoint of a small run: N=30 rules of 8 inputs at trial 40 of
    40, with an empty metrics window."""
    d = tmp_path_factory.mktemp("run")
    data = write_csv(d / "data.csv", np.random.default_rng(5).random((60, 8)))
    cfg = ExperimentConfig(N=30, theta_EA=25, h_M=2, trials=40, checkpoint_interval=20,
                           seed=11, dataset=data)
    runner.run_experiment(cfg, d / "run")
    return (d / "run" / "population.ckpt").read_bytes()


def _blob(change):
    """Replace the file's bytes with ``change(bytes)``."""
    def corrupt(path):
        path.write_bytes(change(path.read_bytes()))
    return corrupt


def _header(change):
    """Replace the header with ``change(header)``, keeping the payload."""
    return _blob(lambda b: checkpoint._pack(change(split_checkpoint(b)[0]),
                                            split_checkpoint(b)[1]))


def _header_key(*keys, value):
    """Set the header's entry at the path ``keys`` to ``value``."""
    def change(header):
        part = header
        for key in keys[:-1]:
            part = part[key]
        part[keys[-1]] = value
        return header
    return _header(change)


def _without(key):
    return _header(lambda header: {k: v for k, v in header.items() if k != key})


def _hidden_size(value, net=0):
    """Rule 0's condition (``net`` 0) or prediction (1) hidden size."""
    def change(blob):
        header, payload = split_checkpoint(blob)
        at = len(blob) - len(payload) + 8 * (len(xcsf.SCALARS) * header["rules"] + net)
        return blob[:at] + struct.pack("<q", value) + blob[at + 8:]
    return _blob(change)


def _saved(change):
    """Apply ``change`` to the loaded population and save it again;
    ``save_population`` does not validate."""
    def corrupt(path):
        pop, cfg, rng, window = load_population(path)
        change(pop)
        save_population(path, pop, cfg, rng, window)
    return corrupt


def _rules(rows, **values):
    """Set the scalars of the rules at ``rows`` to ``values``."""
    def change(pop):
        for name, value in values.items():
            getattr(pop.state, name)[rows] = value
    return _saved(change)


@_saved
def _a_rule_of_7_inputs(pop):
    # the header takes its width from the first rule
    pop.members[-1] = make_classifier(n=7, seed=40)


def _layer(net, k, field, value, index=None):
    """Set ``field`` of layer ``k`` of rule 0's ``net``, or its entry at
    ``index``, to ``value``."""
    def change(pop):
        layer = getattr(pop.members[0], net).layers[k]
        if index is None:
            setattr(layer, field, value)
        else:
            getattr(layer, field)[index] = value
    return _saved(change)


def _masked(net, k, field, value):
    """Mask off the first connection of layer ``k`` of rule 0's ``net``,
    with ``value`` left in its weight or momentum."""
    def change(pop):
        layer = getattr(pop.members[0], net).layers[k]
        layer.mask[0, 0] = 0
        layer.weights[0, 0] = layer.mom_w[0, 0] = 0.0
        getattr(layer, field)[0, 0] = value
    return _saved(change)


ACCEPTED = None
SIZES = "the rules' hidden sizes and 8 inputs need"

# Every check of the checkpoint loader, as rows of (id, a corruption of
# the small run's checkpoint file, a part of the CheckpointError message or
# ACCEPTED): one row past each bound, and one exactly on each closed bound.
# An accepted checkpoint saves back to the same bytes.  The stream-fault
# tests below cover the short reads of _read and _column, which a file
# whose size the loader checked first never gives.
LOADER_ROWS = [
    ("as-written", lambda path: None, ACCEPTED),
    ("missing", lambda path: path.unlink(), "cannot read checkpoint"),
    # the file and its header
    ("15-bytes", _blob(lambda b: b[:15]), "file too short"),
    ("16-bytes", _blob(lambda b: b[:16]), "truncated header"),
    ("bad-magic", _blob(lambda b: b"XXXXXXXX" + b[8:]), "bad magic b'XXXXXXXX'"),
    ("header-length-2**62", _blob(lambda b: b[:8] + struct.pack("<Q", 2**62) + b[16:]),
     "truncated header"),
    ("cut-in-the-header", _blob(lambda b: b[:40]), "truncated header"),
    ("header-only", _blob(lambda b: b[:len(b) - len(split_checkpoint(b)[1])]),
     "payload is 0 bytes, the scalars, hidden sizes and rates of 30 rules need"),
    # a header that ends the file, with a payload that holds all of no rules
    ("no-rules", _blob(lambda b: checkpoint._pack(
        {**split_checkpoint(b)[0], "rules": 0, "inputs": 0}, b"")), ACCEPTED),
    ("header-not-utf8", _blob(lambda b: b[:16] + b"\xff" + b[17:]),
     "corrupt header: 'utf-8' codec can't decode byte 0xff"),
    ("header-not-json", _blob(lambda b: b[:16] + b"[" + b[17:]),
     "corrupt header: Expecting"),
    ("header-a-list", _header(lambda header: [1, 2]), "corrupt header: not a JSON object"),
    ("version-1", _header(lambda header: {"version": 1, "classifiers": [], "arrays": []}),
     "unsupported version 1"),
    # the layout that held a numerosity column per rule
    ("version-2", _header_key("version", value=2), "unsupported version 2"),
    # the header's fields
    ("rules-missing", _without("rules"), "malformed checkpoint: KeyError('rules')"),
    ("inputs-missing", _without("inputs"), "malformed checkpoint: KeyError('inputs')"),
    ("rng-PCG65", _header_key("rng", "bit_generator", value="PCG65"),
     "malformed checkpoint: ValueError"),
    ("config-a-list", _header_key("config", value=[1, 2]), "malformed checkpoint"),
    ("trial-negative", _header_key("trial", value=-5), "trial -5 is not an integer >= 0"),
    ("trial-float", _header_key("trial", value=40.0), "trial 40.0 is not an integer >= 0"),
    ("rules-negative", _header_key("rules", value=-1), "rules -1 is not an integer >= 0"),
    ("rules-float", _header_key("rules", value=30.0), "rules 30.0 is not an integer >= 0"),
    ("rules-bool", _header_key("rules", value=True), "rules True is not an integer >= 0"),
    ("inputs-text", _header_key("inputs", value="8"), "inputs '8' is not an integer >= 0"),
    ("inputs-negative", _header_key("inputs", value=-8), "inputs -8 is not an integer >= 0"),
    ("config-N-0", _header_key("config", "N", value=0), "checkpoint config: N must be >= 1"),
    ("config-mode", _header_key("config", "mode", value="nope"),
     "checkpoint config: mode must be 'xcsf' or 'global_ea'"),
    # keys of checkpoints written while the config still had them
    ("config-names-chi", _header_key("config", "chi", value=0.0),
     "checkpoint config: unknown config key 'chi'"),
    ("config-names-dataset_format", _header_key("config", "dataset_format", value=""),
     "checkpoint config: unknown config key 'dataset_format'"),
    ("config-seed-float", _header_key("config", "seed", value=1.5),
     "checkpoint config: seed 1.5 is not of type int"),
    ("config-P_init-text", _header_key("config", "P_init", value="yes"),
     "checkpoint config: P_init 'yes' is not of type bool"),
    # the partial metrics window
    ("window-empty", _header_key("window", value={}),
     "metrics window {} does not have exactly the keys ['count', 'm_sum', 'mse_sum']"),
    ("window-a-list", _header_key("window", value=[1, 2]), "metrics window [1, 2] does not"),
    ("window-a-number", _header_key("window", value=5), "metrics window 5 does not"),
    ("window-extra-key", _header_key("window", "extra", value=0), "does not have exactly"),
    ("window-mse_sum-text", _header_key("window", "mse_sum", value="x"),
     "metrics window mse_sum 'x' is not a finite number"),
    ("window-mse_sum-bool", _header_key("window", "mse_sum", value=True),
     "metrics window mse_sum True is not a finite number"),
    ("window-m_sum-inf", _header_key("window", "m_sum", value=float("inf")),
     "metrics window m_sum inf is not a finite number"),
    ("window-count-negative", _header_key("window", "count", value=-1),
     "metrics window count -1 is not an integer >= 0"),
    ("window-count-float", _header_key("window", "count", value=1.5),
     "metrics window count 1.5 is not an integer >= 0"),
    ("window-partial", _header_key("window", value={"mse_sum": 1.5, "m_sum": 20, "count": 3}),
     ACCEPTED),
    # the payload's size
    ("rules-a-million", _header_key("rules", value=10**6), "and rates of 1000000 rules need"),
    ("payload-9-bytes-short", _blob(lambda b: b[:-9]), SIZES),
    ("payload-8-bytes-long", _blob(lambda b: b + bytes(8)), SIZES),
    ("half-the-file", _blob(lambda b: b[:len(b) // 2]), "payload is"),
    ("inputs-16", _header_key("inputs", value=16), "hidden sizes and 16 inputs need"),
    ("a-rule-of-7-inputs", _a_rule_of_7_inputs, SIZES),
    ("three-output-biases", _layer("prediction", 1, "biases", np.zeros(3)), SIZES),
    ("three-rates", _layer("prediction", 1, "mu", np.full(3, 0.5)), SIZES),
    # far beyond any memory: only the payload's size is compared
    ("hidden-size-2**62", _hidden_size(2**62), SIZES),
    # the rules' scalars, hidden sizes and rates
    ("trial-after-trials", _header_key("trial", value=41),
     "trial 41 is not <= the config's trials 40"),
    # resumed, a trial of 2**63 - 1 ended in an OverflowError traceback,
    # and an exp of 2**63 - 1 overflowed in the compiled kernel
    ("trial-2**63-1", _header_key("trial", value=2**63 - 1),
     "trial 9223372036854775807 is not <= the config's trials 40"),
    ("more-rules-than-N", _header_key("config", "N", value=29), "30 rules are more than N=29"),
    *((f"{name}-{label}", _rules(0, **{name: v}), f"rule 0 {name} {v} is not in [0, trial=40]")
      for name in ("exp", "mtotal", "ts", "born")
      for label, v in (("negative", -1), ("after-trial", 41))),
    ("exp-2**63-1-everywhere", _rules(slice(None), exp=2**63 - 1),
     "rule 0 exp 9223372036854775807 is not in [0, trial=40]"),
    ("counters-at-the-trial", _rules(0, exp=40, mtotal=40, ts=40, born=40), ACCEPTED),
    ("err-negative", _rules(0, err=-0.5), "rule 0 err -0.5 is not finite and >= 0"),
    ("err-inf", _rules(0, err=float("inf")), "rule 0 err inf is not finite and >= 0"),
    ("err-0", _rules(0, err=0.0), ACCEPTED),
    ("fit-nan", _rules(0, fit=float("nan")), "rule 0 fit nan is not finite, > 0"),
    ("fit-inf", _rules(0, fit=float("inf")), "rule 0 fit inf is not finite, > 0"),
    ("fit-negative", _rules(0, fit=-1.0), "rule 0 fit -1.0 is not finite, > 0"),
    # unreinforced rules, so that the floor does not apply
    ("fit-0-everywhere", _rules(slice(None), exp=0, fit=0.0),
     "rule 0 fit 0.0 is not finite, > 0"),
    # a row that only these rules match has a fitness-weighted mean of
    # 0 / 0, and the run used to resume with a NaN train_mse
    ("fit-0-on-all-rules-but-one", _rules(slice(-1), exp=0, fit=0.0),
     "rule 0 fit 0.0 is not finite, > 0"),
    ("fit-below-the-floor-once-reinforced", _rules(0, exp=1, fit=xcsf._F_FLOOR / 2),
     f"rule 0 fit {xcsf._F_FLOOR / 2!r} is not finite, > 0 and >= {xcsf._F_FLOOR} once exp >= 1"),
    ("fit-at-the-floor-once-reinforced", _rules(0, exp=1, fit=xcsf._F_FLOOR), ACCEPTED),
    ("fit-below-the-floor-unreinforced", _rules(0, exp=0, fit=xcsf._F_FLOOR / 2), ACCEPTED),
    ("set_size-0", _rules(0, set_size=0.0), "rule 0 set_size 0.0 is not finite and > 0"),
    ("set_size-inf", _rules(0, set_size=float("inf")),
     "rule 0 set_size inf is not finite and > 0"),
    ("condition-hidden-size-0", _hidden_size(0), "rule 0 hidden sizes [0, "),
    ("prediction-hidden-size-0", _hidden_size(0, net=1), ", 0] is not >= 1"),
    ("eta-nan", _layer("condition", 0, "eta", float("nan")), "rule 0 eta [nan, "),
    ("eta-1e6", _layer("condition", 1, "eta", 1e6), "rule 0 eta"),
    ("eta-0", _layer("prediction", 1, "eta", 0.0), "rule 0 eta"),
    ("eta-at-ETA_MIN", _layer("prediction", 1, "eta", neural.ETA_MIN), ACCEPTED),
    ("eta-at-ETA_MAX", _layer("condition", 0, "eta", neural.ETA_MAX), ACCEPTED),
    # the layers: unchecked, a NaN would resume with exit 0 and append NaN
    # errors to metrics.csv
    ("nan-weight", _layer("prediction", 1, "weights", float("nan"), (2, 0)),
     "prediction output layer weights are not all finite"),
    ("inf-bias", _layer("condition", 0, "biases", float("inf"), 0),
     "condition hidden layer biases are not all finite"),
    ("nan-mom_w", _layer("condition", 1, "mom_w", float("nan"), (0, 0)),
     "condition output layer mom_w are not all finite"),
    ("nan-mom_b", _layer("prediction", 0, "mom_b", float("nan"), 0),
     "prediction hidden layer mom_b are not all finite"),
    ("mu-above-1", _layer("prediction", 0, "mu", 1.5, 1),
     "prediction hidden layer mutation rates are not all in [0.0001, 1]"),
    ("mu-below-mu_min", _layer("condition", 1, "mu", 0.0, 0),
     "condition output layer mutation rates are not all in [0.0001, 1]"),
    ("mu-at-mu_min", _layer("condition", 1, "mu", 1e-4, 0), ACCEPTED),
    ("mu-at-1", _layer("prediction", 0, "mu", 1.0, 1), ACCEPTED),
    ("masks-of-value-2", _layer("prediction", 0, "mask", 2, slice(None)),
     "prediction hidden layer mask holds a value other than 0 and 1"),
    ("weight-on-a-masked-connection", _masked("prediction", 1, "weights", 0.25),
     "prediction output layer has a nonzero weight or momentum on a masked connection"),
    ("momentum-on-a-masked-connection", _masked("condition", 0, "mom_w", 0.25),
     "condition hidden layer has a nonzero weight or momentum on a masked connection"),
    ("a-masked-connection", _masked("condition", 0, "weights", 0.0), ACCEPTED),
]


@pytest.mark.parametrize("row", range(len(LOADER_ROWS)), ids=[row[0] for row in LOADER_ROWS])
def test_checkpoint_loader_table(row, run_checkpoint, tmp_path):
    _, corrupt, message = LOADER_ROWS[row]
    path = tmp_path / "population.ckpt"
    path.write_bytes(run_checkpoint)
    corrupt(path)
    if message is ACCEPTED:
        assert population_to_bytes(*load_population(path)) == path.read_bytes()
        return
    with pytest.raises(CheckpointError) as refused:
        load_population(path)
    assert message in str(refused.value)


def _traced(call):
    """``call()``'s result, the peak of traced memory during it and the
    memory still traced once it returns, both above what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, current - base


@pytest.mark.parametrize("corrupt", ["header length", "rules"])
def test_a_corrupt_length_is_refused_before_it_is_allocated(corrupt):
    pop, rng = _sample_population()
    blob = population_to_bytes(pop, ExperimentConfig(), rng)
    if corrupt == "header length":
        at = len(checkpoint.POPULATION_MAGIC)
        bad, match = blob[:at] + struct.pack("<Q", 2**62) + blob[at + 8:], "truncated header"
    else:
        header, payload = split_checkpoint(blob)
        bad, match = checkpoint._pack({**header, "rules": 2**50}, payload), "payload is"

    def load():
        with pytest.raises(CheckpointError, match=match):
            population_from_bytes(bad)

    _, peak, _ = _traced(load)
    assert peak < 2**20


class _FaultyStream(io.BytesIO):
    """A checkpoint whose reads stop at byte ``at``, as a file cut or failing
    under its reader: ``seek`` still finds its whole length, and a read past
    ``at`` comes back short, or raises OSError if ``error``."""

    def __init__(self, data, at, error):
        super().__init__(data)
        self.at, self.error = at, error

    def _allowed(self, n):
        left = max(self.at - self.tell(), 0)
        if n > left and self.error:
            raise OSError(5, "Input/output error")
        return min(n, left)

    def read(self, n):
        return super().read(self._allowed(n))

    def readinto(self, b):
        view = memoryview(b).cast("B")
        return super().readinto(view[:self._allowed(len(view))])


@pytest.mark.parametrize("error", [False, True], ids=["short read", "read error"])
def test_a_short_or_failing_read_never_builds_rules(monkeypatch, error):
    pop, rng = _sample_population()
    blob = population_to_bytes(pop, ExperimentConfig(), rng)
    cut = len(blob) - len(split_checkpoint(blob)[1])
    message = "cannot read checkpoint" if error else "checkpoint ended"
    # before, inside and at the end of the header, then through every column
    for at in [0, 12, cut - 1, cut, *range(cut + 1, len(blob), 29), len(blob) - 1, len(blob)]:
        monkeypatch.setattr(checkpoint, "open", lambda path, mode: _FaultyStream(blob, at, error),
                            raising=False)
        if at == len(blob):
            assert load_population("pop.ckpt")[0].trial == pop.trial
            continue
        with pytest.raises(CheckpointError, match=message):
            load_population("pop.ckpt")


def test_a_read_error_exits_2_without_a_traceback(fuzz_run, monkeypatch, capsys):
    d, dataset, blob = fuzz_run
    (d / "pop.ckpt").write_bytes(blob)
    cut = len(blob) - len(split_checkpoint(blob)[1])
    monkeypatch.setattr(checkpoint, "open", lambda path, mode: _FaultyStream(blob, cut + 40, True),
                        raising=False)
    code = cli.main(["reconstruct", str(d / "pop.ckpt"), dataset, "--no-images",
                     "--count", "3", "--outdir", str(d / "faulty")])
    err = capsys.readouterr().err
    assert code == 2 and "cannot read checkpoint" in err and "Traceback" not in err


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["OSError", "KeyboardInterrupt"])
def test_a_save_that_fails_midway_leaves_the_old_checkpoint(tmp_path, monkeypatch, exc):
    pop, rng = _sample_population()
    cfg = ExperimentConfig()
    path = tmp_path / "population.ckpt"
    save_population(path, pop, cfg, rng)
    old = path.read_bytes()
    pop.trial += 1
    opened = []

    def failing_open(name, mode, fail_at):
        opened.append(FailingWrites(builtins.open(name, mode), fail_at, exc))
        return opened[-1]

    monkeypatch.setattr(checkpoint, "open", lambda name, mode: failing_open(name, mode, 0),
                        raising=False)
    save_population(path, pop, cfg, rng)
    writes = opened[-1].writes
    assert path.read_bytes() == population_to_bytes(pop, cfg, rng) != old
    path.write_bytes(old)
    for fail_at in sorted({1, 2, writes // 2, writes}):
        monkeypatch.setattr(checkpoint, "open",
                            lambda name, mode: failing_open(name, mode, fail_at), raising=False)
        with pytest.raises(type(exc)):
            save_population(path, pop, cfg, rng)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_bytes() == old


def _big_population():
    """A population whose checkpoint is about 2 MB."""
    pop = make_population([make_classifier(n=64, h=10, seed=i) for i in range(60)], trial=5)
    return pop, np.random.default_rng(1)


def test_save_holds_no_copy_of_the_checkpoint(tmp_path):
    pop, rng = _big_population()
    path = tmp_path / "pop.ckpt"
    # the first save fills caches (numpy's, json's) that it keeps
    save_population(path, pop, ExperimentConfig(), rng)
    _, peak, _ = _traced(lambda: save_population(path, pop, ExperimentConfig(), rng))
    size = path.stat().st_size
    assert size > 2**20
    assert peak < 0.05 * size, (peak, size)


def test_load_holds_at_most_one_layer_beyond_the_population(tmp_path):
    pop, rng = _big_population()
    path = tmp_path / "pop.ckpt"
    save_population(path, pop, ExperimentConfig(), rng)
    largest = max(sum(arr.nbytes for layer in layers
                      for arr in (layer.weights, layer.biases, layer.mask, layer.mu,
                                  layer.mom_w, layer.mom_b))
                  for layers in zip(*(cl.condition.layers + cl.prediction.layers
                                      for cl in pop.members)))
    loaded, peak, kept = _traced(lambda: load_population(path))
    assert len(loaded[0].members) == len(pop.members)
    assert peak - kept < largest, (peak, kept, largest)


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """A small checkpoint and the dataset it reads."""
    d = tmp_path_factory.mktemp("fuzz")
    rows = np.random.default_rng(7).random((20, 4))
    data = write_csv(d / "data.csv", rows)
    pop, rng = _sample_population(n=4, members=3)
    cfg = ExperimentConfig(dataset=data, seed=3)
    return d, data, population_to_bytes(pop, cfg, rng)


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncated_or_bit_flipped_checkpoints_fail_closed(fuzz_run, capsys, data):
    d, dataset, blob = fuzz_run
    # most examples keep the whole file, so that flips also reach the loaded
    # columns and the reconstruction
    cut = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))), label="cut")
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(1, 255)), max_size=3), label="flips")
    bad = bytearray(blob)
    for at, xor in flips:
        bad[at] ^= xor
    bad = bytes(bad[:cut])
    try:
        population_from_bytes(bad)
    except CheckpointError:
        pass
    (d / "pop.ckpt").write_bytes(bad)
    code = cli.main(["reconstruct", str(d / "pop.ckpt"), dataset, "--no-images",
                     "--count", "3", "--outdir", str(d / "rec")])
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err
    assert code == 0 or "data error" in err
