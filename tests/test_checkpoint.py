import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_classifier, spare_rules, write_csv
from lcsae import checkpoint, cli, kernels, neural, xcsf
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
    pop = xcsf.Population([cl], trial=1)
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


def test_population_bytes_rejects_garbage():
    with pytest.raises(CheckpointError, match="too short"):
        population_from_bytes(b"not a")
    with pytest.raises(CheckpointError, match="bad magic"):
        population_from_bytes(b"not a checkpoint")
    pop, rng = _sample_population()
    blob = population_to_bytes(pop, ExperimentConfig(), rng)
    with pytest.raises(CheckpointError, match="payload"):
        population_from_bytes(blob[:-9])
    with pytest.raises(CheckpointError, match="payload"):
        population_from_bytes(blob + bytes(8))
    with pytest.raises(CheckpointError, match="not a JSON object"):
        population_from_bytes(checkpoint._pack([1, 2], b""))


def _sample_population(seed=2, n=6, members=5):
    rng = np.random.default_rng(seed)
    pop = xcsf.Population([make_classifier(n=n, seed=seed + i, err=0.1 * i,
                                           fit=0.01 + 0.1 * i, exp=i, set_size=1.0 + i, ts=i,
                                           born=0, mtotal=i)
                           for i in range(members)], trial=123)
    return pop, rng


def test_population_round_trip_restores_everything():
    pop, rng = _sample_population()
    cfg = ExperimentConfig(N=40, seed=9, dataset="x.csv", h_max=6)
    window = {"mse_sum": 1.5, "m_sum": 20.0, "count": 3}
    blob = population_to_bytes(pop, cfg, rng, window)
    pop2, cfg2, rng2, window2 = population_from_bytes(blob)

    assert cfg2 == cfg
    assert window2 == window
    assert pop2.trial == pop.trial
    assert len(pop2.members) == len(pop.members)
    for a, b in zip(pop.members, pop2.members):
        assert (a.err, a.fit, a.exp, a.set_size, a.ts, a.born, a.mtotal) == \
               (b.err, b.fit, b.exp, b.set_size, b.ts, b.born, b.mtotal)
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
    path = tmp_path / "pop.ckpt"
    save_population(path, pop, cfg, rng)
    pop2, cfg2, _, _ = load_population(path)
    assert cfg2 == cfg
    assert pop2.trial == pop.trial


def test_corrupted_checkpoint_never_loads_partially(tmp_path):
    pop, rng = _sample_population()
    path = tmp_path / "pop.ckpt"
    save_population(path, pop, ExperimentConfig(), rng)
    blob = path.read_bytes()

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_population(truncated)

    mangled = tmp_path / "mangled.ckpt"
    mangled.write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(CheckpointError):
        load_population(mangled)

    with pytest.raises(CheckpointError):
        load_population(tmp_path / "missing.ckpt")


def _three_biases(layer):
    layer.biases = np.zeros(3)


def _short_mu(layer):
    layer.mu = layer.mu[:3].copy()


@pytest.mark.parametrize("corrupt", [_three_biases, _short_mu])
def test_layer_arrays_that_do_not_fit_never_load(corrupt):
    pop, rng = _sample_population()
    # the output layer of a 6-output prediction net
    corrupt(pop.members[2].prediction.layers[1])
    blob = population_to_bytes(pop, ExperimentConfig(), rng)
    with pytest.raises(CheckpointError, match="payload is .* bytes, the rules' hidden sizes"):
        population_from_bytes(blob)


def test_rules_of_another_width_never_load():
    pop, rng = _sample_population(n=6)
    pop.add(make_classifier(n=5, seed=40))
    blob = population_to_bytes(pop, ExperimentConfig(), rng)
    with pytest.raises(CheckpointError, match="hidden sizes and 6 inputs need"):
        population_from_bytes(blob)


@pytest.mark.parametrize("old,new", [(b'"rules"', b'"rulez"'),
                                     (b'"inputs"', b'"inputz"'),
                                     (b'"PCG64"', b'"PCG65"')])
def test_header_with_wrong_keys_or_types_never_loads(old, new):
    pop, rng = _sample_population()
    blob = population_to_bytes(pop, ExperimentConfig(), rng)
    bad = blob.replace(old, new, 1)
    assert bad != blob
    with pytest.raises(CheckpointError):
        population_from_bytes(bad)


def test_a_version_1_checkpoint_is_refused_by_its_version():
    # version 1 listed every rule and array in the header; it has no reader
    blob = checkpoint._pack({"version": 1, "classifiers": [], "arrays": []}, b"")
    with pytest.raises(CheckpointError, match="unsupported version 1"):
        population_from_bytes(blob)


def test_loaded_layers_own_their_memory():
    pop, rng = _sample_population()
    blob = population_to_bytes(pop, ExperimentConfig(), rng)
    again = population_from_bytes(blob)[0]
    loaded = []
    for cl in again.members:
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


def _with_hidden_size(blob, value):
    """``blob`` with the first rule's condition hidden size set to ``value``."""
    header, payload = checkpoint._unpack(blob)
    at = len(blob) - len(payload) + 8 * len(xcsf.SCALARS) * header["rules"]
    return blob[:at] + struct.pack("<q", value) + blob[at + 8:]


def test_a_corrupt_hidden_size_never_allocates():
    pop, rng = _sample_population()
    blob = population_to_bytes(pop, ExperimentConfig(), rng)
    assert population_from_bytes(_with_hidden_size(blob, 1))[0].members[0].condition.n_hidden == 1
    # far beyond any memory: only the payload size is compared
    with pytest.raises(CheckpointError, match="payload is .* bytes, the rules' hidden sizes"):
        population_from_bytes(_with_hidden_size(blob, 2**62))
    with pytest.raises(CheckpointError, match=r"rule 0 hidden sizes \[0, 1\] is not >= 1"):
        population_from_bytes(_with_hidden_size(blob, 0))


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
