"""Reproduction: ``xcsf.make_offspring`` builds each child net in one pass,
and must equal the per-layer operators of ``reproduction_reference`` bit
for bit, draw for draw."""

import copy
import itertools

import numpy as np
import pytest

from conftest import assert_network_layout, make_classifier
from lcsae import xcsf
from lcsae.config import ExperimentConfig
from lcsae.neural import ETA_MAX, ETA_MIN
import reproduction_reference as reference


def test_numpy_splits_draws_and_rate_updates_as_make_offspring_assumes():
    """The numpy behaviour the builder's bytes rest on: one
    ``standard_normal`` call gives the draws of consecutive calls, and
    ``exp`` and ``clip`` on a (4, 4) block give the row-wise results."""
    seeds = np.random.default_rng(40)
    for sizes in ((3, 5), (64, 1, 64, 1, 1), (17, 0, 4), (785, 784, 2)):
        seed = int(seeds.integers(2**32))
        whole = np.random.default_rng(seed).standard_normal(sum(sizes))
        parts = np.random.default_rng(seed)
        assert whole.tobytes() == np.concatenate(
            [parts.standard_normal(n) for n in sizes]).tobytes(), sizes
    # a (4, 4) block is four calls of 4, row by row
    seed = int(seeds.integers(2**32))
    parts = np.random.default_rng(seed)
    assert np.random.default_rng(seed).standard_normal((4, 4)).tobytes() == np.concatenate(
        [parts.standard_normal(4) for _ in range(4)]).tobytes()
    # size=None scalars are the draws of a sized call, in order
    seed = int(seeds.integers(2**32))
    whole = np.random.default_rng(seed).standard_normal(7)
    parts = np.random.default_rng(seed)
    scalars = [parts.standard_normal() for _ in range(3)]
    assert all(type(v) is float for v in scalars)
    assert whole.tobytes() == np.concatenate(
        [scalars, parts.standard_normal(2), [parts.standard_normal()],
         parts.standard_normal(1)]).tobytes()
    gen = np.random.default_rng(41)
    for scale in (0.1, 1.0, 4.0, 40.0):
        for _ in range(200):
            mu = gen.uniform(1e-4, 1.0, (4, 4))
            z = gen.standard_normal((4, 4)) * scale
            block = mu * np.exp(z)
            np.clip(block, 1e-4, 1.0, out=block)
            rows = [np.clip(mu[i] * np.exp(z[i]), 1e-4, 1.0) for i in range(4)]
            assert block.tobytes() == np.concatenate(rows).tobytes()


def _train(cfg, n_features, seed):
    rng = np.random.default_rng(seed)
    pop = xcsf.init_population(cfg, n_features, rng)
    for x in np.random.default_rng(seed + 1).random((150, n_features)):
        xcsf.run_trial(pop, x, cfg, rng)
    return pop.members


def _with_rates(parent, value):
    nets = copy.deepcopy((parent.condition, parent.prediction))
    for net in nets:
        for layer in net.layers:
            layer.mu[:] = value
    return xcsf.Classifier(*nets)


@pytest.fixture(scope="module")
def trained_parents():
    """(config, parents) pairs: members of populations trained under each
    config, and copies of trained ones with every rate at mu_min or at 1."""
    default = ExperimentConfig(N=100)
    cases = [(default, _train(default, 6, 50))]
    for keys, width in (({"connection_mutation": True}, 6), ({"h_max": 3}, 7),
                        ({"h_M": 1}, 9), ({"h_I": 4}, 5)):
        cfg = ExperimentConfig(N=100, **keys)
        cases.append((cfg, _train(cfg, width, 51)))
    parents = cases[0][1]
    cases += [(default, [_with_rates(p, default.mu_min) for p in parents]),
              (default, [_with_rates(p, 1.0) for p in parents]),
              (ExperimentConfig(N=100, connection_mutation=True, h_max=3),
               [_with_rates(p, 1.0) for p in cases[1][1]])]
    return cases


def _layers(cl):
    return cl.condition.layers + cl.prediction.layers


def _arrays(layer):
    return (layer.weights, layer.biases, layer.mask, layer.mu, layer.mom_w, layer.mom_b)


def test_make_offspring_equals_the_per_operator_reference_bit_for_bit(trained_parents):
    seeds = np.random.default_rng(52)
    steps, compared = set(), 0
    for cfg, parents in trained_parents:
        for parent in parents:
            seed = int(seeds.integers(2**32))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            child, expected = xcsf.make_offspring(parent, cfg, a), reference.make_offspring(
                parent, cfg, b)
            for la, lb in zip(_layers(child), _layers(expected)):
                assert type(la.eta) is type(lb.eta) is float and la.eta == lb.eta
                for x, y in zip(_arrays(la), _arrays(lb)):
                    assert (x.dtype, x.shape, x.flags.c_contiguous, x.tobytes()) == (
                        y.dtype, y.shape, y.flags.c_contiguous, y.tobytes())
            assert a.bit_generator.state == b.bit_generator.state
            assert a.random() == b.random()
            for net, before in ((child.condition, parent.condition),
                                (child.prediction, parent.prediction)):
                steps.add((int(np.sign(net.n_hidden - before.n_hidden)),
                           min(net.n_hidden, 2), net.n_hidden == cfg.h_max))
            compared += 1
    assert compared >= 500
    # growth, also stopped at the cap; shrinking, to one neuron and to more;
    # no change
    assert {(1, 2, False), (1, 2, True), (-1, 1, False), (-1, 2, False),
            (0, 1, False)} <= steps


def _snapshot(cl):
    return [(layer.eta, [arr.tobytes() for arr in _arrays(layer)]) for layer in _layers(cl)]


@pytest.mark.parametrize("connection_mutation, h_max",
                         [(False, None), (True, None), (False, 4), (True, 4)])
def test_chained_reproduction_keeps_layout_bounds_and_ownership(connection_mutation, h_max):
    cfg = ExperimentConfig(connection_mutation=connection_mutation, h_max=h_max)
    rng = np.random.default_rng(53)
    cl = make_classifier(n=5, h=1, seed=54)
    sizes = set()
    for _ in range(300):
        before = _snapshot(cl)
        child = xcsf.make_offspring(cl, cfg, rng)
        assert _snapshot(cl) == before
        assert_network_layout(child.condition, 5, 1)
        assert_network_layout(child.prediction, 5, 5)
        for net in (child.condition, child.prediction):
            assert 1 <= net.n_hidden <= (h_max or net.n_hidden)
            sizes.add(net.n_hidden)
        arrays = [arr for layer in _layers(child) for arr in _arrays(layer)]
        parent_arrays = [arr for layer in _layers(cl) for arr in _arrays(layer)]
        for layer in _layers(child):
            off = layer.mask == 0
            assert not layer.weights[off].any()
            assert not layer.mom_w.any() and not layer.mom_b.any()
            assert ETA_MIN <= layer.eta <= ETA_MAX
            assert np.all((layer.mu >= cfg.mu_min) & (layer.mu <= 1.0))
        for x, y in itertools.product(arrays, parent_arrays):
            assert not np.may_share_memory(x, y)
        for x, y in itertools.combinations(arrays, 2):
            assert not np.may_share_memory(x, y)
        cl = child
    assert len(sizes) > 1
    if h_max is not None:
        assert h_max in sizes


def test_offspring_draws_one_call_per_net_without_structural_change():
    """Counted generator calls of one child that neither grows nor
    shrinks: the rate block, then per net the noise and the eta steps."""
    calls = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            def draw(*args, **kwargs):
                calls.append((name, args[0] if args else kwargs.get("size")))
                return getattr(self.rng, name)(*args, **kwargs)
            return draw

    parent = make_classifier(n=4, h=2, seed=55)
    quiet = ExperimentConfig(mu_min=1e-12)
    for layer in _layers(parent):
        layer.mu[:] = 1e-12
    xcsf.make_offspring(parent, quiet, Counting(np.random.default_rng(56)))
    # hidden 2x4 + 2, output 1x2 + 1 (condition) or 4x2 + 4 (prediction), and g
    assert calls == [("standard_normal", (4, 4)), ("standard_normal", 14),
                     ("standard_normal", 2), ("standard_normal", 23),
                     ("standard_normal", 2)]
