import math

import numpy as np
import pytest

from lcsae import neural
from lcsae.neural import (ETA_MAX, ETA_MIN, SELU_ALPHA, SELU_LAMBDA,
                          Activation, clone, forward, gradients,
                          mutate_connections, mutate_eta, mutate_neurons,
                          mutate_weights, new_layer, new_network,
                          self_adapt, sgd_update)


def test_selu_worked_values():
    assert neural.selu(0.0) == 0.0
    assert neural.selu(1.0) == pytest.approx(1.0507009873554805, abs=1e-12)
    # deep-negative limit is -lambda*alpha
    assert neural.selu(-1000.0) == pytest.approx(-SELU_LAMBDA * SELU_ALPHA, abs=1e-12)


def test_selu_monotone_increasing():
    z = np.linspace(-6, 6, 400)
    vals = neural.selu(z)
    assert np.all(np.diff(vals) > 0)
    assert np.isfinite(vals).all()


def test_logistic_worked_values():
    assert neural.logistic(0.0) == 0.5
    assert neural.logistic(50.0) == pytest.approx(1.0, abs=1e-12)
    z = np.linspace(-30, 30, 101)
    assert neural.logistic(z) + neural.logistic(-z) == pytest.approx(1.0, abs=1e-12)
    # the tails and the special values, without overflow warnings
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert neural.logistic(-0.0) == 0.5
        assert neural.logistic(math.inf) == 1.0
        assert neural.logistic(-math.inf) == 0.0
        assert neural.logistic(800.0) == 1.0
        assert neural.logistic(-800.0) == 0.0
        assert math.isnan(neural.logistic(math.nan))
        out = neural.logistic(np.array([0.0, -0.0, math.inf, -math.inf, math.nan,
                                        800.0, -800.0]))
    assert np.array_equal(out, [0.5, 0.5, 1.0, 0.0, math.nan, 1.0, 0.0], equal_nan=True)


def _logistic_by_masks(z):
    # reference: each sign branch evaluated on its own subset
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_logistic_equals_the_masked_branches_bit_for_bit():
    rng = np.random.default_rng(3)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 800.0, -800.0]
    for scale in (1.0, 10.0, 40.0, 800.0):
        z = rng.standard_normal((100, 64)) * scale
        z.flat[:len(specials)] = specials
        assert neural.logistic(z).tobytes() == _logistic_by_masks(z).tobytes()
        assert neural.logistic(z.T).tobytes() == _logistic_by_masks(z.T).tobytes()


def _zeroed_network(n_in, hidden, n_out):
    rng = np.random.default_rng(0)
    return new_network(n_in, hidden, n_out, rng, sigma=0.0)


def test_forward_zero_net_outputs_half():
    net = _zeroed_network(3, 2, 4)
    assert np.array_equal(forward(net, [0.1, 0.9, 0.4]), np.full(4, 0.5))


def test_forward_all_masked_is_input_independent():
    rng = np.random.default_rng(1)
    net = new_network(3, 2, 3, rng)
    for layer in net.layers:
        layer.mask[:] = 0
        layer.weights[:] = 0.0
    y1 = forward(net, [0.0, 0.0, 0.0])
    y2 = forward(net, [1.0, 0.5, 0.25])
    assert np.array_equal(y1, y2)


def test_forward_matches_hand_computation():
    net = _zeroed_network(2, 1, 1)
    hidden, out = net.layers
    hidden.weights[:] = [[0.3, -0.2]]
    hidden.biases[:] = [0.1]
    out.weights[:] = [[0.5]]
    out.biases[:] = [-0.1]
    x = np.array([0.4, 0.7])
    z1 = 0.3 * 0.4 + -0.2 * 0.7 + 0.1
    a1 = SELU_LAMBDA * z1  # z1 > 0
    expected = 1.0 / (1.0 + math.exp(-(0.5 * a1 - 0.1)))
    assert forward(net, x) == pytest.approx([expected], abs=1e-12)


def test_forward_rejects_dimension_mismatch():
    net = _zeroed_network(3, 1, 3)
    with pytest.raises(ValueError):
        forward(net, [0.1, 0.2])


def test_sgd_zero_rates_is_identity():
    rng = np.random.default_rng(2)
    net = new_network(3, 2, 3, rng)
    for layer in net.layers:
        layer.eta = 0.0
    snapshot = [(l.weights.copy(), l.biases.copy()) for l in net.layers]
    sgd_update(net, [0.2, 0.4, 0.8], [0.1, 0.9, 0.5], omega=0.0)
    for (w0, b0), layer in zip(snapshot, net.layers):
        assert np.array_equal(w0, layer.weights)
        assert np.array_equal(b0, layer.biases)


def _finite_diff(net, x, target, eps=1e-6):
    """Central-difference oracle over the active weights and all biases.

    Masked connections are not parameters of the function, so they are
    skipped (their column stays zero).
    """
    def loss():
        y = forward(net, x)
        return float(np.mean((y - np.asarray(target)) ** 2))

    out = []
    for layer in net.layers:
        gw = np.zeros_like(layer.weights)
        for j in range(layer.n_out):
            for i in range(layer.n_in):
                if not layer.mask[j, i]:
                    continue
                layer.weights[j, i] += eps
                up = loss()
                layer.weights[j, i] -= 2 * eps
                down = loss()
                layer.weights[j, i] += eps
                gw[j, i] = (up - down) / (2 * eps)
        gb = np.zeros_like(layer.biases)
        for j in range(layer.n_out):
            layer.biases[j] += eps
            up = loss()
            layer.biases[j] -= 2 * eps
            down = loss()
            layer.biases[j] += eps
            gb[j] = (up - down) / (2 * eps)
        out.append((gw, gb))
    return out


def _max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def test_gradient_matches_finite_differences_single_weight():
    net = _zeroed_network(1, 1, 1)
    net.layers[0].weights[:] = [[0.7]]
    net.layers[1].weights[:] = [[-0.4]]
    x, target = [0.6], [0.9]
    analytic = gradients(net, x, target)
    fd = _finite_diff(net, x, target)
    for (gw, gb), (fw, fb) in zip(analytic, fd):
        assert _max_rel_err(gw, fw) < 1e-4
        assert _max_rel_err(gb, fb) < 1e-4


def test_gradient_oracle_random_nets_with_masks():
    # biases are randomised so no hidden pre-activation sits exactly on the
    # SELU kink at zero, where a finite-difference oracle is meaningless
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_in = int(rng.integers(1, 6))
        h = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        net = new_network(n_in, h, n_out, rng)
        for layer in net.layers:
            layer.mask = (rng.random(layer.mask.shape) < 0.7).astype(np.uint8)
            layer.weights *= layer.mask
            layer.biases[:] = rng.uniform(-0.3, 0.3, layer.n_out)
        x = rng.uniform(0.05, 0.95, n_in)
        target = rng.uniform(0.05, 0.95, n_out)
        analytic = gradients(net, x, target)
        fd = _finite_diff(net, x, target)
        for (gw, gb), (fw, fb), layer in zip(analytic, fd, net.layers):
            assert np.array_equal(gw[layer.mask == 0], np.zeros(int((layer.mask == 0).sum())))
            assert _max_rel_err(gw, fw) < 1e-4
            assert _max_rel_err(gb, fb) < 1e-4


def test_sgd_momentum_carries_previous_delta():
    rng = np.random.default_rng(3)
    net = new_network(2, 2, 2, rng)
    omega = 0.9
    x, target = np.array([0.3, 0.8]), np.array([0.9, 0.2])

    w_before = [l.weights.copy() for l in net.layers]
    sgd_update(net, x, target, omega=omega)
    delta1 = [l.weights - w0 for l, w0 in zip(net.layers, w_before)]
    # the buffer holds the applied delta (w += dw rounds, hence the tolerance)
    for layer, d1 in zip(net.layers, delta1):
        assert layer.mom_w == pytest.approx(d1, rel=1e-9)

    grads2 = gradients(net, x, target)
    w_mid = [l.weights.copy() for l in net.layers]
    sgd_update(net, x, target, omega=omega)
    for layer, w1, d1, (gw, _) in zip(net.layers, w_mid, delta1, grads2):
        expected = -layer.eta * gw + omega * d1
        assert layer.weights - w1 == pytest.approx(expected, abs=1e-12)


def test_init_weight_distribution_and_zero_biases():
    rng = np.random.default_rng(4)
    layer = new_layer(250, 400, Activation.SELU, rng, sigma=0.1)
    draws = layer.weights.ravel()
    assert draws.size == 100000
    assert abs(draws.std() - 0.1) < 0.002  # within 2%
    assert abs(draws.mean()) < 0.002
    assert np.array_equal(layer.biases, np.zeros(400))
    assert np.array_equal(layer.mask, np.ones((400, 250), dtype=np.uint8))
    assert np.array_equal(layer.mom_w, np.zeros((400, 250)))
    assert ETA_MIN <= layer.eta <= ETA_MAX
    assert np.all((layer.mu >= 1e-4) & (layer.mu <= 1.0))


class StubRng:
    """Minimal generator stand-in returning scripted draws."""

    def __init__(self, normals=(), choices=(), randoms=()):
        self._normals = list(normals)
        self._choices = list(choices)
        self._randoms = list(randoms)

    def standard_normal(self, size=None):
        value = self._normals.pop(0)
        if size is None:
            return value
        return np.broadcast_to(np.asarray(value, dtype=float), size).copy()

    def choice(self, n, size, replace):
        return np.asarray(self._choices.pop(0))

    def random(self, size=None):
        value = self._randoms.pop(0)
        if size is None:
            return value
        return np.broadcast_to(np.asarray(value, dtype=float), size).copy()


def test_self_adapt_clamps():
    rng = np.random.default_rng(5)
    layer = new_layer(2, 2, Activation.SELU, rng)
    layer.mu[:] = 1e-4
    self_adapt(layer, StubRng(normals=[np.full(4, -2.0)]), mu_min=1e-4)
    assert np.array_equal(layer.mu, np.full(4, 1e-4))
    layer.mu[:] = 1.0
    self_adapt(layer, StubRng(normals=[np.full(4, 2.0)]), mu_min=1e-4)
    assert np.array_equal(layer.mu, np.ones(4))


def test_self_adapt_lognormal_statistics():
    rng = np.random.default_rng(6)
    ratios = []
    for _ in range(20000):
        layer = new_layer(1, 1, Activation.SELU, rng)
        layer.mu[:] = 0.01  # far from both clamps, so draws pass through
        before = layer.mu.copy()
        self_adapt(layer, rng, mu_min=1e-4)
        ratios.extend(np.log(layer.mu / before))
    ratios = np.asarray(ratios)
    assert abs(ratios.mean()) < 0.02
    assert abs(ratios.std() - 1.0) < 0.02


def test_mutate_weights_respects_mask_and_scale():
    rng = np.random.default_rng(8)
    layer = new_layer(100, 100, Activation.SELU, rng)
    layer.mask[0, :] = 0
    layer.weights[0, :] = 0.0
    layer.mu[0] = 0.5
    before = layer.weights.copy()
    mutate_weights(layer, rng)
    assert np.array_equal(layer.weights[0], np.zeros(100))
    deltas = (layer.weights - before)[1:].ravel()
    assert abs(deltas.std() - 0.5) < 0.01  # within 2%


def test_mutate_weights_minimum_rate_is_tiny():
    rng = np.random.default_rng(9)
    layer = new_layer(100, 100, Activation.SELU, rng)
    layer.mu[0] = 1e-4
    before = layer.weights.copy()
    mutate_weights(layer, rng)
    assert np.max(np.abs(layer.weights - before)) < 1e-3


def test_mutate_eta_clamps_and_scale():
    rng = np.random.default_rng(10)
    layer = new_layer(2, 2, Activation.SELU, rng)
    layer.eta = ETA_MIN
    layer.mu[2] = 0.5
    mutate_eta(layer, StubRng(normals=[-1.0]))
    assert layer.eta == ETA_MIN
    layer.eta = ETA_MAX
    mutate_eta(layer, StubRng(normals=[1.0]))
    assert layer.eta == ETA_MAX

    deltas = []
    for _ in range(20000):
        layer.eta = 0.005
        layer.mu[2] = 1e-3  # small enough that clamping is negligible
        before = layer.eta
        mutate_eta(layer, rng)
        deltas.append(layer.eta - before)
    deltas = np.asarray(deltas)
    assert abs(deltas.std() - 1e-3) < 2e-5


def test_mutate_connections_zero_rate_is_identity():
    rng = np.random.default_rng(11)
    layer = new_layer(6, 6, Activation.SELU, rng)
    layer.mu[3] = 0.0
    mask_before = layer.mask.copy()
    weights_before = layer.weights.copy()
    mutate_connections(layer, rng)
    assert np.array_equal(layer.mask, mask_before)
    assert np.array_equal(layer.weights, weights_before)


def test_mutate_connections_disable_zeroes_weight():
    rng = np.random.default_rng(12)
    layer = new_layer(5, 5, Activation.SELU, rng)
    layer.mu[3] = 1.0  # flip everything
    mutate_connections(layer, rng)  # fully connected -> fully disabled
    assert np.array_equal(layer.mask, np.zeros_like(layer.mask))
    assert np.array_equal(layer.weights, np.zeros_like(layer.weights))
    mutate_connections(layer, rng)  # re-enable with fresh small weights
    assert np.array_equal(layer.mask, np.ones_like(layer.mask))
    assert np.all(layer.weights != 0.0)
    mutate_connections(layer, rng)  # disable again: weights exactly zero
    assert np.array_equal(layer.weights, np.zeros_like(layer.weights))


def test_mutate_connections_flip_statistics():
    rng = np.random.default_rng(13)
    layer = new_layer(400, 250, Activation.SELU, rng)
    layer.mu[3] = 0.5
    before = layer.mask.copy()
    mutate_connections(layer, rng)
    flipped = (layer.mask != before).mean()
    assert abs(flipped - 0.5) < 0.01


def test_mutate_neurons_clamps_at_floor_and_cap():
    rng = np.random.default_rng(14)
    net = new_network(3, 1, 3, rng)
    net.layers[0].mu[1] = 1.0
    mutate_neurons(net, StubRng(normals=[-3.0]), h_M=5, h_max=None,
                   connection_mutation=False)
    assert net.n_hidden == 1  # cannot shrink below one neuron

    net = new_network(3, 4, 3, rng)
    net.layers[0].mu[1] = 1.0
    mutate_neurons(net, StubRng(normals=[3.0]), h_M=5, h_max=4,
                   connection_mutation=False)
    assert net.n_hidden == 4  # cap respected


def test_mutate_neurons_add_remove_round_trip():
    rng = np.random.default_rng(15)
    net = new_network(3, 2, 3, rng)
    net.layers[0].mu[1] = 1.0
    x = np.array([0.2, 0.6, 0.9])
    y_before = forward(net, x)
    w_before = [l.weights.copy() for l in net.layers]

    grow = StubRng(normals=[0.8, 0.01, 0.01])  # step +1, then tiny new weights
    mutate_neurons(net, grow, h_M=1, h_max=None, connection_mutation=False)
    assert net.n_hidden == 3
    y_grown = forward(net, x)
    assert not np.array_equal(y_grown, y_before)
    # surviving rows are untouched: only the new neuron changes the output
    assert np.array_equal(net.layers[0].weights[:2], w_before[0])
    assert np.array_equal(net.layers[1].weights[:, :2], w_before[1])

    shrink = StubRng(normals=[-0.8], choices=[[2]])  # drop the added neuron
    mutate_neurons(net, shrink, h_M=1, h_max=None, connection_mutation=False)
    assert net.n_hidden == 2
    assert np.array_equal(forward(net, x), y_before)
    for layer, w0 in zip(net.layers, w_before):
        assert np.array_equal(layer.weights, w0)


def test_mutate_neurons_new_connections_random_when_enabled():
    rng = np.random.default_rng(16)
    net = new_network(6, 1, 6, rng)
    net.layers[0].mu[1] = 1.0
    added = 0
    for _ in range(40):
        before = net.n_hidden
        mutate_neurons(net, rng, h_M=3, h_max=None, connection_mutation=True)
        added += max(0, net.n_hidden - before)
    hidden = net.layers[0]
    assert added > 0
    # with 50% activation some new connections must be off, and those weights zero
    assert (hidden.mask == 0).any()
    assert np.array_equal(hidden.weights[hidden.mask == 0],
                          np.zeros(int((hidden.mask == 0).sum())))


def test_clone_isolation_and_momentum_reset():
    rng = np.random.default_rng(17)
    net = new_network(3, 2, 3, rng)
    sgd_update(net, [0.1, 0.5, 0.9], [0.9, 0.1, 0.5], omega=0.9)
    snapshot = [(l.weights.copy(), l.biases.copy(), l.mom_w.copy()) for l in net.layers]
    twin = clone(net)
    for layer in twin.layers:
        assert np.array_equal(layer.mom_w, np.zeros_like(layer.mom_w))
    sgd_update(twin, [0.1, 0.5, 0.9], [0.9, 0.1, 0.5], omega=0.9)
    for (w0, b0, m0), layer in zip(snapshot, net.layers):
        assert np.array_equal(w0, layer.weights)
        assert np.array_equal(b0, layer.biases)
        assert np.array_equal(m0, layer.mom_w)


def test_operator_sequences_keep_invariants():
    """Random operator chains preserve mask/weight coupling and clamps."""
    rng = np.random.default_rng(18)
    net = new_network(5, 3, 5, rng)
    h_max = 7
    for _ in range(300):
        op = rng.integers(0, 6)
        for layer in net.layers:
            if op == 0:
                self_adapt(layer, rng, mu_min=1e-4)
            elif op == 1:
                mutate_weights(layer, rng)
            elif op == 2:
                mutate_eta(layer, rng)
            elif op == 3:
                mutate_connections(layer, rng)
        if op == 4:
            mutate_neurons(net, rng, h_M=2, h_max=h_max, connection_mutation=True)
        elif op == 5:
            sgd_update(net, rng.random(5), rng.random(5), omega=0.9)
        assert 1 <= net.n_hidden <= h_max
        for layer in net.layers:
            off = layer.mask == 0
            assert np.array_equal(layer.weights[off], np.zeros(int(off.sum())))
            assert np.array_equal(layer.mom_w[off], np.zeros(int(off.sum())))
            assert ETA_MIN <= layer.eta <= ETA_MAX
            assert np.all((layer.mu >= 1e-4) & (layer.mu <= 1.0))


def test_forward_is_deterministic():
    rng = np.random.default_rng(19)
    net = new_network(4, 3, 4, rng)
    x = rng.random(4)
    assert np.array_equal(forward(net, x), forward(net, x))
