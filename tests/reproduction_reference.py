"""Reference reproduction: the per-layer mutation operators, applied to a
clone of the parent in the order the learner applied them before
``xcsf.make_offspring`` built each child in one pass.  The tests compare the
builder with ``make_offspring`` here bit for bit, and test each operator's
distribution and clamps on its own."""

from __future__ import annotations

import numpy as np

from lcsae import neural, xcsf
from lcsae.neural import (ETA_MAX, ETA_MIN, INIT_SIGMA, MU_ETA, MU_NEURON, MU_WEIGHT,
                          Layer, Network, _require_addressable)


def copy_layer(layer: Layer) -> Layer:
    """Deep copy with zeroed momentum (reproduction semantics)."""
    return Layer(
        weights=layer.weights.copy(),
        biases=layer.biases.copy(),
        mask=layer.mask.copy(),
        eta=layer.eta,
        mu=layer.mu.copy(),
        mom_w=np.zeros_like(layer.weights),
        mom_b=np.zeros_like(layer.biases),
    )


def clone(net: Network) -> Network:
    """Deep copy; momentum buffers reset to zero."""
    return Network([copy_layer(layer) for layer in net.layers])


def self_adapt(layer: Layer, rng, mu_min: float) -> None:
    """Mutate the layer's own mutation rates: mu <- mu * e^N(0,1), clamped."""
    layer.mu *= np.exp(rng.standard_normal(4))
    np.clip(layer.mu, mu_min, 1.0, out=layer.mu)


def mutate_weights(layer: Layer, rng) -> None:
    """Gaussian noise with sigma mu[0] on every active weight and bias."""
    sigma = layer.mu[MU_WEIGHT]
    dw = rng.standard_normal(layer.weights.shape) * sigma
    layer.weights += dw * layer.mask
    layer.biases += rng.standard_normal(layer.biases.shape) * sigma


def mutate_eta(layer: Layer, rng) -> None:
    """Gaussian noise with sigma mu[2] on the gradient-descent rate."""
    layer.eta = float(np.clip(layer.eta + rng.standard_normal() * layer.mu[MU_ETA],
                              ETA_MIN, ETA_MAX))


def mutate_neurons(net: Network, rng, h_M: int, h_max, connection_mutation: bool) -> None:
    """Grow or shrink the hidden layer by up to ``h_M`` neurons.

    The step is round(g * mu[1] * h_M) with g ~ N(0,1), clamped to
    [-h_M, h_M] and then so that the hidden size stays in [1, h_max].
    """
    hidden, out = net.layers
    g = rng.standard_normal()
    n = int(round(g * hidden.mu[MU_NEURON] * h_M))
    n = max(-h_M, min(h_M, n))
    h = hidden.n_out
    new_h = h + n
    if h_max is not None:
        new_h = min(new_h, h_max)
    new_h = max(1, new_h)
    k = new_h - h
    if k > 0:
        _add_neurons(net, k, rng, connection_mutation)
    elif k < 0:
        _remove_neurons(net, -k, rng)


def _add_neurons(net: Network, k: int, rng, connection_mutation: bool) -> None:
    """Append ``k`` hidden neurons: hidden-layer rows, output-layer columns."""
    hidden, out = net.layers
    _require_addressable(hidden.n_out + k, hidden.n_in)
    _require_addressable(out.n_out, hidden.n_out + k)
    for layer, shape, axis in ((hidden, (k, hidden.n_in), 0), (out, (out.n_out, k), 1)):
        w_new = rng.standard_normal(shape) * INIT_SIGMA
        if connection_mutation:
            m_new = (rng.random(shape) < 0.5).astype(np.uint8)
        else:
            m_new = np.ones(shape, dtype=np.uint8)
        w_new *= m_new
        for name, new in (("weights", w_new), ("mask", m_new), ("mom_w", np.zeros(shape))):
            setattr(layer, name, np.ascontiguousarray(
                np.concatenate([getattr(layer, name), new], axis=axis)))
    hidden.biases = np.concatenate([hidden.biases, np.zeros(k)])
    hidden.mom_b = np.concatenate([hidden.mom_b, np.zeros(k)])


def _remove_neurons(net: Network, k: int, rng) -> None:
    """Drop ``k`` random hidden neurons: hidden-layer rows, output-layer columns."""
    hidden, out = net.layers
    drop = rng.choice(hidden.n_out, size=k, replace=False)
    for layer, axis in ((hidden, 0), (out, 1)):
        for name in ("weights", "mask", "mom_w"):
            # a column deletion need not come out C-contiguous
            setattr(layer, name, np.ascontiguousarray(
                np.delete(getattr(layer, name), drop, axis=axis)))
    hidden.biases = np.delete(hidden.biases, drop)
    hidden.mom_b = np.delete(hidden.mom_b, drop)


def make_offspring(parent: xcsf.Classifier, cfg, rng) -> xcsf.Classifier:
    """Clone both nets, self-adapt every layer's rates, then per net mutate
    the weights, the hidden size, the rates and the connections."""
    condition = clone(parent.condition)
    prediction = clone(parent.prediction)
    for net in (condition, prediction):
        for layer in net.layers:
            self_adapt(layer, rng, cfg.mu_min)
    for net in (condition, prediction):
        for layer in net.layers:
            mutate_weights(layer, rng)
        mutate_neurons(net, rng, cfg.h_M, cfg.h_max, cfg.connection_mutation)
        for layer in net.layers:
            mutate_eta(layer, rng)
        if cfg.connection_mutation:
            for layer in net.layers:
                neural.mutate_connections(layer, rng)
    return xcsf.Classifier(condition, prediction)
