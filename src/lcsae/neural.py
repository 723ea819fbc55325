"""Small feed-forward networks with evolvable structure.

Every network is one SELU hidden layer plus one logistic output layer.
Each layer carries, besides weights and biases, a binary connection mask,
its own gradient-descent rate, and a vector of four self-adaptive mutation
rates controlling weight noise, neuron growth, rate noise, and connection
flips.  Gradient descent (plain SGD with momentum on the MSE loss) runs in
the kernels, over a whole match set at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

# gradient-descent rates live in this range; mutation clamps back into it
ETA_MIN = 1e-4
ETA_MAX = 0.01

INIT_SIGMA = 0.1

# indices into Layer.mu
MU_WEIGHT = 0
MU_NEURON = 1
MU_ETA = 2
MU_CONNECT = 3

# numpy refuses, with a ValueError, an array of more bytes than an intp
# counts; a layer that large is out of memory like any other
_MAX_BYTES = np.iinfo(np.intp).max


def _require_addressable(rows: int, cols: int) -> None:
    """Raise MemoryError, before anything is allocated, when a (rows, cols)
    float64 weight matrix is larger than numpy's largest array."""
    if rows * cols * np.dtype(np.float64).itemsize > _MAX_BYTES:
        raise MemoryError(f"a {rows}x{cols} weight matrix is larger than the "
                          f"largest array numpy can allocate")


@dataclass(eq=False)
class Layer:
    """One fully-connected layer with connection mask and mutation rates.

    Plain data: every producer of layers keeps the C-contiguous float64
    layout below (uint8 mask), and the tests check it there."""

    weights: np.ndarray  # [n_out, n_in]
    biases: np.ndarray  # [n_out]
    mask: np.ndarray  # [n_out, n_in] uint8, 1 = connection active
    eta: float
    mu: np.ndarray  # [4]
    mom_w: np.ndarray  # [n_out, n_in] previous weight deltas
    mom_b: np.ndarray  # [n_out] previous bias deltas

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    def active_weights(self) -> int:
        # a mask holds only 0 and 1, so its nonzero count is its sum
        return int(np.count_nonzero(self.mask))

    def copy(self) -> "Layer":
        """Deep copy with zeroed momentum (reproduction semantics)."""
        return Layer(
            weights=self.weights.copy(),
            biases=self.biases.copy(),
            mask=self.mask.copy(),
            eta=self.eta,
            mu=self.mu.copy(),
            mom_w=np.zeros_like(self.weights),
            mom_b=np.zeros_like(self.biases),
        )


@dataclass(eq=False)
class Network:
    """One hidden SELU layer plus one logistic output layer; plain data."""

    layers: list

    @property
    def n_inputs(self) -> int:
        return self.layers[0].n_in

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].n_out

    @property
    def n_hidden(self) -> int:
        return self.layers[0].n_out


def new_layer(n_in, n_out, rng, *, sigma=INIT_SIGMA,
              random_biases=False, mu_min=1e-4) -> Layer:
    """Fresh fully-connected layer.

    Weights are N(0, sigma^2); biases are zero unless ``random_biases``
    (used by covering, which randomises the whole net).  The mutation-rate
    vector is seeded U[mu_min, 1] and eta uniformly inside its range.
    """
    _require_addressable(n_out, n_in)
    weights = rng.standard_normal((n_out, n_in)) * sigma
    if random_biases:
        biases = rng.standard_normal(n_out) * sigma
    else:
        biases = np.zeros(n_out)
    mu = rng.uniform(mu_min, 1.0, 4)
    eta = float(rng.uniform(ETA_MIN, ETA_MAX))
    return Layer(
        weights=weights,
        biases=biases,
        mask=np.ones((n_out, n_in), dtype=np.uint8),
        eta=eta,
        mu=mu,
        mom_w=np.zeros((n_out, n_in)),
        mom_b=np.zeros(n_out),
    )


def new_network(n_inputs, n_hidden, n_outputs, rng, *, sigma=INIT_SIGMA,
                random_biases=False, mu_min=1e-4) -> Network:
    hidden = new_layer(n_inputs, n_hidden, rng, sigma=sigma,
                       random_biases=random_biases, mu_min=mu_min)
    out = new_layer(n_hidden, n_outputs, rng, sigma=sigma,
                    random_biases=random_biases, mu_min=mu_min)
    return Network([hidden, out])


def clone(net: Network) -> Network:
    """Deep copy; momentum buffers reset to zero."""
    return Network([layer.copy() for layer in net.layers])


def net_args(net: Network) -> tuple:
    """The one kernel argument tuple of a network, for a forward pass or a
    reinforcement step."""
    h, o = net.layers
    return (h.weights, h.biases, h.mask, h.mom_w, h.mom_b, h.eta,
            o.weights, o.biases, o.mask, o.mom_w, o.mom_b, o.eta)


def forward(net: Network, x) -> np.ndarray:
    """Activations of the output layer for input ``x``."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (net.n_inputs,):
        raise ValueError(f"input has shape {x.shape}, expected ({net.n_inputs},)")
    ys = np.empty((1, net.n_outputs))
    kernels.forward_batch([net_args(net)], x[None], ys)
    return ys[0]


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


def mutate_connections(layer: Layer, rng) -> None:
    """Flip each mask bit with probability mu[3].

    Disabled connections are zeroed; re-enabled ones restart from a small
    random weight with zero momentum.
    """
    flips = rng.random(layer.mask.shape) < layer.mu[MU_CONNECT]
    fresh = rng.standard_normal(layer.weights.shape) * INIT_SIGMA
    if not flips.any():
        return
    enabled = flips & (layer.mask == 0)
    disabled = flips & (layer.mask == 1)
    layer.mask[flips] ^= 1
    layer.weights[enabled] = fresh[enabled]
    layer.weights[disabled] = 0.0
    layer.mom_w[flips] = 0.0


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
