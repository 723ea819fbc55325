"""Small feed-forward networks with evolvable structure.

Every network is one SELU hidden layer plus one logistic output layer.
Each layer carries, besides weights and biases, a binary connection mask,
its own gradient-descent rate, and a vector of four self-adaptive mutation
rates controlling weight noise, neuron growth, rate noise, and connection
flips.  Gradient descent (plain SGD with momentum on the MSE loss) runs in
the kernels, over a whole match set at a time.  Reproduction, ``offspring``,
builds a mutated child network from new arrays and leaves the parent as it
was.
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


def offspring(net: Network, mu: np.ndarray, rng, h_M: int, h_max,
              connection_mutation: bool) -> Network:
    """Mutated child of ``net``; the rows of ``mu`` are its two layers'
    rates, already self-adapted.  Every array of the child is new, and
    momentum is zero.

    With r a layer's rates, every active weight and every bias gets
    N(0, r[MU_WEIGHT]^2) noise and eta gets N(0, r[MU_ETA]^2) noise,
    clamped into [ETA_MIN, ETA_MAX].  The hidden layer grows or shrinks by
    round(g * r[MU_NEURON] * h_M) neurons, with its own r and g ~ N(0, 1),
    clamped to [-h_M, h_M] and so that it keeps [1, h_max] neurons; a new
    neuron's weights are N(0, INIT_SIGMA^2) and, with
    ``connection_mutation``, each of its connections is on with probability
    1/2.  With ``connection_mutation`` each mask bit then flips with
    probability r[MU_CONNECT] (``mutate_connections``).  The draws come in
    ``xcsf.make_offspring``'s order.
    """
    hidden, out = net.layers
    (h, n_in), n_out = hidden.weights.shape, out.n_out
    a = h * n_in
    b = a + h
    c = b + n_out * h
    # hidden weights, hidden biases, output weights, output biases, then g
    z = rng.standard_normal(c + n_out + 1)
    r1, r2 = mu.tolist()
    t = z[:b] * r1[MU_WEIGHT]
    w1 = hidden.weights + t[:a].reshape(h, n_in) * hidden.mask
    b1 = hidden.biases + t[a:]
    t = z[b:-1] * r2[MU_WEIGHT]
    w2 = out.weights + t[:c - b].reshape(n_out, h) * out.mask
    b2 = out.biases + t[c - b:]
    n = max(-h_M, min(h_M, int(round(float(z[-1]) * r1[MU_NEURON] * h_M))))
    k = max(1, h + n if h_max is None else min(h + n, h_max)) - h
    m1, m2, steps = hidden.mask, out.mask, None
    if k > 0:
        _require_addressable(h + k, n_in)
        _require_addressable(n_out, h + k)
        rows, cols = (k, n_in), (n_out, k)
        if connection_mutation:
            # each block of new weights is followed by its connection draw
            (rw, rm), (cw, cm) = ((rng.standard_normal(shape) * INIT_SIGMA,
                                   (rng.random(shape) < 0.5).astype(np.uint8))
                                  for shape in (rows, cols))
            rw *= rm
            cw *= cm
        else:
            z = rng.standard_normal(k * (n_in + n_out) + 2)
            rw = z[:k * n_in].reshape(rows) * INIT_SIGMA
            cw = z[k * n_in:-2].reshape(cols) * INIT_SIGMA
            rm, cm, steps = np.ones(rows, np.uint8), np.ones(cols, np.uint8), z[-2:]
        w1, m1 = np.concatenate([w1, rw]), np.concatenate([m1, rm])
        b1 = np.concatenate([b1, np.zeros(k)])
        w2, m2 = np.concatenate([w2, cw], axis=1), np.concatenate([m2, cm], axis=1)
    elif k < 0:
        keep = np.ones(h, bool)
        keep[rng.choice(h, size=-k, replace=False)] = False
        w1, m1, b1 = w1[keep], m1[keep], b1[keep]
        # a column selection need not come out C-contiguous
        w2, m2 = np.ascontiguousarray(w2[:, keep]), np.ascontiguousarray(m2[:, keep])
    else:
        m1, m2 = m1.copy(), m2.copy()
    if steps is None:
        steps = rng.standard_normal(2)
    e1, e2 = steps.tolist()
    child = Network([
        Layer(w1, b1, m1, float(min(max(hidden.eta + e1 * r1[MU_ETA], ETA_MIN), ETA_MAX)),
              mu[0], np.zeros(w1.shape), np.zeros(len(b1))),
        Layer(w2, b2, m2, float(min(max(out.eta + e2 * r2[MU_ETA], ETA_MIN), ETA_MAX)),
              mu[1], np.zeros(w2.shape), np.zeros(n_out))])
    if connection_mutation:
        for layer in child.layers:
            mutate_connections(layer, rng)
    return child
