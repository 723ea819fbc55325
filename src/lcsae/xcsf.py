"""Accuracy-based classifier system for online autoencoding.

Each classifier pairs a condition network (single logistic output deciding
whether an input belongs to its niche) with a prediction network that
reconstructs the input through a small hidden layer.  Per trial the match
set is reinforced (error/fitness/set-size bookkeeping plus one
momentum-SGD step on each prediction net) and periodically reproduced by
a selection-driven evolutionary step with self-adaptive mutation.  In
``global_ea`` mode every classifier matches every input, so evolution
optimises a single global niche instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels, neural
from .config import ExperimentConfig

# overriding deletion vote for classifiers that never matched anything
STALE_VOTE = 1e30

# fitness decays multiplicatively and could underflow to exact zero after
# a few thousand zero-accuracy updates; keep it strictly positive
_F_FLOOR = 1e-300

MAX_COVER_TRIES = 10**6


class CoveringError(Exception):
    pass


@dataclass(eq=False)
class Classifier:
    condition: neural.Network
    prediction: neural.Network
    err: float
    fit: float
    num: int
    exp: int
    set_size: float
    ts: int
    born: int
    mtotal: int
    cond_args: tuple = field(init=False, repr=False)
    pred_args: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.refresh_args()

    def refresh_args(self):
        # structure is fixed after construction, so the kernel argument
        # tuples can be cached for the per-trial loops
        self.cond_args = neural.cond_args(self.condition)
        self.pred_args = neural.pred_args(self.prediction)

    def age(self, trial: int) -> int:
        return trial - self.born


@dataclass(eq=False)
class Population:
    members: list
    trial: int = 0

    def micro_count(self) -> int:
        return sum(cl.num for cl in self.members)

    def mean_fitness(self) -> float:
        """Mean fitness per micro-classifier."""
        return sum(cl.fit for cl in self.members) / self.micro_count()


def init_population(cfg: ExperimentConfig, n_features: int, rng) -> Population:
    """Population of N random single-hidden-neuron classifiers (or empty
    when P_init is off, in which case covering fills it on demand)."""
    members = []
    if cfg.P_init:
        for _ in range(cfg.N):
            members.append(_random_classifier(cfg, n_features, rng, trial=0))
    return Population(members=members, trial=0)


def _random_classifier(cfg, n_features, rng, trial) -> Classifier:
    condition = neural.new_network(n_features, cfg.h_I, 1, rng, mu_min=cfg.mu_min)
    prediction = neural.new_network(n_features, cfg.h_I, n_features, rng, mu_min=cfg.mu_min)
    return Classifier(condition=condition, prediction=prediction,
                      err=cfg.epsilon_I, fit=cfg.F_I, num=1, exp=0,
                      set_size=1.0, ts=trial, born=trial, mtotal=0)


def matches(cl: Classifier, x, cfg: ExperimentConfig) -> bool:
    """Condition output above the match threshold (always true in
    global_ea mode)."""
    if cfg.global_ea:
        return True
    y = neural.forward(cl.condition, x)
    return y[0] > cfg.match_threshold


def build_match_set(pop: Population, x, cfg: ExperimentConfig, rng) -> list:
    """All classifiers matching ``x``; covers when none do.

    Every member of the returned set has its matched-input counter
    incremented.
    """
    if cfg.global_ea:
        m = list(pop.members)
    else:
        flags = np.empty(len(pop.members), dtype=np.uint8)
        kernels.match_batch([cl.cond_args for cl in pop.members], x,
                            cfg.match_threshold, flags)
        m = [cl for cl, f in zip(pop.members, flags) if f]
        if not m:
            cl = cover(x, cfg, rng, pop.trial)
            pop.members.append(cl)
            m = [cl]
    for cl in m:
        cl.mtotal += 1
    return m


def cover(x, cfg: ExperimentConfig, rng, trial: int,
          max_tries: int = MAX_COVER_TRIES) -> Classifier:
    """Random classifier whose condition matches ``x``.

    Condition nets are resampled with sigma=1 (random weights and biases)
    until one matches; the prediction net uses the standard initialisation.
    """
    n = len(x)
    for _ in range(max_tries):
        condition = neural.new_network(n, cfg.h_I, 1, rng, sigma=1.0,
                                       random_biases=True, mu_min=cfg.mu_min)
        if cfg.global_ea or neural.forward(condition, x)[0] > cfg.match_threshold:
            prediction = neural.new_network(n, cfg.h_I, n, rng, mu_min=cfg.mu_min)
            return Classifier(condition=condition, prediction=prediction,
                              err=cfg.epsilon_I, fit=cfg.F_I, num=1, exp=0,
                              set_size=1.0, ts=trial, born=trial, mtotal=0)
    raise CoveringError(
        f"covering failed to match the input after {max_tries} samples; "
        f"check match_threshold ({cfg.match_threshold})")


def fitness_weighted_mean(fits, ys) -> np.ndarray:
    """Component-wise fitness-weighted mean of predictions."""
    fits = np.asarray(fits, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return fits @ ys / fits.sum()


def system_prediction(m: list, x) -> np.ndarray:
    """Fitness-weighted mean reconstruction of the match set."""
    ys = np.array([neural.forward(cl.prediction, x) for cl in m])
    return fitness_weighted_mean([cl.fit for cl in m], ys)


def accuracy(err: float, cfg: ExperimentConfig) -> float:
    """1 below the target error, else the power-law fall-off."""
    if err < cfg.epsilon0:
        return 1.0
    return cfg.alpha * (err / cfg.epsilon0) ** (-cfg.nu)


def relative_accuracies(kappas, nums) -> np.ndarray:
    """Numerosity-weighted accuracies normalised over the match set."""
    weighted = np.asarray(kappas, dtype=float) * np.asarray(nums, dtype=float)
    return weighted / weighted.sum()


def reinforce(m: list, x, cfg: ExperimentConfig) -> np.ndarray:
    """Update every matching classifier against input ``x``.

    Per classifier: experience, error (Widrow-Hoff toward its own
    reconstruction MSE), fitness (toward its relative accuracy), set-size
    estimate, and one momentum-SGD step on the prediction net with the
    input as target.  Conditions receive no gradient descent.  Returns the
    pre-update reconstructions, one row per classifier.

    The bookkeeping runs as elementwise array operations over the whole
    match set, in the order of the per-rule XCS update, so every result is
    the same double as a rule-by-rule loop.  Accuracy alone stays scalar:
    vector ``np.power`` may differ from libm ``pow`` in the last bit.
    """
    ys = np.empty((len(m), len(x)))
    kernels.reinforce_batch([cl.pred_args for cl in m], x, cfg.omega, ys)

    state = np.array([(cl.err, cl.fit, cl.num, cl.set_size) for cl in m])
    err, fit, num, set_size = state.T
    m_micro = sum(cl.num for cl in m)
    err = err + cfg.beta * (np.mean((ys - x) ** 2, axis=1) - err)
    kappas = [accuracy(e, cfg) for e in err.tolist()]
    fit = fit + cfg.beta * (relative_accuracies(kappas, num) - fit)
    fit = np.maximum(fit, _F_FLOOR)
    set_size = set_size + cfg.beta * (m_micro - set_size)
    for cl, e, f, s in zip(m, err.tolist(), fit.tolist(), set_size.tolist()):
        cl.exp += 1
        cl.err = e
        cl.fit = f
        cl.set_size = s
    return ys


def roulette(weights, rng) -> int:
    """Index drawn proportionally to ``weights`` (uniform if all zero)."""
    total = float(np.sum(weights))
    if total <= 0.0:
        return int(rng.integers(0, len(weights)))
    r = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if acc > r:
            return i
    return len(weights) - 1


def select_parents(m: list, rng) -> tuple:
    """Two fitness-proportionate roulette draws (repeats allowed)."""
    fits = [cl.fit for cl in m]
    return m[roulette(fits, rng)], m[roulette(fits, rng)]


def make_offspring(parent: Classifier, err: float, fit: float,
                   cfg: ExperimentConfig, rng, trial: int) -> Classifier:
    """Clone of ``parent`` with self-adapted rates and mutated networks.

    The parent's current (gradient-trained) weights are inherited; momentum
    buffers reset.  The caller supplies the already-reduced error/fitness.
    """
    condition = neural.clone(parent.condition)
    prediction = neural.clone(parent.prediction)
    for net in (condition, prediction):
        for layer in net.layers:
            neural.self_adapt(layer, rng, cfg.mu_min)
    for net in (condition, prediction):
        for layer in net.layers:
            neural.mutate_weights(layer, rng)
        neural.mutate_neurons(net, rng, cfg.h_M, cfg.h_max, cfg.connection_mutation)
        for layer in net.layers:
            neural.mutate_eta(layer, rng)
        if cfg.connection_mutation:
            for layer in net.layers:
                neural.mutate_connections(layer, rng)
    return Classifier(condition=condition, prediction=prediction,
                      err=err, fit=fit, num=1, exp=1,
                      set_size=parent.set_size, ts=trial, born=trial, mtotal=0)


def maybe_run_ea(m: list, pop: Population, cfg: ExperimentConfig, rng) -> bool:
    """Run one evolutionary step on the match set if it is due.

    Fires when the numerosity-weighted mean time since the last run exceeds
    theta_EA.  Two parents are drawn by fitness roulette; lambda offspring
    are cloned (no crossover) with error/fitness set to the reduced
    parental means, then inserted.  Returns whether it fired.
    """
    micro = sum(cl.num for cl in m)
    mean_ts = sum(cl.ts * cl.num for cl in m) / micro
    if pop.trial - mean_ts <= cfg.theta_EA:
        return False
    for cl in m:
        cl.ts = pop.trial
    p1, p2 = select_parents(m, rng)
    err = 0.5 * (p1.err + p2.err) * cfg.epsilon_R
    fit = 0.5 * (p1.fit + p2.fit) * cfg.F_R
    parents = (p1, p2)
    for i in range(cfg.lam):
        child = make_offspring(parents[i % 2], err, fit, cfg, rng, pop.trial)
        pop.members.append(child)
    return True


def deletion_vote(cl: Classifier, pop_mean_f: float, cfg: ExperimentConfig,
                  trial: int) -> float:
    """Roulette weight for removal.

    Proportional to set size times numerosity, boosted for experienced
    low-fitness rules; classifiers that never matched anything within the
    stale limit get an overriding maximal vote.
    """
    if cl.mtotal == 0 and cl.age(trial) > cfg.stale_limit:
        return STALE_VOTE
    vote = cl.set_size * cl.num
    micro_fit = cl.fit / cl.num
    if cl.exp > cfg.theta_del and micro_fit < cfg.delta * pop_mean_f:
        vote *= pop_mean_f / micro_fit
    return vote


def _pick_victim(a: Classifier, b: Classifier, vote_a: float, vote_b: float, rng):
    # stale rules are removed ahead of anything else
    a_stale = vote_a >= STALE_VOTE
    b_stale = vote_b >= STALE_VOTE
    if a_stale != b_stale:
        return a if a_stale else b
    ha = a.prediction.n_hidden
    hb = b.prediction.n_hidden
    if ha != hb:
        return a if ha > hb else b
    if vote_a != vote_b:
        return a if vote_a > vote_b else b
    return a if rng.random() < 0.5 else b


def enforce_population_limit(pop: Population, cfg: ExperimentConfig, rng) -> None:
    """Delete micro-classifiers until the population limit holds.

    Each cycle draws two distinct candidates by vote-proportionate roulette
    and removes one copy of the rule with the larger prediction hidden
    layer (stale rules first, ties by vote, then at random).
    """
    while pop.micro_count() > cfg.N:
        mean_f = pop.mean_fitness()
        votes = [deletion_vote(cl, mean_f, cfg, pop.trial) for cl in pop.members]
        i = roulette(votes, rng)
        if len(pop.members) == 1:
            victim = pop.members[0]
        else:
            rest = list(votes)
            rest[i] = 0.0
            j = roulette(rest, rng)
            if j == i:  # all remaining votes were zero
                j = (i + 1) % len(pop.members)
            victim = _pick_victim(pop.members[i], pop.members[j],
                                  votes[i], votes[j], rng)
        victim.num -= 1
        if victim.num == 0:
            pop.members.remove(victim)


@dataclass(eq=False)
class TrialResult:
    output: np.ndarray
    mse: float
    m_micro: int


def run_trial(pop: Population, x, cfg: ExperimentConfig, rng) -> TrialResult:
    """One online learning step: match, predict, reinforce, evolve, trim."""
    pop.trial += 1
    x = np.ascontiguousarray(x, dtype=float)
    m = build_match_set(pop, x, cfg, rng)
    fits_pre = np.array([cl.fit for cl in m])
    m_micro = sum(cl.num for cl in m)
    ys = reinforce(m, x, cfg)
    output = fitness_weighted_mean(fits_pre, ys)
    maybe_run_ea(m, pop, cfg, rng)
    enforce_population_limit(pop, cfg, rng)
    return TrialResult(output=output, mse=float(np.mean((output - x) ** 2)),
                       m_micro=m_micro)


# ---------------------------------------------------------------------------
# batched no-update evaluation (validation passes, best-rule search)

def _net_outputs(net: neural.Network, xs: np.ndarray) -> np.ndarray:
    h, o = net.layers
    a1 = neural.selu(xs @ h.weights.T + h.biases)
    return neural.logistic(a1 @ o.weights.T + o.biases)


def match_counts(pop: Population, xs: np.ndarray, cfg: ExperimentConfig,
                 members=None) -> np.ndarray:
    """Number of rows of ``xs`` matched by each classifier."""
    members = pop.members if members is None else members
    if cfg.global_ea:
        return np.full(len(members), xs.shape[0])
    counts = np.empty(len(members), dtype=int)
    for i, cl in enumerate(members):
        y = _net_outputs(cl.condition, xs)
        counts[i] = int((y[:, 0] > cfg.match_threshold).sum())
    return counts


def evaluate(pop: Population, xs: np.ndarray, cfg: ExperimentConfig):
    """System reconstruction error over a set of inputs, without updates.

    Returns (mean MSE, mean micro match-set size).  Rows matched by nothing
    fall back to the fitness-weighted prediction of the whole population
    and count a match-set size of zero; an empty population predicts
    nothing, so its error is NaN.
    """
    rows = xs.shape[0]
    if rows == 0:
        return float("nan"), float("nan")
    if not pop.members:
        return float("nan"), 0.0
    acc = np.zeros_like(xs)
    fsum = np.zeros(rows)
    msize = np.zeros(rows)
    for cl in pop.members:
        if cfg.global_ea:
            sel = slice(None)
            xs_sel = xs
        else:
            matched = _net_outputs(cl.condition, xs)[:, 0] > cfg.match_threshold
            if not matched.any():
                continue
            sel = matched
            xs_sel = xs[matched]
        ys = _net_outputs(cl.prediction, xs_sel)
        acc[sel] += cl.fit * ys
        fsum[sel] += cl.fit
        msize[sel] += cl.num
    unmatched = fsum == 0.0
    if unmatched.any():
        xs_u = xs[unmatched]
        acc_u = np.zeros_like(xs_u)
        f_u = 0.0
        for cl in pop.members:
            acc_u += cl.fit * _net_outputs(cl.prediction, xs_u)
            f_u += cl.fit
        acc[unmatched] = acc_u
        fsum[unmatched] = f_u
    preds = acc / fsum[:, None]
    mses = np.mean((preds - xs) ** 2, axis=1)
    return float(mses.mean()), float(msize.mean())


def reconstruct_one(pop: Population, x, cfg: ExperimentConfig) -> np.ndarray:
    """System reconstruction of a single input, without updates.

    Falls back to the whole population when nothing matches.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if cfg.global_ea:
        m = pop.members
    else:
        flags = np.empty(len(pop.members), dtype=np.uint8)
        kernels.match_batch([cl.cond_args for cl in pop.members], x,
                            cfg.match_threshold, flags)
        m = [cl for cl, f in zip(pop.members, flags) if f]
        if not m:
            m = pop.members
    return system_prediction(m, x)


def best_classifier(pop: Population, xs: np.ndarray, cfg: ExperimentConfig):
    """Single best rule and the fraction of ``xs`` it matches.

    The rule with the lowest error wins unless several are below the target
    error, in which case the one matching the most inputs wins.
    """
    below = [cl for cl in pop.members if cl.err < cfg.epsilon0]
    rows = xs.shape[0]
    if not below:
        best = min(pop.members, key=lambda cl: cl.err)
        count = match_counts(pop, xs, cfg, members=[best])[0]
        return best, count / rows
    counts = match_counts(pop, xs, cfg, members=below)
    order = sorted(range(len(below)), key=lambda i: (-counts[i], below[i].err))
    i = order[0]
    return below[i], counts[i] / rows
