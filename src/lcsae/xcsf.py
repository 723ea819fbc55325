"""Accuracy-based classifier system for online autoencoding.

Each classifier pairs a condition network (single logistic output deciding
whether an input belongs to its niche) with a prediction network that
reconstructs the input through a small hidden layer.  Per trial the match
set is reinforced (error/fitness/set-size bookkeeping plus one
momentum-SGD step on each prediction net) and periodically reproduced by
a selection-driven evolutionary step with self-adaptive mutation.  In
``global_ea`` mode every classifier matches every input, so evolution
optimises a single global niche instead.

The eight scalars of every rule (``err, fit, num, exp, set_size, ts, born,
mtotal``) live in a ``RuleState`` table of one numpy column each.  A
``Population`` owns one table; ``pop.rows`` is aligned with
``pop.members`` and holds each member's row.  A match set is an array of
positions in ``pop.members``, so reinforcement, the EA due-check, deletion
votes and the population sums are array operations over table rows.  A
rule reads and writes its own row through properties of the same names;
outside a population (fresh from covering or reproduction, or after
removal) it owns a private one-row table.  Membership changes only
through ``Population.add``, which copies the rule's row into the table,
and ``Population.remove``, which copies it back out; rows are stable and
freed rows are reused.  Neither a rule nor a table refers back to its
population, so a population is freed by reference counting alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

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


# the per-rule scalars, in checkpoint order, and the integer ones
SCALARS = ("err", "fit", "num", "exp", "set_size", "ts", "born", "mtotal")
INT_SCALARS = frozenset(("num", "exp", "ts", "born", "mtotal"))


class RuleState:
    """One column per rule scalar, one row per rule.

    A population's table holds numpy columns; a rule outside a population
    owns a one-row table of Python lists, which is cheaper to make.
    """

    __slots__ = SCALARS

    def __init__(self, capacity: int):
        for name in SCALARS:
            setattr(self, name, np.zeros(capacity, np.int64 if name in INT_SCALARS
                                         else np.float64))

    def grow(self, capacity: int) -> None:
        for name in SCALARS:
            old = getattr(self, name)
            new = np.zeros(capacity, old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)


def _own_row(values) -> RuleState:
    own = RuleState.__new__(RuleState)
    for name, value in zip(SCALARS, values):
        setattr(own, name, [value])
    return own


def _scalar(name: str, cast):
    def get(self):
        return cast(getattr(self._state, name)[self._row])

    def put(self, value):
        getattr(self._state, name)[self._row] = value

    return property(get, put, doc=f"The rule's {name}, kept in its state row.")


class Classifier:
    """A condition net, a prediction net and one row of rule state."""

    __slots__ = ("condition", "prediction", "cond_args", "pred_args",
                 "_state", "_row")

    err = _scalar("err", float)
    fit = _scalar("fit", float)
    num = _scalar("num", int)
    exp = _scalar("exp", int)
    set_size = _scalar("set_size", float)
    ts = _scalar("ts", int)
    born = _scalar("born", int)
    mtotal = _scalar("mtotal", int)

    def __init__(self, condition: neural.Network, prediction: neural.Network,
                 err: float, fit: float, num: int, exp: int, set_size: float,
                 ts: int, born: int, mtotal: int):
        self.condition = condition
        self.prediction = prediction
        self._state = _own_row((err, fit, num, exp, set_size, ts, born, mtotal))
        self._row = 0
        self.refresh_args()

    def refresh_args(self):
        # structure is fixed after construction, so the kernel argument
        # tuples can be cached for the per-trial loops
        self.cond_args = neural.cond_args(self.condition)
        self.pred_args = neural.pred_args(self.prediction)


class Population:
    """The rules of one learner and the state table their scalars live in.

    ``members`` lists the rules in insertion order and ``rows[i]`` is the
    table row of ``members[i]``.  A rule belongs to at most one population.
    """

    def __init__(self, members=(), trial: int = 0):
        members = list(members)
        capacity = max(len(members), 1)
        self.trial = trial
        self.members = []
        self.state = RuleState(capacity)
        self._row_buf = np.empty(capacity, dtype=np.intp)
        self.rows = self._row_buf[:0]
        self._free = []
        for cl in members:
            self.add(cl)

    def add(self, cl: Classifier) -> None:
        """Append ``cl`` and move its scalars into the population's table."""
        # rows are handed out in order and only while none is free, so with
        # no free row the rows in use are exactly 0..n-1
        n = len(self.members)
        if n == len(self._row_buf):
            self.state.grow(2 * n)
            self._row_buf = np.concatenate([self._row_buf, np.empty(n, np.intp)])
        row = self._free.pop() if self._free else n
        state = self.state
        for name in SCALARS:
            getattr(state, name)[row] = getattr(cl._state, name)[cl._row]
        cl._state, cl._row = state, row
        self._row_buf[n] = row
        self.rows = self._row_buf[:n + 1]
        self.members.append(cl)

    def remove(self, cl: Classifier) -> None:
        """Drop ``cl``, which takes its scalars back into a private row."""
        i = self.members.index(cl)
        del self.members[i]
        n = len(self.members)
        self._row_buf[i:n] = self._row_buf[i + 1:n + 1]
        self.rows = self._row_buf[:n]
        self._free.append(cl._row)
        cl._state = _own_row(getattr(self.state, name)[cl._row] for name in SCALARS)
        cl._row = 0

    def micro_count(self) -> int:
        return int(self.state.num[self.rows].sum())

    def mean_fitness(self) -> float:
        """Mean fitness per micro-classifier."""
        # a Python sum in member order, as a rule-by-rule loop adds them
        return sum(self.state.fit[self.rows].tolist()) / self.micro_count()


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


def match_set(pop: Population, x, cfg: ExperimentConfig) -> np.ndarray:
    """Positions in ``pop.members`` of the rules whose condition output for
    ``x`` exceeds the match threshold (every member in global_ea mode)."""
    if cfg.global_ea:
        return np.arange(len(pop.members))
    flags = np.empty(len(pop.members), dtype=np.uint8)
    kernels.match_batch([cl.cond_args for cl in pop.members], x,
                        cfg.match_threshold, flags)
    return np.flatnonzero(flags)


def build_match_set(pop: Population, x, cfg: ExperimentConfig, rng) -> np.ndarray:
    """Positions of all classifiers matching ``x``; covers when none do.

    Every member of the returned set has its matched-input counter
    incremented.
    """
    m = match_set(pop, x, cfg)
    if not len(m):
        pop.add(cover(x, cfg, rng, pop.trial))
        m = np.array([len(pop.members) - 1])
    pop.state.mtotal[pop.rows[m]] += 1
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
    """Fitness-weighted mean reconstruction of a list of rules."""
    ys = np.array([neural.forward(cl.prediction, x) for cl in m])
    return fitness_weighted_mean(_fitnesses(m), ys)


def _fitnesses(rules: list) -> np.ndarray:
    """Fitness of each rule, in one gather when they share a table."""
    state = rules[0]._state if rules else None
    rows = [cl._row for cl in rules if cl._state is state]
    if rows and len(rows) == len(rules):
        return np.asarray(state.fit, dtype=float)[rows]
    return np.array([cl.fit for cl in rules], dtype=float)


def accuracies(err: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """1 below the target error, else the power-law fall-off.

    The power is libm ``pow`` per element, the same double as Python's
    ``**``; vector ``np.power`` may differ in the last bit.
    """
    kappa = np.ones(len(err))
    above = ~(err < cfg.epsilon0)
    ratios = (err[above] / cfg.epsilon0).tolist()
    kappa[above] = cfg.alpha * np.fromiter(map(math.pow, ratios, repeat(-cfg.nu)),
                                           float, len(ratios))
    return kappa


def relative_accuracies(kappas, nums) -> np.ndarray:
    """Numerosity-weighted accuracies normalised over the match set."""
    weighted = np.asarray(kappas, dtype=float) * np.asarray(nums, dtype=float)
    return weighted / weighted.sum()


def reinforce(pop: Population, m: np.ndarray, x, cfg: ExperimentConfig) -> np.ndarray:
    """Update every classifier of the match set ``m`` against input ``x``.

    Per classifier: experience, error (Widrow-Hoff toward its own
    reconstruction MSE), fitness (toward its relative accuracy), set-size
    estimate, and one momentum-SGD step on the prediction net with the
    input as target.  Conditions receive no gradient descent.  Returns the
    pre-update reconstructions, one row per classifier.

    The bookkeeping runs as elementwise array operations over the match
    set's table rows, in the order of the per-rule XCS update, so every
    result is the same double as a rule-by-rule loop.
    """
    members = pop.members
    ys = np.empty((len(m), len(x)))
    kernels.reinforce_batch([members[i].pred_args for i in m.tolist()], x,
                            cfg.omega, ys)

    st = pop.state
    rows = pop.rows[m]
    err, fit, num, set_size = st.err[rows], st.fit[rows], st.num[rows], st.set_size[rows]
    m_micro = int(num.sum())
    # the squared errors of ``(ys - x) ** 2``, without a second temporary
    sq = ys - x
    np.square(sq, out=sq)
    err = err + cfg.beta * (np.mean(sq, axis=1) - err)
    fit = fit + cfg.beta * (relative_accuracies(accuracies(err, cfg), num) - fit)
    st.exp[rows] += 1
    st.err[rows] = err
    st.fit[rows] = np.maximum(fit, _F_FLOOR)
    st.set_size[rows] = set_size + cfg.beta * (m_micro - set_size)
    return ys


def roulette(weights, rng) -> int:
    """Index drawn proportionally to ``weights`` (uniform if all zero)."""
    weights = np.asarray(weights, dtype=float)
    total = float(np.sum(weights))
    if total <= 0.0:
        return int(rng.integers(0, len(weights)))
    r = rng.random() * total
    # cumsum adds in order, so these are the running sums of a loop
    past = np.flatnonzero(np.cumsum(weights) > r)
    return int(past[0]) if len(past) else len(weights) - 1


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


def maybe_run_ea(pop: Population, m: np.ndarray, cfg: ExperimentConfig, rng) -> bool:
    """Run one evolutionary step on the match set ``m`` if it is due.

    Fires when the numerosity-weighted mean time since the last run exceeds
    theta_EA.  Two parents are drawn by fitness roulette; lambda offspring
    are cloned (no crossover) with error/fitness set to the reduced
    parental means, then inserted.  Returns whether it fired.
    """
    st = pop.state
    rows = pop.rows[m]
    num = st.num[rows]
    # integer sums are exact, and int / int rounds once
    mean_ts = int((st.ts[rows] * num).sum()) / int(num.sum())
    if pop.trial - mean_ts <= cfg.theta_EA:
        return False
    st.ts[rows] = pop.trial
    p1, p2 = select_parents([pop.members[i] for i in m.tolist()], rng)
    err = 0.5 * (p1.err + p2.err) * cfg.epsilon_R
    fit = 0.5 * (p1.fit + p2.fit) * cfg.F_R
    parents = (p1, p2)
    for i in range(cfg.lam):
        pop.add(make_offspring(parents[i % 2], err, fit, cfg, rng, pop.trial))
    return True


def deletion_votes(pop: Population, mean_f: float, cfg: ExperimentConfig) -> np.ndarray:
    """Roulette weight for removal of every member.

    Proportional to set size times numerosity, boosted for experienced
    rules whose fitness per micro-classifier is below ``delta`` times the
    population mean ``mean_f``; classifiers that never matched anything
    within the stale limit get an overriding maximal vote.
    """
    st = pop.state
    rows = pop.rows
    num = st.num[rows]
    votes = st.set_size[rows] * num
    micro_fit = st.fit[rows] / num
    boost = np.flatnonzero((st.exp[rows] > cfg.theta_del)
                           & (micro_fit < cfg.delta * mean_f))
    votes[boost] *= mean_f / micro_fit[boost]
    votes[(st.mtotal[rows] == 0) & (pop.trial - st.born[rows] > cfg.stale_limit)] = STALE_VOTE
    return votes


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
        votes = deletion_votes(pop, pop.mean_fitness(), cfg)
        i = roulette(votes, rng)
        if len(pop.members) == 1:
            victim = pop.members[0]
        else:
            rest = votes.copy()
            rest[i] = 0.0
            j = roulette(rest, rng)
            if j == i:  # all remaining votes were zero
                j = (i + 1) % len(pop.members)
            victim = _pick_victim(pop.members[i], pop.members[j],
                                  float(votes[i]), float(votes[j]), rng)
        victim.num -= 1
        if victim.num == 0:
            pop.remove(victim)


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
    rows = pop.rows[m]
    fits_pre = pop.state.fit[rows]
    m_micro = int(pop.state.num[rows].sum())
    ys = reinforce(pop, m, x, cfg)
    output = fitness_weighted_mean(fits_pre, ys)
    maybe_run_ea(pop, m, cfg, rng)
    enforce_population_limit(pop, cfg, rng)
    return TrialResult(output=output, mse=float(np.mean((output - x) ** 2)),
                       m_micro=m_micro)


# ---------------------------------------------------------------------------
# batched no-update evaluation (validation passes, best-rule search)

def _net_outputs(net: neural.Network, xs: np.ndarray) -> np.ndarray:
    h, o = net.layers
    a1 = neural.selu(xs @ h.weights.T + h.biases)
    return neural.logistic(a1 @ o.weights.T + o.biases)


def _matched_rows(cl: Classifier, xs: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Boolean mask of the rows of ``xs`` that ``cl`` matches (xcsf mode)."""
    return _net_outputs(cl.condition, xs)[:, 0] > cfg.match_threshold


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
    fits = pop.state.fit[pop.rows].tolist()
    nums = pop.state.num[pop.rows].tolist()
    for cl, fit, num in zip(pop.members, fits, nums):
        if cfg.global_ea:
            sel = slice(None)
            xs_sel = xs
        else:
            matched = _matched_rows(cl, xs, cfg)
            if not matched.any():
                continue
            sel = matched
            xs_sel = xs[matched]
        ys = _net_outputs(cl.prediction, xs_sel)
        acc[sel] += fit * ys
        fsum[sel] += fit
        msize[sel] += num
    unmatched = fsum == 0.0
    if unmatched.any():
        xs_u = xs[unmatched]
        acc_u = np.zeros_like(xs_u)
        f_u = 0.0
        for cl, fit in zip(pop.members, fits):
            acc_u += fit * _net_outputs(cl.prediction, xs_u)
            f_u += fit
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
    m = match_set(pop, x, cfg)
    rules = [pop.members[i] for i in m.tolist()]
    return system_prediction(rules or pop.members, x)


def best_classifier(pop: Population, xs: np.ndarray, cfg: ExperimentConfig):
    """Single best rule and the fraction of ``xs`` it matches.

    The rule with the lowest error wins unless several are below the target
    error, in which case the one matching the most inputs wins.
    """
    rows = xs.shape[0]

    def count(cl):
        return rows if cfg.global_ea else int(_matched_rows(cl, xs, cfg).sum())

    below = [cl for cl in pop.members if cl.err < cfg.epsilon0]
    if not below:
        best = min(pop.members, key=lambda cl: cl.err)
        return best, count(best) / rows
    counts = [count(cl) for cl in below]
    i = min(range(len(below)), key=lambda i: (-counts[i], below[i].err))
    return below[i], counts[i] / rows
