"""Accuracy-based classifier system for online autoencoding.

Each classifier pairs a condition network (single logistic output deciding
whether an input belongs to its niche) with a prediction network that
reconstructs the input through a small hidden layer.  Per trial the match
set is reinforced (one momentum-SGD step on each prediction net, then the
error/fitness/set-size/experience update, all in one kernel call) and
periodically reproduced by a selection-driven evolutionary step with
self-adaptive mutation.  In ``global_ea`` mode every classifier matches
every input, so evolution optimises a single global niche instead.
Rules are never merged (there is no subsumption), so each rule is one
classifier and the population limit N counts rules.

The seven scalars of every rule (``err, fit, exp, set_size, ts, born,
mtotal``) live in a ``RuleState`` table of one numpy column each, exactly
as long as the rows it holds.  A ``Population`` owns one table with one row
per member, and row i of it belongs to ``pop.members[i]``.  A match set is
an array of positions in ``pop.members``, which index the table directly:
reinforcement hands the positions and the columns to the kernel, the EA
due-check, deletion votes and the population sums are array operations
over whole columns, and the EA's parents and the best rule are picked by
position from them.  A rule is its two nets plus a row of a table,
``Classifier(condition, prediction, state, row)``, and reads and writes
that row through properties of the same names.  Outside a population
(fresh from covering or reproduction, or after removal) it owns a one-row
table, which ``RuleState.of`` builds from the seven scalars.  Membership
changes only through ``Population.add``, which appends the rule's row to
every column, and ``Population.remove``, which deletes it and hands the
rule a copy; both replace the columns.  Neither a rule nor a table refers
back to its population, so a population is freed by reference counting
alone.

A condition is never modified after its ``Classifier`` is built (it gets no
gradient descent, and reproduction mutates a clone), so a rule's match
decision on a dataset row never changes.  In xcsf mode a run's population
keeps a memo of them, ``Population.memo``: one ``int8`` per (slot, dataset
row), ``UNKNOWN``, ``NO_MATCH`` or ``MATCH``.  ``slots[i]`` is the slot of
``members[i]``, and only ``Population.add``, which takes a free slot and
zeroes it, and ``remove``, which frees it, touch slots; neither copies the
memo.  The trial path, ``evaluate`` and ``best_classifier`` take the
dataset rows of their inputs and evaluate only the conditions whose
decisions the memo lacks, so a condition meets each row at most once in its
rule's lifetime.  Without rows (inputs that are not dataset rows, such as
corrupted ones) or without a memo every decision is missing, so they
evaluate every condition on every input and store nothing.  The memo is
not saved with the population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, neural
from ._kernels_py import F_FLOOR as _F_FLOOR
from .config import ExperimentConfig

# overriding deletion vote for classifiers that never matched anything
STALE_VOTE = 1e30

MAX_COVER_TRIES = 10**6


class CoveringError(Exception):
    pass


# match memo entries: the decision is not yet computed, no match, match
UNKNOWN, NO_MATCH, MATCH = 0, 1, 2

# the per-rule scalars, in checkpoint order, and the integer ones
SCALARS = ("err", "fit", "exp", "set_size", "ts", "born", "mtotal")
INT_SCALARS = frozenset(("exp", "ts", "born", "mtotal"))


class RuleState:
    """One numpy column per rule scalar, exactly as long as the rows it holds.

    ``columns`` gives each column's values in ``SCALARS`` order.  A
    population's table has one row per member, and a rule outside a
    population owns a one-row table.  ``Population.add`` and ``remove``
    replace every column of the table with a longer or shorter array, so
    nothing may keep a column across either of them.
    """

    __slots__ = SCALARS

    def __init__(self, columns):
        for name, values in zip(SCALARS, columns):
            setattr(self, name, np.array(values, np.int64 if name in INT_SCALARS
                                         else np.float64))

    @classmethod
    def of(cls, *, err, fit, exp, set_size, ts, born, mtotal) -> RuleState:
        """The one-row table of a rule outside a population."""
        return cls(([err], [fit], [exp], [set_size], [ts], [born], [mtotal]))


def _scalar(name: str, cast):
    def get(self):
        return cast(getattr(self._state, name)[self._row])

    def put(self, value):
        getattr(self._state, name)[self._row] = value

    return property(get, put, doc=f"The rule's {name}, kept in its state row.")


class Classifier:
    """A condition net, a prediction net and row ``row`` of the ``RuleState``
    table ``state``, which holds the rule's scalars: a population's table, or
    for a rule outside one its own one-row table from ``RuleState.of``."""

    __slots__ = ("condition", "prediction", "cond_args", "pred_args",
                 "_state", "_row")

    err = _scalar("err", float)
    fit = _scalar("fit", float)
    exp = _scalar("exp", int)
    set_size = _scalar("set_size", float)
    ts = _scalar("ts", int)
    born = _scalar("born", int)
    mtotal = _scalar("mtotal", int)

    def __init__(self, condition: neural.Network, prediction: neural.Network,
                 state: RuleState, row: int):
        self.condition = condition
        self.prediction = prediction
        self._state = state
        self._row = row
        # structure and rates are fixed after construction, so each net's
        # kernel argument tuple is cached for the per-trial loops
        self.cond_args = neural.net_args(condition)
        self.pred_args = neural.net_args(prediction)


class Population:
    """The rules of one learner and the state table their scalars live in.

    ``members`` lists the rules in insertion order, and row i of ``state``
    is the row of ``members[i]``; the table has no other rows.  A rule
    belongs to at most one population.  Without a match memo, ``memo`` and
    ``slots`` are None.
    """

    def __init__(self, members=(), trial: int = 0):
        self.trial = trial
        self.members = list(members)
        self.state = RuleState([getattr(cl._state, name)[cl._row] for cl in self.members]
                               for name in SCALARS)
        for i, cl in enumerate(self.members):
            cl._state, cl._row = self.state, i
        self.memo = self.slots = None
        self._free = []

    def memoize(self, cfg: ExperimentConfig, rows: int) -> None:
        """Start an empty memo of match decisions on ``rows`` dataset rows,
        with room for the most rules a trial holds before deletion: N
        members, a covered rule and lambda offspring.  In global_ea mode
        every rule matches, so no memo is built."""
        if cfg.global_ea:
            return
        capacity = cfg.N + cfg.lam + 1
        if len(self.members) > capacity:
            raise ValueError(f"{len(self.members)} rules do not fit a match memo "
                             f"of {capacity} slots")
        self.memo = np.zeros((capacity, rows), np.int8)
        self.slots = np.arange(len(self.members))
        # popped from the end, so the lowest free slot goes first
        self._free = list(range(capacity - 1, len(self.members) - 1, -1))

    def add(self, cl: Classifier) -> None:
        """Append ``cl`` and its row of scalars to the table; with a memo, give
        it a zeroed slot, so it never reads a dead rule's decisions."""
        if self.memo is not None:
            if not self._free:
                raise RuntimeError("the match memo is full")
            slot = self._free.pop()
            self.memo[slot] = UNKNOWN
            self.slots = np.append(self.slots, slot)
        state, i = self.state, cl._row
        for name in SCALARS:
            setattr(state, name, np.concatenate((getattr(state, name),
                                                 getattr(cl._state, name)[i:i + 1])))
        cl._state, cl._row = state, len(self.members)
        self.members.append(cl)

    def remove(self, cl: Classifier) -> None:
        """Drop ``cl`` and its row, which it takes into a one-row table of its
        own; the later members move up by one row."""
        state, i = self.state, cl._row
        members = self.members
        if cl._state is not state or i >= len(members) or members[i] is not cl:
            raise ValueError("the rule is not a member of this population")
        cl._state = RuleState(getattr(state, name)[i:i + 1] for name in SCALARS)
        cl._row = 0
        for name in SCALARS:
            col = getattr(state, name)
            setattr(state, name, np.concatenate((col[:i], col[i + 1:])))
        if self.memo is not None:
            self._free.append(int(self.slots[i]))
            self.slots = np.concatenate((self.slots[:i], self.slots[i + 1:]))
        del members[i]
        for later in members[i:]:
            later._row -= 1

    def micro_count(self) -> int:
        """The number of rules, which the population limit N counts; the
        benchmark's deletion counter reads it."""
        return len(self.members)

    def mean_fitness(self) -> float:
        """Mean fitness of the rules."""
        # in member order; the builtin sum compensates from Python 3.12 on
        return float(np.cumsum(self.state.fit)[-1]) / len(self.members)


def init_population(cfg: ExperimentConfig, n_features: int, rng) -> Population:
    """Population of N random single-hidden-neuron classifiers (or empty
    when P_init is off, in which case covering fills it on demand)."""
    members = [_fresh_rule(neural.new_network(n_features, cfg.h_I, 1, rng, mu_min=cfg.mu_min),
                           cfg, n_features, rng, trial=0)
               for _ in range(cfg.N if cfg.P_init else 0)]
    return Population(members=members, trial=0)


def _fresh_rule(condition: neural.Network, cfg: ExperimentConfig, n: int, rng,
                trial: int) -> Classifier:
    """A rule born at ``trial`` on ``condition``, with a new prediction net."""
    prediction = neural.new_network(n, cfg.h_I, n, rng, mu_min=cfg.mu_min)
    return Classifier(condition, prediction,
                      RuleState.of(err=cfg.epsilon_I, fit=cfg.F_I, exp=0, set_size=1.0,
                                   ts=trial, born=trial, mtotal=0), 0)


def match_set(pop: Population, x, cfg: ExperimentConfig, row=None) -> np.ndarray:
    """Positions in ``pop.members`` of the rules whose condition output for
    ``x`` exceeds the match threshold (every member in global_ea mode).

    ``row`` is the dataset row ``x`` is, if any: the memo answers for the
    members that met it before, and one ``match_batch`` over the rest
    decides and stores theirs.
    """
    if cfg.global_ea:
        return np.arange(len(pop.members))
    members, memo = pop.members, pop.memo
    if row is None or memo is None:  # every decision is missing, and none is stored
        return kernels.match_batch([cl.cond_args for cl in members], x, cfg.match_threshold)
    known = memo[:, row][pop.slots]
    todo = (known == UNKNOWN).nonzero()[0]
    if len(todo):
        hits = todo[kernels.match_batch([members[i].cond_args for i in todo.tolist()], x,
                                        cfg.match_threshold)]
        known[todo] = NO_MATCH
        known[hits] = MATCH
        memo[pop.slots[todo], row] = known[todo]
    return (known == MATCH).nonzero()[0]


def build_match_set(pop: Population, x, cfg: ExperimentConfig, rng,
                    row=None) -> np.ndarray:
    """Positions of all classifiers matching ``x``, the dataset row ``row``
    if any; covers when none do.

    Every member of the returned set has its matched-input counter
    incremented.
    """
    m = match_set(pop, x, cfg, row)
    if not len(m):
        pop.add(cover(x, cfg, rng, pop.trial))
        m = np.array([len(pop.members) - 1])
    pop.state.mtotal[m] += 1
    return m


def cover(x, cfg: ExperimentConfig, rng, trial: int) -> Classifier:
    """Random classifier whose condition matches ``x``.

    Condition nets are resampled with sigma=1 (random weights and biases)
    until one matches, at most ``MAX_COVER_TRIES`` times; the prediction net
    uses the standard initialisation.
    """
    n = len(x)
    for _ in range(MAX_COVER_TRIES):
        condition = neural.new_network(n, cfg.h_I, 1, rng, sigma=1.0,
                                       random_biases=True, mu_min=cfg.mu_min)
        if cfg.global_ea or neural.forward(condition, x)[0] > cfg.match_threshold:
            return _fresh_rule(condition, cfg, n, rng, trial)
    raise CoveringError(
        f"covering failed to match the input after {MAX_COVER_TRIES} samples; "
        f"check match_threshold ({cfg.match_threshold})")


def system_prediction(m: list, x) -> np.ndarray:
    """Fitness-weighted mean reconstruction of a list of rules, added in list
    order by one ``predict_batch`` call, as ``evaluate`` and trials add them."""
    x = np.ascontiguousarray(x, dtype=float)
    out = np.empty((1, len(x)))
    kernels.predict_batch([cl.pred_args for cl in m], x[None], np.ones((len(m), 1), bool),
                          _fitnesses(m), out)
    return out[0]


def _fitnesses(rules: list) -> np.ndarray:
    """Fitness of each rule, in one gather when they share a table."""
    state = rules[0]._state if rules else None
    rows = [cl._row for cl in rules if cl._state is state]
    if rows and len(rows) == len(rules):
        return state.fit[rows]
    return np.array([cl.fit for cl in rules], dtype=float)


def reinforce(pop: Population, m: np.ndarray, x, cfg: ExperimentConfig) -> np.ndarray:
    """Update every classifier of the match set ``m`` against input ``x``.

    Per classifier: one momentum-SGD step on the prediction net with the
    input as target, then experience, error (Widrow-Hoff toward its own
    reconstruction MSE), fitness (toward its relative accuracy) and
    set-size estimate.  Conditions receive no gradient descent.  Returns
    the match set's ``system_prediction`` from before the update.

    All of it is one ``reinforce_batch`` call, which updates the match
    set's table rows in the order of the per-rule XCS update, so every
    result is the same double as a rule-by-rule loop.  The reconstruction
    MSE is summed in ``np.mean``'s pairwise order, so it is the double
    ``np.mean(np.square(y - x))`` gives.
    """
    members, st = pop.members, pop.state
    out = np.empty(len(x))
    kernels.reinforce_batch([members[i].pred_args for i in m.tolist()], x,
                            cfg.omega, out, m, st.err, st.fit, st.set_size, st.exp,
                            cfg.beta, cfg.epsilon0, cfg.alpha, cfg.nu)
    return out


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
    return Classifier(condition, prediction,
                      RuleState.of(err=err, fit=fit, exp=1, set_size=parent.set_size,
                                   ts=trial, born=trial, mtotal=0), 0)


def maybe_run_ea(pop: Population, m: np.ndarray, cfg: ExperimentConfig, rng) -> bool:
    """Run one evolutionary step on the match set ``m`` if it is due.

    Fires when the match set's mean time since the last run exceeds
    theta_EA.  Two parents are drawn by fitness roulette; lambda offspring
    are cloned (no crossover) with error/fitness set to the reduced
    parental means, then inserted.  Returns whether it fired.
    """
    st = pop.state
    # the integer sum is exact, and int / int rounds once
    mean_ts = int(st.ts[m].sum()) / len(m)
    if pop.trial - mean_ts <= cfg.theta_EA:
        return False
    st.ts[m] = pop.trial
    # two fitness-proportionate roulette draws (repeats allowed)
    p1, p2 = m[roulette(st.fit[m], rng)], m[roulette(st.fit[m], rng)]
    err = 0.5 * (float(st.err[p1]) + float(st.err[p2])) * cfg.epsilon_R
    # a small F_R can make the reduced fitness subnormal, whose deletion vote
    # mean_f / fit overflows; keep it at the floor reinforce keeps
    fit = max(0.5 * (float(st.fit[p1]) + float(st.fit[p2])) * cfg.F_R, _F_FLOOR)
    parents = (pop.members[p1], pop.members[p2])
    for i in range(cfg.lam):
        pop.add(make_offspring(parents[i % 2], err, fit, cfg, rng, pop.trial))
    return True


def deletion_votes(pop: Population, mean_f: float, cfg: ExperimentConfig) -> np.ndarray:
    """Roulette weight for removal of every member.

    Proportional to set size, boosted for experienced rules whose fitness
    is below ``delta`` times the population mean ``mean_f``; classifiers
    that never matched anything within the stale limit get an overriding
    maximal vote.
    """
    st = pop.state
    votes = st.set_size.copy()
    boost = np.flatnonzero((st.exp > cfg.theta_del) & (st.fit < cfg.delta * mean_f))
    votes[boost] *= mean_f / st.fit[boost]
    votes[(st.mtotal == 0) & (pop.trial - st.born > cfg.stale_limit)] = STALE_VOTE
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
    """Delete rules until there are at most N.

    Each cycle draws two distinct candidates by vote-proportionate roulette
    and removes the one with the larger prediction hidden layer (stale
    rules first, ties by vote, then at random).
    """
    while len(pop.members) > cfg.N:
        votes = deletion_votes(pop, pop.mean_fitness(), cfg)
        i = roulette(votes, rng)
        rest = votes.copy()
        rest[i] = 0.0
        j = roulette(rest, rng)
        if j == i:  # all remaining votes were zero
            j = (i + 1) % len(pop.members)
        pop.remove(_pick_victim(pop.members[i], pop.members[j],
                                float(votes[i]), float(votes[j]), rng))


@dataclass(eq=False)
class TrialResult:
    output: np.ndarray
    mse: float
    m_size: int


def run_trial(pop: Population, x, cfg: ExperimentConfig, rng, row=None) -> TrialResult:
    """One online learning step on ``x``, the dataset row ``row`` if any:
    match, predict, reinforce, evolve, trim."""
    pop.trial += 1
    x = np.ascontiguousarray(x, dtype=float)
    m = build_match_set(pop, x, cfg, rng, row)
    output = reinforce(pop, m, x, cfg)
    maybe_run_ea(pop, m, cfg, rng)
    enforce_population_limit(pop, cfg, rng)
    return TrialResult(output=output, mse=float(np.mean((output - x) ** 2)),
                       m_size=len(m))


# ---------------------------------------------------------------------------
# batched no-update evaluation (validation passes, best-rule search), on
# ``kernels.forward_batch`` and ``kernels.predict_batch`` over a batch of
# inputs: every output is the double the trial path and ``reconstruct``
# compute for the same input

def _match_matrix(rules: list, xs: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """C-contiguous boolean (rules, rows) matrix: whether each rule's
    condition output for each row of ``xs``, a C-contiguous float64 batch,
    exceeds the match threshold."""
    ys = np.empty((len(rules) * xs.shape[0], 1))
    kernels.forward_batch([cl.cond_args for cl in rules], xs, ys)
    return ys.reshape(len(rules), xs.shape[0]) > cfg.match_threshold


def _matched(pop: Population, rules: np.ndarray, xs: np.ndarray, cfg: ExperimentConfig,
             rows) -> np.ndarray:
    """``_match_matrix`` of the members at positions ``rules`` on ``xs``
    (all true in global_ea mode).

    ``rows`` are the dataset rows of ``xs``, if any: the memo answers what
    it holds, and one ``forward_batch`` over the rules that lack a decision
    times the rows that lack one decides and stores the rest.
    """
    if cfg.global_ea:
        return np.ones((len(rules), xs.shape[0]), dtype=bool)
    memo = pop.memo
    if rows is None or memo is None:  # every decision is missing, and none is stored
        return _match_matrix([pop.members[i] for i in rules.tolist()], xs, cfg)
    known = np.take(memo[pop.slots[rules]], rows, axis=1)
    missing = known == UNKNOWN
    lack_r, lack_c = np.flatnonzero(missing.any(axis=1)), np.flatnonzero(missing.any(axis=0))
    if len(lack_r):
        members = pop.members
        sub = xs if len(lack_c) == xs.shape[0] else xs[lack_c]
        block = np.where(_match_matrix([members[i] for i in rules[lack_r].tolist()], sub, cfg),
                         np.int8(MATCH), np.int8(NO_MATCH))
        known[np.ix_(lack_r, lack_c)] = block
        memo[np.ix_(pop.slots[rules[lack_r]], rows[lack_c])] = block
    return known == MATCH


def evaluate(pop: Population, xs: np.ndarray, cfg: ExperimentConfig, rows=None):
    """System reconstruction error over a set of inputs, without updates.

    Returns (mean MSE, mean match-set size).  Rows matched by nothing
    fall back to the fitness-weighted prediction of the whole population
    and count a match-set size of zero; an empty population predicts
    nothing, so its error is NaN.  Each row's prediction adds the matching
    rules' fitness-weighted outputs in member order, all in one
    ``predict_batch`` call.  ``rows`` are the dataset rows of ``xs``, if
    any, for the match memo.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    if xs.shape[0] == 0:
        return float("nan"), float("nan")
    if not pop.members:
        return float("nan"), 0.0
    matched = _matched(pop, np.arange(len(pop.members)), xs, cfg, rows)
    msize = matched.sum(axis=0)
    # a row that no rule matches is predicted by every rule
    matched[:, ~matched.any(axis=0)] = True
    preds = np.empty_like(xs)
    kernels.predict_batch([cl.pred_args for cl in pop.members], xs, matched,
                          pop.state.fit, preds)
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


def best_classifier(pop: Population, xs: np.ndarray, cfg: ExperimentConfig, rows=None):
    """Single best rule and the fraction of ``xs`` it matches.

    The rule with the lowest error wins unless several are below the target
    error, in which case the one matching the most inputs wins.  ``rows``
    are the dataset rows of ``xs``, if any, for the match memo.
    """
    err = pop.state.err
    below = np.flatnonzero(err < cfg.epsilon0)
    if not len(below):
        below = np.array([np.argmin(err)])  # the first rule with the lowest error
    counts = _matched(pop, below, xs, cfg, rows).sum(axis=1)
    # most matches, then lowest error; the stable sort keeps the earliest rule
    k = np.lexsort((err[below], -counts))[0]
    return pop.members[below[k]], int(counts[k]) / xs.shape[0]
