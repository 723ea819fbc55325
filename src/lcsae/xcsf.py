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
over whole columns, and the EA's parents, the deletion victim and the
best rule are picked by position from them.  A rule of a population is its
position i: the nets ``members[i]`` and row i.  A rule outside a population
is its two nets; ``add`` appends it and a row of its scalars to every
column, and ``remove(i)`` deletes member i and its row; both replace the
columns.  Neither a rule nor a table refers back to a population, so a
population is freed by reference counting alone.

A condition is never modified after its ``Classifier`` is built (it gets no
gradient descent, and reproduction builds new arrays), so a rule's match
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
not saved with the population.  Every decision, in covering too, comes
from ``kernels.match_batch``, the package's one match rule.
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
    population's table has one row per member.  ``Population.add`` and
    ``remove`` replace every column of the table with a longer or shorter
    array, so nothing may keep a column across either of them.
    """

    __slots__ = SCALARS

    def __init__(self, columns):
        for name, values in zip(SCALARS, columns):
            setattr(self, name, np.array(values, np.int64 if name in INT_SCALARS
                                         else np.float64))


class Classifier:
    """A condition net and a prediction net.  The scalars of a member are
    the row of its position in its population's table."""

    __slots__ = ("condition", "prediction", "cond_args", "pred_args")

    def __init__(self, condition: neural.Network, prediction: neural.Network):
        self.condition = condition
        self.prediction = prediction
        # structure and rates are fixed after construction, so each net's
        # kernel argument tuple is cached for the per-trial loops
        self.cond_args = neural.net_args(condition)
        self.pred_args = neural.net_args(prediction)


class Population:
    """The rules of one learner and the state table their scalars live in.

    ``members`` lists the rules in insertion order, and row i of ``state``
    is the row of ``members[i]``; the table has no other rows, and an
    empty table is made when none is given.  Iterating a population yields
    its members.  A learner's rules are members of its population only,
    but a population of matched rules made for a prediction shares their
    nets.  Without a match memo, ``memo`` and ``slots`` are None.
    """

    def __init__(self, members=(), trial: int = 0, state: RuleState | None = None):
        self.trial = trial
        self.members = list(members)
        self.state = state = state or RuleState([()] * len(SCALARS))
        if len(state.fit) != len(self.members):
            raise ValueError(f"{len(state.fit)} state rows for {len(self.members)} rules")
        self.memo = self.slots = None
        self._free = []

    def __iter__(self):
        return iter(self.members)

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

    def add(self, rules, *, err, fit, exp, set_size, ts, born, mtotal) -> None:
        """Append ``rules``, a list of rules outside any population, and
        their rows of the scalars given, each one value for every rule or a
        sequence of one per rule, to the table; with a memo, give each rule
        a zeroed slot, so it never reads a dead rule's decisions.  A memo
        without a slot for every rule is refused before anything changes."""
        k = len(rules)
        if self.memo is not None:
            if len(self._free) < k:
                raise RuntimeError("the match memo is full")
            slots = [self._free.pop() for _ in range(k)]
            self.memo[slots] = UNKNOWN
            self.slots = np.concatenate((self.slots, slots))
        state = self.state
        for name, value in zip(SCALARS, (err, fit, exp, set_size, ts, born, mtotal)):
            col = getattr(state, name)
            setattr(state, name, np.concatenate((col, np.full(k, value, col.dtype))))
        self.members.extend(rules)

    def remove(self, i: int) -> None:
        """Drop member ``i`` and its row, whose scalars go with it; the later
        members move up one position.  A position outside
        ``range(len(members))``, a negative one too, is refused before
        anything changes."""
        state, members = self.state, self.members
        if not 0 <= i < len(members):
            raise IndexError(f"no member at position {i} of {len(members)}")
        for name in SCALARS:
            col = getattr(state, name)
            setattr(state, name, np.concatenate((col[:i], col[i + 1:])))
        if self.memo is not None:
            self._free.append(int(self.slots[i]))
            self.slots = np.concatenate((self.slots[:i], self.slots[i + 1:]))
        del members[i]

    def micro_count(self) -> int:
        """The number of rules, which the population limit N counts; the
        benchmark's deletion counter reads it."""
        return len(self.members)

    def mean_fitness(self) -> float:
        """Mean fitness of the rules."""
        # in member order; the builtin sum compensates from Python 3.12 on
        return float(np.cumsum(self.state.fit)[-1]) / len(self.members)


def init_population(cfg: ExperimentConfig, n_features: int, rng) -> Population:
    """Population of N random single-hidden-neuron classifiers, each with a
    covered rule's scalars at trial 0 (or empty when P_init is off, in
    which case covering fills it on demand)."""
    n, k = n_features, cfg.N if cfg.P_init else 0
    members = [Classifier(neural.new_network(n, cfg.h_I, 1, rng, mu_min=cfg.mu_min),
                          neural.new_network(n, cfg.h_I, n, rng, mu_min=cfg.mu_min))
               for _ in range(k)]
    state = RuleState(np.full(k, v) for v in (cfg.epsilon_I, cfg.F_I, 0, 1.0, 0, 0, 0))
    return Population(members, 0, state)


def match_set(pop: Population, x, cfg: ExperimentConfig, row=None) -> np.ndarray:
    """Increasing positions in ``pop.members`` of the rules whose condition
    output for ``x`` exceeds the match threshold (all in global_ea mode).

    ``row`` is the dataset row ``x`` is, if any: the memo answers for the
    members that met it before, and one ``match_batch`` over the rest
    decides and stores theirs.
    """
    if cfg.global_ea:
        return np.arange(len(pop.members))
    members, memo = pop.members, pop.memo
    if row is None or memo is None:  # every decision is missing, and none is stored
        return np.flatnonzero(kernels.match_batch([cl.cond_args for cl in members], x[None],
                                                  cfg.match_threshold)[:, 0])
    known = memo[:, row][pop.slots]
    todo = (known == UNKNOWN).nonzero()[0]
    if len(todo):
        hits = kernels.match_batch([members[i].cond_args for i in todo.tolist()], x[None],
                                   cfg.match_threshold)[:, 0]
        known[todo] = np.where(hits, np.int8(MATCH), np.int8(NO_MATCH))
        memo[pop.slots[todo], row] = known[todo]
    return (known == MATCH).nonzero()[0]


def build_match_set(pop: Population, x, cfg: ExperimentConfig, rng,
                    row=None) -> np.ndarray:
    """Increasing positions of all classifiers matching ``x``, the dataset
    row ``row`` if any; covers when none do.

    A covered rule starts at error epsilon_I, fitness F_I, no experience
    and set size 1, born and stamped at the current trial.  Every member
    of the returned set has its matched-input counter incremented.
    """
    m = match_set(pop, x, cfg, row)
    if not len(m):
        pop.add([cover(x, cfg, rng)], err=cfg.epsilon_I, fit=cfg.F_I, exp=0, set_size=1.0,
                ts=pop.trial, born=pop.trial, mtotal=0)
        m = np.array([len(pop.members) - 1])
    pop.state.mtotal[m] += 1
    return m


def cover(x, cfg: ExperimentConfig, rng) -> Classifier:
    """Random classifier whose condition matches ``x``, outside any
    population.

    Condition nets are resampled with sigma=1 (random weights and biases)
    until one matches, at most ``MAX_COVER_TRIES`` times; the prediction net
    uses the standard initialisation and is drawn after the condition.
    """
    n = len(x)
    for _ in range(MAX_COVER_TRIES):
        condition = neural.new_network(n, cfg.h_I, 1, rng, sigma=1.0,
                                       random_biases=True, mu_min=cfg.mu_min)
        if cfg.global_ea or kernels.match_batch([neural.net_args(condition)], x[None],
                                                cfg.match_threshold)[0, 0]:
            return Classifier(condition, neural.new_network(n, cfg.h_I, n, rng,
                                                            mu_min=cfg.mu_min))
    raise CoveringError(
        f"covering failed to match the input after {MAX_COVER_TRIES} samples; "
        f"check match_threshold ({cfg.match_threshold})")


def system_prediction(pop: Population, x) -> np.ndarray:
    """Fitness-weighted mean reconstruction of the rules of ``pop``, added in
    member order by one ``predict_batch`` call, as ``evaluate`` and trials do."""
    x = np.ascontiguousarray(x, dtype=float)
    out = np.empty((1, len(x)))
    kernels.predict_batch([cl.pred_args for cl in pop], x[None],
                          np.ones((len(pop.members), 1), bool), pop.state.fit, out)
    return out[0]


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
    # cumsum adds in order, so these are the running sums of a loop; they
    # never decrease, so the first one above r is where r sorts on the right
    i = int(np.searchsorted(np.cumsum(weights), r, side="right"))
    return min(i, len(weights) - 1)


def make_offspring(parent: Classifier, cfg: ExperimentConfig, rng) -> Classifier:
    """Mutated copy of ``parent``'s nets, outside any population.

    The parent's current (gradient-trained) weights are inherited, momentum
    starts at zero, and the parent is not touched.  The caller adds the
    child with its scalars.  The draws, in this order, are a contract (the
    tests compare them with the per-layer operators bit for bit):

    1. one (4, 4) ``standard_normal`` for the 16 rate steps, one row per
       layer (condition hidden, output, prediction hidden, output):
       mu <- mu * e^z, clamped into [mu_min, 1];
    2. per net, condition first, one ``standard_normal`` for the weight
       noise and then the bias noise of the hidden and then the output
       layer, followed by the neuron step g;
    3. either growth's new rows and columns and the two eta steps (one
       ``standard_normal``; with ``connection_mutation`` the rows, their
       ``random`` connections, the columns, theirs, then the two steps), or
       shrinking's ``choice`` and then the two eta steps, or the two eta
       steps alone;
    4. with ``connection_mutation``, each layer's ``random`` flips and
       ``standard_normal`` fresh weights.

    Steps 2-4 run for the condition net before the prediction net.
    """
    mu = np.array([layer.mu for layer in parent.condition.layers + parent.prediction.layers])
    mu *= np.exp(rng.standard_normal((4, 4)))
    np.clip(mu, cfg.mu_min, 1.0, out=mu)
    args = (rng, cfg.h_M, cfg.h_max, cfg.connection_mutation)
    return Classifier(neural.offspring(parent.condition, mu[:2], *args),
                      neural.offspring(parent.prediction, mu[2:], *args))


def maybe_run_ea(pop: Population, m: np.ndarray, cfg: ExperimentConfig, rng) -> bool:
    """Run one evolutionary step on the match set ``m`` if it is due.

    Fires when the match set's mean time since the last run exceeds
    theta_EA.  Two parents are drawn by fitness roulette; lambda offspring
    are mutated copies (no crossover), inserted, alternating parents, with
    error/fitness set to the reduced parental means, experience 1 and
    their parent's set size, born and stamped at the current trial.
    Returns whether it fired.
    """
    st = pop.state
    # the integer sum is exact, and int / int rounds once
    mean_ts = int(st.ts[m].sum()) / len(m)
    if pop.trial - mean_ts <= cfg.theta_EA:
        return False
    st.ts[m] = pop.trial
    # two fitness-proportionate roulette draws (repeats allowed)
    fits = st.fit[m]
    p1, p2 = m[roulette(fits, rng)], m[roulette(fits, rng)]
    err = 0.5 * (float(st.err[p1]) + float(st.err[p2])) * cfg.epsilon_R
    # a small F_R can make the reduced fitness subnormal, whose deletion vote
    # mean_f / fit overflows; keep it at the floor reinforce keeps
    fit = max(0.5 * (float(st.fit[p1]) + float(st.fit[p2])) * cfg.F_R, _F_FLOOR)
    parents = [(p1, p2)[i % 2] for i in range(cfg.lam)]
    children = [make_offspring(pop.members[p], cfg, rng) for p in parents]
    pop.add(children, err=err, fit=fit, exp=1, set_size=st.set_size[parents], ts=pop.trial,
            born=pop.trial, mtotal=0)
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


def _pick_victim(pop: Population, i: int, j: int, vote_i: float, vote_j: float, rng):
    """The position, ``i`` or ``j``, of the member to delete."""
    # stale rules are removed ahead of anything else
    i_stale = vote_i >= STALE_VOTE
    j_stale = vote_j >= STALE_VOTE
    if i_stale != j_stale:
        return i if i_stale else j
    hi = pop.members[i].prediction.n_hidden
    hj = pop.members[j].prediction.n_hidden
    if hi != hj:
        return i if hi > hj else j
    if vote_i != vote_j:
        return i if vote_i > vote_j else j
    return i if rng.random() < 0.5 else j


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
        # the other votes are never all zero (set sizes start at 1.0 and move to
        # m >= 1, the loader refuses set_size <= 0, boosts are positive): j == i
        # only if r fell between roulette's last running sum and np.sum's total
        if j == i:
            j = (i + 1) % len(pop.members)
        pop.remove(_pick_victim(pop, i, j, float(votes[i]), float(votes[j]), rng))


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
# ``kernels.match_batch`` and ``kernels.predict_batch`` over a batch of
# inputs: every output is the double the trial path and ``reconstruct``
# compute for the same input

def _matched(pop: Population, rules: np.ndarray, xs: np.ndarray, cfg: ExperimentConfig,
             rows) -> np.ndarray:
    """C-contiguous boolean (rules, rows) matrix: whether each member at
    positions ``rules`` matches each row of ``xs``, a C-contiguous float64
    batch (all true in global_ea mode).

    ``rows`` are the dataset rows of ``xs``, if any: the memo answers what
    it holds, and one ``match_batch`` over the rules that lack a decision
    times the rows that lack one decides and stores the rest.
    """
    if cfg.global_ea:
        return np.ones((len(rules), xs.shape[0]), dtype=bool)
    members, memo = pop.members, pop.memo
    if rows is None or memo is None:  # every decision is missing, and none is stored
        return kernels.match_batch([members[i].cond_args for i in rules.tolist()], xs,
                                   cfg.match_threshold)
    known = np.take(memo[pop.slots[rules]], rows, axis=1)
    missing = known == UNKNOWN
    lack_r, lack_c = np.flatnonzero(missing.any(axis=1)), np.flatnonzero(missing.any(axis=0))
    if len(lack_r):
        sub = xs if len(lack_c) == xs.shape[0] else xs[lack_c]
        conds = [members[i].cond_args for i in rules[lack_r].tolist()]
        block = np.where(kernels.match_batch(conds, sub, cfg.match_threshold),
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
    """System reconstruction of a single input, without updates: the
    ``system_prediction`` of a population of the matched rules, which holds
    them in member order with copies of their rows and no memo, or of
    ``pop`` itself when every rule matches (always in global_ea mode) or
    none does.
    """
    x = np.ascontiguousarray(x, dtype=float)
    m = match_set(pop, x, cfg)
    if 0 < len(m) < len(pop.members):
        pop = Population([pop.members[i] for i in m.tolist()], pop.trial,
                         RuleState(getattr(pop.state, name)[m] for name in SCALARS))
    return system_prediction(pop, x)


def best_classifier(pop: Population, xs: np.ndarray, cfg: ExperimentConfig, rows=None):
    """Position of the single best rule and the fraction of ``xs`` it matches.

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
    return int(below[k]), int(counts[k]) / xs.shape[0]
