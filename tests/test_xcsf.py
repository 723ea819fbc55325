import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (always_match_condition, make_classifier,
                      never_match_condition, saturated_network, spare_rules)
from lcsae import _kernels_py, kernels, neural, xcsf
from lcsae.config import ExperimentConfig


def matches(cl, x, cfg):
    # a shallow copy joins the one-rule population, so ``cl`` stays where it is
    pop = xcsf.Population([copy.copy(cl)])
    return list(xcsf.match_set(pop, np.asarray(x, dtype=float), cfg)) == [0]


def reinforce_all(pop, x, cfg):
    return xcsf.reinforce(pop, np.arange(len(pop.members)), x, cfg)


def test_matches_zero_condition_is_not_a_match(cfg):
    cl = make_classifier(n=4)
    for layer in cl.condition.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    # logistic(0) = 0.5 and matching needs strictly more
    assert not matches(cl, np.zeros(4), cfg)


def test_matches_saturated_condition_always_matches(cfg):
    cl = make_classifier(n=4, condition=always_match_condition(4))
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert matches(cl, rng.random(4), cfg)


def test_matches_global_ea_mode_matches_everything():
    cfg = ExperimentConfig(mode="global_ea")
    cl = make_classifier(n=4, condition=never_match_condition(4))
    assert matches(cl, np.zeros(4), cfg)


def test_match_set_keeps_population_order_and_leaves_counters(cfg):
    pop = xcsf.Population([make_classifier(n=4, condition=always_match_condition(4)),
                           make_classifier(n=4, condition=never_match_condition(4)),
                           make_classifier(n=4, condition=always_match_condition(4))])
    assert list(xcsf.match_set(pop, np.zeros(4), cfg)) == [0, 2]
    assert all(cl.mtotal == 0 for cl in pop.members)


def test_build_match_set_covers_an_empty_population_in_both_modes():
    for mode in ("xcsf", "global_ea"):
        cfg = ExperimentConfig(mode=mode)
        pop = xcsf.Population([], trial=3)
        x = np.full(4, 0.25)
        m = xcsf.build_match_set(pop, x, cfg, np.random.default_rng(1))
        assert list(m) == [0] and len(pop.members) == 1
        assert pop.members[0].born == 3 and pop.members[0].mtotal == 1
        assert matches(pop.members[0], x, cfg)


def test_build_match_set_global_ea_is_whole_population():
    cfg = ExperimentConfig(mode="global_ea", N=10)
    pop = xcsf.Population([make_classifier(n=4, seed=s) for s in range(10)])
    m = xcsf.build_match_set(pop, np.zeros(4), cfg, np.random.default_rng(0))
    assert len(m) == len(pop.members)
    assert all(cl.mtotal == 1 for cl in pop.members)


def test_build_match_set_macro_members_appear_once(cfg):
    cl = make_classifier(n=4, condition=always_match_condition(4))
    pop = xcsf.Population([cl])
    m = xcsf.build_match_set(pop, np.zeros(4), cfg, np.random.default_rng(0))
    assert list(m) == [0]
    assert cl.mtotal == 1


def test_build_match_set_covers_when_nothing_matches(cfg):
    pop = xcsf.Population([make_classifier(n=4, condition=never_match_condition(4))])
    x = np.full(4, 0.25)
    m = xcsf.build_match_set(pop, x, cfg, np.random.default_rng(1))
    assert list(m) == [1]  # covered classifier was inserted
    assert len(pop.members) == 2
    assert matches(pop.members[1], x, cfg)
    assert pop.members[1].mtotal == 1 and pop.members[0].mtotal == 0


def test_cover_initialises_bookkeeping(cfg):
    rng = np.random.default_rng(2)
    x = rng.random(6)
    cl = xcsf.cover(x, cfg, rng, trial=17)
    assert matches(cl, x, cfg)
    assert cl.err == cfg.epsilon_I == 0.0
    assert cl.fit == cfg.F_I == 0.01
    assert cl.exp == 0
    assert cl.condition.n_hidden == cfg.h_I == 1
    assert cl.prediction.n_hidden == cfg.h_I
    assert cl.ts == 17 and cl.born == 17


def test_cover_raises_when_matching_is_impossible(monkeypatch):
    monkeypatch.setattr(xcsf, "MAX_COVER_TRIES", 64)
    cfg = ExperimentConfig(match_threshold=1.0)  # logistic output never exceeds 1
    with pytest.raises(xcsf.CoveringError):
        xcsf.cover(np.zeros(4), cfg, np.random.default_rng(3), trial=0)


def test_system_prediction_single_and_equal_fitness(cfg):
    rng = np.random.default_rng(4)
    x = rng.random(3)
    cl1 = make_classifier(n=3, seed=1)
    only = xcsf.system_prediction([cl1], x)
    assert only == pytest.approx(neural.forward(cl1.prediction, x), abs=1e-12)

    cl2 = make_classifier(n=3, seed=2)
    cl1.fit = cl2.fit = 0.4
    both = xcsf.system_prediction([cl1, cl2], x)
    mean = 0.5 * (neural.forward(cl1.prediction, x) + neural.forward(cl2.prediction, x))
    assert both == pytest.approx(mean, abs=1e-12)


def test_system_prediction_weighted_exact(cfg):
    # fitness 0.2/0.3/0.5 with scalar outputs exactly 0/1/1: the products
    # 0.0, 0.3 and 0.5 add in list order to 0.8, and the fitnesses to 1.0
    x = np.zeros(1)
    cls = [make_classifier(n=1, prediction=saturated_network(1, [o]), fit=f)
           for o, f in ((0, 0.2), (1, 0.3), (1, 0.5))]
    out = xcsf.system_prediction(cls, x)
    assert out.tolist() == [0.8]


def test_accuracy_branches(cfg):
    # below the target error, then the power-law branch (0.02/0.01)^-10 = 2^-10
    kappa = _kernels_py._accuracies(np.array([0.005, 0.02]), cfg.epsilon0, cfg.alpha,
                                    cfg.nu)
    assert kappa[0] == 1.0
    assert kappa[1] == pytest.approx(2.0 ** -10, abs=1e-12)


@pytest.mark.parametrize("nu", [10.0, 200.0, 5.0, 3.7])
def test_accuracies_equal_the_scalar_power_bit_for_bit(nu):
    cfg = ExperimentConfig(nu=nu, alpha=0.7)
    err = np.random.default_rng(31).random(20000) * 0.05
    err[:4] = [0.0, cfg.epsilon0, np.nextafter(cfg.epsilon0, 0.0), 1.0]
    expected = [_accuracy(e, cfg) for e in err.tolist()]
    kappa = _kernels_py._accuracies(err, cfg.epsilon0, cfg.alpha, cfg.nu)
    assert kappa.tolist() == expected


def test_relative_accuracies_sum_to_one():
    rng = np.random.default_rng(5)
    rel = _kernels_py._relative_accuracies(rng.random(20))
    assert rel.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(rel >= 0)


def test_reinforce_error_update_matches_delta_rule(cfg):
    # reconstruction fixed at (0,1,1,1,1) against all-ones input: MSE 0.2
    cl = make_classifier(n=5, prediction=saturated_network(5, [0, 1, 1, 1, 1]),
                         err=0.1)
    x = np.ones(5)
    w_before = [l.weights.copy() for l in cl.prediction.layers]
    reinforce_all(xcsf.Population([cl]), x, cfg)
    assert cl.err == pytest.approx(0.11, abs=1e-12)
    assert cl.exp == 1
    # saturated logistic outputs have zero gradient, so weights are untouched
    for w0, layer in zip(w_before, cl.prediction.layers):
        assert np.array_equal(w0, layer.weights)


def test_reinforce_set_size_uses_micro_count(cfg):
    cls = [make_classifier(n=3, seed=s, set_size=1.0) for s in range(1, 5)]
    reinforce_all(xcsf.Population(cls), np.full(3, 0.5), cfg)
    # |M| is 4
    for cl in cls:
        assert cl.set_size == pytest.approx(1.0 + cfg.beta * (4 - 1.0), abs=1e-12)


def test_reinforce_converges_geometrically_on_frozen_net(cfg):
    cl = make_classifier(n=4, seed=6)
    for layer in cl.prediction.layers:
        layer.eta = 0.0
    # a rule caches its kernel arguments, rates included, when it is built
    cl = make_classifier(n=4, condition=cl.condition, prediction=cl.prediction, err=0.5)
    x = np.full(4, 0.25)
    c = float(np.mean((neural.forward(cl.prediction, x) - x) ** 2))
    err0 = cl.err
    pop = xcsf.Population([cl])
    for k in range(1, 30):
        reinforce_all(pop, x, cfg)
        expected = c + (1.0 - cfg.beta) ** k * (err0 - c)
        assert cl.err == pytest.approx(expected, rel=1e-10)


def test_reinforce_updates_fitness_toward_relative_accuracy(cfg):
    good = make_classifier(n=3, seed=1, err=0.001, fit=0.5)
    bad = make_classifier(n=3, seed=2, err=0.5, fit=0.5)
    reinforce_all(xcsf.Population([good, bad]), np.full(3, 0.5), cfg)
    assert good.fit > bad.fit
    assert 0.0 < bad.fit <= 1.0


def _accuracy(err, cfg):
    """Reference: the scalar accuracy of one rule."""
    if err < cfg.epsilon0:
        return 1.0
    return cfg.alpha * (err / cfg.epsilon0) ** (-cfg.nu)


def _reinforce_per_rule(m, x, cfg):
    """Reference: the rule-by-rule bookkeeping loop that the match-set
    array update replaced; returns the pre-update outputs weighted by the
    pre-update fitnesses, added rule by rule."""
    ys = np.empty((len(m), len(x)))
    kernels.forward_batch([cl.pred_args for cl in m], x[None], ys)
    output, fsum = np.zeros(len(x)), 0.0
    for cl, y in zip(m, ys):
        output = output + cl.fit * y
        fsum += cl.fit
    # the kernel's own rule update goes to spare columns: the reference
    # takes np.mean
    kernels.reinforce_batch([cl.pred_args for cl in m], x, cfg.omega, np.empty(len(x)),
                            *spare_rules(len(m)))
    kappas = np.empty(len(m))
    for i, cl in enumerate(m):
        cl.exp += 1
        err_inst = float(np.mean((ys[i] - x) ** 2))
        cl.err += cfg.beta * (err_inst - cl.err)
        kappas[i] = _accuracy(cl.err, cfg)
        cl.set_size += cfg.beta * (len(m) - cl.set_size)
    rel = _kernels_py._relative_accuracies(kappas)
    for i, cl in enumerate(m):
        cl.fit += cfg.beta * (rel[i] - cl.fit)
        if cl.fit < xcsf._F_FLOOR:
            cl.fit = xcsf._F_FLOOR
    return output / fsum


def _reinforce_cases():
    for backend in ("numpy", "compiled"):
        for size in (1, 5, 7, 8, 129, 500):
            for nu in (10.0, 200.0):
                # the five-rule numpy cases keep the ids they had before
                name = str(nu) + (f"-m{size}" if size != 5 else "")
                yield pytest.param(backend, size, nu, id=name + (
                    "-compiled" if backend == "compiled" else ""))


@pytest.mark.parametrize("backend, size, nu", _reinforce_cases())
def test_reinforce_equals_the_per_rule_loop_bit_for_bit(backend, size, nu, request,
                                                        monkeypatch):
    # nu=200 drives the accuracy of an error near 1 to exactly zero, so the
    # fitness of the wrong rule decays onto the floor; match sets of 7, 8,
    # 129 and 500 rules take every branch of the pairwise sum that
    # normalises the accuracies
    impl = request.getfixturevalue("cy") if backend == "compiled" else _kernels_py
    monkeypatch.setattr(kernels, "reinforce_batch", impl.reinforce_batch)
    cfg = ExperimentConfig(nu=nu)
    pattern = np.array([1.0, 0.0] * 4)
    # a lone rule starts above the target error and learns its way below it
    right = make_classifier(n=8, prediction=saturated_network(8, pattern),
                            err=0.05 if size == 1 else 0.0)
    # the large match sets run fewer steps, so their wrong rule starts
    # nearer the floor
    wrong = make_classifier(n=8, prediction=saturated_network(8, 1.0 - pattern),
                            err=1.0, fit=1e-295 if size <= 8 else 3e-300)
    learners = [make_classifier(n=8, seed=s, err=0.05 * (s % 4))
                for s in range(1, size - 1)]
    rules = ([right, wrong] + learners)[:size]
    slow = copy.deepcopy(rules)
    pop = xcsf.Population(rules)
    fast = pop.members
    # the larger match sets list their rows out of order
    m = np.arange(size) if size == 5 else np.random.default_rng(size).permutation(size)
    rng = np.random.default_rng(29)
    below = above = floored = 0
    for step in range(200 if size <= 8 else 20):
        # mostly the pattern the right rule reconstructs exactly
        x = rng.random(8) if step % 25 == 0 else pattern
        out_fast = xcsf.reinforce(pop, m, x, cfg)
        out_slow = _reinforce_per_rule([slow[i] for i in m.tolist()], x, cfg)
        assert np.array_equal(out_fast, out_slow)
        for a, b in zip(fast, slow):
            assert (a.exp, a.err, a.fit, a.set_size) == (b.exp, b.err, b.fit, b.set_size)
            for la, lb in zip(a.prediction.layers, b.prediction.layers):
                assert np.array_equal(la.weights, lb.weights)
                assert np.array_equal(la.biases, lb.biases)
        below += sum(cl.err < cfg.epsilon0 for cl in fast)
        above += sum(cl.err >= cfg.epsilon0 for cl in fast)
        floored += sum(cl.fit == xcsf._F_FLOOR for cl in fast)
    assert below and above
    # a lone rule's relative accuracy is 1, so only a shared one can vanish
    assert floored or nu < 200.0 or size == 1


def test_maybe_run_ea_respects_theta(cfg):
    pop = xcsf.Population([make_classifier(n=3, seed=s, ts=100) for s in range(3)])
    pop.trial = 100
    fired = xcsf.maybe_run_ea(pop, np.arange(3), cfg, np.random.default_rng(7))
    assert not fired
    assert len(pop.members) == 3


def test_maybe_run_ea_fires_and_inserts_offspring(cfg):
    pop = xcsf.Population([make_classifier(n=3, seed=s, ts=0, fit=0.4 + 0.2 * s,
                                           err=0.2) for s in range(2)])
    pop.trial = 100
    fired = xcsf.maybe_run_ea(pop, np.arange(2), cfg, np.random.default_rng(8))
    assert fired
    assert len(pop.members) == 2 + cfg.lam
    assert all(cl.ts == 100 for cl in pop.members[:2])
    for child in pop.members[2:]:
        assert child.exp == 1
        assert child.born == 100 and child.mtotal == 0
        # momentum buffers start fresh
        for layer in child.prediction.layers:
            assert np.array_equal(layer.mom_w, np.zeros_like(layer.mom_w))


def test_maybe_run_ea_due_check_uses_the_exact_mean_time_stamp():
    # the mean ts of the 40 rules is exactly 431377.0, so the EA is due only
    # once the trial passes 431427
    cfg = ExperimentConfig(theta_EA=50)
    stamps = [798937] + [4137] * 14 + [655929] * 25
    pop = xcsf.Population([make_classifier(n=3, seed=s, ts=ts) for s, ts in enumerate(stamps)])
    rng = np.random.default_rng(6)
    pop.trial = 431427
    assert not xcsf.maybe_run_ea(pop, np.arange(40), cfg, rng)
    pop.trial = 431428
    assert xcsf.maybe_run_ea(pop, np.arange(40), cfg, rng)


def test_a_subnormal_child_fitness_is_floored():
    # with F_R=1e-320 the reduced parental fitness is subnormal; unfloored,
    # its deletion vote mean_f / fit overflows to inf and the roulette can
    # then only pick the last member
    cfg = ExperimentConfig(N=20, F_R=1e-320, theta_del=0)
    rng = np.random.default_rng(12)
    pop = xcsf.init_population(cfg, 6, rng)
    for x in np.random.default_rng(13).random((200, 6)):
        xcsf.run_trial(pop, x, cfg, rng)
    assert pop.state.fit.min() >= xcsf._F_FLOOR
    assert np.isfinite(xcsf.deletion_votes(pop, pop.mean_fitness(), cfg)).all()


def test_make_offspring_applies_reductions(cfg):
    parent = make_classifier(n=3, seed=9, fit=0.5, err=0.2, set_size=3.0)
    # reductions are applied by the caller from the parental means
    err = 0.5 * (0.2 + 0.2) * cfg.epsilon_R
    fit = 0.5 * (0.4 + 0.6) * cfg.F_R
    child = xcsf.make_offspring(parent, err, fit, cfg, np.random.default_rng(10), trial=7)
    assert child.fit == pytest.approx(0.05, abs=1e-12)
    assert child.err == pytest.approx(0.2, abs=1e-12)  # epsilon_R = 1 disables
    assert child.set_size == parent.set_size
    assert child.ts == 7 and child.born == 7


def test_offspring_inherit_trained_weights(cfg):
    parent = make_classifier(n=3, seed=11)
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.random(3)
        kernels.reinforce_batch([parent.pred_args], x, cfg.omega, np.empty(3),
                                *spare_rules(1))
    trained = parent.prediction.layers[0].weights.copy()
    # a zero-rate mutation chain copies the weights through unchanged
    quiet = ExperimentConfig(mu_min=1e-12)
    for layer in parent.condition.layers + parent.prediction.layers:
        layer.mu[:] = 1e-12
    child = xcsf.make_offspring(parent, 0.0, 0.01, quiet, np.random.default_rng(13), 0)
    assert child.prediction.layers[0].weights == pytest.approx(trained, abs=1e-9)


def test_deletion_vote_base_and_boost(cfg):
    cl = make_classifier(n=3, seed=14, set_size=2.0, exp=cfg.theta_del,
                         fit=0.05)
    pop = xcsf.Population([cl])
    # not experienced enough: plain set-size vote
    assert xcsf.deletion_votes(pop, 1.0, cfg).tolist() == [2.0]
    cl.exp = 21
    # fitness at 0.05 of the mean with delta=0.1 boosts the vote twentyfold
    vote = xcsf.deletion_votes(pop, 1.0, cfg)[0]
    assert vote == pytest.approx(2.0 * 20.0, abs=1e-9)


def test_deletion_vote_stale_is_maximal(cfg):
    cl = make_classifier(n=3, seed=15, mtotal=0, born=0)
    pop = xcsf.Population([cl], trial=10001)
    assert xcsf.deletion_votes(pop, 1.0, cfg)[0] == xcsf.STALE_VOTE
    cl.mtotal = 1
    pop.trial = 10 ** 9
    assert xcsf.deletion_votes(pop, 1.0, cfg)[0] < xcsf.STALE_VOTE


def _deletion_vote(cl, pop_mean_f, cfg, trial):
    """Reference: the scalar deletion vote of one rule."""
    if cl.mtotal == 0 and trial - cl.born > cfg.stale_limit:
        return xcsf.STALE_VOTE
    vote = cl.set_size
    if cl.exp > cfg.theta_del and cl.fit < cfg.delta * pop_mean_f:
        vote *= pop_mean_f / cl.fit
    return vote


def test_deletion_votes_equal_the_scalar_votes_bit_for_bit():
    cfg = ExperimentConfig(stale_limit=50)
    rng = np.random.default_rng(32)
    pop = xcsf.Population([make_classifier(n=2, seed=s, set_size=1.0 + 30 * rng.random(),
                                           exp=int(rng.integers(0, 40)),
                                           fit=float(rng.random() ** 4),
                                           mtotal=int(rng.integers(0, 3)),
                                           born=int(rng.integers(0, 100)))
                           for s in range(300)], trial=120)
    mean_f = pop.mean_fitness()
    expected = [_deletion_vote(cl, mean_f, cfg, pop.trial) for cl in pop.members]
    assert xcsf.deletion_votes(pop, mean_f, cfg).tolist() == expected
    assert xcsf.STALE_VOTE in expected
    assert any(e != cl.set_size for e, cl in zip(expected, pop.members)
               if e != xcsf.STALE_VOTE)


def test_enforce_limit_noop_at_capacity():
    cfg = ExperimentConfig(N=3)
    pop = xcsf.Population([make_classifier(n=3, seed=s) for s in range(3)])
    before = list(pop.members)
    xcsf.enforce_population_limit(pop, cfg, np.random.default_rng(16))
    assert pop.members == before


def test_enforce_limit_deletes_biggest_prediction_net():
    cfg = ExperimentConfig(N=1)
    rng = np.random.default_rng(17)
    big = make_classifier(n=3, prediction=neural.new_network(3, 30, 3, rng))
    small = make_classifier(n=3, prediction=neural.new_network(3, 5, 3, rng))
    pop = xcsf.Population([big, small], trial=0)
    xcsf.enforce_population_limit(pop, cfg, np.random.default_rng(18))
    assert pop.members == [small]


def test_enforce_limit_prefers_stale_over_size():
    cfg = ExperimentConfig(N=1, stale_limit=100)
    rng = np.random.default_rng(19)
    stale_small = make_classifier(n=3, prediction=neural.new_network(3, 2, 3, rng),
                                  mtotal=0, born=0)
    fresh_big = make_classifier(n=3, prediction=neural.new_network(3, 20, 3, rng),
                                mtotal=5, born=0)
    pop = xcsf.Population([stale_small, fresh_big], trial=200)
    xcsf.enforce_population_limit(pop, cfg, np.random.default_rng(20))
    assert pop.members == [fresh_big]


def _roulette(weights, rng):
    """Reference: the running-sum roulette loop over a list."""
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


def test_roulette_over_an_array_equals_the_list_loop():
    gen = np.random.default_rng(33)
    for trial in range(300):
        weights = gen.random(int(gen.integers(1, 60))) ** 3
        weights[gen.random(len(weights)) < 0.3] = 0.0
        if trial % 50 == 0:
            weights[:] = 0.0
        seed = int(gen.integers(0, 2**32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert xcsf.roulette(weights, a) == _roulette(weights.tolist(), b)


def test_roulette_frequencies_match_weights():
    rng = np.random.default_rng(23)
    weights = [0.1, 0.3, 0.6]
    counts = np.zeros(3)
    for _ in range(100000):
        counts[xcsf.roulette(weights, rng)] += 1
    freqs = counts / counts.sum()
    assert np.max(np.abs(freqs - np.asarray(weights))) < 0.02


def test_run_trial_global_ea_reinforces_whole_population():
    cfg = ExperimentConfig(mode="global_ea", N=500)
    rng = np.random.default_rng(24)
    pop = xcsf.init_population(cfg, 8, rng)
    res = xcsf.run_trial(pop, rng.random(8), cfg, rng)
    assert pop.trial == 1
    assert res.m_size == 500
    assert all(cl.exp == 1 for cl in pop.members[:500])
    assert pop.micro_count() <= cfg.N


def test_run_trial_enforces_population_limit(cfg):
    small = ExperimentConfig(N=20, theta_EA=1)
    rng = np.random.default_rng(25)
    pop = xcsf.init_population(small, 6, rng)
    for _ in range(30):
        xcsf.run_trial(pop, rng.random(6), small, rng)
        assert pop.micro_count() == len(pop.members) <= small.N


def _keyed_condition(n, feature, gain=1000.0):
    """Condition matching inputs where x[feature] > 0.5."""
    rng = np.random.default_rng(0)
    net = neural.new_network(n, 1, 1, rng, sigma=0.0)
    hidden, out = net.layers
    hidden.weights[0, feature] = gain
    hidden.biases[0] = -gain / 2.0
    out.weights[0, 0] = gain
    return net


def _partly_memoized(pop, xs, cfg):
    """Give ``pop`` a memo on the rows of ``xs`` that holds some of the
    members' decisions: every decision on the even rows and on the last
    row, less a random third of them, and none for a rule added last.
    Returns the rows of ``xs``."""
    rows = np.arange(len(xs))
    last = pop.members[-1]
    pop.remove(last)
    pop.memoize(cfg, len(xs))
    xcsf.evaluate(pop, xs[::2], cfg, rows[::2])
    xcsf.match_set(pop, xs[-1], cfg, rows[-1])
    if pop.memo is not None:
        pop.memo[np.random.default_rng(len(xs)).random(pop.memo.shape) < 1 / 3] = xcsf.UNKNOWN
    pop.add(last)
    return rows


def _best_classifier(pop, xs, cfg):
    """``best_classifier`` without rows, which the same call with rows on a
    partly filled memo must give too."""
    best = xcsf.best_classifier(pop, xs, cfg)
    assert xcsf.best_classifier(pop, xs, cfg, _partly_memoized(pop, xs, cfg)) == best
    return best


def test_best_classifier_lowest_error_when_none_accurate(cfg):
    xs = np.tile([1.0, 0.0], (10, 1))
    worse = make_classifier(n=2, condition=always_match_condition(2), err=0.5)
    better = make_classifier(n=2, condition=always_match_condition(2), err=0.3)
    pop = xcsf.Population([worse, better])
    best, mfrac = _best_classifier(pop, xs, cfg)
    assert best is better
    assert mfrac == 1.0


def test_best_classifier_falls_back_to_the_first_rule_with_the_lowest_error(cfg):
    # only the fallback rule is counted, so the wider later rule cannot win
    xs = np.tile([1.0, 0.0], (4, 1))
    rules = [make_classifier(n=2, condition=c(2), err=e) for c, e in
             ((always_match_condition, 0.5), (never_match_condition, 0.2),
              (always_match_condition, 0.2))]
    best, mfrac = _best_classifier(xcsf.Population(rules), xs, cfg)
    assert best is rules[1]
    assert mfrac == 0.0


def test_best_classifier_prefers_wider_match_below_target(cfg):
    # 10 rows: feature 0 high on 9 of them, feature 1 high on 6
    xs = np.zeros((10, 2))
    xs[:9, 0] = 1.0
    xs[:6, 1] = 1.0
    ninety = make_classifier(n=2, condition=_keyed_condition(2, 0), err=0.001)
    sixty = make_classifier(n=2, condition=_keyed_condition(2, 1), err=0.0005)
    pop = xcsf.Population([ninety, sixty])
    best, mfrac = _best_classifier(pop, xs, cfg)
    assert best is ninety
    assert mfrac == pytest.approx(0.9)


def test_best_classifier_global_ea_matches_everything():
    cfg = ExperimentConfig(mode="global_ea")
    xs = np.random.default_rng(26).random((25, 3))
    pop = xcsf.Population([make_classifier(n=3, seed=s, err=0.001) for s in range(4)])
    _, mfrac = _best_classifier(pop, xs, cfg)
    assert mfrac == 1.0


def test_evaluate_matches_trial_predictions(cfg):
    rng = np.random.default_rng(27)
    pop = xcsf.Population([make_classifier(n=4, seed=s,
                                           condition=always_match_condition(4),
                                           fit=0.1 + 0.2 * s) for s in range(3)])
    xs = rng.random((6, 4))
    mean_mse, mean_m = xcsf.evaluate(pop, xs, cfg)
    expected = np.mean([
        float(np.mean((xcsf.system_prediction(pop.members, x) - x) ** 2))
        for x in xs])
    assert mean_mse == pytest.approx(expected, rel=1e-12)
    assert mean_m == 3.0


def test_evaluate_falls_back_to_population_when_unmatched(cfg):
    rng = np.random.default_rng(28)
    pop = xcsf.Population([make_classifier(n=4, seed=s,
                                           condition=never_match_condition(4))
                           for s in range(3)])
    xs = rng.random((5, 4))
    mean_mse, mean_m = xcsf.evaluate(pop, xs, cfg)
    assert np.isfinite(mean_mse)
    assert mean_m == 0.0
    recon = xcsf.reconstruct_one(pop, xs[0], cfg)
    expected = xcsf.system_prediction(pop.members, xs[0])
    assert recon == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mode, calls", [("xcsf", 2), ("global_ea", 1)])
def test_reconstruct_one_makes_one_kernel_call_per_pass(mode, calls, monkeypatch):
    # one forward_batch over the conditions (unless every rule matches) and
    # one predict_batch over the prediction nets, however many rules there are
    cfg = ExperimentConfig(mode=mode)
    pop = xcsf.Population([make_classifier(n=3, seed=s, condition=always_match_condition(3),
                                           fit=0.1 + s) for s in range(5)])
    x = np.random.default_rng(29).random(3)
    expected = xcsf.reconstruct_one(pop, x, cfg)
    nets = []

    def counted(name):
        inner = getattr(kernels, name)

        def call(batch, x, *rest):
            nets.append((name, len(batch)))
            inner(batch, x, *rest)
        monkeypatch.setattr(kernels, name, call)

    counted("forward_batch")
    counted("predict_batch")
    assert np.array_equal(xcsf.reconstruct_one(pop, x, cfg), expected)
    assert nets == [("forward_batch", 5), ("predict_batch", 5)][2 - calls:]


def test_reconstruct_one_and_evaluate_combine_the_same_rules(cfg):
    # rows 0-2 have feature 0 high, so the keyed rule matches only them
    xs = np.full((6, 2), 0.25)
    xs[:3, 0] = 1.0
    keyed = make_classifier(n=2, seed=1, condition=_keyed_condition(2, 0), fit=0.3)
    always = make_classifier(n=2, seed=2, condition=always_match_condition(2), fit=0.2)
    never = make_classifier(n=2, seed=3, condition=never_match_condition(2), fit=0.5)
    pop = xcsf.Population([keyed, always, never])
    mses = []
    for x in xs:
        recon = xcsf.reconstruct_one(pop, x, cfg)
        combined = [keyed, always] if x[0] > 0.5 else [always]
        assert np.array_equal(recon, xcsf.system_prediction(combined, x))
        mses.append(float(np.mean((recon - x) ** 2)))
    mean_mse, mean_m = xcsf.evaluate(pop, xs, cfg)
    assert mean_mse == np.mean(mses)
    assert mean_m == 1.5


def test_evaluate_mixes_matched_and_unmatched_rows(cfg):
    # rows 0-2 have feature 0 high and match only the keyed rule; rows 3-5
    # match nothing and fall back to the whole population
    xs = np.full((6, 2), 0.25)
    xs[:3, 0] = 1.0
    keyed = make_classifier(n=2, seed=1, condition=_keyed_condition(2, 0), fit=0.3)
    never = make_classifier(n=2, seed=2, condition=never_match_condition(2), fit=0.5)
    pop = xcsf.Population([keyed, never])
    mses = []
    for x in xs:
        recon = xcsf.reconstruct_one(pop, x, cfg)
        combined = [keyed] if x[0] > 0.5 else [keyed, never]
        assert np.array_equal(recon, xcsf.system_prediction(combined, x))
        mses.append(float(np.mean((recon - x) ** 2)))
    mean_mse, mean_m = xcsf.evaluate(pop, xs, cfg)
    assert mean_mse == np.mean(mses)
    # the keyed rule counts 1 on each of its rows, the fallback rows count 0
    assert mean_m == 3 / 6


def _use_backend(backend, request, monkeypatch):
    """Route every kernel call through the numpy twin or the compiled module."""
    impl = request.getfixturevalue("cy") if backend == "compiled" else _kernels_py
    monkeypatch.setattr(kernels, "forward_batch", impl.forward_batch)
    monkeypatch.setattr(kernels, "predict_batch", impl.predict_batch)
    monkeypatch.setattr(kernels, "reinforce_batch", impl.reinforce_batch)


def _varied_population(n, size, seed):
    """Rules with random conditions, of which an input matches some, and
    prediction nets of several hidden sizes and fitnesses."""
    rng = np.random.default_rng(seed)
    sigma = 2.0 / np.sqrt(n)
    return xcsf.Population([
        make_classifier(n=n, fit=0.05 + rng.random(),
                        condition=neural.new_network(n, 1 + s % 3, 1, rng, sigma=sigma,
                                                     random_biases=True),
                        prediction=neural.new_network(n, 1 + s % 4, n, rng, sigma=sigma,
                                                      random_biases=True))
        for s in range(size)])


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_match_matrix_columns_are_the_match_sets(backend, request, monkeypatch):
    _use_backend(backend, request, monkeypatch)
    pop = _varied_population(64, 40, seed=37)
    xs = np.random.default_rng(38).random((12, 64))
    matched = xcsf._match_matrix(pop.members, xs, ExperimentConfig())
    assert 0 < matched.sum() < matched.size
    # the layout predict_batch takes
    assert matched.flags.c_contiguous
    # thresholds at a rule's output on a row, and one ulp below it: the
    # batched pass must give that rule the bits of the one-input pass, or
    # the row matches at the first or fails to match at the second
    for r, x in enumerate(xs):
        k = 3 * r % len(pop.members)
        y = float(neural.forward(pop.members[k].condition, x)[0])
        for threshold, match in ((y, False), (float(np.nextafter(y, 0.0)), True)):
            cfg = ExperimentConfig(match_threshold=threshold)
            matched = xcsf._match_matrix(pop.members, xs, cfg)
            assert matched[k, r] == match
            for col, x_col in zip(matched.T, xs):
                assert np.array_equal(np.flatnonzero(col), xcsf.match_set(pop, x_col, cfg))


def _evaluate_per_input(pop, xs, cfg):
    """Reference: ``evaluate`` with one prediction-net kernel call per input,
    adding the fitness-weighted outputs of the input's rules in member
    order."""
    fits = pop.state.fit.tolist()
    mses, sizes = [], []
    for x in xs:
        m = xcsf.match_set(pop, x, cfg).tolist()
        sizes.append(len(m))
        m = m or list(range(len(pop.members)))
        ys = np.empty((len(m), len(x)))
        kernels.forward_batch([pop.members[i].pred_args for i in m], x[None], ys)
        acc, fsum = np.zeros(len(x)), 0.0
        for i, y in zip(m, ys):
            acc = acc + fits[i] * y
            fsum += fits[i]
        mses.append(np.mean((acc / fsum - x) ** 2))
    return float(np.mean(mses)), float(np.mean(sizes))


def _evaluate_cases():
    for mode in ("xcsf", "global_ea"):
        for backend in ("numpy", "compiled"):
            yield pytest.param(mode, backend, False, id=f"{mode}-{backend}")
    for backend in ("numpy", "compiled"):
        yield pytest.param("xcsf", backend, True, id=f"xcsf-{backend}-memo")


@pytest.mark.parametrize("mode, backend, memo", _evaluate_cases())
def test_evaluate_equals_a_pass_per_input_bit_for_bit(mode, backend, memo, request,
                                                      monkeypatch):
    _use_backend(backend, request, monkeypatch)
    # a high threshold leaves some rows matched by nothing
    cfg = ExperimentConfig(mode=mode, match_threshold=0.75)
    pop = _varied_population(64, 30, seed=39)
    xs = np.random.default_rng(40).random((25, 64))
    if mode == "xcsf":
        unmatched = [not len(xcsf.match_set(pop, x, cfg)) for x in xs]
        assert any(unmatched) and not all(unmatched)
    expected = _evaluate_per_input(pop, xs, cfg)
    if memo:
        rows = _partly_memoized(pop, xs, cfg)
        assert (pop.memo == xcsf.MATCH).any() and (pop.memo == xcsf.NO_MATCH).any()
        assert (pop.memo[pop.slots] == xcsf.UNKNOWN).any()
        assert xcsf.evaluate(pop, xs, cfg, rows) == expected
        # the call filled in every member's decision on every row
        assert (pop.memo[pop.slots] != xcsf.UNKNOWN).all()
    assert xcsf.evaluate(pop, xs, cfg) == expected


def _evaluate_predictions(pop, xs, cfg, monkeypatch):
    """``evaluate``'s prediction of every row of ``xs``, read from the
    output of its one ``predict_batch`` call."""
    inner, preds = kernels.predict_batch, []

    def recorded(nets, x, matched, fit, out):
        inner(nets, x, matched, fit, out)
        preds.append(out.copy())

    monkeypatch.setattr(kernels, "predict_batch", recorded)
    xcsf.evaluate(pop, xs, cfg)
    monkeypatch.setattr(kernels, "predict_batch", inner)
    (pred,) = preds
    return pred


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_evaluate_equals_reconstruct_one_on_rows_one_rule_predicts(backend, request,
                                                                   monkeypatch, cfg):
    # reconstruct_one gives evaluate's prediction of every row, bit for bit:
    # rows one rule predicts, rows several rules predict and rows that fall
    # back to the whole population
    _use_backend(backend, request, monkeypatch)
    # rows 0-3 have feature 0 high and match only the keyed rule
    xs = np.random.default_rng(41).random((4, 3)) * 0.5
    xs[:, 0] = 1.0
    keyed = make_classifier(n=3, seed=1, h=3, condition=_keyed_condition(3, 0), fit=0.3)
    never = make_classifier(n=3, seed=2, condition=never_match_condition(3), fit=0.7)
    pop = xcsf.Population([never, keyed])
    mses = [np.mean((xcsf.reconstruct_one(pop, x, cfg) - x) ** 2) for x in xs]
    for r in range(len(xs)):
        assert xcsf.evaluate(pop, xs[r:r + 1], cfg)[0] == mses[r]
    assert xcsf.evaluate(pop, xs, cfg)[0] == np.mean(mses)
    # one feature: a row's error is one squared difference, so a last-bit
    # change in the rule's output would show in it
    prediction = neural.new_network(1, 8, 1, np.random.default_rng(42), sigma=1.0,
                                    random_biases=True)
    pop = xcsf.Population([make_classifier(n=1, condition=_keyed_condition(1, 0),
                                           prediction=prediction, fit=1.0)])
    for x in 0.5 + 0.5 * np.random.default_rng(43).random((50, 1)):
        mse = np.mean((xcsf.reconstruct_one(pop, x, cfg) - x) ** 2)
        assert xcsf.evaluate(pop, x[None], cfg)[0] == mse
    # many rules of several fitnesses, hidden sizes and numerosities: 10-19
    # of them match each row at the threshold 0.5, and 0-4 at 0.6
    pop = _varied_population(64, 30, seed=44)
    xs = np.random.default_rng(45).random((25, 64))
    for mode, threshold in (("xcsf", 0.5), ("xcsf", 0.6), ("global_ea", 0.5)):
        cfg = ExperimentConfig(mode=mode, match_threshold=threshold)
        sizes = [len(xcsf.match_set(pop, x, cfg)) for x in xs]
        assert min(sizes) == 0 if threshold == 0.6 else min(sizes) >= 10
        preds = _evaluate_predictions(pop, xs, cfg, monkeypatch)
        for x, pred in zip(xs, preds):
            assert np.array_equal(xcsf.reconstruct_one(pop, x, cfg), pred)


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
@pytest.mark.parametrize("mode", ["xcsf", "global_ea"])
def test_trial_output_is_the_system_prediction_before_the_update(mode, backend, request,
                                                                 monkeypatch):
    # the trial output is the match set's system prediction from the rules
    # as they were before the trial updated them, bit for bit
    _use_backend(backend, request, monkeypatch)
    cfg = ExperimentConfig(N=24, theta_EA=4, mode=mode, match_threshold=0.6, h_M=2)
    rng = np.random.default_rng(46)
    pop = xcsf.init_population(cfg, 6, rng)
    checked = 0
    for x in np.random.default_rng(47).random((100, 6)):
        before = copy.deepcopy(pop)
        m = xcsf.match_set(before, x, cfg).tolist()
        res = xcsf.run_trial(pop, x, cfg, rng)
        if m:  # otherwise the trial covered with a new rule
            expected = xcsf.system_prediction([before.members[i] for i in m], x)
            assert np.array_equal(res.output, expected)
            checked += 1
    assert checked > 50


def test_best_classifier_breaks_equal_coverage_by_error(cfg):
    xs = np.tile([1.0, 0.0], (4, 1))
    first = make_classifier(n=2, condition=always_match_condition(2), err=0.004)
    second = make_classifier(n=2, condition=always_match_condition(2), err=0.002)
    third = make_classifier(n=2, condition=always_match_condition(2), err=0.002)
    best, mfrac = _best_classifier(xcsf.Population([first, second, third]), xs, cfg)
    assert best is second  # the earlier of two equal rules
    assert mfrac == 1.0


class _Rule:
    """Reference rule: the seven scalars as plain attributes."""

    def __init__(self, condition, prediction, **scalars):
        self.condition, self.prediction = condition, prediction
        self.cond_args = neural.net_args(condition)
        self.pred_args = neural.net_args(prediction)
        self.__dict__.update(scalars)

    @classmethod
    def of(cls, cl, copy_nets=False):
        nets = (cl.condition, cl.prediction)
        if copy_nets:
            nets = copy.deepcopy(nets)
        return cls(*nets, **{name: getattr(cl, name) for name in xcsf.SCALARS})


def _run_trial_per_rule(members, trial, x, cfg, rng, counts):
    """Reference: one trial of the rule-by-rule learner (match, cover,
    reinforce, EA due-check, EA and deletion) over a list of ``_Rule``."""
    if cfg.global_ea:
        m = list(members)
    else:
        matched = kernels.match_batch([cl.cond_args for cl in members], x,
                                      cfg.match_threshold)
        m = [members[i] for i in matched.tolist()]
    if not m:
        counts["cover"] += 1
        m = [_Rule.of(xcsf.cover(x, cfg, rng, trial))]
        members.append(m[0])
    for cl in m:
        cl.mtotal += 1
    output = _reinforce_per_rule(m, x, cfg)

    if trial - sum(cl.ts for cl in m) / len(m) > cfg.theta_EA:
        counts["ea"] += 1
        for cl in m:
            cl.ts = trial
        fits = [cl.fit for cl in m]
        parents = (m[_roulette(fits, rng)], m[_roulette(fits, rng)])
        err = 0.5 * (parents[0].err + parents[1].err) * cfg.epsilon_R
        fit = max(0.5 * (parents[0].fit + parents[1].fit) * cfg.F_R, xcsf._F_FLOOR)
        for i in range(cfg.lam):
            members.append(_Rule.of(xcsf.make_offspring(parents[i % 2], err, fit,
                                                        cfg, rng, trial)))

    while len(members) > cfg.N:
        counts["delete"] += 1
        mean_f = sum(cl.fit for cl in members) / len(members)
        votes = [_deletion_vote(cl, mean_f, cfg, trial) for cl in members]
        i = _roulette(votes, rng)
        rest = list(votes)
        rest[i] = 0.0
        j = _roulette(rest, rng)
        if j == i:
            j = (i + 1) % len(members)
        members.remove(xcsf._pick_victim(members[i], members[j], votes[i], votes[j], rng))
    return output, len(m)


def _assert_same_rules(pop, ref):
    assert len(pop.members) == len(ref)
    for i, (a, b) in enumerate(zip(pop.members, ref)):
        # every member's row of the table is its position
        assert a._state is pop.state and a._row == i
        for name in xcsf.SCALARS:
            va, vb = getattr(a, name), getattr(b, name)
            assert va == vb, name
            assert type(va) is (int if name in xcsf.INT_SCALARS else float)
        for la, lb in zip(a.condition.layers + a.prediction.layers,
                          b.condition.layers + b.prediction.layers):
            assert la.eta == lb.eta
            for arr in ("weights", "biases", "mask", "mu", "mom_w", "mom_b"):
                assert np.array_equal(getattr(la, arr), getattr(lb, arr)), arr


def _learner_cases():
    for backend in ("numpy", "compiled"):
        # the width above 128 sums each rule's squared errors in numpy's
        # pairwise halving order, which the compiled kernel must reproduce
        for mode, p_init, n, memo in (("xcsf", True, 6, False), ("xcsf", False, 6, False),
                                      ("global_ea", False, 6, False),
                                      ("xcsf", False, 300, False),
                                      ("xcsf", True, 6, True), ("xcsf", False, 6, True)):
            # the width-6 numpy cases keep the ids they had before
            name = f"{mode}-{p_init}" + (f"-n{n}" if n != 6 else "") + ("-memo" if memo else "")
            yield pytest.param(backend, mode, p_init, n, memo, id=name + (
                "-compiled" if backend == "compiled" else ""))


@pytest.mark.parametrize("backend, mode, p_init, n, memo", _learner_cases())
def test_run_trial_equals_the_per_rule_learner_bit_for_bit(backend, mode, p_init, n, memo,
                                                            request, monkeypatch):
    # match_batch reads forward_batch from the module, so this routes every
    # kernel call of the learner and of the reference
    _use_backend(backend, request, monkeypatch)
    # a small N and theta_EA make the EA, coverings and deletions all fire;
    # a high threshold makes empty match sets common in xcsf mode
    cfg = ExperimentConfig(N=24, theta_EA=4, theta_del=5, mode=mode, P_init=p_init,
                           match_threshold=0.6, h_M=2, stale_limit=40)
    rng = np.random.default_rng(34)
    pop = xcsf.init_population(cfg, n, rng)
    ref = [_Rule.of(cl, copy_nets=True) for cl in pop.members]
    ref_rng = copy.deepcopy(rng)
    if memo:
        # 300 inputs drawn from 20 dataset rows, each passed with its row,
        # so the memo's decisions are reused across coverings, EA firings,
        # deletions and the reuse of freed slots
        data = np.random.default_rng(35).random((20, n))
        pop.memoize(cfg, len(data))
        trials = [(data[r], r) for r in np.random.default_rng(48).integers(0, 20, 300)]
    else:
        trials = [(x, None) for x in np.random.default_rng(35).random((300, n))]
    inner, evaluated = kernels.match_batch, []

    def counted(conds, x, threshold):
        evaluated.append(len(conds))
        return inner(conds, x, threshold)

    monkeypatch.setattr(kernels, "match_batch", counted)
    counts = {"cover": 0, "ea": 0, "delete": 0}
    learner = reference = 0
    for x, row in trials:
        res = xcsf.run_trial(pop, x, cfg, rng, row)
        learner += sum(evaluated)
        evaluated.clear()
        output, m_size = _run_trial_per_rule(ref, pop.trial, x, cfg, ref_rng, counts)
        reference += sum(evaluated)
        evaluated.clear()
        assert np.array_equal(res.output, output)
        assert res.m_size == m_size
        _assert_same_rules(pop, ref)
    assert all(counts.values()), counts
    assert rng.random() == ref_rng.random()
    # the reference evaluates every condition on every trial
    if memo:
        assert 0 < learner < reference / 3
    elif mode == "xcsf":
        assert learner == reference


def test_population_is_freed_by_reference_counting():
    cfg = ExperimentConfig(N=10, theta_EA=2)
    rng = np.random.default_rng(36)
    gc.disable()
    try:
        pop = xcsf.init_population(cfg, 4, rng)
        for _ in range(30):
            xcsf.run_trial(pop, rng.random(4), cfg, rng)
        loaded = weakref.ref(pop)
        # the members hold the table, so its columns die with the last rule
        column = weakref.ref(pop.state.fit)
        del pop
        assert loaded() is None and column() is None
    finally:
        gc.enable()


def test_add_and_remove_keep_rows_aligned_and_reuse_them():
    rules = [make_classifier(n=2, seed=s, fit=0.1 * (s + 1)) for s in range(4)]
    pop = xcsf.Population(rules[:3])
    ghost = copy.copy(rules[2])  # shares the table, and row 2 is about to go
    pop.remove(rules[1])
    assert pop.members == [rules[0], rules[2]]
    with pytest.raises(ValueError):
        pop.remove(ghost)
    # the removed rule keeps its scalars in a row of its own
    assert rules[1].fit == 0.2
    rules[1].fit = 0.5
    assert pop.micro_count() == 2
    pop.add(rules[3])
    pop.add(rules[1])
    assert pop.members == [rules[0], rules[2], rules[3], rules[1]]
    # the later row moved up, and the adds took the next rows
    assert [cl._row for cl in pop.members] == list(range(4))
    assert pop.state.fit.tolist() == [0.1, 0.30000000000000004, 0.4, 0.5]
    assert pop.micro_count() == 4
    assert pop.mean_fitness() == (0.1 + 0.30000000000000004 + 0.4 + 0.5) / 4


def _assert_table_is_the_members_rows(pop):
    # every column has one row per member, and a table built in one step
    # from the members (copies, which leave them where they are) is the
    # same as this one, built add by add
    rebuilt = xcsf.Population([copy.copy(cl) for cl in pop.members]).state
    for name in xcsf.SCALARS:
        col, again = getattr(pop.state, name), getattr(rebuilt, name)
        assert col.shape == (len(pop.members),), name
        assert again.dtype == col.dtype and np.array_equal(again, col), name


def _scalars(k):
    return dict(err=k / 7, fit=(k + 1) / 3, exp=k, set_size=k + 0.5, ts=2 * k, born=3 * k,
                mtotal=4 * k)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(ops=st.lists(st.sampled_from(["add", "readd", "first", "middle", "last"]),
                    max_size=40))
def test_random_adds_and_removes_match_a_list_model(ops):
    pop = xcsf.Population()
    _assert_table_is_the_members_rows(pop)
    # room for every add of the longest list of operations
    pop.memoize(ExperimentConfig(N=37, lam=2), rows=5)
    model = []  # (rule, its scalars) in member order
    removed = []
    stranger = make_classifier(n=2)
    for k, op in enumerate(ops):
        added = op in ("add", "readd")
        if op == "readd" and removed:
            cl, values = removed.pop()
            assert {name: getattr(cl, name) for name in xcsf.SCALARS} == values
            pop.add(cl)
            model.append((cl, values))
        elif added:
            values = _scalars(k)
            cl = make_classifier(n=2, seed=k, **values)
            pop.add(cl)
            model.append((cl, values))
        elif model:
            i = {"first": 0, "middle": len(model) // 2, "last": len(model) - 1}[op]
            pop.remove(model[i][0])
            removed.append(model.pop(i))
        # every member owns its own slot, and a new rule starts with no
        # decisions, whatever the slot's last owner left in it
        slots = pop.slots.tolist()
        assert len(slots) == len(set(slots)) == len(pop.members)
        assert all(0 <= slot < len(pop.memo) for slot in slots)
        if added:
            assert not pop.memo[slots[-1]].any()
        pop.memo[slots] = xcsf.MATCH
        assert pop.members == [cl for cl, _ in model]
        _assert_table_is_the_members_rows(pop)
        for i, (cl, values) in enumerate(model):
            assert cl._state is pop.state and cl._row == i
            assert {name: getattr(cl, name) for name in xcsf.SCALARS} == values
        assert pop.micro_count() == len(model)
        if model:
            total = 0.0
            for _, values in model:
                total += values["fit"]
            assert pop.mean_fitness() == total / len(model)
            # a copy shares a member's table row but is not the member
            with pytest.raises(ValueError):
                pop.remove(copy.copy(model[-1][0]))
        for outsider in [stranger] + [cl for cl, _ in removed]:
            with pytest.raises(ValueError):
                pop.remove(outsider)


def test_a_match_memo_holds_n_plus_lambda_plus_one_rules():
    cfg = ExperimentConfig(N=2, lam=1)
    rules = [make_classifier(n=2, seed=s) for s in range(5)]
    with pytest.raises(ValueError, match="do not fit"):
        xcsf.Population(rules).memoize(cfg, rows=3)
    pop = xcsf.Population(rules[:3])
    pop.memoize(cfg, rows=3)
    pop.add(rules[3])
    assert pop.memo.shape == (4, 3) and sorted(pop.slots.tolist()) == [0, 1, 2, 3]
    # a full memo refuses a rule, and the population stays as it was
    with pytest.raises(RuntimeError, match="full"):
        pop.add(rules[4])
    assert pop.members == rules[:4] and len(pop.state.fit) == len(pop.slots) == 4
    pop.remove(rules[1])
    pop.add(rules[4])
    assert pop.slots.tolist() == [0, 2, 3, 1]
    # every rule matches in global_ea mode, so there is nothing to remember
    pop = xcsf.Population(rules[:3])
    pop.memoize(ExperimentConfig(mode="global_ea"), rows=3)
    assert pop.memo is None and pop.slots is None


def test_mean_fitness_adds_in_member_order():
    # 1 followed by many tiny fitnesses: a loop in member order drops each
    # tiny term, numpy's pairwise sum keeps some of them
    fits = [1.0] + [1e-16] * 40
    pop = xcsf.Population([make_classifier(n=2, seed=s, fit=f) for s, f in enumerate(fits)])
    total = 0.0
    for f in fits:
        total += f
    assert pop.mean_fitness() == total / len(fits)
    assert float(np.sum(fits)) != total


def test_rule_state_of_takes_the_seven_scalars_by_keyword_only():
    values = _scalars(3)
    nets = make_classifier(n=2)
    cl = xcsf.Classifier(nets.condition, nets.prediction, xcsf.RuleState.of(**values), 0)
    assert {name: getattr(cl, name) for name in xcsf.SCALARS} == values
    with pytest.raises(TypeError):
        xcsf.RuleState.of(*values.values())
    values["sizes"] = values.pop("set_size")  # misspelt
    with pytest.raises(TypeError):
        xcsf.RuleState.of(**values)
