import copy
import gc
import weakref

import numpy as np
import pytest

from conftest import (always_match_condition, make_classifier,
                      never_match_condition, saturated_network)
from lcsae import kernels, neural, xcsf
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
    cl = make_classifier(n=4, condition=always_match_condition(4), num=7)
    pop = xcsf.Population([cl])
    m = xcsf.build_match_set(pop, np.zeros(4), cfg, np.random.default_rng(0))
    assert list(m) == [0]
    assert cl.num == 7 and cl.mtotal == 1


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
    assert cl.num == 1 and cl.exp == 0
    assert cl.condition.n_hidden == cfg.h_I == 1
    assert cl.prediction.n_hidden == cfg.h_I
    assert cl.ts == 17 and cl.born == 17


def test_cover_raises_when_matching_is_impossible():
    cfg = ExperimentConfig(match_threshold=1.0)  # logistic output never exceeds 1
    with pytest.raises(xcsf.CoveringError):
        xcsf.cover(np.zeros(4), cfg, np.random.default_rng(3), trial=0, max_tries=64)


def test_fitness_weighted_mean_hand_case():
    # fitness 0.2/0.3/0.5 with scalar outputs 0/1/1 -> 0.8
    out = xcsf.fitness_weighted_mean([0.2, 0.3, 0.5], [[0.0], [1.0], [1.0]])
    assert out == pytest.approx([0.8], abs=1e-12)


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
    x = np.zeros(1)
    cls = [make_classifier(n=1, prediction=saturated_network(1, [o]), fit=f)
           for o, f in ((0, 0.2), (1, 0.3), (1, 0.5))]
    out = xcsf.system_prediction(cls, x)
    assert out == pytest.approx([0.8], abs=1e-12)


def test_accuracy_branches(cfg):
    # below the target error, then the power-law branch (0.02/0.01)^-10 = 2^-10
    kappa = xcsf.accuracies(np.array([0.005, 0.02]), cfg)
    assert kappa[0] == 1.0
    assert kappa[1] == pytest.approx(2.0 ** -10, abs=1e-12)


@pytest.mark.parametrize("nu", [10.0, 200.0, 5.0, 3.7])
def test_accuracies_equal_the_scalar_power_bit_for_bit(nu):
    cfg = ExperimentConfig(nu=nu, alpha=0.7)
    err = np.random.default_rng(31).random(20000) * 0.05
    err[:4] = [0.0, cfg.epsilon0, np.nextafter(cfg.epsilon0, 0.0), 1.0]
    expected = [_accuracy(e, cfg) for e in err.tolist()]
    assert xcsf.accuracies(err, cfg).tolist() == expected


def test_relative_accuracies_sum_to_one():
    rng = np.random.default_rng(5)
    kappas = rng.random(20)
    nums = rng.integers(1, 5, 20)
    rel = xcsf.relative_accuracies(kappas, nums)
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
    cls = [make_classifier(n=3, seed=s, num=num, set_size=1.0)
           for s, num in ((1, 1), (2, 3))]
    reinforce_all(xcsf.Population(cls), np.full(3, 0.5), cfg)
    # |M| in micro-classifiers is 4
    for cl in cls:
        assert cl.set_size == pytest.approx(1.0 + cfg.beta * (4 - 1.0), abs=1e-12)


def test_reinforce_converges_geometrically_on_frozen_net(cfg):
    cl = make_classifier(n=4, seed=6, err=0.5)
    for layer in cl.prediction.layers:
        layer.eta = 0.0
    cl.refresh_args()  # the kernel argument cache snapshots eta
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
    array update replaced."""
    m_micro = sum(cl.num for cl in m)
    ys = np.empty((len(m), len(x)))
    kernels.reinforce_batch([cl.pred_args for cl in m], x, cfg.omega, ys)
    kappas = np.empty(len(m))
    for i, cl in enumerate(m):
        cl.exp += 1
        err_inst = float(np.mean((ys[i] - x) ** 2))
        cl.err += cfg.beta * (err_inst - cl.err)
        kappas[i] = _accuracy(cl.err, cfg)
        cl.set_size += cfg.beta * (m_micro - cl.set_size)
    rel = xcsf.relative_accuracies(kappas, [cl.num for cl in m])
    for i, cl in enumerate(m):
        cl.fit += cfg.beta * (rel[i] - cl.fit)
        if cl.fit < xcsf._F_FLOOR:
            cl.fit = xcsf._F_FLOOR
    return ys


@pytest.mark.parametrize("nu", [10.0, 200.0])
def test_reinforce_equals_the_per_rule_loop_bit_for_bit(nu):
    # nu=200 drives the accuracy of an error near 1 to exactly zero, so the
    # fitness of the wrong rule decays onto the floor
    cfg = ExperimentConfig(nu=nu)
    pattern = np.array([1.0, 0.0] * 4)
    right = make_classifier(n=8, prediction=saturated_network(8, pattern), num=2)
    wrong = make_classifier(n=8, prediction=saturated_network(8, 1.0 - pattern),
                            err=1.0, fit=1e-295)
    learners = [make_classifier(n=8, seed=s, num=num, err=0.05 * s)
                for s, num in ((1, 1), (2, 3), (3, 1))]
    slow = copy.deepcopy([right, wrong] + learners)
    pop = xcsf.Population([right, wrong] + learners)
    fast = pop.members
    rng = np.random.default_rng(29)
    below = above = floored = 0
    for step in range(200):
        # mostly the pattern the right rule reconstructs exactly
        x = rng.random(8) if step % 25 == 0 else pattern
        ys_fast = reinforce_all(pop, x, cfg)
        ys_slow = _reinforce_per_rule(slow, x, cfg)
        assert np.array_equal(ys_fast, ys_slow)
        for a, b in zip(fast, slow):
            assert (a.exp, a.err, a.fit, a.set_size) == (b.exp, b.err, b.fit, b.set_size)
            for la, lb in zip(a.prediction.layers, b.prediction.layers):
                assert np.array_equal(la.weights, lb.weights)
                assert np.array_equal(la.biases, lb.biases)
        below += sum(cl.err < cfg.epsilon0 for cl in fast)
        above += sum(cl.err >= cfg.epsilon0 for cl in fast)
        floored += sum(cl.fit == xcsf._F_FLOOR for cl in fast)
    assert below and above
    assert floored or nu < 200.0


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
        assert child.num == 1 and child.exp == 1
        assert child.born == 100 and child.mtotal == 0
        # momentum buffers start fresh
        for layer in child.prediction.layers:
            assert np.array_equal(layer.mom_w, np.zeros_like(layer.mom_w))


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
        kernels.reinforce_batch([parent.pred_args], x, cfg.omega, np.empty((1, 3)))
    trained = parent.prediction.layers[0].weights.copy()
    # a zero-rate mutation chain copies the weights through unchanged
    quiet = ExperimentConfig(mu_min=1e-12)
    for layer in parent.condition.layers + parent.prediction.layers:
        layer.mu[:] = 1e-12
    child = xcsf.make_offspring(parent, 0.0, 0.01, quiet, np.random.default_rng(13), 0)
    assert child.prediction.layers[0].weights == pytest.approx(trained, abs=1e-9)


def test_deletion_vote_base_and_boost(cfg):
    cl = make_classifier(n=3, seed=14, set_size=2.0, num=1, exp=cfg.theta_del,
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
    vote = cl.set_size * cl.num
    micro_fit = cl.fit / cl.num
    if cl.exp > cfg.theta_del and micro_fit < cfg.delta * pop_mean_f:
        vote *= pop_mean_f / micro_fit
    return vote


def test_deletion_votes_equal_the_scalar_votes_bit_for_bit():
    cfg = ExperimentConfig(stale_limit=50)
    rng = np.random.default_rng(32)
    pop = xcsf.Population([make_classifier(n=2, seed=s, set_size=1.0 + 30 * rng.random(),
                                           num=int(rng.integers(1, 5)),
                                           exp=int(rng.integers(0, 40)),
                                           fit=float(rng.random() ** 4),
                                           mtotal=int(rng.integers(0, 3)),
                                           born=int(rng.integers(0, 100)))
                           for s in range(300)], trial=120)
    mean_f = pop.mean_fitness()
    expected = [_deletion_vote(cl, mean_f, cfg, pop.trial) for cl in pop.members]
    assert xcsf.deletion_votes(pop, mean_f, cfg).tolist() == expected
    assert xcsf.STALE_VOTE in expected
    assert any(e != cl.set_size * cl.num for e, cl in zip(expected, pop.members)
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


def test_enforce_limit_decrements_numerosity_first():
    cfg = ExperimentConfig(N=2)
    rng = np.random.default_rng(21)
    heavy = make_classifier(n=3, prediction=neural.new_network(3, 9, 3, rng), num=2)
    light = make_classifier(n=3, prediction=neural.new_network(3, 1, 3, rng), num=1)
    pop = xcsf.Population([heavy, light])
    xcsf.enforce_population_limit(pop, cfg, np.random.default_rng(22))
    assert heavy.num == 1
    assert pop.members == [heavy, light]


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
    assert res.m_micro == 500
    assert all(cl.exp == 1 for cl in pop.members[:500])
    assert pop.micro_count() <= cfg.N


def test_run_trial_enforces_population_limit(cfg):
    small = ExperimentConfig(N=20, theta_EA=1)
    rng = np.random.default_rng(25)
    pop = xcsf.init_population(small, 6, rng)
    for _ in range(30):
        xcsf.run_trial(pop, rng.random(6), small, rng)
        assert pop.micro_count() <= small.N
        assert all(cl.num >= 1 for cl in pop.members)


def _keyed_condition(n, feature, gain=1000.0):
    """Condition matching inputs where x[feature] > 0.5."""
    rng = np.random.default_rng(0)
    net = neural.new_network(n, 1, 1, rng, sigma=0.0)
    hidden, out = net.layers
    hidden.weights[0, feature] = gain
    hidden.biases[0] = -gain / 2.0
    out.weights[0, 0] = gain
    return net


def test_best_classifier_lowest_error_when_none_accurate(cfg):
    xs = np.tile([1.0, 0.0], (10, 1))
    worse = make_classifier(n=2, condition=always_match_condition(2), err=0.5)
    better = make_classifier(n=2, condition=always_match_condition(2), err=0.3)
    pop = xcsf.Population([worse, better])
    best, mfrac = xcsf.best_classifier(pop, xs, cfg)
    assert best is better
    assert mfrac == 1.0


def test_best_classifier_prefers_wider_match_below_target(cfg):
    # 10 rows: feature 0 high on 9 of them, feature 1 high on 6
    xs = np.zeros((10, 2))
    xs[:9, 0] = 1.0
    xs[:6, 1] = 1.0
    ninety = make_classifier(n=2, condition=_keyed_condition(2, 0), err=0.001)
    sixty = make_classifier(n=2, condition=_keyed_condition(2, 1), err=0.0005)
    pop = xcsf.Population([ninety, sixty])
    best, mfrac = xcsf.best_classifier(pop, xs, cfg)
    assert best is ninety
    assert mfrac == pytest.approx(0.9)


def test_best_classifier_global_ea_matches_everything():
    cfg = ExperimentConfig(mode="global_ea")
    xs = np.random.default_rng(26).random((25, 3))
    pop = xcsf.Population([make_classifier(n=3, seed=s, err=0.001) for s in range(4)])
    _, mfrac = xcsf.best_classifier(pop, xs, cfg)
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
        assert recon == pytest.approx(xcsf.system_prediction(combined, x), rel=1e-12)
        mses.append(float(np.mean((recon - x) ** 2)))
    mean_mse, mean_m = xcsf.evaluate(pop, xs, cfg)
    assert mean_mse == pytest.approx(np.mean(mses), rel=1e-12)
    assert mean_m == 1.5


def test_best_classifier_breaks_equal_coverage_by_error(cfg):
    xs = np.tile([1.0, 0.0], (4, 1))
    first = make_classifier(n=2, condition=always_match_condition(2), err=0.004)
    second = make_classifier(n=2, condition=always_match_condition(2), err=0.002)
    third = make_classifier(n=2, condition=always_match_condition(2), err=0.002)
    best, mfrac = xcsf.best_classifier(xcsf.Population([first, second, third]), xs, cfg)
    assert best is second  # the earlier of two equal rules
    assert mfrac == 1.0


class _Rule:
    """Reference rule: the eight scalars as plain attributes."""

    def __init__(self, condition, prediction, **scalars):
        self.condition, self.prediction = condition, prediction
        self.cond_args = neural.cond_args(condition)
        self.pred_args = neural.pred_args(prediction)
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
        flags = np.empty(len(members), dtype=np.uint8)
        kernels.match_batch([cl.cond_args for cl in members], x,
                            cfg.match_threshold, flags)
        m = [cl for cl, f in zip(members, flags) if f]
    if not m:
        counts["cover"] += 1
        m = [_Rule.of(xcsf.cover(x, cfg, rng, trial))]
        members.append(m[0])
    for cl in m:
        cl.mtotal += 1
    fits_pre = np.array([cl.fit for cl in m])
    m_micro = sum(cl.num for cl in m)
    output = xcsf.fitness_weighted_mean(fits_pre, _reinforce_per_rule(m, x, cfg))

    micro = sum(cl.num for cl in m)
    if trial - sum(cl.ts * cl.num for cl in m) / micro > cfg.theta_EA:
        counts["ea"] += 1
        for cl in m:
            cl.ts = trial
        fits = [cl.fit for cl in m]
        parents = (m[_roulette(fits, rng)], m[_roulette(fits, rng)])
        err = 0.5 * (parents[0].err + parents[1].err) * cfg.epsilon_R
        fit = 0.5 * (parents[0].fit + parents[1].fit) * cfg.F_R
        for i in range(cfg.lam):
            members.append(_Rule.of(xcsf.make_offspring(parents[i % 2], err, fit,
                                                        cfg, rng, trial)))

    while sum(cl.num for cl in members) > cfg.N:
        counts["delete"] += 1
        mean_f = sum(cl.fit for cl in members) / sum(cl.num for cl in members)
        votes = [_deletion_vote(cl, mean_f, cfg, trial) for cl in members]
        i = _roulette(votes, rng)
        if len(members) == 1:
            victim = members[0]
        else:
            rest = list(votes)
            rest[i] = 0.0
            j = _roulette(rest, rng)
            if j == i:
                j = (i + 1) % len(members)
            victim = xcsf._pick_victim(members[i], members[j], votes[i], votes[j], rng)
        victim.num -= 1
        if victim.num == 0:
            counts["remove"] += 1
            members.remove(victim)
    return output, m_micro


def _assert_same_rules(pop, ref):
    assert len(pop.members) == len(ref)
    for a, b in zip(pop.members, ref):
        for name in xcsf.SCALARS:
            va, vb = getattr(a, name), getattr(b, name)
            assert va == vb, name
            assert type(va) is (int if name in xcsf.INT_SCALARS else float)
        for la, lb in zip(a.condition.layers + a.prediction.layers,
                          b.condition.layers + b.prediction.layers):
            assert la.eta == lb.eta
            for arr in ("weights", "biases", "mask", "mu", "mom_w", "mom_b"):
                assert np.array_equal(getattr(la, arr), getattr(lb, arr)), arr


@pytest.mark.parametrize("mode, p_init", [("xcsf", True), ("xcsf", False),
                                          ("global_ea", False)])
def test_run_trial_equals_the_per_rule_learner_bit_for_bit(mode, p_init):
    # a small N and theta_EA make the EA, coverings and deletions all fire;
    # a high threshold makes empty match sets common in xcsf mode
    cfg = ExperimentConfig(N=24, theta_EA=4, theta_del=5, mode=mode, P_init=p_init,
                           match_threshold=0.6, h_M=2, stale_limit=40)
    n = 6
    rng = np.random.default_rng(34)
    pop = xcsf.init_population(cfg, n, rng)
    ref = [_Rule.of(cl, copy_nets=True) for cl in pop.members]
    ref_rng = copy.deepcopy(rng)
    xs = np.random.default_rng(35).random((300, n))
    counts = {"cover": 0, "ea": 0, "delete": 0, "remove": 0}
    for x in xs:
        res = xcsf.run_trial(pop, x, cfg, rng)
        output, m_micro = _run_trial_per_rule(ref, pop.trial, x, cfg, ref_rng, counts)
        assert np.array_equal(res.output, output)
        assert res.m_micro == m_micro
        _assert_same_rules(pop, ref)
    assert all(counts.values()), counts
    assert rng.random() == ref_rng.random()


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
    rules = [make_classifier(n=2, seed=s, fit=0.1 * (s + 1), num=s + 1) for s in range(4)]
    pop = xcsf.Population(rules[:3])
    pop.remove(rules[1])
    assert pop.members == [rules[0], rules[2]]
    # the removed rule keeps its scalars in a row of its own
    assert rules[1].fit == 0.2 and rules[1].num == 2
    rules[1].num = 5
    assert pop.micro_count() == 1 + 3
    pop.add(rules[3])
    pop.add(rules[1])
    assert pop.members == [rules[0], rules[2], rules[3], rules[1]]
    assert sorted(pop.rows.tolist()) == list(range(4))  # the freed row was reused
    assert pop.state.num[pop.rows].tolist() == [1, 3, 4, 5]
    assert pop.micro_count() == 13
    assert pop.mean_fitness() == (0.1 + 0.30000000000000004 + 0.4 + 0.2) / 13


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
