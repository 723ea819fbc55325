import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SCALAR_DEFAULTS, always_match_condition, make_classifier,
                      make_population, never_match_condition, saturated_network,
                      spare_rules, use_backend)
from lcsae import _kernels_py, kernels, neural, xcsf
from lcsae.config import ExperimentConfig


def matches(cl, x, cfg):
    pop = make_population([cl])
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
    pop = make_population([make_classifier(n=4, condition=always_match_condition(4)),
                           make_classifier(n=4, condition=never_match_condition(4)),
                           make_classifier(n=4, condition=always_match_condition(4))])
    assert list(xcsf.match_set(pop, np.zeros(4), cfg)) == [0, 2]
    assert pop.state.mtotal.tolist() == [0, 0, 0]


def test_build_match_set_covers_an_empty_population_in_both_modes():
    for mode in ("xcsf", "global_ea"):
        cfg = ExperimentConfig(mode=mode)
        pop = xcsf.Population([], trial=3)
        x = np.full(4, 0.25)
        m = xcsf.build_match_set(pop, x, cfg, np.random.default_rng(1))
        assert list(m) == [0] and len(pop.members) == 1
        assert pop.state.born[0] == 3 and pop.state.mtotal[0] == 1
        assert matches(pop.members[0], x, cfg)


def test_build_match_set_global_ea_is_whole_population():
    cfg = ExperimentConfig(mode="global_ea", N=10)
    pop = make_population([make_classifier(n=4, seed=s) for s in range(10)])
    m = xcsf.build_match_set(pop, np.zeros(4), cfg, np.random.default_rng(0))
    assert len(m) == len(pop.members)
    assert pop.state.mtotal.tolist() == [1] * 10


def test_build_match_set_macro_members_appear_once(cfg):
    cl = make_classifier(n=4, condition=always_match_condition(4))
    pop = make_population([cl])
    m = xcsf.build_match_set(pop, np.zeros(4), cfg, np.random.default_rng(0))
    assert list(m) == [0]
    assert pop.state.mtotal[0] == 1


def test_build_match_set_covers_when_nothing_matches(cfg):
    pop = make_population([make_classifier(n=4, condition=never_match_condition(4))])
    x = np.full(4, 0.25)
    m = xcsf.build_match_set(pop, x, cfg, np.random.default_rng(1))
    assert list(m) == [1]  # covered classifier was inserted
    assert len(pop.members) == 2
    assert matches(pop.members[1], x, cfg)
    assert pop.state.mtotal.tolist() == [0, 1]


def test_cover_initialises_bookkeeping():
    # initial error and fitness unlike any other rule's, to show where they
    # come from
    cfg = ExperimentConfig(epsilon_I=0.125, F_I=0.375)
    rng = np.random.default_rng(2)
    x = rng.random(6)
    pop = make_population([make_classifier(n=6, condition=never_match_condition(6))],
                          trial=17, err=0.5, fit=0.5, exp=3, set_size=2.0, ts=4, born=4,
                          mtotal=4)
    assert list(xcsf.build_match_set(pop, x, cfg, rng)) == [1]
    cl = pop.members[1]
    assert matches(cl, x, cfg)
    assert cl.condition.n_hidden == cfg.h_I == 1
    assert cl.prediction.n_hidden == cfg.h_I
    # the covered rule's row, after build_match_set counted its match
    st = pop.state
    assert (st.err[1], st.fit[1], st.exp[1], st.set_size[1]) == (0.125, 0.375, 0, 1.0)
    assert (st.ts[1], st.born[1], st.mtotal[1]) == (17, 17, 1)
    assert [getattr(st, name)[0] for name in xcsf.SCALARS] == [0.5, 0.5, 3, 2.0, 4, 4, 4]
    # covering itself builds only the nets, which join a population with a row
    fresh = xcsf.cover(x, cfg, rng)
    assert not any(hasattr(fresh, name) for name in xcsf.SCALARS)


def test_cover_raises_when_matching_is_impossible(monkeypatch):
    monkeypatch.setattr(xcsf, "MAX_COVER_TRIES", 64)
    cfg = ExperimentConfig(match_threshold=1.0)  # logistic output never exceeds 1
    with pytest.raises(xcsf.CoveringError):
        xcsf.cover(np.zeros(4), cfg, np.random.default_rng(3))


def test_system_prediction_single_and_equal_fitness(cfg):
    rng = np.random.default_rng(4)
    x = rng.random(3)
    cl1, cl2 = make_classifier(n=3, seed=1), make_classifier(n=3, seed=2)
    only = xcsf.system_prediction(make_population([cl1], fit=0.4), x)
    assert only == pytest.approx(neural.forward(cl1.prediction, x), abs=1e-12)

    both = xcsf.system_prediction(make_population([cl1, cl2], fit=0.4), x)
    mean = 0.5 * (neural.forward(cl1.prediction, x) + neural.forward(cl2.prediction, x))
    assert both == pytest.approx(mean, abs=1e-12)


def test_system_prediction_weighted_exact(cfg):
    # fitness 0.2/0.3/0.5 with scalar outputs exactly 0/1/1: the products
    # 0.0, 0.3 and 0.5 add in member order to 0.8, and the fitnesses to 1.0
    x = np.zeros(1)
    pop = make_population([make_classifier(n=1, prediction=saturated_network(1, [o]))
                           for o in (0, 1, 1)], fit=[0.2, 0.3, 0.5])
    out = xcsf.system_prediction(pop, x)
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
    cl = make_classifier(n=5, prediction=saturated_network(5, [0, 1, 1, 1, 1]))
    pop = make_population([cl], err=0.1)
    x = np.ones(5)
    w_before = [l.weights.copy() for l in cl.prediction.layers]
    reinforce_all(pop, x, cfg)
    assert pop.state.err[0] == pytest.approx(0.11, abs=1e-12)
    assert pop.state.exp[0] == 1
    # saturated logistic outputs have zero gradient, so weights are untouched
    for w0, layer in zip(w_before, cl.prediction.layers):
        assert np.array_equal(w0, layer.weights)


def test_reinforce_set_size_uses_micro_count(cfg):
    pop = make_population([make_classifier(n=3, seed=s) for s in range(1, 5)], set_size=1.0)
    reinforce_all(pop, np.full(3, 0.5), cfg)
    # |M| is 4
    for set_size in pop.state.set_size:
        assert set_size == pytest.approx(1.0 + cfg.beta * (4 - 1.0), abs=1e-12)


def test_reinforce_converges_geometrically_on_frozen_net(cfg):
    cl = make_classifier(n=4, seed=6)
    for layer in cl.prediction.layers:
        layer.eta = 0.0
    # a rule caches its kernel arguments, rates included, when it is built
    cl = make_classifier(n=4, condition=cl.condition, prediction=cl.prediction)
    x = np.full(4, 0.25)
    c = float(np.mean((neural.forward(cl.prediction, x) - x) ** 2))
    err0 = 0.5
    pop = make_population([cl], err=err0)
    for k in range(1, 30):
        reinforce_all(pop, x, cfg)
        expected = c + (1.0 - cfg.beta) ** k * (err0 - c)
        assert pop.state.err[0] == pytest.approx(expected, rel=1e-10)


def test_reinforce_updates_fitness_toward_relative_accuracy(cfg):
    # a good rule and a bad one
    pop = make_population([make_classifier(n=3, seed=1), make_classifier(n=3, seed=2)],
                          err=[0.001, 0.5], fit=0.5)
    reinforce_all(pop, np.full(3, 0.5), cfg)
    good, bad = pop.state.fit
    assert good > bad
    assert 0.0 < bad <= 1.0


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
    use_backend(backend, request, monkeypatch)
    cfg = ExperimentConfig(nu=nu)
    pattern = np.array([1.0, 0.0] * 4)
    right = make_classifier(n=8, prediction=saturated_network(8, pattern))
    wrong = make_classifier(n=8, prediction=saturated_network(8, 1.0 - pattern))
    learners = [make_classifier(n=8, seed=s) for s in range(1, size - 1)]
    rules = ([right, wrong] + learners)[:size]
    # a lone rule starts above the target error and learns its way below it;
    # the large match sets run fewer steps, so their wrong rule starts
    # nearer the floor
    err = ([0.05 if size == 1 else 0.0, 1.0] + [0.05 * (s % 4) for s in range(1, size - 1)])
    fit = [0.01, 1e-295 if size <= 8 else 3e-300] + [0.01] * (size - 2)
    err, fit = err[:size], fit[:size]
    # the larger match sets skip rows: their rules sit at every other row,
    # between rules outside the match set
    m = np.arange(size)
    if size > 5:
        spares = [make_classifier(n=8, seed=1000 + s) for s in range(size)]
        rules = [cl for pair in zip(rules, spares) for cl in pair]
        err = [v for e in err for v in (e, 0.0)]
        fit = [v for f in fit for v in (f, 0.01)]
        m = np.arange(0, 2 * size, 2)
    pop = make_population(rules, err=err, fit=fit)
    slow = _Rule.all_of(pop, copy_nets=True)
    st = pop.state
    rng = np.random.default_rng(29)
    below = above = floored = 0
    for step in range(200 if size <= 8 else 20):
        # mostly the pattern the right rule reconstructs exactly
        x = rng.random(8) if step % 25 == 0 else pattern
        out_fast = xcsf.reinforce(pop, m, x, cfg)
        out_slow = _reinforce_per_rule([slow[i] for i in m.tolist()], x, cfg)
        assert np.array_equal(out_fast, out_slow)
        for i, (a, b) in enumerate(zip(pop.members, slow)):
            assert (st.exp[i], st.err[i], st.fit[i], st.set_size[i]) == \
                (b.exp, b.err, b.fit, b.set_size)
            for la, lb in zip(a.prediction.layers, b.prediction.layers):
                assert np.array_equal(la.weights, lb.weights)
                assert np.array_equal(la.biases, lb.biases)
        below += int((st.err[m] < cfg.epsilon0).sum())
        above += int((st.err[m] >= cfg.epsilon0).sum())
        floored += int((st.fit[m] == xcsf._F_FLOOR).sum())
    assert below and above
    # a lone rule's relative accuracy is 1, so only a shared one can vanish
    assert floored or nu < 200.0 or size == 1


def test_maybe_run_ea_respects_theta(cfg):
    pop = make_population([make_classifier(n=3, seed=s) for s in range(3)], trial=100, ts=100)
    fired = xcsf.maybe_run_ea(pop, np.arange(3), cfg, np.random.default_rng(7))
    assert not fired
    assert len(pop.members) == 3


def test_maybe_run_ea_fires_and_inserts_offspring(cfg):
    pop = make_population([make_classifier(n=3, seed=s) for s in range(2)], trial=100,
                          ts=0, fit=[0.4, 0.6], err=0.2)
    fired = xcsf.maybe_run_ea(pop, np.arange(2), cfg, np.random.default_rng(8))
    assert fired
    assert len(pop.members) == 2 + cfg.lam
    assert pop.state.ts.tolist() == [100] * (2 + cfg.lam)
    assert pop.state.exp[2:].tolist() == [1] * cfg.lam
    assert pop.state.born[2:].tolist() == [100] * cfg.lam
    assert pop.state.mtotal[2:].tolist() == [0] * cfg.lam
    for child in pop.members[2:]:
        # momentum buffers start fresh
        for layer in child.prediction.layers:
            assert np.array_equal(layer.mom_w, np.zeros_like(layer.mom_w))


def test_maybe_run_ea_due_check_uses_the_exact_mean_time_stamp():
    # the mean ts of the 40 rules is exactly 431377.0, so the EA is due only
    # once the trial passes 431427
    cfg = ExperimentConfig(theta_EA=50)
    stamps = [798937] + [4137] * 14 + [655929] * 25
    pop = make_population([make_classifier(n=3, seed=s) for s in range(40)], ts=stamps)
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


def test_make_offspring_applies_reductions():
    # two parents unlike in every scalar; the offspring take the reduced
    # parental means, experience 1 and their own parent's set size
    cfg = ExperimentConfig(epsilon_R=0.5)
    fits, errs, sizes = [0.4, 0.6], [0.2, 0.3], [3.0, 5.0]
    pop = make_population([make_classifier(n=3, seed=9), make_classifier(n=3, seed=10)],
                          trial=100, fit=fits, err=errs, set_size=sizes, exp=[4, 9],
                          mtotal=[3, 2])
    rng = np.random.default_rng(10)
    # the two fitness-roulette draws the EA makes first
    draws = copy.deepcopy(rng)
    p1, p2 = xcsf.roulette(fits, draws), xcsf.roulette(fits, draws)
    assert p1 != p2
    assert xcsf.maybe_run_ea(pop, np.arange(2), cfg, rng)
    st = pop.state
    assert st.err[2:].tolist() == [0.5 * (errs[p1] + errs[p2]) * cfg.epsilon_R] * cfg.lam
    assert st.fit[2:].tolist() == [0.5 * (fits[p1] + fits[p2]) * cfg.F_R] * cfg.lam
    assert st.fit[2] == pytest.approx(0.05, abs=1e-12)
    assert st.set_size[2:].tolist() == [sizes[(p1, p2)[i % 2]] for i in range(cfg.lam)]
    assert st.exp[2:].tolist() == [1] * cfg.lam
    assert st.ts[2:].tolist() == st.born[2:].tolist() == [100] * cfg.lam
    assert st.mtotal[2:].tolist() == [0] * cfg.lam
    # reproduction itself builds only the nets, which join a population with a row
    child = xcsf.make_offspring(pop.members[0], cfg, rng)
    assert not any(hasattr(child, name) for name in xcsf.SCALARS)


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
    child = xcsf.make_offspring(parent, quiet, np.random.default_rng(13))
    assert child.prediction.layers[0].weights == pytest.approx(trained, abs=1e-9)


def test_deletion_vote_base_and_boost(cfg):
    pop = make_population([make_classifier(n=3, seed=14)], set_size=2.0, exp=cfg.theta_del,
                          fit=0.05)
    # not experienced enough: plain set-size vote
    assert xcsf.deletion_votes(pop, 1.0, cfg).tolist() == [2.0]
    pop.state.exp[0] = 21
    # fitness at 0.05 of the mean with delta=0.1 boosts the vote twentyfold
    vote = xcsf.deletion_votes(pop, 1.0, cfg)[0]
    assert vote == pytest.approx(2.0 * 20.0, abs=1e-9)
    # a fitness of exactly delta times the mean is not boosted
    pop.state.fit[0] = cfg.delta * 1.0
    assert xcsf.deletion_votes(pop, 1.0, cfg).tolist() == [2.0]


def test_deletion_vote_stale_is_maximal(cfg):
    pop = make_population([make_classifier(n=3, seed=15)], trial=10001, mtotal=0, born=0)
    assert xcsf.deletion_votes(pop, 1.0, cfg)[0] == xcsf.STALE_VOTE
    pop.state.mtotal[0] = 1
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
    rows = [(1.0 + 30 * rng.random(), int(rng.integers(0, 40)), float(rng.random() ** 4),
             int(rng.integers(0, 3)), int(rng.integers(0, 100))) for _ in range(300)]
    set_size, exp, fit, mtotal, born = zip(*rows)
    pop = make_population([make_classifier(n=2, seed=s) for s in range(300)], trial=120,
                          set_size=set_size, exp=exp, fit=fit, mtotal=mtotal, born=born)
    mean_f = pop.mean_fitness()
    rules = _Rule.all_of(pop)
    expected = [_deletion_vote(cl, mean_f, cfg, pop.trial) for cl in rules]
    assert xcsf.deletion_votes(pop, mean_f, cfg).tolist() == expected
    assert xcsf.STALE_VOTE in expected
    assert any(e != cl.set_size for e, cl in zip(expected, rules) if e != xcsf.STALE_VOTE)


def test_enforce_limit_noop_at_capacity():
    cfg = ExperimentConfig(N=3)
    pop = make_population([make_classifier(n=3, seed=s) for s in range(3)])
    before = list(pop.members)
    xcsf.enforce_population_limit(pop, cfg, np.random.default_rng(16))
    assert pop.members == before


def test_enforce_limit_deletes_biggest_prediction_net():
    cfg = ExperimentConfig(N=1)
    rng = np.random.default_rng(17)
    big = make_classifier(n=3, prediction=neural.new_network(3, 30, 3, rng))
    small = make_classifier(n=3, prediction=neural.new_network(3, 5, 3, rng))
    pop = make_population([big, small], trial=0)
    xcsf.enforce_population_limit(pop, cfg, np.random.default_rng(18))
    assert pop.members == [small]


def test_enforce_limit_prefers_stale_over_size():
    cfg = ExperimentConfig(N=1, stale_limit=100)
    rng = np.random.default_rng(19)
    stale_small = make_classifier(n=3, prediction=neural.new_network(3, 2, 3, rng))
    fresh_big = make_classifier(n=3, prediction=neural.new_network(3, 20, 3, rng))
    pop = make_population([stale_small, fresh_big], trial=200, mtotal=[0, 5], born=0)
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


class _ScriptedUniform:
    """Generator stand-in whose ``random`` returns one scripted value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_roulette_by_searchsorted_equals_the_first_running_sum_above_r():
    below_one = float(np.nextafter(1.0, 0.0))
    # weights whose pairwise np.sum exceeds their last running sum, so an
    # r near the total sits above every running sum
    gen = np.random.default_rng(34)
    over = next(w for w in (gen.random(int(gen.integers(2, 40))) for _ in range(10**4))
                if np.sum(w) > np.cumsum(w)[-1])
    assert float(np.sum(over)) * below_one >= np.cumsum(over)[-1]
    cases = [[0.0, 0.0, 1.0, 0.0, 2.0, 0.0],  # zeros first and in the middle
             [0.0, 0.5, 0.0, 0.0, 0.5],
             [1.0, 1.0, 1.0, 1.0],  # ties, with r on a running sum below
             [0.25, 0.25, 0.0, 0.5],
             [3.0], [0.0, 7.0], over.tolist()]
    for weights in cases:
        sums = np.cumsum(weights)
        # r on every running sum, between them, at zero and at the total
        us = [0.0, below_one, 1.0, *(sums / float(np.sum(weights))).tolist(),
              *np.random.default_rng(35).random(50).tolist()]
        for u in us:
            assert (xcsf.roulette(weights, _ScriptedUniform(u))
                    == _roulette(weights, _ScriptedUniform(u))), (weights, u)
    # all-zero weights take the uniform branch, one integer draw
    for weights in ([0.0], [0.0] * 5):
        a, b = np.random.default_rng(36), np.random.default_rng(36)
        for _ in range(20):
            assert xcsf.roulette(weights, a) == _roulette(weights, b)
        assert a.random() == b.random()


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
    assert pop.state.exp[:500].tolist() == [1] * 500
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
    scalars = {name: getattr(pop.state, name)[-1] for name in xcsf.SCALARS}
    pop.remove(len(pop.members) - 1)
    pop.memoize(cfg, len(xs))
    xcsf.evaluate(pop, xs[::2], cfg, rows[::2])
    xcsf.match_set(pop, xs[-1], cfg, rows[-1])
    if pop.memo is not None:
        pop.memo[np.random.default_rng(len(xs)).random(pop.memo.shape) < 1 / 3] = xcsf.UNKNOWN
    pop.add([last], **scalars)
    return rows


def _best_classifier(pop, xs, cfg):
    """``best_classifier`` without rows, which the same call with rows on a
    partly filled memo must give too: the best rule's position and its
    match fraction."""
    best = xcsf.best_classifier(pop, xs, cfg)
    assert type(best[0]) is int
    assert xcsf.best_classifier(pop, xs, cfg, _partly_memoized(pop, xs, cfg)) == best
    return best


def test_best_classifier_lowest_error_when_none_accurate(cfg):
    xs = np.tile([1.0, 0.0], (10, 1))
    worse = make_classifier(n=2, condition=always_match_condition(2))
    better = make_classifier(n=2, condition=always_match_condition(2))
    pop = make_population([worse, better], err=[0.5, 0.3])
    best, mfrac = _best_classifier(pop, xs, cfg)
    assert pop.members[best] is better and best == 1
    assert mfrac == 1.0


def test_best_classifier_falls_back_to_the_first_rule_with_the_lowest_error(cfg):
    # only the fallback rule is counted, so the wider later rule cannot win
    xs = np.tile([1.0, 0.0], (4, 1))
    rules = [make_classifier(n=2, condition=c(2))
             for c in (always_match_condition, never_match_condition, always_match_condition)]
    best, mfrac = _best_classifier(make_population(rules, err=[0.5, 0.2, 0.2]), xs, cfg)
    assert best == 1
    assert mfrac == 0.0


def test_best_classifier_prefers_wider_match_below_target(cfg):
    # 10 rows: feature 0 high on 9 of them, feature 1 high on 6
    xs = np.zeros((10, 2))
    xs[:9, 0] = 1.0
    xs[:6, 1] = 1.0
    ninety = make_classifier(n=2, condition=_keyed_condition(2, 0))
    sixty = make_classifier(n=2, condition=_keyed_condition(2, 1))
    pop = make_population([ninety, sixty], err=[0.001, 0.0005])
    best, mfrac = _best_classifier(pop, xs, cfg)
    assert pop.members[best] is ninety and best == 0
    assert mfrac == pytest.approx(0.9)


def test_best_classifier_global_ea_matches_everything():
    cfg = ExperimentConfig(mode="global_ea")
    xs = np.random.default_rng(26).random((25, 3))
    pop = make_population([make_classifier(n=3, seed=s) for s in range(4)], err=0.001)
    _, mfrac = _best_classifier(pop, xs, cfg)
    assert mfrac == 1.0


def test_evaluate_matches_trial_predictions(cfg):
    rng = np.random.default_rng(27)
    pop = make_population([make_classifier(n=4, seed=s, condition=always_match_condition(4))
                           for s in range(3)], fit=[0.1 + 0.2 * s for s in range(3)])
    xs = rng.random((6, 4))
    mean_mse, mean_m = xcsf.evaluate(pop, xs, cfg)
    expected = np.mean([
        float(np.mean((xcsf.system_prediction(pop, x) - x) ** 2))
        for x in xs])
    assert mean_mse == pytest.approx(expected, rel=1e-12)
    assert mean_m == 3.0


def test_evaluate_falls_back_to_population_when_unmatched(cfg):
    rng = np.random.default_rng(28)
    pop = make_population([make_classifier(n=4, seed=s, condition=never_match_condition(4))
                           for s in range(3)])
    xs = rng.random((5, 4))
    mean_mse, mean_m = xcsf.evaluate(pop, xs, cfg)
    assert np.isfinite(mean_mse)
    assert mean_m == 0.0
    recon = xcsf.reconstruct_one(pop, xs[0], cfg)
    expected = xcsf.system_prediction(pop, xs[0])
    assert recon == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mode, calls", [("xcsf", 2), ("global_ea", 1)])
def test_reconstruct_one_makes_one_kernel_call_per_pass(mode, calls, monkeypatch):
    # one forward_batch over the conditions (unless every rule matches) and
    # one predict_batch over the prediction nets, however many rules there are
    cfg = ExperimentConfig(mode=mode)
    pop = make_population([make_classifier(n=3, seed=s, condition=always_match_condition(3))
                           for s in range(5)], fit=[0.1 + s for s in range(5)])
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
    keyed = make_classifier(n=2, seed=1, condition=_keyed_condition(2, 0))
    always = make_classifier(n=2, seed=2, condition=always_match_condition(2))
    never = make_classifier(n=2, seed=3, condition=never_match_condition(2))
    pop = make_population([keyed, always, never], fit=[0.3, 0.2, 0.5])
    mses = []
    for x in xs:
        recon = xcsf.reconstruct_one(pop, x, cfg)
        combined = (make_population([keyed, always], fit=[0.3, 0.2]) if x[0] > 0.5
                    else make_population([always], fit=0.2))
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
    keyed = make_classifier(n=2, seed=1, condition=_keyed_condition(2, 0))
    never = make_classifier(n=2, seed=2, condition=never_match_condition(2))
    pop = make_population([keyed, never], fit=[0.3, 0.5])
    mses = []
    for x in xs:
        recon = xcsf.reconstruct_one(pop, x, cfg)
        combined = make_population([keyed], fit=0.3) if x[0] > 0.5 else pop
        assert np.array_equal(recon, xcsf.system_prediction(combined, x))
        mses.append(float(np.mean((recon - x) ** 2)))
    mean_mse, mean_m = xcsf.evaluate(pop, xs, cfg)
    assert mean_mse == np.mean(mses)
    # the keyed rule counts 1 on each of its rows, the fallback rows count 0
    assert mean_m == 3 / 6


def test_reconstruct_one_predicts_with_a_population_of_the_matched_rules(cfg, monkeypatch):
    # the keyed rules at positions 0 and 2 match inputs with feature 0 high;
    # nothing matches the others, which fall back to the whole population
    keyed = [make_classifier(n=2, seed=s, condition=_keyed_condition(2, 0)) for s in (1, 3)]
    never = make_classifier(n=2, seed=2, condition=never_match_condition(2))
    pop = make_population([keyed[0], never, keyed[1]], trial=9, err=[0.1, 0.2, 0.3],
                          fit=[0.3, 0.5, 0.2], exp=[1, 2, 3], set_size=[1.5, 2.5, 3.5],
                          ts=[4, 5, 6], born=[1, 2, 3], mtotal=[7, 8, 9])
    pop.memoize(cfg, rows=2)
    inner, handed = xcsf.system_prediction, []

    def spy(p, x):
        handed.append(p)
        return inner(p, x)

    monkeypatch.setattr(xcsf, "system_prediction", spy)
    hit, miss = np.array([1.0, 0.25]), np.array([0.25, 0.25])
    recon = xcsf.reconstruct_one(pop, hit, cfg)
    (matched,) = handed
    assert list(matched) == matched.members == keyed
    assert matched.trial == 9 and matched.memo is None and matched.slots is None
    for name in xcsf.SCALARS:
        col, full = getattr(matched.state, name), getattr(pop.state, name)
        assert col.dtype == full.dtype and col.tolist() == full[[0, 2]].tolist(), name
    assert np.array_equal(recon, inner(make_population(keyed, fit=[0.3, 0.2]), hit))
    # its rows are copies, so nothing written to them reaches the population
    matched.state.fit[:] = 7.0
    assert pop.state.fit.tolist() == [0.3, 0.5, 0.2]
    handed.clear()
    recon = xcsf.reconstruct_one(pop, miss, cfg)
    assert len(handed) == 1 and handed[0] is pop
    assert np.array_equal(recon, inner(pop, miss))


@pytest.mark.parametrize("mode, condition", [("global_ea", never_match_condition),
                                             ("xcsf", always_match_condition)])
def test_reconstruct_one_predicts_with_the_population_when_every_rule_matches(
        mode, condition, monkeypatch):
    # global_ea mode matches every rule whatever its condition says
    cfg = ExperimentConfig(mode=mode)
    rules = [make_classifier(n=3, seed=s, condition=condition(3)) for s in range(4)]
    fit = [0.4, 0.1, 0.3, 0.2]
    pop = make_population(rules, fit=fit)
    inner, handed = xcsf.system_prediction, []

    def spy(p, x):
        handed.append(p)
        return inner(p, x)

    monkeypatch.setattr(xcsf, "system_prediction", spy)
    x = np.random.default_rng(30).random(3)
    recon = xcsf.reconstruct_one(pop, x, cfg)
    assert len(handed) == 1 and handed[0] is pop
    assert recon.tobytes() == inner(make_population(rules, fit=fit), x).tobytes()


def _varied_population(n, size, seed):
    """Rules with random conditions, of which an input matches some, and
    prediction nets of several hidden sizes and fitnesses."""
    rng = np.random.default_rng(seed)
    sigma = 2.0 / np.sqrt(n)
    fit, rules = [], []
    for s in range(size):
        fit.append(0.05 + rng.random())
        rules.append(make_classifier(
            n=n, condition=neural.new_network(n, 1 + s % 3, 1, rng, sigma=sigma,
                                              random_biases=True),
            prediction=neural.new_network(n, 1 + s % 4, n, rng, sigma=sigma,
                                          random_biases=True)))
    return make_population(rules, fit=fit)


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_match_matrix_columns_are_the_match_sets(backend, request, monkeypatch):
    use_backend(backend, request, monkeypatch)
    pop = _varied_population(64, 40, seed=37)
    xs = np.random.default_rng(38).random((12, 64))
    conds = [cl.cond_args for cl in pop.members]
    matched = kernels.match_batch(conds, xs, ExperimentConfig().match_threshold)
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
            matched = kernels.match_batch(conds, xs, threshold)
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
    use_backend(backend, request, monkeypatch)
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
    use_backend(backend, request, monkeypatch)
    # rows 0-3 have feature 0 high and match only the keyed rule
    xs = np.random.default_rng(41).random((4, 3)) * 0.5
    xs[:, 0] = 1.0
    keyed = make_classifier(n=3, seed=1, h=3, condition=_keyed_condition(3, 0))
    never = make_classifier(n=3, seed=2, condition=never_match_condition(3))
    pop = make_population([never, keyed], fit=[0.7, 0.3])
    mses = [np.mean((xcsf.reconstruct_one(pop, x, cfg) - x) ** 2) for x in xs]
    for r in range(len(xs)):
        assert xcsf.evaluate(pop, xs[r:r + 1], cfg)[0] == mses[r]
    assert xcsf.evaluate(pop, xs, cfg)[0] == np.mean(mses)
    # one feature: a row's error is one squared difference, so a last-bit
    # change in the rule's output would show in it
    prediction = neural.new_network(1, 8, 1, np.random.default_rng(42), sigma=1.0,
                                    random_biases=True)
    pop = make_population([make_classifier(n=1, condition=_keyed_condition(1, 0),
                                           prediction=prediction)], fit=1.0)
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
    use_backend(backend, request, monkeypatch)
    cfg = ExperimentConfig(N=24, theta_EA=4, mode=mode, match_threshold=0.6, h_M=2)
    rng = np.random.default_rng(46)
    pop = xcsf.init_population(cfg, 6, rng)
    checked = 0
    for x in np.random.default_rng(47).random((100, 6)):
        before = copy.deepcopy(pop)
        m = xcsf.match_set(before, x, cfg).tolist()
        res = xcsf.run_trial(pop, x, cfg, rng)
        if m:  # otherwise the trial covered with a new rule
            expected = xcsf.system_prediction(
                make_population([before.members[i] for i in m], fit=before.state.fit[m]), x)
            assert np.array_equal(res.output, expected)
            checked += 1
    assert checked > 50


def test_best_classifier_breaks_equal_coverage_by_error(cfg):
    xs = np.tile([1.0, 0.0], (4, 1))
    first, second, third = (make_classifier(n=2, condition=always_match_condition(2))
                            for _ in range(3))
    best, mfrac = _best_classifier(make_population([first, second, third],
                                                   err=[0.004, 0.002, 0.002]), xs, cfg)
    assert best == 1  # the earlier of two equal rules
    assert mfrac == 1.0


class _Rule:
    """Reference rule: two nets and the seven scalars as plain attributes."""

    def __init__(self, condition, prediction, *, err, fit, exp, set_size, ts, born,
                 mtotal):
        self.condition, self.prediction = condition, prediction
        self.cond_args = neural.net_args(condition)
        self.pred_args = neural.net_args(prediction)
        self.err, self.fit, self.exp, self.set_size = err, fit, exp, set_size
        self.ts, self.born, self.mtotal = ts, born, mtotal

    @classmethod
    def all_of(cls, pop, copy_nets=False):
        """The members of ``pop`` with the scalars of their rows, as Python
        numbers."""
        rules = []
        for i, cl in enumerate(pop.members):
            nets = (cl.condition, cl.prediction)
            if copy_nets:
                nets = copy.deepcopy(nets)
            rules.append(cls(*nets, **{name: getattr(pop.state, name)[i].item()
                                       for name in xcsf.SCALARS}))
        return rules


def _run_trial_per_rule(members, trial, x, cfg, rng, counts):
    """Reference: one trial of the rule-by-rule learner (match, cover,
    reinforce, EA due-check, EA and deletion) over a list of ``_Rule``."""
    if cfg.global_ea:
        m = list(members)
    else:
        matched = kernels.match_batch([cl.cond_args for cl in members], x[None],
                                      cfg.match_threshold)[:, 0]
        m = [members[i] for i in np.flatnonzero(matched).tolist()]
    if not m:
        counts["cover"] += 1
        cl = xcsf.cover(x, cfg, rng)
        m = [_Rule(cl.condition, cl.prediction, err=cfg.epsilon_I, fit=cfg.F_I, exp=0,
                   set_size=1.0, ts=trial, born=trial, mtotal=0)]
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
            parent = parents[i % 2]
            child = xcsf.make_offspring(parent, cfg, rng)
            members.append(_Rule(child.condition, child.prediction, err=err, fit=fit, exp=1,
                                 set_size=parent.set_size, ts=trial, born=trial, mtotal=0))

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
        # stale first, then the larger prediction hidden layer, then the
        # larger vote, then a coin
        stale_i, stale_j = votes[i] >= xcsf.STALE_VOTE, votes[j] >= xcsf.STALE_VOTE
        h_i, h_j = members[i].prediction.n_hidden, members[j].prediction.n_hidden
        if stale_i != stale_j:
            victim = i if stale_i else j
        elif h_i != h_j:
            victim = i if h_i > h_j else j
        elif votes[i] != votes[j]:
            victim = i if votes[i] > votes[j] else j
        else:
            victim = i if rng.random() < 0.5 else j
        del members[victim]
    return output, len(m)


def _assert_same_rules(pop, ref):
    assert len(pop.members) == len(ref)
    for name in xcsf.SCALARS:
        col = getattr(pop.state, name)
        assert col.dtype == (np.int64 if name in xcsf.INT_SCALARS else np.float64), name
        assert col.tolist() == [getattr(b, name) for b in ref], name
    for a, b in zip(pop.members, ref):
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
    use_backend(backend, request, monkeypatch)
    # a small N and theta_EA make the EA, coverings and deletions all fire;
    # a high threshold makes empty match sets common in xcsf mode
    cfg = ExperimentConfig(N=24, theta_EA=4, theta_del=5, mode=mode, P_init=p_init,
                           match_threshold=0.6, h_M=2, stale_limit=40)
    rng = np.random.default_rng(34)
    pop = xcsf.init_population(cfg, n, rng)
    # the reference states every rule's first scalars itself
    ref = [_Rule(*copy.deepcopy((cl.condition, cl.prediction)), err=cfg.epsilon_I,
                 fit=cfg.F_I, exp=0, set_size=1.0, ts=0, born=0, mtotal=0)
           for cl in pop.members]
    _assert_same_rules(pop, ref)
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
        # only the population holds the table, so its columns die with it
        column = weakref.ref(pop.state.fit)
        del pop
        assert loaded() is None and column() is None
    finally:
        gc.enable()


def test_add_and_remove_keep_rows_aligned_and_reuse_them():
    rules = [make_classifier(n=2, seed=s) for s in range(4)]
    pop = make_population(rules[:3], fit=[0.1 * (s + 1) for s in range(3)])
    pop.remove(1)
    assert pop.members == [rules[0], rules[2]]
    # position 2 went with the removed rule
    with pytest.raises(IndexError):
        pop.remove(2)
    assert pop.members == [rules[0], rules[2]]
    assert pop.micro_count() == 2
    pop.add([rules[3]], **{**SCALAR_DEFAULTS, "fit": 0.4})
    pop.add([rules[1]], **{**SCALAR_DEFAULTS, "fit": 0.5})
    assert pop.members == [rules[0], rules[2], rules[3], rules[1]]
    # the later row moved up, and the adds took the next rows
    assert pop.state.fit.tolist() == [0.1, 0.30000000000000004, 0.4, 0.5]
    assert pop.micro_count() == 4
    assert pop.mean_fitness() == (0.1 + 0.30000000000000004 + 0.4 + 0.5) / 4


def _assert_table_is_the_model(pop, model):
    # every column has one row per member, holding the scalars it was added
    # with, and a table built in one step from them is the same as this one,
    # built add by add
    rebuilt = xcsf.RuleState([values[name] for _, values in model] for name in xcsf.SCALARS)
    for name in xcsf.SCALARS:
        col, again = getattr(pop.state, name), getattr(rebuilt, name)
        assert col.shape == (len(pop.members),), name
        assert again.dtype == col.dtype and np.array_equal(again, col), name


def _assert_remove_is_refused(pop, i):
    # a position outside the members changes no column, slot or member
    columns = [getattr(pop.state, name).copy() for name in xcsf.SCALARS]
    slots, free, members = pop.slots.copy(), list(pop._free), list(pop.members)
    with pytest.raises(IndexError, match="no member at position"):
        pop.remove(i)
    for name, col in zip(xcsf.SCALARS, columns):
        now = getattr(pop.state, name)
        assert now.dtype == col.dtype and np.array_equal(now, col), name
    assert np.array_equal(pop.slots, slots) and pop._free == free and pop.members == members


def _scalars(k):
    return dict(err=k / 7, fit=(k + 1) / 3, exp=k, set_size=k + 0.5, ts=2 * k, born=3 * k,
                mtotal=4 * k)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(ops=st.lists(st.sampled_from(["add", "readd", "pair", "first", "middle", "last"]),
                    max_size=40))
def test_random_adds_and_removes_match_a_list_model(ops):
    pop = xcsf.Population()
    _assert_table_is_the_model(pop, [])
    # room for every add of the longest list of operations, two rules each
    pop.memoize(ExperimentConfig(N=77, lam=2), rows=5)
    for i in (-1, 0):  # an empty population has no position
        _assert_remove_is_refused(pop, i)
    model = []  # (rule, its scalars) in member order
    removed = []
    for k, op in enumerate(ops):
        added = {"add": 1, "readd": 1, "pair": 2}.get(op, 0)
        if op == "readd" and removed:
            cl, values = removed.pop()
            pop.add([cl], **values)
            model.append((cl, values))
        elif op == "pair":
            # two rules in one call, each scalar given per rule
            values = [_scalars(k), _scalars(k + 100)]
            cls = [make_classifier(n=2, seed=k), make_classifier(n=2, seed=k + 100)]
            pop.add(cls, **{name: [v[name] for v in values] for name in xcsf.SCALARS})
            model += zip(cls, values)
        elif added:
            values = _scalars(k)
            cl = make_classifier(n=2, seed=k)
            pop.add([cl], **values)
            model.append((cl, values))
        elif model:
            i = {"first": 0, "middle": len(model) // 2, "last": len(model) - 1}[op]
            pop.remove(i)
            removed.append(model.pop(i))
        # every member owns its own slot, and a new rule starts with no
        # decisions, whatever the slot's last owner left in it
        slots = pop.slots.tolist()
        assert len(slots) == len(set(slots)) == len(pop.members)
        assert all(0 <= slot < len(pop.memo) for slot in slots)
        if added:
            assert not pop.memo[slots[-added:]].any()
        pop.memo[slots] = xcsf.MATCH
        assert list(pop) == pop.members == [cl for cl, _ in model]
        _assert_table_is_the_model(pop, model)
        assert pop.micro_count() == len(model)
        if model:
            total = 0.0
            for _, values in model:
                total += values["fit"]
            assert pop.mean_fitness() == total / len(model)
        # a negative position, or one past the last member, is refused
        for i in (-1, len(model)):
            _assert_remove_is_refused(pop, i)


def test_a_match_memo_holds_n_plus_lambda_plus_one_rules():
    cfg = ExperimentConfig(N=2, lam=1)
    with pytest.raises(ValueError, match="do not fit"):
        make_population([make_classifier(n=2, seed=s) for s in range(5)]).memoize(cfg, rows=3)
    rules = [make_classifier(n=2, seed=s) for s in range(5)]
    pop = make_population(rules[:3])
    pop.memoize(cfg, rows=3)
    pop.add([rules[3]], **SCALAR_DEFAULTS)
    assert pop.memo.shape == (4, 3) and sorted(pop.slots.tolist()) == [0, 1, 2, 3]
    # a full memo refuses a rule, and the population stays as it was
    with pytest.raises(RuntimeError, match="full"):
        pop.add([rules[4]], **SCALAR_DEFAULTS)
    assert pop.members == rules[:4] and len(pop.state.fit) == len(pop.slots) == 4
    pop.remove(1)
    # a list of rules needs a slot for each, or none of them is added
    with pytest.raises(RuntimeError, match="full"):
        pop.add([rules[4], rules[1]], **SCALAR_DEFAULTS)
    assert pop.members == [rules[0], rules[2], rules[3]] and pop._free == [1]
    assert len(pop.state.fit) == len(pop.slots) == 3
    pop.add([rules[4]], **SCALAR_DEFAULTS)
    assert pop.slots.tolist() == [0, 2, 3, 1]
    # every rule matches in global_ea mode, so there is nothing to remember
    pop = make_population([make_classifier(n=2, seed=s) for s in range(3)])
    pop.memoize(ExperimentConfig(mode="global_ea"), rows=3)
    assert pop.memo is None and pop.slots is None


def test_mean_fitness_adds_in_member_order():
    # 1 followed by many tiny fitnesses: a loop in member order drops each
    # tiny term, numpy's pairwise sum keeps some of them
    fits = [1.0] + [1e-16] * 40
    pop = make_population([make_classifier(n=2, seed=s) for s in range(len(fits))], fit=fits)
    total = 0.0
    for f in fits:
        total += f
    assert pop.mean_fitness() == total / len(fits)
    assert float(np.sum(fits)) != total


def test_add_takes_the_seven_scalars_by_keyword_only():
    values = _scalars(3)
    pop, cl = xcsf.Population(), make_classifier(n=2)
    with pytest.raises(TypeError):
        pop.add([cl], *values.values())
    misspelt = {("sizes" if name == "set_size" else name): v for name, v in values.items()}
    with pytest.raises(TypeError):
        pop.add([cl], **misspelt)
    with pytest.raises(TypeError):
        pop.add([cl], **{name: v for name, v in values.items() if name != "mtotal"})
    assert pop.members == [] and len(pop.state.fit) == 0
    pop.add([cl], **values)
    assert {name: getattr(pop.state, name)[0].item() for name in xcsf.SCALARS} == values
    # the rule itself holds only its nets
    assert not any(hasattr(cl, name) for name in xcsf.SCALARS)


def test_a_population_takes_one_table_row_per_member():
    rules = [make_classifier(n=2, seed=s) for s in range(2)]
    for k in (0, 1, 3):
        table = xcsf.RuleState(np.broadcast_to(SCALAR_DEFAULTS[name], k)
                               for name in xcsf.SCALARS)
        with pytest.raises(ValueError, match="state rows for 2 rules"):
            xcsf.Population(rules, 0, table)
    with pytest.raises(ValueError, match="state rows for 2 rules"):
        xcsf.Population(rules)
