import math

import numpy as np
import pytest

from conftest import always_match_condition, make_classifier, make_population
from lcsae import kernels, metrics, neural, xcsf
from lcsae.config import ExperimentConfig
from lcsae.metrics import auc_simpson, mse


def test_mse_worked_values():
    assert mse([1, 2, 3], [1, 2, 3]) == 0.0
    assert mse([0, 0], [1, 1]) == 1.0
    assert mse([0.0, 0.5, 1.0], [0.0, 0.0, 0.0]) == pytest.approx(1.25 / 3, abs=1e-12)


def test_mse_symmetric_and_zero_iff_equal():
    rng = np.random.default_rng(0)
    a, b = rng.random(20), rng.random(20)
    assert mse(a, b) == mse(b, a)
    assert mse(a, b) > 0.0
    assert mse(a, a) == 0.0


def test_mse_rejects_length_mismatch():
    with pytest.raises(ValueError):
        mse([1, 2], [1, 2, 3])


def test_simpson_constant_series():
    points = [(i, 0.25) for i in range(0, 7000, 1000)]  # seven points, span 6
    assert auc_simpson(points) == pytest.approx(0.25 * 6, abs=1e-12)


def test_simpson_exact_for_quadratic():
    points = [(0, 0.0), (1, 1.0), (2, 4.0)]  # f(t) = t^2 over [0, 2]
    assert auc_simpson(points) == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_simpson_exact_for_linear():
    points = [(0, 0.0), (1, 1.0), (2, 2.0)]
    assert auc_simpson(points) == pytest.approx(2.0, abs=1e-12)


def test_simpson_exact_for_cubic():
    ts = np.arange(5.0)
    points = list(zip(ts, ts ** 3))  # integral of t^3 over [0, 4] is 64
    assert auc_simpson(points) == pytest.approx(64.0, abs=1e-12)


def test_simpson_even_count_uses_trapezoid_tail():
    points = [(i, 1.0) for i in range(4)]
    assert auc_simpson(points) == pytest.approx(3.0, abs=1e-12)


def test_simpson_rejects_short_or_uneven_series():
    with pytest.raises(ValueError):
        auc_simpson([(0, 1.0), (1, 1.0)])
    with pytest.raises(ValueError):
        auc_simpson([(0, 1.0), (1, 1.0), (3, 1.0)])


def test_simpson_nonnegative_series():
    rng = np.random.default_rng(1)
    vals = rng.random(21)
    points = list(zip(range(21), vals))
    assert auc_simpson(points) >= 0.0


def test_population_stats_single_classifier():
    cfg = ExperimentConfig()
    cl = make_classifier(n=4, prediction=neural.new_network(
        4, 5, 4, np.random.default_rng(0)), condition=always_match_condition(4))
    pop = make_population([cl], err=0.001)
    xs = np.random.default_rng(1).random((10, 4))
    stats = metrics.population_stats(pop, xs, cfg)
    assert stats["P_h"] == 5.0
    assert stats["macro_count"] == 1
    assert stats["mfrac"] == 1.0


def test_population_stats_counts_active_weights_excluding_biases():
    cfg = ExperimentConfig()
    n, h = 4, 3
    cl = make_classifier(n=n, prediction=neural.new_network(
        n, h, n, np.random.default_rng(2)), condition=always_match_condition(n))
    pop = make_population([cl], err=0.001)
    xs = np.random.default_rng(3).random((5, n))
    stats = metrics.population_stats(pop, xs, cfg)
    assert stats["P_w"] == h * 2 * n  # fully connected, biases excluded
    cl.prediction.layers[0].mask[0, :] = 0
    stats = metrics.population_stats(pop, xs, cfg)
    assert stats["P_w"] == h * 2 * n - n
    assert stats["P_w_total"] == h * 2 * n - n


def test_checkpoint_row_round_trip(tmp_path):
    cp = metrics.Checkpoint(trial=5, train_mse=0.125, valid_mse=float("nan"),
                            mfrac=1.0, C_h=2.0, P_h=3.5, C_w=8.0, P_w=24.0,
                            C_w_total=16, P_w_total=48, M_size=7.25,
                            macro_count=2, mean_mu_w=0.5, mean_mu_h=0.25,
                            mean_mu_eta=0.125, mean_mu_c=0.0625)
    path = tmp_path / "m.csv"
    with open(path, "w") as f:
        f.write(metrics.CSV_HEADER)
        f.write(metrics.checkpoint_row(cp))
    rows = metrics.read_metrics(path)
    assert len(rows) == 1
    got = rows[0]
    assert got.trial == 5 and got.macro_count == 2
    assert got.train_mse == 0.125 and got.M_size == 7.25
    assert np.isnan(got.valid_mse)


@pytest.mark.parametrize("change", ["extra cell", "short row"])
def test_rows_of_the_wrong_length_are_rejected(change, tmp_path):
    cp = metrics.Checkpoint(0, 0.5, 0.5, 1.0, 1.0, 1.0, 4.0, 8.0, 4, 8, 1.0, 1,
                            0.1, 0.1, 0.1, 0.1)
    row = metrics.checkpoint_row(cp)
    bad = row.replace("\n", ",7\n") if change == "extra cell" else row.rsplit(",", 1)[0] + "\n"
    path = tmp_path / "m.csv"
    path.write_text(metrics.CSV_HEADER + row + bad)
    with pytest.raises(ValueError, match="line 3 has"):
        metrics.read_metrics(path)


def test_population_stats_means_do_not_depend_on_the_order_of_their_terms():
    # a float sum rounds once per term, and how depends on the order of the
    # terms: the integer means must be exact sums rounded once, the rates
    # correctly rounded sums
    cfg = ExperimentConfig()
    rng = np.random.default_rng(6)
    rules = [make_classifier(n=3, condition=always_match_condition(3),
                             prediction=neural.new_network(3, 1 + s % 2, 3, rng))
             for s in range(11)]
    for cl in rules:
        for layer in cl.condition.layers + cl.prediction.layers:
            layer.mu[:] = rng.random(4)
    stats = metrics.population_stats(make_population(rules, err=0.001), rng.random((5, 3)),
                                     cfg)
    assert stats["C_h"] == 1.0
    # an exact integer sum, divided once
    assert stats["P_h"] == sum(cl.prediction.n_hidden for cl in rules) / 11 == 16 / 11
    assert stats["P_w"] == sum(l.active_weights() for cl in rules
                               for l in cl.prediction.layers) / 11
    rates = [np.mean([l.mu for l in cl.condition.layers + cl.prediction.layers], axis=0)
             for cl in rules]
    for k, name in enumerate(("mean_mu_w", "mean_mu_h", "mean_mu_eta", "mean_mu_c")):
        # correctly rounded, so the rules may be added in any order
        assert stats[name] == math.fsum(r[k] for r in rates[::-1]) / 11


def test_trial_0_population_stats_matches_only_the_validation_rows(monkeypatch):
    # at trial 0 every rule is below epsilon0, so mfrac needs every rule's
    # decision on every row; evaluate(train rows) stored those on the
    # training rows, so one forward_batch over every condition on the
    # validation rows is left, and evaluate(valid rows) needs none
    cfg = ExperimentConfig(N=20)
    features = np.random.default_rng(7).random((30, 4))
    rows = np.random.default_rng(8).permutation(30)
    train_idx, valid_idx = rows[:24], rows[24:]
    pop = xcsf.init_population(cfg, 4, np.random.default_rng(9))
    expected = metrics.population_stats(pop, features, cfg)
    expected_valid = xcsf.evaluate(pop, features[valid_idx], cfg)
    pop.memoize(cfg, len(features))
    xcsf.evaluate(pop, features[train_idx], cfg, train_idx)
    calls = []

    def counted(name):
        inner = getattr(kernels, name)

        def call(batch, x, *rest):
            calls.append((name, len(batch), x.copy()))
            inner(batch, x, *rest)
        monkeypatch.setattr(kernels, name, call)

    counted("forward_batch")
    counted("predict_batch")
    assert metrics.population_stats(pop, features, cfg, np.arange(len(features))) == expected
    ((name, nets, x),) = calls
    assert (name, nets) == ("forward_batch", 20)
    assert np.array_equal(x, features[np.sort(valid_idx)])
    calls.clear()
    assert xcsf.evaluate(pop, features[valid_idx], cfg, valid_idx) == expected_valid
    assert [(name, nets) for name, nets, _ in calls] == [("predict_batch", 20)]
