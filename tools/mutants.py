"""The mutant list, and the runner that shows the tests still kill it.

Every entry of ``MUTANTS`` is a deliberate bug: a file of the checkout,
its edits (an exact old text, which occurs exactly once in the file, and
its replacement) and the tests that must each fail once the edits are
made.  A test id is a pytest node id; without parameters it stands for
every case of the test, and it fails when any of them fails.

Run it with no arguments, from any directory:

    python tools/mutants.py

It copies ``src/``, ``tests/``, ``perfbench/``, ``setup.py`` and
``pyproject.toml`` into a temporary directory, without any built
extension, so ``lcsae.kernels`` loads the numpy twin there and a mutant
of ``_kernels.c`` reaches the compiled kernels through the test fixtures
that compile the copy's source.  It first runs every listed test on the
unmutated copy, where each must pass; then it makes one mutant at a time
and runs that mutant's tests.  It exits 1 naming every survivor (a
mutant one of whose listed tests passes) and every stale entry (an old
text that no longer occurs exactly once, or a listed test that does not
pass unmutated).  A crash or a hang of the mutated tests counts as their
failure.

Every entry names explicit test cases as its killers, never a hypothesis
test: the fuzz tests are smoke tests, not kills.  Their examples are not
the same in every run, despite ``derandomize=True``: with omega's range
check removed, ``test_random_config_values_fail_closed`` failed in 4 of 6
runs of it alone and passed in the other 2 (hypothesis 6.155.2).  The
config and checkpoint loader checks are killed by their tables' rows,
each named by its id.

Kept out as equivalent: the eta clamp of ``neural.offspring`` in the other
order (``max(min(v, ETA_MAX), ETA_MIN)`` equals ``min(max(v, ETA_MIN),
ETA_MAX)`` for every v, a NaN too) and its weight noise as ``(z * mask)
* sigma`` (the mask is 0 or 1 and sigma > 0).
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "setup.py", "pyproject.toml")
# a mutant that makes a test loop for this long counts as killed
TIMEOUT_S = 900

XCSF, NEURAL, RUNNER = "src/lcsae/xcsf.py", "src/lcsae/neural.py", "src/lcsae/runner.py"
C, TWIN = "src/lcsae/_kernels.c", "src/lcsae/_kernels_py.py"
CONFIG_PY, CHECKPOINT_PY = "src/lcsae/config.py", "src/lcsae/checkpoint.py"
LIST_MODEL = "tests/test_xcsf.py::test_random_adds_and_removes_match_a_list_model"
LEARNER = "tests/test_xcsf.py::test_run_trial_equals_the_per_rule_learner_bit_for_bit"
OFFSPRING = ("tests/test_reproduction.py::"
             "test_make_offspring_equals_the_per_operator_reference_bit_for_bit")
CHAINED = "tests/test_reproduction.py::test_chained_reproduction_keeps_layout_bounds_and_ownership"
DRAWS = "tests/test_reproduction.py::test_offspring_draws_one_call_per_net_without_structural_change"
ROULETTE = "tests/test_xcsf.py::test_roulette_by_searchsorted_equals_the_first_running_sum_above_r"
ROULETTE_LOOP = "tests/test_xcsf.py::test_roulette_over_an_array_equals_the_list_loop"
VOTES = "tests/test_xcsf.py::test_deletion_votes_equal_the_scalar_votes_bit_for_bit"
# a row of the config table or of the checkpoint loader's table is the
# table test's name and its id in brackets
CONFIG_ROW = "tests/test_config.py::test_config_table"
LOADER_ROW = "tests/test_checkpoint.py::test_checkpoint_loader_table"
SHORT_READ = ("tests/test_checkpoint.py::"
              "test_a_short_or_failing_read_never_builds_rules[short read]")
FORWARD = "tests/test_kernels.py::test_bad_forward_batches_leave_ys_out_untouched"
PREDICT = "tests/test_kernels.py::test_bad_predict_batches_leave_the_outputs_untouched"
REINFORCE = "tests/test_kernels.py::test_bad_batches_fail_before_any_update"
FREES = "tests/test_kernels.py::test_kernel_calls_free_what_they_allocated"
UNFUSED = "tests/test_build_flags.py::test_every_isa_attribute_of_the_kernels_keeps_products_unfused"
NO_FMA = "tests/test_build_flags.py::test_the_compiled_kernels_hold_no_fused_multiply_add"

MUTANTS = [
    # the population table
    (XCSF, [("if not 0 <= i < len(members):", "if not -1 <= i < len(members):")],
     [LIST_MODEL]),
    (XCSF, [("if not 0 <= i < len(members):", "if not 0 <= i <= len(members):")],
     [LIST_MODEL]),
    (XCSF, [("            self.memo[slots] = UNKNOWN\n", "")],
     [LIST_MODEL, LEARNER]),
    # prediction, deletion and the best rule
    (XCSF, [("if 0 < len(m) < len(pop.members):", "if False:")],
     ["tests/test_xcsf.py::test_reconstruct_one_predicts_with_a_population_of_the_matched_rules"]),
    (XCSF, [("        pop = Population([pop.members[i] for i in m.tolist()], pop.trial,\n"
             "                         RuleState(getattr(pop.state, name)[m] for name in SCALARS))\n",
             "        memo, slots = pop.memo, pop.slots[m]\n"
             "        pop = Population([pop.members[i] for i in m.tolist()], pop.trial,\n"
             "                         RuleState(getattr(pop.state, name)[m] for name in SCALARS))\n"
             "        pop.memo, pop.slots = memo, slots\n")],
     ["tests/test_xcsf.py::test_reconstruct_one_predicts_with_a_population_of_the_matched_rules"]),
    (XCSF, [("return i if hi > hj else j", "return i if hi < hj else j")], [LEARNER]),
    (XCSF, [("return i if vote_i > vote_j else j", "return i if vote_i < vote_j else j")],
     [LEARNER]),
    (XCSF, [("return int(below[k]), int(counts[k])", "return below[k], int(counts[k])")],
     ["tests/test_xcsf.py::test_best_classifier_lowest_error_when_none_accurate",
      "tests/test_xcsf.py::test_best_classifier_prefers_wider_match_below_target"]),
    (XCSF, [("st.exp > cfg.theta_del", "st.exp >= cfg.theta_del")], [LEARNER, VOTES]),
    (XCSF, [("st.fit < cfg.delta * mean_f", "st.fit <= cfg.delta * mean_f")],
     ["tests/test_xcsf.py::test_deletion_vote_base_and_boost"]),
    (XCSF, [("votes[boost] *= mean_f / st.fit[boost]", "votes[boost] *= st.fit[boost] / mean_f")],
     [LEARNER, VOTES]),
    (XCSF, [("(st.mtotal == 0) & (pop.trial - st.born > cfg.stale_limit)",
             "pop.trial - st.born > cfg.stale_limit")], [LEARNER, VOTES]),
    (XCSF, [("pop.trial - st.born > cfg.stale_limit", "pop.trial - st.born >= cfg.stale_limit")],
     [LEARNER, VOTES]),
    # the learner test never compares a stale vote with the others
    (XCSF, [("= STALE_VOTE\n    return votes", "= STALE_VOTE / 2\n    return votes")], [VOTES]),
    # roulette; no learner's weights are all zero
    (XCSF, [('side="right"', 'side="left"')], [ROULETTE]),
    (XCSF, [("return min(i, len(weights) - 1)", "return i")], [ROULETTE]),
    (XCSF, [("if total <= 0.0:", "if total < 0.0:")], [ROULETTE, ROULETTE_LOOP]),
    # reproduction: the rate block, then each net's noise, growth and etas
    (XCSF, [("np.clip(mu, cfg.mu_min, 1.0, out=mu)", "np.clip(mu, 0.0, 1.0, out=mu)")],
     [OFFSPRING]),
    (XCSF, [("neural.offspring(parent.condition, mu[:2], *args),\n"
             "                      neural.offspring(parent.prediction, mu[2:], *args)",
             "neural.offspring(parent.condition, mu[2:], *args),\n"
             "                      neural.offspring(parent.prediction, mu[:2], *args)")],
     [OFFSPRING]),
    (NEURAL, [("e1, e2 = steps.tolist()", "e2, e1 = steps.tolist()")], [OFFSPRING]),
    (NEURAL, [("float(z[-1]) * r1[MU_NEURON]", "float(z[0]) * r1[MU_NEURON]")], [OFFSPRING]),
    (NEURAL, [("t = z[:b] * r1[MU_WEIGHT]", "t = z[:b] * hidden.mu[MU_WEIGHT]")], [OFFSPRING]),
    (NEURAL, [("t[:a].reshape(h, n_in) * hidden.mask", "t[:a].reshape(h, n_in)")], [OFFSPRING]),
    (NEURAL, [("            rw *= rm\n            cw *= cm\n", "")], [OFFSPRING]),
    (NEURAL, [("            z = rng.standard_normal(k * (n_in + n_out) + 2)\n",
               "            z = rng.standard_normal(k * (n_in + n_out) + 2)\n"
               "            z = np.concatenate([z[2:], z[:2]])\n")], [OFFSPRING]),
    (NEURAL, [("m1, m2 = m1.copy(), m2.copy()", "m1, m2 = m1, m2")], [OFFSPRING, CHAINED]),
    (NEURAL, [("np.ascontiguousarray(w2[:, keep]), np.ascontiguousarray(m2[:, keep])",
               "w2[:, keep], m2[:, keep]")], [CHAINED]),
    # a split draw gives the same numbers, so only the call count sees these
    (NEURAL, [("z = rng.standard_normal(c + n_out + 1)",
               "z = np.concatenate((rng.standard_normal(b), "
               "rng.standard_normal(c + n_out + 1 - b)))")], [DRAWS]),
    (NEURAL, [("steps = rng.standard_normal(2)",
               "steps = np.array([rng.standard_normal(), rng.standard_normal()])")], [DRAWS]),
    # the run directory and the images
    (RUNNER, [("    pathlib.Path(out_dir, CHECKPOINT_NAME).unlink(missing_ok=True)\n", "")],
     ["tests/test_cli.py::test_a_failed_run_leaves_no_old_checkpoint_to_resume[interrupt]"]),
    (RUNNER, [("img = vec.reshape(height, width, channels)",
               "img = vec.reshape(channels, height, width).transpose(1, 2, 0)")],
     ["tests/test_cli.py::test_reconstruct_exports_one_image_per_channel"]),
    # the compiled kernels' frees on a failing call, then on a call that succeeds
    (C, [("fail:\n    PyMem_Free(nets);\n", "fail:\n")], [FREES]),
    (C, [("    if (check_rules(cols, po, m, &r) < 0) {\n        PyMem_Free(nets);\n",
          "    if (check_rules(cols, po, m, &r) < 0) {\n")], [FREES]),
    (C, [("logistic_row(ys, ys, m * batch * n_out);\n    free_scratch(a1, rows, nets);",
          "logistic_row(ys, ys, m * batch * n_out);\n    free_scratch(a1, rows, NULL);")],
     [FREES]),
    (C, [("out[r * n_out + q] /= fsum[r];\n    free_scratch(a1, rows, nets);",
          "out[r * n_out + q] /= fsum[r];\n    free_scratch(a1, rows, NULL);")], [FREES]),
    (C, [("out[q] /= fsum;\n    free_scratch(a1, rows, nets);",
          "out[q] /= fsum;\n    free_scratch(a1, rows, NULL);")], [FREES]),
    # no fused multiply-add in any clone
    (C, [('               optimize("fp-contract=off", "no-trapping-math"))) static void',
          '               optimize("no-trapping-math"))) static void')], [UNFUSED]),
    (C, [('               optimize("fp-contract=off", "no-trapping-math"))) static void',
          '               optimize("no-trapping-math"))) static void'),
         ('__attribute__((optimize("fp-contract=off", "no-trapping-math"))) static inline double',
          '__attribute__((optimize("no-trapping-math"))) static inline double')],
     [UNFUSED, NO_FMA]),
    # the compiled kernels' argument checks; the too-many-rows, ys_out, out
    # and pos-range mutants write past a buffer, and the process aborts
    (C, [('"b2", NPY_DOUBLE, p->n_out, -1, train', '"b2", NPY_DOUBLE, -1, -1, train')],
     [FORWARD, PREDICT]),
    (C, [("PyArray_TYPE(a) != type || ", "")], [FORWARD]),
    (C, [("if (!PyArray_IS_C_CONTIGUOUS(a) || !PyArray_ISALIGNED(a))",
          "if (!PyArray_ISALIGNED(a))")], [FORWARD, REINFORCE]),
    (C, [("if (writable && !PyArray_ISWRITEABLE(a))", "if (writable < 0)")],
     [FORWARD, REINFORCE]),
    (C, [("if (m && batch > NPY_MAX_INTP / m)", "if (m < 0)")], [FORWARD]),
    (C, [('"ys_out", NPY_DOUBLE, m * batch, n_out, 1', '"ys_out", NPY_DOUBLE, -1, n_out, 1')],
     [FORWARD]),
    (C, [('array_data(v[0], "w1", NPY_DOUBLE, -1, n_in, train)',
          'array_data(v[0], "w1", NPY_DOUBLE, -1, PyArray_Check(v[0]) && PyArray_NDIM('
          '(PyArrayObject *)v[0]) == 2 ? PyArray_DIM((PyArrayObject *)v[0], 1) : n_in, train)')],
     [FORWARD, REINFORCE]),
    (C, [('"out", NPY_DOUBLE, n, -1, 1', '"out", NPY_DOUBLE, -1, -1, 1')], [REINFORCE]),
    (C, [('!(p->mask1 = array_data(v[2], "mask1", NPY_UINT8, p->h, n_in, 0))',
          "!(p->mask1 = PyArray_DATA((PyArrayObject *)v[2]))")], [REINFORCE]),
    (C, [("if (!PyFloat_Check(obj)) {", "if (!PyNumber_Check(obj)) {")], [REINFORCE]),
    (C, [("if (r->pos[i] <= r->pos[i - 1]) {", "if (r->pos[i] < r->pos[i - 1]) {")],
     [REINFORCE]),
    (C, [("r->pos[m - 1] >= rows", "r->pos[m - 1] > rows")], [REINFORCE]),
    # the twin's argument checks
    (TWIN, [("if not (flags.c_contiguous and flags.aligned):", "if not flags.aligned:")],
     [FORWARD, REINFORCE]),
    (TWIN, [("    if writable and not flags.writeable:\n", "    if False:\n")],
     [FORWARD, REINFORCE]),
    (TWIN, [("    if m and len(xs) > np.iinfo(np.intp).max // m:\n", "    if False:\n")],
     [FORWARD]),
    (TWIN, [("len(net) != 12:\n            raise TypeError(f\"item {i} must be a 12-tuple\")\n"
             "    w1 = np.concatenate",
             "len(net) < 4:\n            raise TypeError(f\"item {i} must be a 12-tuple\")\n"
             "    w1 = np.concatenate")], [FORWARD]),
    (TWIN, [('    if w1.shape[1] != xs.shape[1]:\n        raise ValueError("w1 has the wrong shape")\n',
             "")], [FORWARD]),
    (TWIN, [('_array(out, "out", np.float64, (len(x),), True)',
             '_array(out, "out", np.float64, (None,), True)')], [REINFORCE]),
    (TWIN, [('h = len(_array(w1, "w1", np.float64, (None, n_in), train))',
             'h = len(_array(w1, "w1", np.float64, (None, n_in), False))')], [REINFORCE]),
    (TWIN, [("if not isinstance(v, float):", "if not isinstance(v, (float, int)):")],
     [REINFORCE]),
    (TWIN, [("if (pos[1:] <= pos[:-1]).any():", "if (pos[1:] < pos[:-1]).any():")],
     [REINFORCE]),
    (TWIN, [("if m and (pos[0] < 0 or pos[-1] >= rows):", "if m and pos[-1] > rows:")],
     [REINFORCE]),
    # parse_config, config_from_dict and _typed: each check's refused row
    (CONFIG_PY, [('if "=" not in line:', "if False:")], [f"{CONFIG_ROW}[just words]"]),
    (CONFIG_PY, [('        if key not in _KEY_TO_FIELD:\n'
                  '            raise ConfigError(f"line {lineno}: unknown key {key!r}")\n', "")],
     [f"{CONFIG_ROW}[frobnicate=1]"]),
    (CONFIG_PY, [("if key in values:", "if False:")], [f"{CONFIG_ROW}[N=10;N=20]"]),
    (CONFIG_PY, [("except ValueError as exc:", "except ZeroDivisionError as exc:")],
     [f"{CONFIG_ROW}[N=lots]", f"{CONFIG_ROW}[P_init=maybe]", f"{CONFIG_ROW}[image_shape=8]"]),
    (CONFIG_PY, [("if key not in _KEY_TO_FIELD:\n            raise ConfigError(f\"unknown config",
                  "if False:\n            raise ConfigError(f\"unknown config")],
     [f"{CONFIG_ROW}[dict:frobnicate]"]),
    (CONFIG_PY, [('isinstance(value, bool) != (annotation == "bool") or \\\n'
                  "            not isinstance(value, _JSON_TYPES[annotation])",
                  "not isinstance(value, _JSON_TYPES[annotation])")],
     [f"{CONFIG_ROW}[N:True]", f"{CONFIG_ROW}[beta:False]"]),
    (CONFIG_PY, [('isinstance(value, bool) != (annotation == "bool") or \\\n'
                  "            not isinstance(value, _JSON_TYPES[annotation])",
                  'isinstance(value, bool) != (annotation == "bool")')],
     [f"{CONFIG_ROW}[seed:1.5]", f"{CONFIG_ROW}[beta:'0.1']", f"{CONFIG_ROW}[mode:3]"]),
    (CONFIG_PY, [("except OverflowError:", "except ZeroDivisionError:")],
     [f"{CONFIG_ROW}[beta:10**400]"]),
    (CONFIG_PY, [("if not all(isinstance(v, int) and not isinstance(v, bool) for v in value):",
                  "if False:")], [f"{CONFIG_ROW}[image_shape:[8, 8.0, 1]]"]),
    (CONFIG_PY, [("isinstance(v, int) and not isinstance(v, bool)", "isinstance(v, int)")],
     [f"{CONFIG_ROW}[image_shape:[8, True, 1]]"]),
    # validate: each check dropped, killed by a row just past its bound, and
    # each closed bound opened, killed by the accepted row on it
    (CONFIG_PY, [('require(f.type not in ("int", "int | None") or value is None '
                  "or value < 2**63,", "require(True,")], [f"{CONFIG_ROW}[N={2**63}]"]),
    (CONFIG_PY, [('("int", "int | None")', '("int",)')], [f"{CONFIG_ROW}[h_max={2**63}]"]),
    (CONFIG_PY, [("value < 2**63,", "value < 2**63 - 1,")], [f"{CONFIG_ROW}[N={2**63 - 1}]"]),
    (CONFIG_PY, [("require(cfg.N >= 1,", "require(True,")], [f"{CONFIG_ROW}[N=0]"]),
    (CONFIG_PY, [("cfg.N >= 1", "cfg.N > 1")], [f"{CONFIG_ROW}[N=1]"]),
    (CONFIG_PY, [("require(0.0 < cfg.epsilon0 < math.inf,", "require(True,")],
     [f"{CONFIG_ROW}[epsilon0=inf]"]),
    (CONFIG_PY, [("require(0.0 < cfg.beta <= 1.0,", "require(True,")], [f"{CONFIG_ROW}[beta=0]"]),
    (CONFIG_PY, [("cfg.beta <= 1.0", "cfg.beta < 1.0")], [f"{CONFIG_ROW}[beta=1]"]),
    (CONFIG_PY, [("require(0.0 < cfg.alpha <= 1.0,", "require(True,")],
     [f"{CONFIG_ROW}[alpha=1.0000000000000002]"]),
    (CONFIG_PY, [("cfg.alpha <= 1.0", "cfg.alpha < 1.0")], [f"{CONFIG_ROW}[alpha=1]"]),
    (CONFIG_PY, [("require(0.0 < cfg.nu < math.inf,", "require(True,")],
     [f"{CONFIG_ROW}[nu=0]"]),
    (CONFIG_PY, [("require(0.0 < cfg.delta < 1.0,", "require(True,")], [f"{CONFIG_ROW}[delta=1]"]),
    (CONFIG_PY, [("require(cfg.theta_del >= 0,", "require(True,")],
     [f"{CONFIG_ROW}[theta_del=-1]"]),
    (CONFIG_PY, [("cfg.theta_del >= 0", "cfg.theta_del > 0")], [f"{CONFIG_ROW}[theta_del=0]"]),
    (CONFIG_PY, [("require(0.0 < cfg.F_I <= 1.0,", "require(True,")], [f"{CONFIG_ROW}[F_I=0]"]),
    (CONFIG_PY, [("cfg.F_I <= 1.0", "cfg.F_I < 1.0")], [f"{CONFIG_ROW}[F_I=1]"]),
    (CONFIG_PY, [("require(0.0 <= cfg.epsilon_I < math.inf,", "require(True,")],
     [f"{CONFIG_ROW}[epsilon_I=-5e-324]"]),
    (CONFIG_PY, [("0.0 <= cfg.epsilon_I", "0.0 < cfg.epsilon_I")],
     [f"{CONFIG_ROW}[epsilon_I=0]"]),
    (CONFIG_PY, [("require(worst < cfg.epsilon0 or cfg.alpha * math.pow(worst / cfg.epsilon0, "
                  "-cfg.nu) > 0.0,", "require(True,")],
     [f"{CONFIG_ROW}[nu=200]", f"{CONFIG_ROW}[nu=160;alpha=1e-20]"]),
    (CONFIG_PY, [("require(worst < cfg.epsilon0 or ", "require(")],
     [f"{CONFIG_ROW}[epsilon0=2;nu=1e308]"]),
    (CONFIG_PY, [("worst = max(1.0, cfg.epsilon_I)", "worst = cfg.epsilon_I")],
     [f"{CONFIG_ROW}[nu=200]"]),
    (CONFIG_PY, [("require(0.0 < cfg.F_R <= 1.0,", "require(True,")], [f"{CONFIG_ROW}[F_R=0]"]),
    (CONFIG_PY, [("cfg.F_R <= 1.0", "cfg.F_R < 1.0")], [f"{CONFIG_ROW}[F_R=1]"]),
    (CONFIG_PY, [("require(0.0 < cfg.epsilon_R <= 1.0,", "require(True,")],
     [f"{CONFIG_ROW}[epsilon_R=0]"]),
    (CONFIG_PY, [("cfg.epsilon_R <= 1.0", "cfg.epsilon_R < 1.0")], [f"{CONFIG_ROW}[epsilon_R=1]"]),
    (CONFIG_PY, [("require(cfg.theta_EA >= 0,", "require(True,")],
     [f"{CONFIG_ROW}[theta_EA=-1]"]),
    (CONFIG_PY, [("cfg.theta_EA >= 0", "cfg.theta_EA > 0")], [f"{CONFIG_ROW}[theta_EA=0]"]),
    (CONFIG_PY, [("require(cfg.lam >= 1,", "require(True,")], [f"{CONFIG_ROW}[lambda=0]"]),
    (CONFIG_PY, [("cfg.lam >= 1", "cfg.lam > 1")], [f"{CONFIG_ROW}[lambda=1]"]),
    (CONFIG_PY, [("require(0.0 < cfg.mu_min <= 1.0,", "require(True,")],
     [f"{CONFIG_ROW}[mu_min=0]"]),
    (CONFIG_PY, [("cfg.mu_min <= 1.0", "cfg.mu_min < 1.0")], [f"{CONFIG_ROW}[mu_min=1]"]),
    (CONFIG_PY, [("require(0.0 <= cfg.omega <= 1.0,", "require(True,")],
     [f"{CONFIG_ROW}[omega=-5e-324]"]),
    (CONFIG_PY, [("0.0 <= cfg.omega", "0.0 < cfg.omega")], [f"{CONFIG_ROW}[omega=0]"]),
    (CONFIG_PY, [("cfg.omega <= 1.0", "cfg.omega < 1.0")], [f"{CONFIG_ROW}[omega=1]"]),
    (CONFIG_PY, [("require(cfg.h_I >= 1,", "require(True,")], [f"{CONFIG_ROW}[h_I=0]"]),
    (CONFIG_PY, [("cfg.h_I >= 1", "cfg.h_I > 1")], [f"{CONFIG_ROW}[h_I=1]"]),
    (CONFIG_PY, [("require(cfg.h_M >= 1,", "require(True,")], [f"{CONFIG_ROW}[h_M=0]"]),
    (CONFIG_PY, [("cfg.h_M >= 1", "cfg.h_M > 1")], [f"{CONFIG_ROW}[h_M=1]"]),
    (CONFIG_PY, [("require(cfg.h_max is None or cfg.h_max >= cfg.h_I,", "require(True,")],
     [f"{CONFIG_ROW}[h_I=3;h_max=2]"]),
    (CONFIG_PY, [("cfg.h_max >= cfg.h_I", "cfg.h_max > cfg.h_I")],
     [f"{CONFIG_ROW}[h_I=3;h_max=3]"]),
    (CONFIG_PY, [('require(cfg.mode in ("xcsf", "global_ea"),', "require(True,")],
     [f"{CONFIG_ROW}[mode=banana]"]),
    (CONFIG_PY, [("require(cfg.stale_limit >= 1,", "require(True,")],
     [f"{CONFIG_ROW}[stale_limit=0]"]),
    (CONFIG_PY, [("cfg.stale_limit >= 1", "cfg.stale_limit > 1")],
     [f"{CONFIG_ROW}[stale_limit=1]"]),
    (CONFIG_PY, [("require(0.0 <= cfg.match_threshold < 1.0,", "require(True,")],
     [f"{CONFIG_ROW}[match_threshold=1]"]),
    (CONFIG_PY, [("0.0 <= cfg.match_threshold", "0.0 < cfg.match_threshold")],
     [f"{CONFIG_ROW}[match_threshold=0]"]),
    (CONFIG_PY, [("require(cfg.seed >= 0,", "require(True,")], [f"{CONFIG_ROW}[seed=-1]"]),
    (CONFIG_PY, [("cfg.seed >= 0", "cfg.seed > 0")], [f"{CONFIG_ROW}[seed=0]"]),
    (CONFIG_PY, [("require(cfg.trials >= 0,", "require(True,")], [f"{CONFIG_ROW}[trials=-1]"]),
    (CONFIG_PY, [("cfg.trials >= 0", "cfg.trials > 0")], [f"{CONFIG_ROW}[trials=0]"]),
    (CONFIG_PY, [("require(cfg.checkpoint_interval >= 1,", "require(True,")],
     [f"{CONFIG_ROW}[checkpoint_interval=0]"]),
    (CONFIG_PY, [("cfg.checkpoint_interval >= 1", "cfg.checkpoint_interval > 1")],
     [f"{CONFIG_ROW}[checkpoint_interval=1]"]),
    (CONFIG_PY, [("require(0.0 < cfg.split_ratio <= 1.0,", "require(True,")],
     [f"{CONFIG_ROW}[split_ratio=0]"]),
    (CONFIG_PY, [("cfg.split_ratio <= 1.0", "cfg.split_ratio < 1.0")],
     [f"{CONFIG_ROW}[split_ratio=1]"]),
    (CONFIG_PY, [("require(cfg.image_shape is None or len(cfg.image_shape) == 3,",
                  "require(True,")], [f"{CONFIG_ROW}[dict:image_shape:[8,8]]"]),
    (CONFIG_PY, [("require(cfg.image_shape is None or min(cfg.image_shape) >= 1,",
                  "require(True,")], [f"{CONFIG_ROW}[image_shape=4,4,0]"]),
    (CONFIG_PY, [("min(cfg.image_shape) >= 1", "min(cfg.image_shape) > 1")],
     [f"{CONFIG_ROW}[image_shape=1,1]"]),
    (CONFIG_PY, [("require(cfg.image_shape is None or max(cfg.image_shape) < 2**63,",
                  "require(True,")], [f"{CONFIG_ROW}[image_shape=1,{2**63}]"]),
    (CONFIG_PY, [("max(cfg.image_shape) < 2**63", "max(cfg.image_shape) < 2**63 - 1")],
     [f"{CONFIG_ROW}[image_shape=1,{2**63 - 1}]"]),
    # the checkpoint loader: a checked file is never cut short, so only the
    # stream faults reach the short-read checks
    (CHECKPOINT_PY, [("if len(data) != size:", "if False:")], [SHORT_READ]),
    (CHECKPOINT_PY, [("if got != col.nbytes:", "if False:")], [SHORT_READ]),
    (CHECKPOINT_PY, [("except OSError as exc:", "except ZeroDivisionError as exc:")],
     [f"{LOADER_ROW}[missing]"]),
    (CHECKPOINT_PY, [("if size < len(magic) + 8:", "if False:")], [f"{LOADER_ROW}[15-bytes]"]),
    (CHECKPOINT_PY, [("if size < len(magic) + 8:", "if size <= len(magic) + 8:")],
     [f"{LOADER_ROW}[16-bytes]"]),
    (CHECKPOINT_PY, [("if head[:len(magic)] != magic:", "if False:")],
     [f"{LOADER_ROW}[bad-magic]"]),
    (CHECKPOINT_PY, [("if hlen > size - len(head):", "if False:")],
     [f"{LOADER_ROW}[cut-in-the-header]"]),
    (CHECKPOINT_PY, [("if hlen > size - len(head):", "if hlen >= size - len(head):")],
     [f"{LOADER_ROW}[header-only]", f"{LOADER_ROW}[no-rules]"]),
    (CHECKPOINT_PY, [("except (UnicodeDecodeError, json.JSONDecodeError) as exc:",
                      "except ZeroDivisionError as exc:")],
     [f"{LOADER_ROW}[header-not-utf8]", f"{LOADER_ROW}[header-not-json]"]),
    (CHECKPOINT_PY, [("if not isinstance(header, dict):", "if False:")],
     [f"{LOADER_ROW}[header-a-list]"]),
    (CHECKPOINT_PY, [('if header.get("version") != VERSION:', "if False:")],
     [f"{LOADER_ROW}[version-1]", f"{LOADER_ROW}[version-2]"]),
    (CHECKPOINT_PY, [("    except _MALFORMED as exc:", "    except ZeroDivisionError as exc:")],
     [f"{LOADER_ROW}[rules-missing]", f"{LOADER_ROW}[config-a-list]",
      f"{LOADER_ROW}[rng-PCG65]"]),
    (CHECKPOINT_PY, [("if type(v) is not int or v < 0:", "if False:")],
     [f"{LOADER_ROW}[trial-negative]", f"{LOADER_ROW}[rules-float]",
      f"{LOADER_ROW}[inputs-text]"]),
    (CHECKPOINT_PY, [("if type(v) is not int or v < 0:", "if v < 0:")],
     [f"{LOADER_ROW}[trial-float]", f"{LOADER_ROW}[rules-bool]"]),
    (CHECKPOINT_PY, [("if type(v) is not int or v < 0:", "if type(v) is not int:")],
     [f"{LOADER_ROW}[trial-negative]", f"{LOADER_ROW}[rules-negative]",
      f"{LOADER_ROW}[inputs-negative]"]),
    (CHECKPOINT_PY, [("    except ConfigError as exc:", "    except ZeroDivisionError as exc:")],
     [f"{LOADER_ROW}[config-N-0]", f"{LOADER_ROW}[config-seed-float]"]),
    (CHECKPOINT_PY, [('    _check_window(header["window"])\n', "")],
     [f"{LOADER_ROW}[window-empty]", f"{LOADER_ROW}[window-count-negative]"]),
    (CHECKPOINT_PY, [("if fixed > payload:", "if False:")], [f"{LOADER_ROW}[rules-a-million]"]),
    (CHECKPOINT_PY, [("if fixed > payload:", "if fixed >= payload:")],
     [f"{LOADER_ROW}[no-rules]"]),
    (CHECKPOINT_PY, [("    _check_state(trial, cfg, state, hidden, eta)\n", "")],
     [f"{LOADER_ROW}[err-negative]", f"{LOADER_ROW}[more-rules-than-N]"]),
    (CHECKPOINT_PY, [("if need != payload:", "if False:")],
     [f"{LOADER_ROW}[payload-8-bytes-long]", f"{LOADER_ROW}[payload-9-bytes-short]"]),
    (CHECKPOINT_PY, [("        _check_layer(name, cols, cfg.mu_min)\n", "")],
     [f"{LOADER_ROW}[nan-weight]", f"{LOADER_ROW}[masks-of-value-2]"]),
    # _check_state
    (CHECKPOINT_PY, [("if trial > cfg.trials:", "if False:")],
     [f"{LOADER_ROW}[trial-after-trials]"]),
    (CHECKPOINT_PY, [("if trial > cfg.trials:", "if trial >= cfg.trials:")],
     [f"{LOADER_ROW}[as-written]"]),
    (CHECKPOINT_PY, [("(v >= 0) & (v <= trial)", "(v <= trial)")],
     [f"{LOADER_ROW}[{name}-negative]" for name in ("exp", "mtotal", "ts", "born")]),
    (CHECKPOINT_PY, [("(v >= 0) & (v <= trial)", "(v >= 0)")],
     [f"{LOADER_ROW}[{name}-after-trial]" for name in ("exp", "mtotal", "ts", "born")]),
    (CHECKPOINT_PY, [("(v >= 0) & (v <= trial)", "(v >= 0) & (v < trial)")],
     [f"{LOADER_ROW}[counters-at-the-trial]"]),
    (CHECKPOINT_PY, [('("exp", "mtotal", "ts", "born")', '("mtotal", "ts", "born")')],
     [f"{LOADER_ROW}[exp-negative]", f"{LOADER_ROW}[exp-after-trial]"]),
    (CHECKPOINT_PY, [('("exp", "mtotal", "ts", "born")', '("exp", "ts", "born")')],
     [f"{LOADER_ROW}[mtotal-negative]", f"{LOADER_ROW}[mtotal-after-trial]"]),
    (CHECKPOINT_PY, [('("exp", "mtotal", "ts", "born")', '("exp", "mtotal", "born")')],
     [f"{LOADER_ROW}[ts-negative]", f"{LOADER_ROW}[ts-after-trial]"]),
    (CHECKPOINT_PY, [('("exp", "mtotal", "ts", "born")', '("exp", "mtotal", "ts")')],
     [f"{LOADER_ROW}[born-negative]", f"{LOADER_ROW}[born-after-trial]"]),
    (CHECKPOINT_PY, [('np.isfinite(c["err"]) & (c["err"] >= 0)', '(c["err"] >= 0)')],
     [f"{LOADER_ROW}[err-inf]"]),
    (CHECKPOINT_PY, [('np.isfinite(c["err"]) & (c["err"] >= 0)', 'np.isfinite(c["err"])')],
     [f"{LOADER_ROW}[err-negative]"]),
    (CHECKPOINT_PY, [('(c["err"] >= 0)', '(c["err"] > 0)')], [f"{LOADER_ROW}[err-0]"]),
    (CHECKPOINT_PY, [("np.isfinite(fit) & (fit > 0)", "(fit > 0)")], [f"{LOADER_ROW}[fit-inf]"]),
    (CHECKPOINT_PY, [("np.isfinite(fit) & (fit > 0)", "np.isfinite(fit)")],
     [f"{LOADER_ROW}[fit-0-everywhere]", f"{LOADER_ROW}[fit-0-on-all-rules-but-one]"]),
    (CHECKPOINT_PY, [('\n               & ((c["exp"] < 1) | (fit >= xcsf._F_FLOOR))', "")],
     [f"{LOADER_ROW}[fit-below-the-floor-once-reinforced]"]),
    (CHECKPOINT_PY, [("(fit >= xcsf._F_FLOOR)", "(fit > xcsf._F_FLOOR)")],
     [f"{LOADER_ROW}[fit-at-the-floor-once-reinforced]"]),
    (CHECKPOINT_PY, [('(c["exp"] < 1)', '(c["exp"] < 0)')],
     [f"{LOADER_ROW}[fit-below-the-floor-unreinforced]"]),
    (CHECKPOINT_PY, [('np.isfinite(c["set_size"]) & (c["set_size"] > 0)', '(c["set_size"] > 0)')],
     [f"{LOADER_ROW}[set_size-inf]"]),
    (CHECKPOINT_PY, [('np.isfinite(c["set_size"]) & (c["set_size"] > 0)',
                      'np.isfinite(c["set_size"])')], [f"{LOADER_ROW}[set_size-0]"]),
    (CHECKPOINT_PY, [("hidden >= 1,", "hidden >= 0,")],
     [f"{LOADER_ROW}[condition-hidden-size-0]"]),
    (CHECKPOINT_PY, [("ok.all(axis=1)", "ok.any(axis=1)")],
     [f"{LOADER_ROW}[condition-hidden-size-0]", f"{LOADER_ROW}[prediction-hidden-size-0]"]),
    (CHECKPOINT_PY, [("(eta >= neural.ETA_MIN) & (eta <= neural.ETA_MAX)",
                      "(eta <= neural.ETA_MAX)")],
     [f"{LOADER_ROW}[eta-0]"]),
    (CHECKPOINT_PY, [("(eta >= neural.ETA_MIN) & (eta <= neural.ETA_MAX)",
                      "(eta >= neural.ETA_MIN)")],
     [f"{LOADER_ROW}[eta-1e6]"]),
    (CHECKPOINT_PY, [("(eta >= neural.ETA_MIN)", "(eta > neural.ETA_MIN)")],
     [f"{LOADER_ROW}[eta-at-ETA_MIN]"]),
    (CHECKPOINT_PY, [("(eta <= neural.ETA_MAX)", "(eta < neural.ETA_MAX)")],
     [f"{LOADER_ROW}[eta-at-ETA_MAX]"]),
    (CHECKPOINT_PY, [("if len(fit) > cfg.N:", "if False:")], [f"{LOADER_ROW}[more-rules-than-N]"]),
    (CHECKPOINT_PY, [("if len(fit) > cfg.N:", "if len(fit) >= cfg.N:")],
     [f"{LOADER_ROW}[as-written]"]),
    # _check_layer
    (CHECKPOINT_PY, [('("weights", "biases", "mom_w", "mom_b")',
                      '("biases", "mom_w", "mom_b")')],
     [f"{LOADER_ROW}[nan-weight]"]),
    (CHECKPOINT_PY, [('("weights", "biases", "mom_w", "mom_b")',
                      '("weights", "mom_w", "mom_b")')],
     [f"{LOADER_ROW}[inf-bias]"]),
    (CHECKPOINT_PY, [('("weights", "biases", "mom_w", "mom_b")',
                      '("weights", "biases", "mom_b")')],
     [f"{LOADER_ROW}[nan-mom_w]"]),
    (CHECKPOINT_PY, [('("weights", "biases", "mom_w", "mom_b")',
                      '("weights", "biases", "mom_w")')],
     [f"{LOADER_ROW}[nan-mom_b]"]),
    (CHECKPOINT_PY, [('(c["mu"] >= mu_min) & (c["mu"] <= 1.0)', '(c["mu"] <= 1.0)')],
     [f"{LOADER_ROW}[mu-below-mu_min]"]),
    (CHECKPOINT_PY, [('(c["mu"] >= mu_min) & (c["mu"] <= 1.0)', '(c["mu"] >= mu_min)')],
     [f"{LOADER_ROW}[mu-above-1]"]),
    (CHECKPOINT_PY, [('(c["mu"] >= mu_min)', '(c["mu"] > mu_min)')],
     [f"{LOADER_ROW}[mu-at-mu_min]"]),
    (CHECKPOINT_PY, [('(c["mu"] <= 1.0)', '(c["mu"] < 1.0)')], [f"{LOADER_ROW}[mu-at-1]"]),
    (CHECKPOINT_PY, [('if (c["mask"] > 1).any():', "if False:")],
     [f"{LOADER_ROW}[masks-of-value-2]"]),
    (CHECKPOINT_PY, [('if c["weights"][off].any() or c["mom_w"][off].any():',
                      'if c["mom_w"][off].any():')],
     [f"{LOADER_ROW}[weight-on-a-masked-connection]"]),
    (CHECKPOINT_PY, [('if c["weights"][off].any() or c["mom_w"][off].any():',
                      'if c["weights"][off].any():')],
     [f"{LOADER_ROW}[momentum-on-a-masked-connection]"]),
    # _check_window
    (CHECKPOINT_PY, [("if not isinstance(window, dict) or set(window) != set(EMPTY_WINDOW):",
                      "if False:")],
     [f"{LOADER_ROW}[window-empty]", f"{LOADER_ROW}[window-extra-key]"]),
    (CHECKPOINT_PY, [("if not isinstance(window, dict) or set(window)", "if set(window)")],
     [f"{LOADER_ROW}[window-a-number]"]),
    (CHECKPOINT_PY, [("if type(v) not in (int, float) or not math.isfinite(v):", "if False:")],
     [f"{LOADER_ROW}[window-mse_sum-text]", f"{LOADER_ROW}[window-m_sum-inf]"]),
    (CHECKPOINT_PY, [("if type(v) not in (int, float) or not math.isfinite(v):",
                      "if not math.isfinite(v):")], [f"{LOADER_ROW}[window-mse_sum-bool]"]),
    (CHECKPOINT_PY, [('if type(window["count"]) is not int or window["count"] < 0:', "if False:")],
     [f"{LOADER_ROW}[window-count-negative]", f"{LOADER_ROW}[window-count-float]"]),
    (CHECKPOINT_PY, [('window["count"] < 0:', 'window["count"] <= 0:')],
     [f"{LOADER_ROW}[as-written]"]),
]


def misplaced(root):
    """The entries of ``MUTANTS`` one of whose old texts does not occur
    exactly once in its file under ``root``."""
    return [entry for entry in MUTANTS
            if any((root / entry[0]).read_text(encoding="utf-8").count(old) != 1
                   for old, _ in entry[1])]


def _outcomes(copy, tests):
    """Run ``tests`` in the checkout ``copy``; return the (node id,
    outcome) of every test case pytest reports, or None when it did not
    finish in time."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p",
                               "no:cacheprovider", *sorted(set(tests))], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = re.finditer(r"^(PASSED|FAILED|ERROR) (\S.*?)(?: - .*)?$", proc.stdout, re.M)
    return [(match.group(2), match.group(1)) for match in lines]


def _passes(outcomes, test):
    """Whether ``test`` passed: some case of it passed, and none failed."""
    mine = [result for case, result in outcomes or ()
            if case == test or case.startswith(test + "[")]
    return "PASSED" in mine and set(mine) == {"PASSED"}


def _copy_checkout(copy):
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns(
                "*.so", "__pycache__", ".cache", ".work", "records"))
        else:
            shutil.copy2(source, copy / name)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        _copy_checkout(copy)
        baseline = _outcomes(copy, [test for _, _, kills in MUTANTS for test in kills])
        moved = misplaced(copy)
        stale = [entry for entry in MUTANTS if entry in moved
                 or not all(_passes(baseline, test) for test in entry[2])]
        survivors = []
        for entry in MUTANTS:
            path, edits, kills = entry
            if entry in stale:
                continue
            target = copy / path
            text = mutated = target.read_text(encoding="utf-8")
            for old, new in edits:
                mutated = mutated.replace(old, new)
            target.write_text(mutated, encoding="utf-8")
            try:
                outcomes = _outcomes(copy, kills)
            finally:
                target.write_text(text, encoding="utf-8")
            alive = [test for test in kills if _passes(outcomes, test)]
            print(("SURVIVES" if alive else "killed") + f": {path}, {edits[0][0]!r}", flush=True)
            if alive:
                survivors.append((path, edits[0][0], alive))
    for path, old, alive in survivors:
        print(f"survivor: {path}, {old!r}; these tests pass: {alive}")
    for path, edits, kills in stale:
        print(f"stale: {path}, {edits[0][0]!r}; tests {kills}")
    print(f"{len(MUTANTS)} mutants: {len(survivors)} survive, {len(stale)} stale")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
