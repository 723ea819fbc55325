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
LIST_MODEL = "tests/test_xcsf.py::test_random_adds_and_removes_match_a_list_model"
LEARNER = "tests/test_xcsf.py::test_run_trial_equals_the_per_rule_learner_bit_for_bit"
OFFSPRING = ("tests/test_reproduction.py::"
             "test_make_offspring_equals_the_per_operator_reference_bit_for_bit")
CHAINED = "tests/test_reproduction.py::test_chained_reproduction_keeps_layout_bounds_and_ownership"
DRAWS = "tests/test_reproduction.py::test_offspring_draws_one_call_per_net_without_structural_change"
ROULETTE = "tests/test_xcsf.py::test_roulette_by_searchsorted_equals_the_first_running_sum_above_r"
FORWARD = "tests/test_kernels.py::test_bad_forward_batches_leave_ys_out_untouched"
PREDICT = "tests/test_kernels.py::test_bad_predict_batches_leave_the_outputs_untouched"
REINFORCE = "tests/test_kernels.py::test_bad_batches_fail_before_any_update"
FREES = "tests/test_kernels.py::test_failing_calls_free_what_they_allocated"
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
    # roulette
    (XCSF, [('side="right"', 'side="left"')], [ROULETTE]),
    (XCSF, [("return min(i, len(weights) - 1)", "return i")], [ROULETTE]),
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
    # the compiled kernels' frees on a failing call
    (C, [("fail:\n    PyMem_Free(nets);\n", "fail:\n")], [FREES]),
    (C, [("    if (check_rules(cols, po, m, &r) < 0) {\n        PyMem_Free(nets);\n",
          "    if (check_rules(cols, po, m, &r) < 0) {\n")], [FREES]),
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
