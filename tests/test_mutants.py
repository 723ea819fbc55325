"""The mutant list of ``tools/mutants.py`` names code and tests that exist.

A refactor that changes mutated code must update the list, and an entry
leaves it only with the code it mutates.  Running the mutants is the CI
``mutants`` job's work: it runs pytest once per mutant.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_edits_code_that_exists_and_names_tests_that_exist():
    mutants = _mutants()
    assert not mutants.misplaced(ROOT)
    functions = {}  # test file -> the names of its functions
    for _, edits, kills in mutants.MUTANTS:
        assert kills and all(old != new for old, new in edits)
        for test in kills:
            path, _, name = test.partition("::")
            if path not in functions:
                tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
                functions[path] = {node.name for node in tree.body
                                   if isinstance(node, ast.FunctionDef)}
            assert name.partition("[")[0] in functions[path], test
