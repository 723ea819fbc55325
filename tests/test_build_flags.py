"""Every build of ``_kernels.c`` uses the same optimisation flags.

The package, the tests and the benchmark each compile the kernel source.
A fixed seed reproduces ``metrics.csv`` byte for byte only if none of them
lets the compiler reassociate sums (``-ffast-math``) or contract ``a * b +
c`` into one fused multiply-add, which ``-march`` enables on a CPU that has
FMA.  The files are read, not executed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
BUILDS = ("setup.py", "tests/conftest.py", "perfbench/kbuild.py")
FORBIDDEN = ("-ffast-math", "-Ofast", "-march", "-mfma", "-ffp-contract=fast",
             "-funsafe-math-optimizations")


def _flags(path):
    """Every string constant of the file that looks like a compiler flag,
    and the flag lists (list literals) that hold ``-O3``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and node.value.startswith("-")]
    lists = [[e.value for e in node.elts if isinstance(e, ast.Constant)]
             for node in ast.walk(tree) if isinstance(node, ast.List)]
    return strings, [flags for flags in lists if "-O3" in flags]


def test_every_kernel_build_uses_o3_and_unrolling_without_fast_math():
    for rel in BUILDS:
        strings, compile_lists = _flags(ROOT / rel)
        assert len(compile_lists) == 1, rel
        assert {"-O3", "-funroll-loops"} <= set(compile_lists[0]), rel
        bad = [s for s in strings if s.startswith(FORBIDDEN)]
        assert not bad, (rel, bad)
