"""Every build of ``_kernels.c`` uses the same optimisation flags.

The package, the tests and the benchmark each compile the kernel source.
A fixed seed reproduces ``metrics.csv`` byte for byte only if none of them
lets the compiler reassociate sums (``-ffast-math``) or contract ``a * b +
c`` into one fused multiply-add, which ``-march`` enables on a CPU that has
FMA.  The build files are read, not executed.  The kernel source is read
too, for the function attributes that pick an instruction set, and the
assembly that the tests' build of it leaves must hold no fused
multiply-add.
"""

import ast
import pathlib
import re

from conftest import KERNEL_SOURCE

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


def test_every_isa_attribute_of_the_kernels_keeps_products_unfused():
    # a target or target_clones attribute may name an instruction set, but
    # not FMA or a whole -march, and its function must also switch off
    # contraction: AVX-512F has fused multiply-adds without -mfma
    text = KERNEL_SOURCE.read_text(encoding="utf-8")
    isa = re.compile(r"\btarget(?:_clones)?\(([^)]*)\)")
    targeted = []
    for attr in re.finditer(r"__attribute__\(\((.*?)\)\)", text, re.S):
        if isa.search(attr.group(1)):
            # the function the attribute is on: the next name called
            name = re.compile(r"(\w+)\(").search(text, attr.end()).group(1)
            targeted.append((attr.group(1), name))
    assert targeted, "logistic_row's clones are gone"
    # no instruction-set attribute outside __attribute__((...))
    assert len(isa.findall(text)) == len(targeted)
    for attr, name in targeted:
        for strings in isa.findall(attr):
            named = re.findall(r'"([^"]*)"', strings)
            assert not [s for s in named if "fma" in s or "arch=" in s], (name, named)
        assert '"fp-contract=off"' in attr, name


def test_the_compiled_kernels_hold_no_fused_multiply_add(build):
    # the assembly of the module the tests load, every clone included
    (assembly,) = build[0].parent.glob("*.s")
    fused = re.findall(r"^\s*(v(?:fmadd|fmsub|fnmadd|fnmsub)\w*)", assembly.read_text(), re.M)
    assert not fused, sorted(set(fused))
