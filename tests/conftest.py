import importlib.machinery
import importlib.util
import pathlib
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

from lcsae import neural, xcsf
from lcsae.config import ExperimentConfig

KERNEL_SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lcsae" / "_kernels.c"
# the flags setup.py builds the extension with
FLAGS = ["-O3", "-funroll-loops", "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION"]


def write_csv(path, arr):
    with open(path, "w", encoding="utf-8") as f:
        for row in np.atleast_2d(arr):
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(path)


def write_config(path, **keys):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in keys.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            f.write(f"{key}={value}\n")
    return str(path)


def saturated_network(n_inputs, outputs):
    """Network with all-zero weights and huge output biases, so the output
    vector is exactly the requested 0/1 pattern."""
    rng = np.random.default_rng(0)
    net = neural.new_network(n_inputs, 1, len(outputs), rng, sigma=0.0)
    net.layers[1].biases[:] = [1000.0 if o else -1000.0 for o in outputs]
    return net


def always_match_condition(n_inputs):
    return saturated_network(n_inputs, [1])


def never_match_condition(n_inputs):
    return saturated_network(n_inputs, [0])


def spare_rules(m):
    """Match-set positions, state columns and XCS rates for a
    ``reinforce_batch`` call of m nets whose rules are not under test; the
    call updates these throwaway columns."""
    cfg = ExperimentConfig()
    return (np.arange(m), np.zeros(m), np.ones(m), np.ones(m), np.zeros(m, np.int64),
            cfg.beta, cfg.epsilon0, cfg.alpha, cfg.nu)


def make_classifier(n=4, h=1, seed=0, condition=None, prediction=None, **attrs):
    rng = np.random.default_rng(seed)
    if condition is None:
        condition = neural.new_network(n, h, 1, rng)
    if prediction is None:
        prediction = neural.new_network(n, h, n, rng)
    fields = dict(err=0.0, fit=0.01, exp=0, set_size=1.0, ts=0, born=0, mtotal=0)
    fields.update(attrs)
    return xcsf.Classifier(condition, prediction, xcsf.RuleState.of(**fields), 0)


@pytest.fixture
def cfg():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def build(tmp_path_factory):
    """Compile the kernel source with the system C compiler into a
    temporary directory; returns the module path and the compiler's
    diagnostics.  The compiled path is tested whether or not an extension
    was installed."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path_factory.mktemp("kernels") / (
        "_kernels" + importlib.machinery.EXTENSION_SUFFIXES[0])
    cmd = [cc, *FLAGS, "-Wall", "-Wextra", "-shared", "-fPIC",
           "-I", np.get_include(), "-I", sysconfig.get_paths()["include"],
           str(KERNEL_SOURCE), "-o", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return out, proc.stderr


@pytest.fixture(scope="session")
def cy(build):
    """The freshly compiled module, loaded without entering ``sys.modules``."""
    spec = importlib.util.spec_from_file_location("lcsae._kernels", build[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.modules.get("lcsae._kernels") is not module
    return module
