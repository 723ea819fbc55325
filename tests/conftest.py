import importlib.machinery
import importlib.util
import json
import pathlib
import re
import shutil
import struct
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

from lcsae import _kernels_py, checkpoint, kernels, neural, xcsf
from lcsae.config import ExperimentConfig

KERNEL_SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lcsae" / "_kernels.c"
# the flags setup.py builds the extension with
FLAGS = ["-O3", "-funroll-loops", "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION"]


def write_csv(path, arr):
    with open(path, "w", encoding="utf-8") as f:
        for row in np.atleast_2d(arr):
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(path)


def split_checkpoint(blob):
    """A checkpoint's JSON header and the payload bytes that follow it."""
    start = len(checkpoint.POPULATION_MAGIC) + 8
    (hlen,) = struct.unpack_from("<Q", blob, start - 8)
    return json.loads(blob[start:start + hlen]), blob[start + hlen:]


def write_config(path, **keys):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in keys.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            f.write(f"{key}={value}\n")
    return str(path)


class FailingWrites:
    """A file opened for writing whose ``fail_at``-th write raises ``exc``;
    every other attribute is the file's."""

    def __init__(self, f, fail_at, exc):
        self.f, self.fail_at, self.exc, self.writes = f, fail_at, exc, 0

    def __getattr__(self, name):
        return getattr(self.f, name)

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise self.exc
        return self.f.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.f.close()


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


def assert_layer_layout(layer, n_in, n_out):
    """The layout every producer of a ``neural.Layer`` keeps, which no
    constructor checks: C-contiguous (n_out, n_in) float64 weights and
    momenta and uint8 mask, float64 (n_out,) biases and momenta, and four
    float64 mutation rates."""
    for arr, dtype, shape in ((layer.weights, np.float64, (n_out, n_in)),
                              (layer.mask, np.uint8, (n_out, n_in)),
                              (layer.mom_w, np.float64, (n_out, n_in)),
                              (layer.biases, np.float64, (n_out,)),
                              (layer.mom_b, np.float64, (n_out,)),
                              (layer.mu, np.float64, (4,))):
        assert arr.dtype == dtype and arr.shape == shape, (arr.dtype, arr.shape)
        assert arr.flags.c_contiguous


def assert_network_layout(net, n_in, n_out):
    """A network's two layers in that layout, the output layer reading the
    hidden layer's outputs."""
    hidden, out = net.layers
    assert_layer_layout(hidden, n_in, hidden.n_out)
    assert_layer_layout(out, hidden.n_out, n_out)


def make_classifier(n=4, h=1, seed=0, condition=None, prediction=None):
    """A rule outside any population: its two nets."""
    rng = np.random.default_rng(seed)
    if condition is None:
        condition = neural.new_network(n, h, 1, rng)
    if prediction is None:
        prediction = neural.new_network(n, h, n, rng)
    return xcsf.Classifier(condition, prediction)


# the scalars of a test's rule unless it names others
SCALAR_DEFAULTS = dict(err=0.0, fit=0.01, exp=0, set_size=1.0, ts=0, born=0, mtotal=0)


def make_population(rules, trial=0, **scalars):
    """A population of ``rules`` at ``trial``, with the default scalars or
    those given: each one value for every rule, or a sequence of one per
    rule."""
    rules = list(rules)
    assert set(scalars) <= set(xcsf.SCALARS), scalars
    values = {**SCALAR_DEFAULTS, **scalars}
    state = xcsf.RuleState(np.broadcast_to(values[name], len(rules)) for name in xcsf.SCALARS)
    return xcsf.Population(rules, trial, state)


@pytest.fixture
def cfg():
    return ExperimentConfig()


def compile_kernels(source, out):
    """Compile the C source file ``source`` into the extension module
    ``out`` with the flags setup.py uses and every warning on, leaving its
    assembly (``*.s``) in the directory of ``out``; returns the compiler's
    exit status and diagnostics.  The test skips when there is no C
    compiler on PATH."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    cmd = [cc, *FLAGS, "-Wall", "-Wextra", "-shared", "-fPIC", "-save-temps=obj",
           "-I", np.get_include(), "-I", sysconfig.get_paths()["include"],
           str(source), "-o", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stderr


def load_kernels(path):
    """The compiled module at ``path``, loaded without entering
    ``sys.modules``."""
    spec = importlib.util.spec_from_file_location("lcsae._kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.modules.get("lcsae._kernels") is not module
    return module


def _extension(tmp_path_factory, name):
    return tmp_path_factory.mktemp(name) / ("_kernels" + importlib.machinery.EXTENSION_SUFFIXES[0])


@pytest.fixture(scope="session")
def build(tmp_path_factory):
    """Compile the kernel source with the system C compiler into a
    temporary directory; returns the module path and the compiler's
    diagnostics.  The compiled path is tested whether or not an extension
    was installed."""
    out = _extension(tmp_path_factory, "kernels")
    status, stderr = compile_kernels(KERNEL_SOURCE, out)
    assert status == 0, stderr
    return out, stderr


@pytest.fixture(scope="session")
def cy(build):
    """The freshly compiled module, loaded without entering ``sys.modules``."""
    return load_kernels(build[0])


def use_backend(backend, request, monkeypatch):
    """Route every kernel call through the numpy twin or the compiled
    module: ``kernels`` picks its backend once, at import."""
    impl = request.getfixturevalue("cy") if backend == "compiled" else _kernels_py
    for kernel in ("forward_batch", "predict_batch", "reinforce_batch"):
        monkeypatch.setattr(kernels, kernel, getattr(impl, kernel))


# logistic_row's clones, as _kernels.c lists them
CLONES = 'target_clones("avx512f", "avx2", "default")'


def _cpu_flags():
    """The feature flags of the first CPU in /proc/cpuinfo, or None where
    that file cannot be read."""
    try:
        text = pathlib.Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return set()


@pytest.fixture(scope="session", params=["avx512f", "avx2", "default"])
def clone(request, tmp_path_factory):
    """The kernels with logistic_row built as the one clone named by the
    parameter, so that each clone the CPU runs is tested whichever the
    dispatcher would pick: the source's clone list becomes that clone and
    the default, or no clones at all for the default.  A clone the CPU
    cannot run is skipped, with the missing feature named."""
    feature = request.param
    if feature != "default":
        flags = _cpu_flags()
        if flags is None:
            pytest.skip(f"cannot tell whether the CPU runs {feature}")
        if feature not in flags:
            pytest.skip(f"the CPU lacks {feature}")
    text = KERNEL_SOURCE.read_text(encoding="utf-8")
    one = f'target_clones("{feature}", "default"), ' if feature != "default" else ""
    text, count = re.subn(re.escape(CLONES) + r",\s*", one, text)
    assert count == 1
    source = tmp_path_factory.mktemp(f"source-{feature}") / "_kernels.c"
    source.write_text(text, encoding="utf-8")
    out = _extension(tmp_path_factory, f"kernels-{feature}")
    status, stderr = compile_kernels(source, out)
    assert status == 0, stderr
    return load_kernels(out)
