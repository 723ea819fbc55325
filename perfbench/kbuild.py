"""Compiled kernel backend for the benchmark.

The package ships the generated ``src/lcsae/_kernels.c``.  When no compiled
extension sits next to it, the benchmark compiles that file with the
system C compiler into its own cache, keyed by the file's sha256, and
registers the result as ``lcsae._kernels`` before the package is imported.
Nothing is ever written under ``src/``.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig

import numpy as np

KERNEL_SOURCE = os.path.join("src", "lcsae", "_kernels.c")


class KernelError(Exception):
    pass


def file_sha256(path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def in_tree_extension(root) -> str | None:
    """Path of an already-compiled ``lcsae._kernels`` under ``src/``."""
    pkg = os.path.join(root, "src", "lcsae")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(pkg, "_kernels" + suffix)
        if os.path.isfile(path):
            return path
    return None


def build(root, cache_dir) -> dict:
    """Compile the shipped kernel source unless it is already built.

    Returns ``{"path", "source_sha256"}``; ``path`` is None when the
    package will import its own in-tree extension.
    """
    src = os.path.join(root, KERNEL_SOURCE)
    if not os.path.isfile(src):
        raise KernelError(f"kernel source {KERNEL_SOURCE} not found")
    digest = file_sha256(src)
    if in_tree_extension(root):
        return {"path": None, "source_sha256": digest}
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    out = os.path.join(cache_dir, digest[:16], "_kernels" + suffix)
    if os.path.isfile(out):
        return {"path": out, "source_sha256": digest}
    cc = shutil.which("cc") or shutil.which("gcc")
    if not cc:
        raise KernelError("no C compiler found to build the kernels")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    tmp = f"{out}.{os.getpid()}.tmp"
    cmd = [cc, "-O3", "-funroll-loops", "-shared", "-fPIC",
           "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION",
           "-I", np.get_include(), "-I", sysconfig.get_paths()["include"],
           src, "-o", tmp]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise KernelError(f"kernel build failed:\n{proc.stderr[-2000:]}")
    os.replace(tmp, out)
    return {"path": out, "source_sha256": digest}


def install(so_path) -> None:
    """Register a compiled module as ``lcsae._kernels``.

    Must run before ``lcsae`` is first imported, because the package picks
    its backend at import time.
    """
    if "lcsae" in sys.modules:
        raise KernelError("lcsae was imported before the kernels were installed")
    if so_path is None:
        return
    spec = importlib.util.spec_from_file_location("lcsae._kernels", so_path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["lcsae._kernels"] = module
    spec.loader.exec_module(module)


def require_compiled() -> str:
    """Fail unless the package runs on the compiled backend."""
    import lcsae

    if lcsae.kernel_backend != "cython":
        raise KernelError(
            f"kernel backend is {lcsae.kernel_backend!r}, not the compiled one")
    return lcsae.kernel_backend
