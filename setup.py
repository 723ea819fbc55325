import numpy as np
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "lcsae._kernels",
            ["src/lcsae/_kernels.c"],
            include_dirs=[np.get_include()],
            extra_compile_args=["-O3", "-funroll-loops"],
            define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
            # the package falls back to the pure-numpy kernels when the
            # compiled module is unavailable, so a failed build is not fatal
            optional=True,
        )
    ],
)
