"""Build script: compiles the hot-loop kernels as a C extension.

The extension is optional; without a C compiler the build skips it and the
package falls back to the pure-Python kernels at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "dualsim.kernels._ckernels",
            ["src/dualsim/kernels/_ckernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
