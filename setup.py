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
            # no fused multiply-adds: the pure-Python kernels round every
            # operation, and both backends must return the same bytes
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
