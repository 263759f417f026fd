import os

from setuptools import Extension, setup

# The native kernel is the hand-written C extension ``_kernel.c``, so
# building it needs only a C compiler.  The extension is optional: without a
# working compiler setuptools warns and the package installs pure-Python;
# CANDYNIM_PURE=1 skips the kernel outright.  Either way the solver falls
# back to its Python engine automatically.
ext_modules = []
if os.environ.get("CANDYNIM_PURE") != "1":
    ext_modules = [
        Extension(
            "candynim.solver._kernel",
            ["src/candynim/solver/_kernel.c"],
            optional=True,
        )
    ]

setup(ext_modules=ext_modules)
