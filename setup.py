import hashlib
import os

from setuptools import Extension, setup

# The native kernel is the hand-written C extension ``_kernel.c``, so
# building it needs only a C compiler.  The extension is optional: without a
# working compiler setuptools warns and the package installs pure-Python;
# CANDYNIM_PURE=1 skips the kernel outright.  Either way the solver falls
# back to its Python engine automatically.  The kernel is built with the
# sha256 of its source, exposed as ``_kernel.SOURCE_SHA256``, so a test can
# tell a kernel built from an older ``_kernel.c`` from a fresh one.
KERNEL_SOURCE = "src/candynim/solver/_kernel.c"

ext_modules = []
if os.environ.get("CANDYNIM_PURE") != "1":
    with open(KERNEL_SOURCE, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    ext_modules = [
        Extension(
            "candynim.solver._kernel",
            [KERNEL_SOURCE],
            define_macros=[("KERNEL_SOURCE_SHA256", f'"{digest}"')],
            optional=True,
        )
    ]

setup(ext_modules=ext_modules)
