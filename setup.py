import os

from setuptools import Extension, setup

# The native kernel is compiled from the committed, Cython-generated
# ``_kernel.cpp``, so building needs a C++ compiler but not Cython.  The
# extension is optional: without a working compiler setuptools warns and the
# package installs pure-Python; CANDYNIM_PURE=1 skips the kernel outright.
# Either way the solver falls back to its Python engine automatically.
#
# After editing ``_kernel.pyx``, regenerate the C++ (the committed file was
# made by Cython 3.2.8) and check that it matches the source:
#
#     cython --cplus src/candynim/solver/_kernel.pyx
#     python -m pytest -q tests/test_kernel_source.py
ext_modules = []
if os.environ.get("CANDYNIM_PURE") != "1":
    ext_modules = [
        Extension(
            "candynim.solver._kernel",
            ["src/candynim/solver/_kernel.cpp"],
            language="c++",
            optional=True,
        )
    ]

setup(ext_modules=ext_modules)
