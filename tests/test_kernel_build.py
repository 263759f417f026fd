"""``setup.py`` builds the kernel from the hand-written ``_kernel.c``.

The build runs out of tree, in the same shape as ``perfbench/run.py``, so
the checkout gains no ``build/`` or ``egg-info`` directory.  The kernel it
makes then runs the solver tests, engine parity included, and the pinned
extended ``verify all`` report in a fresh interpreter; without a compiler
the same build still leaves a working pure-Python package.  The source
must also compile as strict C11 at ``-O3``, ``-Wall -Wextra -Wpedantic``
with every warning an error, so a warning in new kernel code fails here
instead of scrolling past in the build log.  A build under the undefined
behaviour sanitizer runs the solver tests too, so a signed shift or
overflow in the search aborts them, and so does a build under the address
sanitizer, so a write past one of the search's fixed-size stack arrays
aborts them too; the undefined behaviour sanitizer sees such a write only
where the compiler knows the array's size at the store.
"""

import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


def _cc() -> list:
    return (os.environ.get("CC") or sysconfig.get_config_var("CC") or "").split()


def _cc_found() -> bool:
    cc = _cc()
    return bool(cc) and shutil.which(cc[0]) is not None


def _build(out: Path, **env: str) -> Path:
    """Build the checkout into ``out``; return the package root."""
    cmd = [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(out),
           "build", "--build-base", str(out), "--build-lib", str(out / "lib")]
    base = {k: v for k, v in os.environ.items() if k != "CANDYNIM_PURE"}
    proc = subprocess.run(cmd, cwd=ROOT, env={**base, **env}, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out / "lib"


def _run(lib: Path, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run the interpreter on the built package only, from the checkout root."""
    env = {**os.environ, "PYTHONPATH": str(lib), **env}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def _assert_passed(tests: subprocess.CompletedProcess) -> None:
    summary = tests.stdout.strip().splitlines()[-1]
    assert tests.returncode == 0, tests.stdout + tests.stderr
    assert re.fullmatch(r"\d+ passed(, \d+ warnings?)? in .*", summary), summary


def _kernels(lib: Path) -> list:
    return sorted((lib / "candynim" / "solver").glob("_kernel*.so"))


PROBE = ("import candynim.solver as s; from candynim import Game, solve; "
         "print(s.kernel_available(), solve(Game([1, 5, 16, 20])).value, s.__file__)")


@pytest.mark.skipif(not _cc_found(), reason="no C compiler")
def test_built_kernel_passes_the_solver_tests(tmp_path):
    lib = _build(tmp_path)
    assert _kernels(lib), "setup.py built no _kernel*.so"
    probe = _run(lib, "-c", PROBE)
    assert probe.returncode == 0, probe.stderr
    available, value, path = probe.stdout.split()
    assert (available, value) == ("True", "28")
    assert Path(path).is_relative_to(lib)
    # the extended report pin skips where no kernel is importable, so run it
    # here too, on the kernel just built
    tests = _run(lib, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "tests/test_solver.py",
                 "tests/test_harness.py::test_extended_report_bytes_are_pinned")
    _assert_passed(tests)


# a sanitizer reports on file descriptor 2 and exits; capturing only sys.stderr
# leaves that report in the failure message instead of in pytest's capture
SANITIZED_TESTS = ("--capture=sys", "tests/test_solver.py")

# Python's own CFLAGS carry -fwrapv, which turns the signed-overflow check
# off; -fno-wrapv after them turns it back on
UBSAN = "-fsanitize=undefined -fno-sanitize-recover=undefined"


def _links(tmp: Path, flags: str) -> bool:
    src = tmp / "probe.c"
    src.write_text("int probe(int x) { return x << 1; }\n")
    cmd = [*_cc(), *flags.split(), "-shared", "-fPIC", "-o", str(tmp / "probe.so"), str(src)]
    return subprocess.run(cmd, capture_output=True, timeout=TIMEOUT_S).returncode == 0


@pytest.mark.skipif(not _cc_found(), reason="no C compiler")
def test_kernel_under_the_undefined_behaviour_sanitizer(tmp_path):
    if not _links(tmp_path, UBSAN):
        pytest.skip("the C compiler cannot link the undefined behaviour sanitizer")
    lib = _build(tmp_path, CFLAGS=f"{UBSAN} -fno-wrapv", LDFLAGS="-fsanitize=undefined")
    assert _kernels(lib), "setup.py built no _kernel*.so"
    tests = _run(lib, "-m", "pytest", "-q", "-p", "no:cacheprovider", *SANITIZED_TESTS)
    _assert_passed(tests)


ASAN = "-fsanitize=address -fno-omit-frame-pointer"


def _libasan() -> str:
    """The compiler's address sanitizer runtime, or "" where it names none."""
    proc = subprocess.run([*_cc(), "-print-file-name=libasan.so"], capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    path = Path(proc.stdout.strip())
    return str(path) if proc.returncode == 0 and path.is_absolute() and path.exists() else ""


@pytest.mark.skipif(not _cc_found(), reason="no C compiler")
def test_kernel_under_the_address_sanitizer(tmp_path):
    # the interpreter is not built with the sanitizer, so its runtime must be
    # loaded first; leak checks would report the interpreter's own memory
    runtime = _libasan()
    if not runtime or not _links(tmp_path, ASAN):
        pytest.skip("the C compiler cannot link the address sanitizer")
    lib = _build(tmp_path, CFLAGS=ASAN, LDFLAGS="-fsanitize=address")
    assert _kernels(lib), "setup.py built no _kernel*.so"
    tests = _run(lib, "-m", "pytest", "-q", "-p", "no:cacheprovider", *SANITIZED_TESTS,
                 LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0")
    _assert_passed(tests)


@pytest.mark.skipif(not _cc_found(), reason="no C compiler")
def test_kernel_source_compiles_without_warnings(tmp_path):
    # -O3, as the build uses: flow-based warnings such as
    # -Wmaybe-uninitialized appear only when the optimizer runs
    cmd = [*_cc(), "-std=c11", "-Wall", "-Wextra", "-Wpedantic", "-Werror", "-O3",
           "-c", "-o", str(tmp_path / "k.o"), "-I", sysconfig.get_paths()["include"],
           str(ROOT / "src" / "candynim" / "solver" / "_kernel.c")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_build_without_a_compiler_installs_pure_python(tmp_path):
    lib = _build(tmp_path, CC="/bin/false")
    assert (lib / "candynim" / "solver" / "_python.py").is_file()
    assert _kernels(lib) == []
    probe = _run(lib, "-c", PROBE)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split()[:2] == ["False", "28"]
