"""Shared pytest configuration: the suite runs the compiled kernels, and every
test log names the kernel backend.

Before anything imports ``dualsim``, the package is built once per session,
extension included, into a temporary directory that goes first on
``sys.path``.  The build is one ``setup.py build`` run on a copy of the build
files and ``src/``, since an in-tree build leaves ``build/`` and
``src/dualsim.egg-info`` behind, and in a subprocess, so that setuptools'
warnings stay out of this session.  When a compiled ``_ckernels`` is already
importable (a package built beforehand and put on ``PYTHONPATH``) that
package is tested instead.  The extension is optional: without a compiler
(``CC=false``) the build yields the pure-Python package, and if the build
fails altogether the suite runs on whatever ``dualsim`` is importable; the
backend line says which backend ran.
"""

import shutil
import subprocess
import sys
import tempfile
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _compiled_on_path() -> bool:
    """Whether the first ``dualsim`` on ``sys.path`` has its C kernels, found
    without importing it."""
    for entry in sys.path:
        package = Path(entry or ".") / "dualsim"
        if (package / "__init__.py").is_file():
            return any((package / "kernels" / f"_ckernels{suffix}").is_file() for suffix in EXTENSION_SUFFIXES)
    return False


def pytest_configure(config):
    if _compiled_on_path():
        return
    work = Path(tempfile.mkdtemp(prefix="dualsim-tests-"))
    config.add_cleanup(lambda: shutil.rmtree(work, ignore_errors=True))
    tree, lib = work / "tree", work / "lib"
    shutil.copytree(ROOT / "src", tree / "src")
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, tree / name)
    done = subprocess.run([sys.executable, "setup.py", "build", "--build-base", str(work / "build"),
                           "--build-lib", str(lib)],
                          cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    if done.returncode == 0:
        sys.path.insert(0, str(lib))


def _backend_line() -> str:
    from dualsim.kernels import BACKEND_NAME

    return f"dualsim backend: {BACKEND_NAME}"


def pytest_report_header(config):
    return _backend_line()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q drops the header, so the line goes at the end of the log instead
    if config.option.verbose < 0:
        terminalreporter.write_line(_backend_line())
