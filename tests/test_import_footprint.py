"""Guard the import footprint of the processes that load ``repro``.

``repro serve``, its pool workers and every CLI call import
``repro.__main__`` and ``repro.core.report``, so whatever those pull in is
paid in memory and start-up by processes that never use it.  SciPy is
used for ``scipy.sparse`` matrices and the ``scipy.sparse.csgraph``
oracles only; ``scipy.stats`` alone costs tens of MB and half a second
of import, for a rank correlation NumPy computes in a few lines.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ALLOWED_SCIPY_MODULES = {"scipy", "scipy.sparse", "scipy.sparse.csgraph"}


def scipy_imports() -> dict[str, set[str]]:
    """Every SciPy module ``src/repro`` imports, to the files importing it."""
    found: dict[str, set[str]] = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                modules = [f"scipy.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] == "scipy":
                    found.setdefault(module, set()).add(str(path.relative_to(SRC)))
    return found


def test_src_imports_only_sparse_parts_of_scipy():
    stray = {
        module: sorted(files)
        for module, files in scipy_imports().items()
        if module not in ALLOWED_SCIPY_MODULES
    }
    assert not stray, f"src/repro imports SciPy beyond {sorted(ALLOWED_SCIPY_MODULES)}: {stray}"


def test_cli_and_report_import_no_scipy_stats():
    code = (
        "import sys, repro.__main__, repro.core.report; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", done.stdout
