"""Guard the layering of ``src/repro`` (``docs/ARCHITECTURE.md``).

The harness, ``repro.core``, sits above the frameworks and the kernel tier
they share, so nothing below it may import it — function-local imports
included.  ``repro.counters`` is a leaf every layer reports into: the
shared ``repro.la`` bodies count their own work, which only works while
the counters import nothing from ``repro`` themselves.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
BELOW_CORE = (
    "la",
    "graphs",
    "generators",
    "frameworks",
    "gapbs",
    "lagraph",
    "galois",
    "nwgraph",
    "graphit",
    "gkc",
    "ligra",
    "semiring",
    "graphitc",
    "worklist",
    "extensions",
)


def imported_modules(path: Path, source: str | None = None) -> set[str]:
    """Absolute names of every module ``path`` imports, ``from`` targets included."""
    package = ["repro", *path.relative_to(SRC).parent.parts]
    source = path.read_text() if source is None else source
    found = set()
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_nothing_below_core_imports_it():
    upward = {
        str(path.relative_to(SRC)): sorted(
            name
            for name in imported_modules(path)
            if name == "repro.core" or name.startswith("repro.core.")
        )
        for layer in BELOW_CORE
        for path in (SRC / layer).rglob("*.py")
    }
    upward = {module: names for module, names in upward.items() if names}
    assert not upward, f"modules below repro.core import it: {upward}"


def test_counters_is_a_leaf():
    inward = sorted(
        name
        for name in imported_modules(SRC / "counters.py")
        if name == "repro" or name.startswith("repro.")
    )
    assert not inward, f"repro.counters imports from repro: {inward}"


def test_relative_imports_resolve():
    """The guard sees ``from .. import core`` and ``from ..core.x import y``."""
    source = "from .. import core\nfrom ..core.spec import BenchmarkSpec\nfrom . import gather\n"
    names = imported_modules(SRC / "la" / "probe.py", source)
    assert {"repro.core", "repro.core.spec", "repro.la.gather"} <= names
