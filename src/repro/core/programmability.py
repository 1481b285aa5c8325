"""Programmability measurement: source lines per kernel per framework.

The paper's discussion names "the ever-challenging programmability
problem" as unfinished business: the study compared performance but not
how much code each framework required.  We measure a simple proxy —
logical source lines (excluding blanks, comments, and docstrings) of each
framework's kernel method and the framework modules it calls — giving the
comparison the paper deferred.

The numbers measure *this reproduction's* implementations, but the
relative pattern mirrors the real systems: the GraphBLAS formulation of TC
is a few lines of algebra while the direct implementations spell out the
loops, and the DSL splits code between algorithm and schedule.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
import types

from ..errors import UnknownFrameworkError, UnknownKernelError
from ..frameworks.base import KERNELS
from ..frameworks.registry import FRAMEWORK_NAMES, get

__all__ = ["kernel_sloc", "programmability_table"]

# Each framework's package, and each kernel's method by GAP name.
_PACKAGES: dict[str, str] = {
    "gap": "repro.gapbs",
    "suitesparse": "repro.lagraph",
    "galois": "repro.galois",
    "nwgraph": "repro.nwgraph",
    "graphit": "repro.graphit",
    "gkc": "repro.gkc",
}

_METHODS: dict[str, str] = {
    "bfs": "bfs",
    "sssp": "sssp",
    "cc": "connected_components",
    "pr": "pagerank",
    "bc": "betweenness",
    "tc": "triangle_count",
}


def _logical_lines(source: str) -> int:
    """Count source lines that carry code (no blanks/comments/docstrings)."""
    tree = ast.parse(source)
    doc_lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if (
                node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)
            ):
                expr = node.body[0]
                doc_lines.update(range(expr.lineno, expr.end_lineno + 1))
    count = 0
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or lineno in doc_lines:
            continue
        count += 1
    return count


def _called_modules(method: types.FunctionType) -> set[str]:
    """Framework-package modules defining the functions ``method`` calls by name."""
    packages = tuple(f"{package}." for package in _PACKAGES.values())
    modules = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(method)))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            target = method.__globals__.get(node.func.id)
            module = getattr(target, "__module__", "")
            if inspect.isfunction(target) and module.startswith(packages):
                modules.add(module)
    return modules


def kernel_sloc(framework: str, kernel: str) -> int:
    """Logical source lines of one framework's kernel.

    That is the framework's kernel method plus every framework-package
    module whose functions it calls — its own, or another framework's where
    Table III names the same algorithm (GraphIt's TC runs GAP's).  The
    shared ``repro.la`` bodies count for no framework.
    """
    if framework not in _PACKAGES:
        raise UnknownFrameworkError(f"unknown framework {framework!r}")
    if kernel not in _METHODS:
        raise UnknownKernelError(f"unknown kernel {kernel!r}")
    method = getattr(type(get(framework)), _METHODS[kernel])
    return _logical_lines(textwrap.dedent(inspect.getsource(method))) + sum(
        _logical_lines(inspect.getsource(sys.modules[module]))
        for module in _called_modules(method)
    )


def programmability_table() -> list[dict[str, object]]:
    """One row per kernel: SLOC per framework plus totals."""
    rows = []
    for kernel in KERNELS:
        row: dict[str, object] = {"Kernel": kernel.upper()}
        for framework in FRAMEWORK_NAMES:
            row[framework] = kernel_sloc(framework, kernel)
        rows.append(row)
    totals: dict[str, object] = {"Kernel": "total"}
    for framework in FRAMEWORK_NAMES:
        totals[framework] = sum(row[framework] for row in rows)
    rows.append(totals)
    return rows
