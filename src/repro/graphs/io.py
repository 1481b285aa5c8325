"""Serialization for graphs: text edge lists and MatrixMarket.

The GAP reference code reads ``.el`` (unweighted) and ``.wel`` (weighted)
text edge lists and caches a binary serialized graph.  We read and write
the same text formats (the binary tier is :class:`~repro.graphs.GraphCache`),
plus the MatrixMarket ``.mtx`` coordinate format every public graph
repository (SuiteSparse, SNAP mirrors) speaks, so campaigns can run on real
downloaded datasets and not only on generated corpora.

All text readers share one chunked, vectorized core: lines are gathered in
large blocks and handed to NumPy for parsing, so ingesting a multi-million
edge file costs a handful of array conversions instead of a Python loop
per edge.  Gzip compression is transparent — any reader accepts a ``.gz``
of its format — and every malformed input raises
:class:`~repro.errors.GraphFormatError` with the offending detail instead
of an arbitrary NumPy/Python error.
"""

from __future__ import annotations

import gzip
import hashlib
from pathlib import Path

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph
from .edgelist import EdgeList

__all__ = [
    "file_digest",
    "load_graph_file",
    "open_text",
    "read_edge_list",
    "read_mtx",
    "write_edge_list",
]

#: Data lines gathered per vectorized parse.  Large enough that NumPy
#: dominates the cost, small enough to bound peak memory on huge inputs.
CHUNK_LINES = 1 << 17


def open_text(path: str | Path, mode: str = "rt"):
    """Open a text file for reading, decompressing ``.gz`` transparently."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode, encoding="ascii")
    return open(path, mode, encoding="ascii")


def file_digest(path: str | Path) -> str:
    """SHA-256 hex digest of a file's raw bytes (compressed as stored).

    This is the content identity the dataset pipeline keys everything on:
    graph-cache artifacts, cell-memo digests, and archive provenance all
    carry it, so renaming a file keeps every cache warm while editing a
    single byte invalidates them all (see :mod:`repro.graphs.datasets`).
    """
    digest = hashlib.sha256()
    with open(Path(path), "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write the graph's directed edges as whitespace-separated lines.

    Weighted graphs produce ``src dst weight`` lines (GAP ``.wel``);
    unweighted graphs produce ``src dst`` lines (GAP ``.el``).  The edge
    block is emitted via column stacking + ``np.savetxt`` — one array
    format call instead of a Python loop per edge, which turns writing a
    scale-20 corpus graph from minutes into seconds.
    """
    path = Path(path)
    src, dst = graph.edge_array()
    with path.open("w", encoding="ascii") as handle:
        handle.write(f"# repro graph n={graph.num_vertices} "
                     f"directed={int(graph.directed)}\n")
        if graph.weights is not None:
            np.savetxt(
                handle,
                np.column_stack([src, dst, graph.weights]),
                fmt=("%d", "%d", "%.17g"),
            )
        else:
            np.savetxt(handle, np.column_stack([src, dst]), fmt="%d")


def _parse_block(lines: list[str], path: Path, expected_cols: int | None) -> np.ndarray:
    """Vectorized parse of one block of whitespace-separated numeric lines.

    Returns a float64 array of shape ``(len(lines), columns)``; raises
    :class:`GraphFormatError` on ragged rows, non-numeric tokens, or a
    column count that disagrees with ``expected_cols``.
    """
    try:
        array = np.loadtxt(lines, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: malformed edge line: {exc}") from exc
    columns = array.shape[1]
    if columns not in (2, 3):
        raise GraphFormatError(
            f"{path}: edge lines must have 2 or 3 columns, found {columns}"
        )
    if expected_cols is not None and columns != expected_cols:
        raise GraphFormatError(
            f"{path}: expected {expected_cols}-column lines, found {columns} "
            "(mixed weighted/unweighted edge lines?)"
        )
    return array


def _int_ids(values: np.ndarray, path: Path, label: str) -> np.ndarray:
    ids = values.astype(np.int64)
    if not np.array_equal(ids, values):
        raise GraphFormatError(f"{path}: non-integer {label} vertex id")
    return ids


def read_edge_list(path: str | Path, directed: bool = True) -> CSRGraph:
    """Read a text edge list written by :func:`write_edge_list`.

    Also accepts plain third-party edge lists without the header line (the
    vertex count is then inferred from the largest endpoint), ``%``-style
    comment lines, and gzip-compressed input.  Parsing is chunked and
    vectorized: data lines are gathered in blocks of :data:`CHUNK_LINES`
    and converted by NumPy in one call per block.
    """
    path = Path(path)
    num_vertices: int | None = None
    blocks: list[np.ndarray] = []
    columns: int | None = None
    pending: list[str] = []

    def flush() -> None:
        nonlocal columns
        if not pending:
            return
        block = _parse_block(pending, path, columns)
        columns = block.shape[1]
        blocks.append(block)
        pending.clear()

    with open_text(path) as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped[0] in "#%":
                if stripped[0] == "#":
                    for token in stripped[1:].split():
                        try:
                            if token.startswith("n="):
                                num_vertices = int(token[2:])
                            elif token.startswith("directed="):
                                directed = bool(int(token[len("directed="):]))
                        except ValueError as exc:
                            raise GraphFormatError(
                                f"{path}: bad header token {token!r}"
                            ) from exc
                continue
            pending.append(stripped)
            if len(pending) >= CHUNK_LINES:
                flush()
        flush()

    if blocks:
        data = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        src = _int_ids(data[:, 0], path, "source")
        dst = _int_ids(data[:, 1], path, "destination")
        weights = data[:, 2] if columns == 3 else None
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        weights = None
    if num_vertices is None:
        largest = -1
        if src.size:
            largest = max(int(src.max()), int(dst.max()))
        num_vertices = largest + 1
    edges = EdgeList(num_vertices, src, dst, weights)
    return CSRGraph.from_edge_list(edges, directed=directed)


def read_mtx(path: str | Path) -> CSRGraph:
    """Read a MatrixMarket ``coordinate`` file as a graph.

    Supports the banner fields ``pattern`` (unweighted), ``integer``, and
    ``real`` (both weighted), with ``general`` (directed) or ``symmetric``
    (undirected) symmetry.  Indices are 1-based per the format and shifted
    to 0-based; gzip input is transparent.  A bad banner, a 0 or negative
    index, or an entry count short of the size line's promise raises
    :class:`GraphFormatError`.
    """
    path = Path(path)
    blocks: list[np.ndarray] = []
    pending: list[str] = []
    with open_text(path) as handle:
        banner = handle.readline()
        tokens = banner.strip().split()
        if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
            raise GraphFormatError(
                f"{path}: missing or malformed MatrixMarket banner "
                f"(got {banner.strip()[:60]!r})"
            )
        if tokens[1].lower() != "matrix" or tokens[2].lower() != "coordinate":
            raise GraphFormatError(
                f"{path}: only 'matrix coordinate' MatrixMarket files are "
                f"supported (banner says {tokens[1]!r} {tokens[2]!r})"
            )
        field, symmetry = tokens[3].lower(), tokens[4].lower()
        if field not in ("pattern", "integer", "real"):
            raise GraphFormatError(
                f"{path}: unsupported MatrixMarket field {field!r} "
                "(supported: pattern, integer, real)"
            )
        if symmetry not in ("general", "symmetric"):
            raise GraphFormatError(
                f"{path}: unsupported MatrixMarket symmetry {symmetry!r} "
                "(supported: general, symmetric)"
            )
        expected_cols = 2 if field == "pattern" else 3

        size_line: str | None = None
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_line = stripped
            break
        if size_line is None:
            raise GraphFormatError(f"{path}: missing MatrixMarket size line")
        parts = size_line.split()
        try:
            rows, cols, nnz = (int(part) for part in parts)
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}: bad MatrixMarket size line {size_line!r}"
            ) from exc
        if rows <= 0 or cols <= 0 or nnz < 0:
            raise GraphFormatError(
                f"{path}: bad MatrixMarket dimensions {rows}x{cols}, nnz={nnz}"
            )

        def flush() -> None:
            if pending:
                blocks.append(_parse_block(pending, path, expected_cols))
                pending.clear()

        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            pending.append(stripped)
            if len(pending) >= CHUNK_LINES:
                flush()
        flush()

    if blocks:
        data = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    else:
        data = np.empty((0, expected_cols), dtype=np.float64)
    if data.shape[0] != nnz:
        raise GraphFormatError(
            f"{path}: truncated MatrixMarket file: size line promises "
            f"{nnz} entries, found {data.shape[0]}"
        )
    src = _int_ids(data[:, 0], path, "source")
    dst = _int_ids(data[:, 1], path, "destination")
    if src.size and (int(src.min()) < 1 or int(dst.min()) < 1):
        raise GraphFormatError(
            f"{path}: MatrixMarket indices are 1-based; found an index <= 0"
        )
    num_vertices = max(rows, cols)
    if src.size and (int(src.max()) > rows or int(dst.max()) > cols):
        raise GraphFormatError(
            f"{path}: MatrixMarket entry exceeds the declared "
            f"{rows}x{cols} dimensions"
        )
    weights = data[:, 2] if expected_cols == 3 else None
    edges = EdgeList(num_vertices, src - 1, dst - 1, weights)
    return CSRGraph.from_edge_list(edges, directed=(symmetry == "general"))


def load_graph_file(path: str | Path, directed: bool = True) -> CSRGraph:
    """Load a graph file, dispatching on its (possibly ``.gz``) extension.

    ``.mtx`` goes through :func:`read_mtx` (directedness comes from the
    banner's symmetry); everything else — ``.el``, ``.wel``, headerless
    third-party edge lists — through :func:`read_edge_list`.
    """
    path = Path(path)
    name = path.name[: -len(".gz")] if path.name.endswith(".gz") else path.name
    if name.endswith(".mtx"):
        return read_mtx(path)
    return read_edge_list(path, directed=directed)
