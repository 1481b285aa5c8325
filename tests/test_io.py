"""Tests for graph serialization (text edge lists and MatrixMarket)."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.generators import build_graph, weighted_version
from repro.graphs import (
    file_digest,
    load_graph_file,
    read_edge_list,
    read_mtx,
    write_edge_list,
)


class TestTextRoundtrip:
    def test_unweighted(self, tmp_path, tiny_graph):
        path = tmp_path / "g.el"
        write_edge_list(tiny_graph, path)
        back = read_edge_list(path)
        assert back == tiny_graph

    def test_weighted(self, tmp_path):
        graph = weighted_version(build_graph("kron", scale=7))
        path = tmp_path / "g.wel"
        write_edge_list(graph, path)
        back = read_edge_list(path)
        assert back.is_weighted
        assert np.array_equal(back.weights, graph.weights)
        assert back == graph

    def test_undirected_preserved_via_header(self, tmp_path):
        graph = build_graph("urand", scale=7)
        path = tmp_path / "g.el"
        write_edge_list(graph, path)
        back = read_edge_list(path)
        assert not back.directed

    def test_headerless_third_party_file(self, tmp_path):
        path = tmp_path / "plain.el"
        path.write_text("0 1\n1 2\n", encoding="ascii")
        graph = read_edge_list(path, directed=True)
        assert graph.num_vertices == 3
        assert graph.has_edge(0, 1)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("0 1 2 3\n", encoding="ascii")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_mixed_weighting_rejected(self, tmp_path):
        path = tmp_path / "mixed.el"
        path.write_text("0 1\n1 2 5\n", encoding="ascii")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)


MTX_SYMMETRIC = """%%MatrixMarket matrix coordinate pattern symmetric
% comment between banner and size line
4 4 4
2 1
3 1
4 2
4 3
"""

MTX_GENERAL_REAL = """%%MatrixMarket matrix coordinate real general
3 3 3
1 2 0.5
2 3 1.25
3 1 2
"""


class TestMatrixMarket:
    def test_symmetric_pattern(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(MTX_SYMMETRIC, encoding="ascii")
        graph = read_mtx(path)
        assert not graph.directed
        assert graph.num_vertices == 4
        # 4 symmetric entries -> 8 directed arcs after mirroring.
        assert graph.num_edges == 8
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)

    def test_general_real_weighted(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(MTX_GENERAL_REAL, encoding="ascii")
        graph = read_mtx(path)
        assert graph.directed
        assert graph.is_weighted
        assert graph.num_vertices == 3
        assert graph.has_edge(0, 1) and not graph.has_edge(1, 0)

    def test_one_based_shift_roundtrip(self, tmp_path):
        """MTX indices are 1-based; the loaded graph must be 0-based."""
        path = tmp_path / "g.mtx"
        path.write_text(MTX_SYMMETRIC, encoding="ascii")
        graph = read_mtx(path)
        out = tmp_path / "g.el"
        write_edge_list(graph, out)
        back = read_edge_list(out)
        assert back == graph

    def test_gzip_transparent(self, tmp_path):
        import gzip

        plain = tmp_path / "g.mtx"
        plain.write_text(MTX_SYMMETRIC, encoding="ascii")
        zipped = tmp_path / "g.mtx.gz"
        with gzip.open(zipped, "wt", encoding="ascii") as handle:
            handle.write(MTX_SYMMETRIC)
        assert load_graph_file(zipped) == load_graph_file(plain)

    def test_load_graph_file_dispatches_by_suffix(self, tmp_path, tiny_graph):
        path = tmp_path / "g.el"
        write_edge_list(tiny_graph, path)
        assert load_graph_file(path) == tiny_graph

    @pytest.mark.parametrize(
        "text",
        [
            # wrong banner magic
            "%%NotMatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n",
            # array storage is not a graph
            "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
            # unknown field
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2\n",
            # 0-based index (spec says 1-based)
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 2\n",
            # index above the declared dimensions
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 5\n",
            # truncated: promises 3 entries, carries 1
            "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 2\n",
            # missing size line
            "%%MatrixMarket matrix coordinate pattern general\n",
            # pattern entries must not carry weights
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2 9\n",
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.mtx"
        path.write_text(text, encoding="ascii")
        with pytest.raises(GraphFormatError):
            read_mtx(path)

    def test_negative_edge_list_ids_rejected(self, tmp_path):
        path = tmp_path / "neg.el"
        path.write_text("0 1\n-1 2\n", encoding="ascii")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_file_digest_tracks_content_not_name(self, tmp_path):
        a = tmp_path / "a.mtx"
        b = tmp_path / "b.mtx"
        a.write_text(MTX_SYMMETRIC, encoding="ascii")
        b.write_text(MTX_SYMMETRIC, encoding="ascii")
        assert file_digest(a) == file_digest(b)
        b.write_text(MTX_SYMMETRIC + "% edited\n", encoding="ascii")
        assert file_digest(a) != file_digest(b)
