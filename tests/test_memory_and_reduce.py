"""Tests for the memory-footprint estimates."""

from repro.core.memory import INDEX_WIDTH, csr_bytes, framework_footprints


class TestFootprints:
    def test_suitesparse_doubles_adjacency(self, corpus):
        graph = corpus["kron"]
        estimates = {e.framework: e for e in framework_footprints(graph)}
        assert (
            estimates["suitesparse"].adjacency_bytes
            == 2 * estimates["gap"].adjacency_bytes
        )

    def test_directed_counts_both_orientations(self, corpus):
        directed = corpus["twitter"]
        single = csr_bytes(directed, index_bytes=4)
        assert single.adjacency_bytes == 2 * directed.num_edges * 4

    def test_undirected_counts_once(self, corpus):
        undirected = corpus["kron"]
        single = csr_bytes(undirected, index_bytes=4)
        assert single.adjacency_bytes == undirected.num_edges * 4

    def test_weights_add_when_requested(self, corpus):
        graph = corpus["road"]
        plain = {e.framework: e for e in framework_footprints(graph, weighted=False)}
        weighted = {e.framework: e for e in framework_footprints(graph, weighted=True)}
        assert weighted["gap"].total_bytes > plain["gap"].total_bytes
        assert plain["gap"].weight_bytes == 0

    def test_all_frameworks_covered(self, corpus):
        estimates = framework_footprints(corpus["urand"])
        assert {e.framework for e in estimates} == set(INDEX_WIDTH)

    def test_as_row_fields(self, corpus):
        row = framework_footprints(corpus["urand"])[0].as_row()
        assert "Total (MiB)" in row and "Index width" in row

