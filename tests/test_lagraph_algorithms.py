"""Algorithm-level tests for the LAGraph kernels (beyond the shared
cross-framework correctness suite): semiring usage and format behaviour."""

import numpy as np
import pytest

from repro import counters
from repro.frameworks import get
from repro.generators import weighted_version
from repro.lagraph import fastsv, lagraph_bfs, lagraph_pagerank, lagraph_sssp, lagraph_tc


class TestLagraphBFS:
    def test_format_conversions_happen_on_powerlaw(self, corpus):
        """Direction optimization implies sparse<->bitmap conversions, which
        LAGraph pays inside the timed region (the paper calls this out)."""
        graph = corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        with counters.counting() as work:
            lagraph_bfs(graph, source)
        assert work.extras.get("format_conversions", 0) > 0

    def test_parent_values_are_vertex_ids(self, corpus):
        graph = corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        parents = lagraph_bfs(graph, source)
        reached = parents[parents >= 0]
        assert (reached < graph.num_vertices).all()


class TestLagraphSSSP:
    def test_full_vector_scans_counted(self, corpus):
        """The per-bucket O(n) select is the mechanism behind the paper's
        Road collapse; the counter proves we pay it."""
        graph = weighted_version(corpus["road"])
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        with counters.counting() as work:
            lagraph_sssp(graph, source, delta=64)
        assert work.vertices_touched > graph.num_vertices * 3

    def test_buckets_noted(self, corpus):
        graph = weighted_version(corpus["road"])
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        with counters.counting() as work:
            lagraph_sssp(graph, source, delta=64)
        assert work.extras.get("buckets_processed", 0) > 1


class TestFastSV:
    def test_converges_in_logarithmic_iterations(self, corpus):
        """FastSV's selling point: convergence far below the diameter."""
        graph = corpus["road"]
        with counters.counting() as work:
            fastsv(graph)
        from repro.graphs import approximate_diameter

        assert work.iterations < max(8, approximate_diameter(graph) // 4)

    def test_labels_are_component_minima(self, triangle_graph):
        labels = fastsv(triangle_graph)
        assert labels[0] == labels[1] == labels[2] == 0
        assert labels[3] == 0  # pendant attached to the triangle
        assert labels[4] == labels[7] == 4


class TestLagraphPR:
    def test_structure_only_matrix_access(self, corpus):
        """plus_second never reads adjacency values: weighted and
        unweighted inputs must give identical scores."""
        unweighted = corpus["kron"]
        weighted = weighted_version(unweighted)
        a = lagraph_pagerank(unweighted)
        b = lagraph_pagerank(weighted)
        assert np.array_equal(a, b)


class TestLagraphTC:
    def test_presort_heuristic_fires_on_skew(self, corpus):
        graph = corpus["kron"]
        with counters.counting() as work:
            lagraph_tc(graph)
        assert work.extras.get("relabelled", 0) == 1

    def test_presort_skipped_on_uniform(self, corpus):
        graph = corpus["urand"]
        with counters.counting() as work:
            lagraph_tc(graph)
        assert "relabelled" not in work.extras

    def test_matches_reference(self, triangle_graph):
        assert lagraph_tc(triangle_graph) == 5


class TestInt64Footprint:
    def test_attributes_disclose_index_width(self):
        unmodelled = get("suitesparse").attributes.unmodelled
        assert any("64-bit" in item for item in unmodelled)
