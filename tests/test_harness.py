"""Tests for the benchmark harness: spec, runner, results, tables."""

import numpy as np
import pytest

from repro.core import BenchmarkSpec, GraphCase, ResultSet, RunResult, SourcePicker, run_cell, run_suite
from repro.core.tables import (
    render,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from repro.errors import BenchmarkConfigError
from repro.frameworks import KERNELS, Mode, get
from repro.generators import build_corpus


TINY_SPEC = BenchmarkSpec(
    scale=8,
    trials={k: 1 for k in KERNELS},
)


class TestSpec:
    def test_defaults(self):
        spec = BenchmarkSpec()
        assert spec.num_trials("bfs") >= 1
        assert spec.delta_for("road") > spec.delta_for("twitter")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(BenchmarkConfigError):
            BenchmarkSpec(trials={"pagerank": 3})

    def test_zero_trials_rejected(self):
        with pytest.raises(BenchmarkConfigError):
            BenchmarkSpec(trials={"bfs": 0})

    def test_unknown_graph_delta_default(self):
        assert BenchmarkSpec().delta_for("mystery") == 16


class TestSourcePicker:
    def test_deterministic(self, corpus):
        graph = corpus["kron"]
        a = SourcePicker(graph, seed=1)
        b = SourcePicker(graph, seed=1)
        assert [a.next_source() for _ in range(5)] == [
            b.next_source() for _ in range(5)
        ]

    def test_sources_have_out_degree(self, corpus):
        graph = corpus["road"]
        picker = SourcePicker(graph, seed=0)
        for _ in range(10):
            assert graph.out_degree(picker.next_source()) > 0

    def test_batch_distinct(self, corpus):
        picker = SourcePicker(corpus["kron"], seed=0)
        batch = picker.next_sources(4)
        assert len(set(batch.tolist())) == 4

    def test_rejects_empty_graph(self):
        from repro.graphs import CSRGraph

        empty = CSRGraph.from_arrays(
            3, np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        with pytest.raises(BenchmarkConfigError):
            SourcePicker(empty)


class TestRunner:
    @pytest.fixture(scope="class")
    def case(self):
        return GraphCase.build("kron", scale=8)

    def test_case_bundles(self, case):
        assert case.weighted.is_weighted
        assert not case.undirected.directed

    def test_undirected_input_aliases_undirected_view(self, case):
        """kron is generated undirected: no symmetrized copy is made."""
        assert not case.graph.directed
        assert case.undirected is case.graph

    def test_directed_input_gets_symmetrized_copy(self):
        case = GraphCase.build("road", scale=7)
        assert case.graph.directed
        assert case.undirected is not case.graph
        assert not case.undirected.directed
        # Symmetrization only adds missing reverse edges, never drops any.
        assert case.undirected.num_edges >= case.graph.num_edges

    def test_weighted_view_preserves_directedness(self):
        for name in ("road", "kron"):
            case = GraphCase.build(name, scale=7)
            assert case.weighted.directed == case.graph.directed
            assert case.weighted.num_edges == case.graph.num_edges
            assert case.weighted.is_weighted
            assert not case.graph.is_weighted

    def test_already_weighted_input_is_aliased(self):
        from repro.generators import build_graph, weighted_version

        graph = weighted_version(build_graph("kron", scale=7))
        case = GraphCase.from_graph("kron", graph)
        assert case.weighted is graph

    def test_undirected_view_never_carries_weights(self):
        """TC runs unweighted; the undirected view must match the base graph."""
        for name in ("road", "kron"):
            case = GraphCase.build(name, scale=7)
            assert not case.undirected.is_weighted

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_run_cell_each_kernel(self, case, kernel):
        result = run_cell(get("gap"), kernel, case, Mode.BASELINE, TINY_SPEC)
        assert result.kernel == kernel
        assert len(result.trial_seconds) == 1
        assert result.seconds > 0
        assert result.verified

    def test_run_cell_counters_populated(self, case):
        result = run_cell(get("gap"), "pr", case, Mode.BASELINE, TINY_SPEC)
        assert result.iterations > 0
        assert result.edges_examined > 0

    def test_run_suite_shape(self):
        results = run_suite(
            [get("gap"), get("gkc")],
            ["kron"],
            kernels=["bfs", "tc"],
            modes=[Mode.BASELINE],
            spec=TINY_SPEC,
        )
        assert len(results) == 4
        assert results.one("gkc", "tc", "kron", Mode.BASELINE) is not None

    def test_progress_callback(self):
        seen = []
        run_suite(
            [get("gap")],
            ["kron"],
            kernels=["cc"],
            modes=[Mode.BASELINE],
            spec=TINY_SPEC,
            progress=seen.append,
        )
        assert seen == ["baseline/kron/cc/gap"]


class TestResults:
    def _result(self, framework="gap", seconds=(0.5, 1.5)):
        return RunResult(
            framework=framework,
            kernel="bfs",
            graph="kron",
            mode=Mode.BASELINE,
            trial_seconds=list(seconds),
        )

    def test_average_and_best(self):
        r = self._result()
        assert r.seconds == 1.0
        assert r.best_seconds == 0.5

    def test_lookup_filters(self):
        rs = ResultSet([self._result("gap"), self._result("gkc")])
        assert len(rs.lookup(framework="gkc")) == 1
        assert len(rs.lookup(kernel="bfs")) == 2
        assert rs.one("gap", "bfs", "kron", Mode.BASELINE).framework == "gap"

    def test_json_roundtrip(self, tmp_path):
        rs = ResultSet([self._result()])
        path = tmp_path / "r.json"
        rs.save_json(path)
        back = ResultSet.load_json(path)
        assert len(back) == 1
        assert back.results[0].seconds == 1.0
        assert back.results[0].mode is Mode.BASELINE

    def test_frameworks_order(self):
        rs = ResultSet([self._result("gap"), self._result("gkc"), self._result("gap")])
        assert rs.frameworks() == ["gap", "gkc"]


class TestTables:
    @pytest.fixture(scope="class")
    def small_results(self):
        return run_suite(
            [get("gap"), get("gkc")],
            ["kron"],
            kernels=["bfs", "tc"],
            modes=[Mode.BASELINE, Mode.OPTIMIZED],
            spec=TINY_SPEC,
        )

    def test_table1(self):
        corpus = build_corpus(scale=8)
        rows = table1_rows(corpus)
        assert len(rows) == 5
        road = next(r for r in rows if r["Name"] == "road")
        assert road["Directed"] == "Y"
        assert road["Paper Diameter"] == 6304

    def test_table2_all_frameworks(self):
        rows = table2_rows()
        assert len(rows) == 6
        assert any("GraphIt" in row["Framework"] for row in rows)

    def test_table3_matches_paper_algorithms(self):
        rows = table3_rows()
        by_task = {row["Task"]: row for row in rows}
        assert "Afforest" in by_task["CC"]["gap"]
        assert "FastSV" in by_task["CC"]["suitesparse"]
        assert "Label propagation" in by_task["CC"]["graphit"]
        assert "Shiloach-Vishkin" in by_task["CC"]["gkc"]
        assert "Gauss-Seidel" in by_task["PR"]["galois"]
        assert "Jacobi" in by_task["PR"]["gap"]

    def test_table4_winner_fields(self, small_results):
        rows = table4_rows(small_results, ["kron"])
        bfs_row = next(r for r in rows if r["Kernel"] == "BFS")
        assert bfs_row["baseline:kron"] is not None
        assert bfs_row["baseline:kron:winner"] in ("gap", "gkc")

    def test_table5_reference_excluded(self, small_results):
        rows = table5_rows(small_results, ["kron"])
        assert all(row["Framework"] != "gap" for row in rows)
        assert any(row["baseline:kron"] is not None for row in rows)

    def test_rows_only_for_kernels_the_results_hold(self):
        results = ResultSet(
            [
                RunResult(framework, "bfs", "kron", mode, [0.5])
                for framework in ("gap", "gkc", "galois")
                for mode in (Mode.BASELINE, Mode.OPTIMIZED)
            ]
        )
        assert [row["Kernel"] for row in table4_rows(results, ["kron"])] == ["BFS"]
        rows = table5_rows(results, ["kron"])
        assert [(row["Framework"], row["Kernel"]) for row in rows] == [
            ("gkc", "BFS"),
            ("galois", "BFS"),
        ]
        assert rows[0]["baseline:kron"] == 100.0

    def test_render(self, small_results):
        text = render(table4_rows(small_results, ["kron"]), title="T4")
        assert text.startswith("T4")
        assert "BFS" in text

    def test_render_empty(self):
        assert "(no rows)" in render([])


class TestStability:
    def test_run_result_statistics(self):
        from repro.core.results import RunResult

        steady = RunResult("gap", "bfs", "kron", Mode.BASELINE, [1.0, 1.0, 1.0])
        jittery = RunResult("gap", "bfs", "road", Mode.BASELINE, [1.0, 2.0, 3.0])
        assert steady.stddev_seconds == 0.0
        assert steady.variation == 0.0
        assert jittery.stddev_seconds == pytest.approx(1.0)
        assert jittery.variation == pytest.approx(0.5)

    def test_single_trial_zero_variation(self):
        from repro.core.results import RunResult

        single = RunResult("gap", "bfs", "kron", Mode.BASELINE, [1.0])
        assert single.variation == 0.0

    def test_stability_rows_structure(self):
        from repro.core.results import RunResult, ResultSet
        from repro.core.tables import stability_rows

        results = ResultSet(
            [
                RunResult("gap", "bfs", "road", Mode.BASELINE, [1.0, 3.0]),
                RunResult("gap", "bfs", "kron", Mode.BASELINE, [1.0, 1.0]),
            ]
        )
        rows = {row["Graph"]: row for row in stability_rows(results, ["road", "kron"])}
        assert rows["road"]["Mean CV"] > rows["kron"]["Mean CV"]
        assert rows["road"]["Cells"] == 1
