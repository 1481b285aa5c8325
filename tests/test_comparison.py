"""Tests for the paper-data tables, shape comparator, and programmability."""

import numpy as np
import pytest
from scipy import stats

from repro.core.comparison import (
    CellComparison,
    agreement_summary,
    compare_table5,
    framework_rank_correlation,
)
from repro.core.paper_data import (
    PAPER_GRAPH_ORDER,
    PAPER_TABLE4,
    PAPER_TABLE5,
    paper_table4,
    paper_table5,
)
from repro.core.programmability import kernel_sloc, programmability_table
from repro.core.results import ResultSet, RunResult
from repro.errors import UnknownFrameworkError, UnknownKernelError
from repro.frameworks import FRAMEWORK_NAMES, KERNELS, Mode


_RNG = np.random.default_rng(29)

# (paper, measured) per framework; the NumPy coefficient must match SciPy's.
RANK_CASES = {
    "perfect": ([10.0, 20.0, 30.0], [1.0, 2.0, 3.0]),
    "n3": ([5.0, 1.0, 3.0], [2.0, 9.0, 4.0]),
    "reversal": (list(range(1, 31)), list(range(30, 0, -1))),
    "random": (_RNG.random(30) * 400, _RNG.random(30) * 400),
    "random-ties": (_RNG.integers(0, 6, 30), _RNG.integers(0, 4, 30)),
    "random-ties-one-side": (_RNG.integers(0, 3, 30), _RNG.random(30)),
    "constant": ([100.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]),
    "nan": ([1.0, 2.0, 3.0, 4.0], [1.0, float("nan"), 3.0, 4.0]),
}


class TestPaperData:
    def test_complete_coverage(self):
        """Every framework/kernel/mode/graph cell of Table V is present."""
        for framework, kernels in PAPER_TABLE5.items():
            assert set(kernels) == set(KERNELS), framework
            for kernel, modes in kernels.items():
                for mode, values in modes.items():
                    assert mode in ("baseline", "optimized")
                    assert len(values) == 5, (framework, kernel, mode)

    def test_lookup_matches_table(self):
        # Spot checks against the published table.
        assert paper_table5("galois", "bfs", "road", Mode.BASELINE) == 351.04
        assert paper_table5("graphit", "cc", "road", Mode.BASELINE) == 0.17
        assert paper_table5("gkc", "cc", "urand", Mode.BASELINE) == 295.12
        assert paper_table5("suitesparse", "sssp", "road", Mode.BASELINE) == 0.35
        assert paper_table5("nwgraph", "pr", "road", Mode.OPTIMIZED) == 499.59

    def test_table4_lookup(self):
        assert paper_table4("tc", "road", Mode.BASELINE) == 0.028
        assert paper_table4("bfs", "web", Mode.OPTIMIZED) == 0.300
        assert set(PAPER_TABLE4) == set(KERNELS)

    def test_graph_order(self):
        assert PAPER_GRAPH_ORDER == ("web", "twitter", "road", "kron", "urand")


def _result(framework, kernel="bfs", graph="road", mode=Mode.BASELINE, seconds=1.0):
    return RunResult(
        framework=framework,
        kernel=kernel,
        graph=graph,
        mode=mode,
        trial_seconds=[seconds],
    )


class TestComparator:
    def test_direction_logic(self):
        fast = CellComparison("galois", "bfs", "road", Mode.BASELINE, 351.0, 140.0)
        assert fast.agrees
        slow_vs_fast = CellComparison("galois", "bfs", "road", Mode.BASELINE, 351.0, 40.0)
        assert not slow_vs_fast.agrees

    def test_parity_band_is_lenient(self):
        near = CellComparison("gkc", "bc", "kron", Mode.BASELINE, 101.6, 60.0)
        assert near.agrees  # paper value within the parity band

    def test_compare_pairs_cells(self):
        results = ResultSet(
            [
                _result("gap", seconds=1.0),
                _result("galois", seconds=0.5),
            ]
        )
        comparisons = compare_table5(results)
        assert len(comparisons) == 1
        cell = comparisons[0]
        assert cell.measured_percent == 200.0
        assert cell.paper_percent == 351.04
        assert cell.agrees

    def test_summary_counts(self):
        results = ResultSet(
            [
                _result("gap", seconds=1.0),
                _result("galois", seconds=0.5),   # agrees (both fast)
                _result("gap", kernel="cc", seconds=1.0),
                _result("galois", kernel="cc", seconds=0.2),  # paper 84.11: disagree
            ]
        )
        summary = agreement_summary(compare_table5(results))
        assert summary["cells"] == 2
        assert summary["direction_agreement"] == 0.5
        assert len(summary["disagreements"]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # constant input
    @pytest.mark.parametrize("paper, measured", RANK_CASES.values(), ids=RANK_CASES.keys())
    def test_rank_correlation_matches_scipy(self, paper, measured):
        comparisons = [
            CellComparison("x", "bfs", f"g{i}", Mode.BASELINE, float(p), float(m))
            for i, (p, m) in enumerate(zip(paper, measured))
        ]
        rho = framework_rank_correlation(comparisons)["x"]
        expected = stats.spearmanr(paper, measured)[0]
        if np.isnan(expected):
            assert np.isnan(rho)
        else:
            assert rho == pytest.approx(expected, rel=0, abs=1e-12)


class TestProgrammability:
    def test_every_cell_positive(self):
        rows = programmability_table()
        assert len(rows) == len(KERNELS) + 1  # + totals
        for row in rows:
            for framework in FRAMEWORK_NAMES:
                assert row[framework] > 0

    def test_totals_row_sums(self):
        rows = programmability_table()
        totals = rows[-1]
        for framework in FRAMEWORK_NAMES:
            assert totals[framework] == sum(row[framework] for row in rows[:-1])

    def test_suitesparse_tc_most_concise(self):
        """The paper's point: TC in linear algebra is a one-liner formula."""
        algebra = kernel_sloc("suitesparse", "tc")
        assert algebra == min(kernel_sloc(fw, "tc") for fw in FRAMEWORK_NAMES)

    def test_unknown_names_rejected(self):
        with pytest.raises(UnknownFrameworkError):
            kernel_sloc("ligra", "bfs")
        with pytest.raises(UnknownKernelError):
            kernel_sloc("gap", "apsp")


class TestCLI:
    def test_graphs_subcommand(self, capsys):
        from repro.__main__ import main

        assert main(["graphs", "--scale", "8"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "road" in out

    def test_run_subcommand(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "run",
                "--scale",
                "8",
                "--graphs",
                "kron",
                "--kernels",
                "cc",
                "--frameworks",
                "gap,gkc",
                "--modes",
                "baseline",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table V" in out

    def test_unknown_framework_exits(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["run", "--frameworks", "pregel"])

    def test_compare_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main

        results = ResultSet([_result("gap"), _result("galois", seconds=0.4)])
        path = tmp_path / "r.json"
        results.save_json(path)
        assert main(["compare", "--results", str(path)]) == 0
        out = capsys.readouterr().out
        assert "direction agreement" in out

    def test_compare_end_to_end_agreement_summary(self, tmp_path, capsys):
        """The compare subcommand against a full saved campaign: every
        line of the agreement summary must be present and consistent."""
        from repro.__main__ import main

        cells = []
        for index, kernel in enumerate(KERNELS):
            for graph in PAPER_GRAPH_ORDER:
                cells.append(
                    _result("gap", kernel=kernel, graph=graph, seconds=1.0)
                )
                cells.append(
                    _result(
                        "galois",
                        kernel=kernel,
                        graph=graph,
                        seconds=0.5 + 0.05 * index,
                    )
                )
        path = tmp_path / "campaign.json"
        ResultSet(cells).save_json(path)

        assert main(["compare", "--results", str(path)]) == 0
        out = capsys.readouterr().out
        # 6 kernels x 5 graphs x 1 mode for the one non-reference framework.
        assert f"cells: {len(KERNELS) * len(PAPER_GRAPH_ORDER)}" in out
        assert "direction agreement: " in out and "%" in out
        for kernel in KERNELS:
            assert f"'{kernel}'" in out  # per-kernel agreement entries
        assert "per framework:" in out and "'galois'" in out
        assert "rank correlation:" in out

    def test_compare_reads_schema_v2_payload(self, tmp_path, capsys):
        """compare must accept the enveloped (schema_version 2) file the
        runner now writes, not just the legacy bare list."""
        import json

        from repro.__main__ import main

        results = ResultSet(
            [_result("gap"), _result("galois", seconds=0.4)],
            meta={"spec": {"scale": 9}},
        )
        path = tmp_path / "r.json"
        results.save_json(path)
        assert json.loads(path.read_text())["schema_version"] >= 2
        assert main(["compare", "--results", str(path)]) == 0
        assert "direction agreement" in capsys.readouterr().out


class TestCLIExtras:
    def test_generate_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.graphs import read_edge_list

        out = tmp_path / "road.el"
        assert main(["generate", "road", "--scale", "8", "--out", str(out)]) == 0
        graph = read_edge_list(out)
        assert graph.directed
        assert graph.num_edges > 0

    def test_generate_weighted(self, tmp_path):
        from repro.__main__ import main
        from repro.graphs import read_edge_list

        out = tmp_path / "kron.wel"
        main(["generate", "kron", "--scale", "7", "--weighted", "--out", str(out)])
        graph = read_edge_list(out)
        assert graph.is_weighted

    def test_generate_unknown_graph(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["generate", "friendster", "--out", str(tmp_path / "x.el")])

    def test_report_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        results = ResultSet(
            [
                _result("gap", graph="kron"),
                _result("gkc", graph="kron", seconds=0.5),
            ]
        )
        results_path = tmp_path / "r.json"
        results.save_json(results_path)
        report_path = tmp_path / "report.md"
        assert main(
            ["report", "--results", str(results_path), "--out", str(report_path)]
        ) == 0
        assert "Table V" in report_path.read_text(encoding="utf-8")

    def test_run_accepts_extension_framework(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "run", "--scale", "8", "--graphs", "kron", "--kernels", "cc",
                "--frameworks", "gap,ligra", "--modes", "baseline",
            ]
        )
        assert code == 0
        assert "ligra" in capsys.readouterr().out
