"""Unit suite for the shared linear-algebra substrate (``repro.la``).

Each primitive has one implementation; its verbatim pre-port formulation
is the oracle in ``tests/reference/la_oracle.py``.  This suite pins that
primitive and oracle are observationally identical on the cases that
matter (empty/full frontiers, int32/int64 CSR dtypes), that the semiring
products satisfy the algebraic laws the kernels rely on, that the
early-exit pull examines strictly fewer edges while claiming identical
parents, that ``oracle_engine()`` — the only way to run a whole kernel on
the oracle — can neither pass vacuously nor leak, and that no second
engine grows back under ``src/``.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import networkx as nx

import repro.galois.bfs
import repro.gkc.tc
import repro.la
from repro import counters
from repro.core import GraphCase, SourcePicker
from repro.frameworks import Mode, RunContext, get
from repro.frameworks.registry import FRAMEWORK_NAMES
from repro.generators import build_graph
from repro.graphs import forward_adjacency
from repro.la import (
    ALPHA,
    DirectionOptimizer,
    count_closing,
    count_forward_triangles,
    gather_edges,
    masked_pull_claim,
    plus_times_operator,
    spmv_min_plus,
)
from repro.la import intersect
from repro.la.direction import BETA
from repro.la.gather import flat_edge_index, gather_edges_weighted, is_full_range
from tests.reference import la_oracle
from tests.conftest import GRAPHS, to_networkx
from tests.reference.la_oracle import oracle_engine

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def kron_case():
    return GraphCase.build("kron", scale=7)


@pytest.fixture(scope="module")
def kron(kron_case):
    return kron_case.graph


def _csr(dtype):
    """A small fixed CSR: 5 vertices, ragged rows including an empty one."""
    indptr = np.array([0, 2, 5, 5, 6, 8], dtype=dtype)
    indices = np.array([1, 3, 0, 2, 4, 4, 1, 2], dtype=dtype)
    weights = np.arange(1, 9, dtype=np.float64)
    return indptr, indices, weights


ORACLES = {getattr(la_oracle, name) for name in la_oracle.__all__} - {oracle_engine}


def _oracle_bindings() -> list[str]:
    """``module.attr`` of every loaded ``repro.*`` attribute that is an oracle."""
    return sorted(
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if module is not None and name.partition(".")[0] == "repro"
        for attr, value in list(vars(module).items())
        if isinstance(value, types.FunctionType) and value in ORACLES
    )


def _fresh_interpreter(code: str, **env: str) -> str:
    """Run ``code`` in a new interpreter (no module loaded yet); its stdout."""
    path = os.pathsep.join([str(SRC), str(REPO_ROOT)])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class _NumpySpy:
    """Stands in for ``la_oracle.np``: records the NumPy names the oracle used."""

    def __init__(self):
        self.used = set()

    def __getattr__(self, name):
        self.used.add(name)
        return getattr(np, name)


class TestOracleEngine:
    """The swap must reach every kernel, and must be gone afterwards."""

    def test_swaps_every_binding_and_restores(self):
        assert _oracle_bindings() == []
        with oracle_engine():
            assert repro.galois.bfs.gather_edges is la_oracle.gather_edges
            bound = _oracle_bindings()
            # Importers, the package re-exports and the defining modules.
            assert "repro.la.hooking.gather_edges" in bound
            assert "repro.galois.afforest" in bound
            assert "repro.la.plus_times_operator" in bound
            assert "repro.la.frontier.unique_ids" in bound
            assert "repro.semiring.ops.first_occurrence_mask" in bound
        assert _oracle_bindings() == []
        assert repro.galois.bfs.gather_edges is gather_edges

    def test_kernels_execute_the_oracle(self, kron_case, monkeypatch):
        spy = _NumpySpy()
        monkeypatch.setattr(la_oracle, "np", spy)
        gap = get("gap")
        source = SourcePicker(kron_case.graph, seed=0).next_source()

        def run():
            gap.bfs(kron_case.graph, source, RunContext())
            return gap.triangle_count(kron_case.undirected, RunContext())

        triangles = run()
        assert spy.used == set(), "the default engine reached the oracle module"
        with oracle_engine():
            assert run() == triangles
        # claim_first_writer's sort and the per-vertex intersection loop.
        assert {"unique", "searchsorted"} <= spy.used

    def test_restores_after_an_exception(self):
        with pytest.raises(ZeroDivisionError):
            with oracle_engine():
                1 / 0
        assert _oracle_bindings() == []

    def test_nesting_is_rejected(self):
        with oracle_engine():
            with pytest.raises(RuntimeError, match="does not nest"):
                with oracle_engine():
                    pass
            # The refused inner call left the outer swap in place ...
            assert repro.galois.bfs.gather_edges is la_oracle.gather_edges
        # ... and the outer exit still restores everything.
        assert _oracle_bindings() == []

    def test_framework_first_fetched_inside_is_optimized_afterwards(self):
        """In a new interpreter nothing is loaded: ``get`` inside the block
        must find modules the engine imported *before* it swapped."""
        out = _fresh_interpreter(
            "import sys\n"
            "from tests.reference import la_oracle\n"
            "from repro.frameworks import get\n"
            "assert 'repro.galois' not in sys.modules\n"
            "with la_oracle.oracle_engine():\n"
            "    get('galois')\n"
            "    import repro.galois.bfs as bfs\n"
            "    assert bfs.gather_edges is la_oracle.gather_edges\n"
            "from repro.la import gather_edges\n"
            "assert bfs.gather_edges is gather_edges\n"
            "print('ok')\n"
        )
        assert out.strip() == "ok"


class TestOneEngine:
    """``masked_pull_claim`` obeys its argument; nothing else selects a path."""

    # kron scale 7, SourcePicker seed 0 — the case tests/test_counter_regression
    # pins TestEarlyExitPull on.
    FULL_SCAN_EDGES = 919
    EARLY_EXIT_EDGES = 423

    def test_optimized_bfs_reports_the_early_exit_count(self, kron_case):
        source = SourcePicker(kron_case.graph, seed=0).next_source()
        examined = {}
        for mode in (Mode.BASELINE, Mode.OPTIMIZED):
            with counters.counting() as work:
                get("gap").bfs(kron_case.graph, source, RunContext(mode=mode))
            examined[mode] = work.edges_examined
        assert examined == {
            Mode.BASELINE: self.FULL_SCAN_EDGES,
            Mode.OPTIMIZED: self.EARLY_EXIT_EDGES,
        }

    def test_process_state_cannot_change_the_count(self):
        """The removed switch read this variable at import; with it set the
        same call used to report the full-scan count under the same digest."""
        out = _fresh_interpreter(
            "from repro import counters\n"
            "from repro.core import GraphCase, SourcePicker\n"
            "from repro.frameworks import Mode, RunContext, get\n"
            "case = GraphCase.build('kron', scale=7)\n"
            "source = SourcePicker(case.graph, seed=0).next_source()\n"
            "with counters.counting() as work:\n"
            "    get('gap').bfs(case.graph, source, RunContext(mode=Mode.OPTIMIZED))\n"
            "print(work.edges_examined)\n",
            REPRO_LA_DISABLE="1",
        )
        assert int(out) == self.EARLY_EXIT_EDGES

    def test_no_switch_or_reference_path_under_src(self):
        banned_anywhere = ("REPRO_LA_DISABLE", "use_substrate", "set_enabled", "la_config")
        banned_in_la = ("from . import config", "def _reference", "def reference")
        offenders = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            text = path.read_text()
            banned = banned_anywhere + (
                banned_in_la if path.parent.name == "la" else ()
            )
            offenders += [
                f"{path.relative_to(SRC)}: {needle}" for needle in banned if needle in text
            ]
        assert offenders == []
        assert not (SRC / "repro" / "la" / "config.py").exists()

    def test_no_tc_kernel_keeps_its_own_loop_or_search(self):
        """Every wedge-checking TC closes through ``repro.la.intersect``."""
        offenders = [
            f"{path.relative_to(SRC)}: {needle}"
            for path in sorted((SRC / "repro").glob("*/tc.py"))
            for needle in ("for u in", "searchsorted")
            if needle in path.read_text()
        ]
        assert offenders == []

    def test_every_exported_primitive_has_a_caller(self):
        """A name in ``repro.la.__all__`` earns its place by being imported
        somewhere under ``src/repro`` outside ``la/``."""
        allowed = {
            # No kernel calls these, but the frozen benchmark's repro.la
            # layer probe (benchmarks/suite/campaigns.py) imports and times
            # them (PageRank's products are la.row_blocks now).
            "spmv_min_plus",
            "plus_times_operator",
            # The two steps of the one traversal: their callers are inside
            # ``la/direction.py`` now, and the same probe times them.
            "claim_first_writer",
            "masked_pull_claim",
        }
        imported = set()
        for path in (SRC / "repro").rglob("*.py"):
            if path.parent.name == "la":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom) or not node.module:
                    continue
                parts = node.module.split(".")
                if (node.level and parts[0] == "la") or parts[:2] == ["repro", "la"]:
                    imported.update(alias.name for alias in node.names)
        assert set(repro.la.__all__) - imported == allowed


class TestGather:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_reference(self, dtype):
        indptr, indices, weights = _csr(dtype)
        rows = np.array([0, 1, 2, 4], dtype=dtype)
        src_o, tgt_o = gather_edges(indptr, indices, rows)
        src_r, tgt_r = la_oracle.gather_edges(indptr, indices, rows)
        np.testing.assert_array_equal(src_o, src_r)
        np.testing.assert_array_equal(tgt_o, tgt_r)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_weighted_matches_reference(self, dtype):
        indptr, indices, weights = _csr(dtype)
        rows = np.array([1, 3], dtype=dtype)
        out_o = gather_edges_weighted(indptr, indices, weights, rows)
        out_r = la_oracle.gather_edges_weighted(indptr, indices, weights, rows)
        for a, b in zip(out_o, out_r):
            np.testing.assert_array_equal(a, b)

    def test_empty_frontier(self):
        indptr, indices, _ = _csr(np.int64)
        for gather in (gather_edges, la_oracle.gather_edges):
            src, tgt = gather(indptr, indices, np.empty(0, dtype=np.int64))
            assert src.size == 0 and tgt.size == 0

    def test_empty_rows_only(self):
        indptr, indices, _ = _csr(np.int64)
        src, tgt = gather_edges(indptr, indices, np.array([2], dtype=np.int64))
        assert src.size == 0 and tgt.size == 0

    def test_full_range_fast_path_is_view(self):
        indptr, indices, weights = _csr(np.int64)
        rows = np.arange(5, dtype=np.int64)
        src, tgt, w = gather_edges_weighted(indptr, indices, weights, rows)
        assert tgt is indices and w is weights
        reference = la_oracle.gather_edges_weighted(indptr, indices, weights, rows)
        for got, expected in zip((src, tgt, w), reference):
            np.testing.assert_array_equal(got, expected)

    def test_is_full_range(self):
        assert is_full_range(np.arange(5, dtype=np.int64), 5)
        assert not is_full_range(np.arange(4, dtype=np.int64), 5)
        assert not is_full_range(np.array([0, 1, 2, 3, 3]), 5)
        assert is_full_range(np.empty(0, dtype=np.int64), 0)

    def test_flat_index_engines_agree_on_graph(self, kron):
        rows = np.flatnonzero(np.diff(kron.indptr) > 0)[::3]
        o = flat_edge_index(kron.indptr, rows)
        r = la_oracle.flat_edge_index(kron.indptr, rows)
        np.testing.assert_array_equal(o[0], r[0])
        np.testing.assert_array_equal(o[1], r[1])
        assert o[2] == r[2]


def _random_groups(rng, dtype, n=40, num_groups=300):
    """A sorted-row CSR and closing groups with every awkward shape."""
    dense = rng.random((n, n)) < 0.15
    dense[n - 1, ::3] = True  # the last row is non-empty and gets anchored
    indptr = np.concatenate([[0], np.cumsum(dense.sum(axis=1))]).astype(np.int64)
    indices = np.nonzero(dense)[1].astype(dtype)
    anchors = np.sort(rng.integers(0, n, size=num_groups))  # repeats
    anchors[-5:] = n - 1
    starts = rng.integers(0, indices.size, size=num_groups)
    lengths = np.minimum(rng.integers(0, 12, size=num_groups), indices.size - starts)
    lengths[::7] = 0
    return dense, indptr, indices, anchors, starts, lengths


class TestCountClosing:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("block_wedges", [1, 7, 1 << 20])
    def test_matches_oracle_and_definition(self, dtype, block_wedges):
        dense, indptr, indices, anchors, starts, lengths = _random_groups(
            np.random.default_rng(11), dtype
        )
        by_definition = sum(
            int(dense[a, indices[s: s + k]].sum())
            for a, s, k in zip(anchors, starts, lengths)
        )
        args = (indptr, indices, anchors, starts, lengths, block_wedges)
        assert count_closing(*args) == la_oracle.count_closing(*args) == by_definition
        assert by_definition > 0

    def test_no_groups(self):
        indptr, indices, _ = _csr(np.int64)
        empty = np.empty(0, dtype=np.int64)
        assert count_closing(indptr, indices, empty, empty, empty, 8) == 0
        zero = np.zeros(3, dtype=np.int64)
        assert count_closing(indptr, indices, zero, zero, zero, 8) == 0

    def test_stamps_do_not_outlive_their_block(self, monkeypatch):
        """One row per block: block 1 re-uses the very slots block 0 stamped.
        Row 0 holds {2, 3}; the second group asks whether 2 or 3 lie in row 1
        (= {4}) — they would, had block 0's stamps not been taken back."""
        indptr = np.array([0, 2, 3, 3, 3, 3], dtype=np.int64)
        indices = np.array([2, 3, 4], dtype=np.int64)
        monkeypatch.setattr(intersect, "STAMP_BLOCK_BYTES", 5)
        anchors = np.array([0, 1], dtype=np.int64)
        starts = np.array([0, 0], dtype=np.int64)
        lengths = np.array([2, 2], dtype=np.int64)
        assert count_closing(indptr, indices, anchors, starts, lengths, 1 << 20) == 2
        assert count_closing(
            indptr, indices, anchors[1:], starts[1:], lengths[1:], 1 << 20
        ) == 0

    @pytest.mark.parametrize("budget", [1, 100, 1 << 12])
    def test_stamp_table_is_bounded_by_the_budget(self, kron, monkeypatch, budget):
        sizes = []

        class _Recorder(_NumpySpy):
            def zeros(self, shape, dtype=float):
                sizes.append(int(np.prod(shape)) * np.dtype(dtype).itemsize)
                return np.zeros(shape, dtype=dtype)

        monkeypatch.setattr(intersect, "STAMP_BLOCK_BYTES", budget)
        monkeypatch.setattr(intersect, "np", _Recorder())
        fwd = forward_adjacency(kron)
        assert count_forward_triangles(*fwd) == la_oracle.count_forward_triangles(*fwd)
        assert sizes and max(sizes) <= max(budget, kron.num_vertices)


class TestTriangleCounting:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_forward_count_matches_oracle(self, kron, dtype):
        indptr, indices = forward_adjacency(kron)
        indices = indices.astype(dtype)
        with counters.counting() as work:
            triangles = count_forward_triangles(indptr, indices)
        with counters.counting() as ref_work:
            ref_triangles = la_oracle.count_forward_triangles(indptr, indices)
        assert (triangles, work) == (ref_triangles, ref_work)
        assert triangles > 0 and work.edges_examined > 0

    def test_empty_forward_adjacency(self):
        with counters.counting() as work:
            triangles = count_forward_triangles(
                np.zeros(4, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
        assert (triangles, work.edges_examined) == (0, 0)

    def test_block_boundaries_change_neither_count_nor_work(self, kron_case, monkeypatch):
        """One row per stamp block, one group per wedge block."""
        graph = kron_case.undirected

        def run_all():
            out = {}
            for name in FRAMEWORK_NAMES:
                with counters.counting() as work:
                    triangles = get(name).triangle_count(graph)
                out[name] = (triangles, work.edges_examined)
            return out

        expected = run_all()
        monkeypatch.setattr(intersect, "STAMP_BLOCK_BYTES", graph.num_vertices)
        monkeypatch.setattr(intersect, "INTERSECT_BLOCK_EDGES", 1)
        monkeypatch.setattr(repro.gkc.tc, "WEDGE_BLOCK", 1)
        assert run_all() == expected
        assert len({triangles for triangles, _ in expected.values()}) == 1

    @pytest.mark.parametrize("graph_name", GRAPHS)
    def test_every_framework_matches_networkx(self, graph_name):
        graph = build_graph(graph_name, scale=8)
        undirected = graph.to_undirected() if graph.directed else graph
        expected = sum(nx.triangles(to_networkx(undirected)).values()) // 3
        for name in FRAMEWORK_NAMES:
            assert get(name).triangle_count(undirected) == expected, name


class TestPlusTimes:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_dense_product(self, weighted):
        indptr, indices, weights = _csr(np.int64)
        data = weights if weighted else None
        x = np.array([0.5, -1.0, 2.0, 0.0, 3.0])
        dense = np.zeros((5, 5))
        for row in range(5):
            for pos in range(indptr[row], indptr[row + 1]):
                dense[row, indices[pos]] += data[pos] if weighted else 1.0
        for build in (plus_times_operator, la_oracle.plus_times_operator):
            op = build(indptr, indices, data)
            np.testing.assert_allclose(op(x), dense @ x, atol=1e-12)

    def test_distributes_over_addition(self):
        """(+, x) law the PageRank sweep relies on: A(x + y) = Ax + Ay."""
        indptr, indices, _ = _csr(np.int64)
        op = plus_times_operator(indptr, indices)
        rng = np.random.default_rng(0)
        x, y = rng.random(5), rng.random(5)
        np.testing.assert_allclose(op(x + y), op(x) + op(y), atol=1e-12)


class TestMinPlus:
    def test_matches_dense_tropical(self):
        indptr, indices, weights = _csr(np.int64)
        x = np.array([0.0, 1.0, np.inf, 2.0, 0.5])
        expected = np.full(5, np.inf)
        for row in range(5):
            for pos in range(indptr[row], indptr[row + 1]):
                expected[row] = min(expected[row], weights[pos] + x[indices[pos]])
        for product in (spmv_min_plus, la_oracle.spmv_min_plus):
            got = product(indptr, indices, weights, x)
            np.testing.assert_array_equal(got, expected)

    def test_empty_matrix(self):
        indptr = np.zeros(4, dtype=np.int64)
        got = spmv_min_plus(indptr, np.empty(0, dtype=np.int64), np.empty(0), np.zeros(3))
        assert np.all(np.isinf(got))

    def test_inf_identity_absorbed(self):
        """min's identity: an unreachable source never improves a row."""
        indptr, indices, weights = _csr(np.int64)
        x = np.full(5, np.inf)
        got = spmv_min_plus(indptr, indices, weights, x)
        assert np.all(np.isinf(got))


class TestMaskedPullClaim:
    def _setup(self, graph, frontier_ids):
        parents = np.full(graph.num_vertices, -1, dtype=np.int64)
        parents[frontier_ids] = frontier_ids
        bits = np.zeros(graph.num_vertices, dtype=bool)
        bits[frontier_ids] = True
        unvisited = np.flatnonzero(parents < 0)
        return parents, bits, unvisited

    @pytest.mark.parametrize("graph_name", ["kron", "road"])
    def test_early_exit_matches_full_scan_with_fewer_edges(self, graph_name):
        graph = GraphCase.build(graph_name, scale=7).graph
        frontier = np.arange(0, graph.num_vertices, 3, dtype=np.int64)
        parents_full, bits, unvisited = self._setup(graph, frontier)
        fresh_full, edges_full = masked_pull_claim(
            graph.in_indptr, graph.in_indices, unvisited, bits,
            parents_full, early_exit=False,
        )
        parents_fast, bits, unvisited = self._setup(graph, frontier)
        fresh_fast, edges_fast = masked_pull_claim(
            graph.in_indptr, graph.in_indices, unvisited, bits,
            parents_fast, early_exit=True,
        )
        np.testing.assert_array_equal(fresh_full, fresh_fast)
        np.testing.assert_array_equal(parents_full, parents_fast)
        assert edges_fast <= edges_full
        # With a third of all vertices in the frontier most rows hit early.
        assert edges_fast < edges_full

    def test_oracle_pull_is_always_the_full_scan(self, kron):
        """Counter-parity rule 3: the pre-port pull had no early exit."""
        frontier = np.arange(0, kron.num_vertices, 3, dtype=np.int64)
        edges = {}
        for early_exit in (False, True):
            parents, bits, unvisited = self._setup(kron, frontier)
            _, edges[early_exit] = la_oracle.masked_pull_claim(
                kron.in_indptr, kron.in_indices, unvisited, bits,
                parents, early_exit=early_exit,
            )
        parents, bits, unvisited = self._setup(kron, frontier)
        _, full = masked_pull_claim(
            kron.in_indptr, kron.in_indices, unvisited, bits, parents
        )
        assert edges == {False: full, True: full}

    def test_adopted_parent_is_first_frontier_in_neighbor(self, kron):
        frontier = np.array([0, 1, 2, 3], dtype=np.int64)
        parents, bits, unvisited = self._setup(kron, frontier)
        fresh, _ = masked_pull_claim(
            kron.in_indptr, kron.in_indices, unvisited, bits, parents
        )
        for v in fresh[:50]:
            row = kron.in_indices[kron.in_indptr[v]: kron.in_indptr[v + 1]]
            in_frontier = row[bits[row]]
            assert parents[v] == in_frontier[0]

    def test_empty_unvisited(self, kron):
        parents = np.arange(kron.num_vertices, dtype=np.int64)
        bits = np.ones(kron.num_vertices, dtype=bool)
        fresh, examined = masked_pull_claim(
            kron.in_indptr, kron.in_indices,
            np.empty(0, dtype=np.int64), bits, parents,
        )
        assert fresh.size == 0 and examined == 0


class TestDirectionOptimizer:
    def test_beamer_constants(self):
        assert ALPHA == 15 and BETA == 18

    def test_pull_trigger_matches_legacy_inequality(self):
        policy = DirectionOptimizer(num_vertices=100, num_edges=1000)
        # Legacy: scout > max(edges_remaining, 1) // ALPHA
        assert not policy.wants_pull(1000 // ALPHA)
        assert policy.wants_pull(1000 // ALPHA + 1)

    def test_charge_decrements_remaining(self):
        policy = DirectionOptimizer(num_vertices=10, num_edges=50)
        policy.charge(30)
        assert policy.edges_remaining == 20
        # Remaining can go negative; the max(..., 1) guard keeps pull armed.
        policy.charge(40)
        assert policy.wants_pull(1)

    def test_frontier_is_small_boundary(self):
        policy = DirectionOptimizer(num_vertices=180, num_edges=1000)
        # Legacy loop pulls while frontier.size > n // BETA, i.e. resumes
        # pushing at size <= n // BETA.
        assert policy.frontier_is_small(180 // BETA)
        assert not policy.frontier_is_small(180 // BETA + 1)
