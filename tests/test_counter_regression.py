"""Counter regression tests: instrumentation must not silently rot.

The work counters are the machine-independent half of every comparison in
this repo (edges examined, rounds, iterations).  A framework that stops
reporting into them would silently degrade the work-efficiency tables to
zeros, so this module pins, for every registered framework, that BFS and
CC on a fixed graph actually populate them with sane values.
"""

import json
from pathlib import Path

import pytest

from repro.core import BenchmarkSpec, GraphCase, SourcePicker, counters, run_cell, run_suite
from repro.frameworks import KERNELS, Mode, RunContext, all_frameworks, get
from repro.frameworks.registry import EXTENDED_FRAMEWORK_NAMES
from repro.generators import GRAPH_NAMES

COUNTER_SCALE = 7
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def case():
    return GraphCase.build("kron", scale=COUNTER_SCALE)


@pytest.fixture(scope="module")
def source(case):
    return SourcePicker(case.graph, seed=0).next_source()


@pytest.mark.parametrize("framework_name", EXTENDED_FRAMEWORK_NAMES)
def test_bfs_populates_counters(case, source, framework_name):
    framework = get(framework_name)
    with counters.counting() as work:
        framework.bfs(case.graph, source, RunContext())
    assert work.edges_examined > 0, f"{framework_name} BFS reported no edges"
    # A BFS does at least one frontier round and at most |V| of them.
    assert 0 < work.rounds <= case.graph.num_vertices


@pytest.mark.parametrize("framework_name", EXTENDED_FRAMEWORK_NAMES)
def test_cc_populates_counters(case, framework_name):
    framework = get(framework_name)
    with counters.counting() as work:
        framework.connected_components(case.graph, RunContext())
    assert work.edges_examined > 0, f"{framework_name} CC reported no edges"
    # CC progresses in rounds (label prop / SV) or sweeps (Afforest, FastSV).
    passes = work.rounds + work.iterations
    assert 0 < passes <= case.graph.num_vertices


@pytest.mark.parametrize("framework_name", EXTENDED_FRAMEWORK_NAMES)
def test_run_cell_records_bfs_counters(case, framework_name):
    """The counters must survive the runner and land on the RunResult."""
    spec = BenchmarkSpec(scale=COUNTER_SCALE, trials={k: 1 for k in KERNELS})
    result = run_cell(get(framework_name), "bfs", case, Mode.BASELINE, spec)
    assert result.edges_examined > 0
    assert result.rounds > 0


def test_counters_isolated_between_runs(case, source):
    """A second run must not inherit the first run's counts."""
    framework = get("gap")
    with counters.counting() as first:
        framework.bfs(case.graph, source, RunContext())
    with counters.counting() as second:
        framework.bfs(case.graph, source, RunContext())
    assert second.edges_examined == first.edges_examined
    assert second.rounds == first.rounds


class TestEarlyExitPull:
    """The optimized pull step must report *less* work, not different answers.

    ``gapbs.bfs.pull_step`` historically scanned every unvisited vertex's
    whole in-adjacency even after finding a frontier parent.  The substrate's
    chunked early exit stops each row at its first hit; these pins assert the
    parents are identical and the edge count strictly drops (the whole point
    of the optimization), and that Baseline mode keeps full-scan counts.
    """

    def test_early_exit_same_parents_fewer_edges(self, case, source):
        from repro.gapbs.bfs import direction_optimizing_bfs

        with counters.counting() as full:
            parents_full = direction_optimizing_bfs(
                case.graph, source, pull_early_exit=False
            )
        with counters.counting() as fast:
            parents_fast = direction_optimizing_bfs(
                case.graph, source, pull_early_exit=True
            )
        assert (parents_full == parents_fast).all()
        assert fast.rounds == full.rounds
        assert fast.edges_examined < full.edges_examined, (
            "early-exit pull must strictly reduce edges examined on kron "
            f"(got {fast.edges_examined} vs full {full.edges_examined})"
        )

    def test_mode_selects_scan_policy(self, case, source):
        from repro.frameworks import Mode

        framework = get("gap")
        with counters.counting() as baseline:
            framework.bfs(case.graph, source, RunContext(mode=Mode.BASELINE))
        with counters.counting() as optimized:
            framework.bfs(case.graph, source, RunContext(mode=Mode.OPTIMIZED))
        # Baseline keeps the paper-parity full scan; Optimized may not
        # exceed it and on kron must beat it.
        assert optimized.edges_examined < baseline.edges_examined


def _sync_pull_bfs_variants():
    """The non-GAP sync-pull BFS entry points that grew early-exit pulls."""
    from repro.galois.bfs import sync_bfs
    from repro.gkc.bfs import gkc_bfs
    from repro.nwgraph.bfs import nwgraph_bfs

    return [("galois", sync_bfs), ("gkc", gkc_bfs), ("nwgraph", nwgraph_bfs)]


class TestSyncPullEarlyExit:
    """Satellite pins: galois/gkc/nwgraph sync pulls share the kernel.

    Each framework's pull now goes through ``la.spmv.masked_pull_claim``;
    Optimized mode flips on the chunked early exit.  These pins assert,
    per framework, that the early-exit pull finds byte-identical parents
    while examining strictly fewer edges on kron (where nearly every
    pulled row has a frontier in-neighbor in its first few in-edges),
    and that the adapters key the policy off the run mode.
    """

    @pytest.mark.parametrize(
        "name,bfs_fn",
        _sync_pull_bfs_variants(),
        ids=[n for n, _ in _sync_pull_bfs_variants()],
    )
    def test_same_parents_strictly_fewer_edges(self, case, source, name, bfs_fn):
        with counters.counting() as full:
            parents_full = bfs_fn(case.graph, source, pull_early_exit=False)
        with counters.counting() as fast:
            parents_fast = bfs_fn(case.graph, source, pull_early_exit=True)
        assert (parents_full == parents_fast).all(), name
        assert fast.rounds == full.rounds, name
        assert fast.edges_examined < full.edges_examined, (
            f"{name}: early-exit pull must strictly reduce edges examined "
            f"(got {fast.edges_examined} vs full {full.edges_examined})"
        )

    @pytest.mark.parametrize("framework_name", ["gkc", "nwgraph"])
    def test_adapter_mode_selects_scan_policy(self, case, source, framework_name):
        framework = get(framework_name)
        with counters.counting() as baseline:
            parents_base = framework.bfs(
                case.graph, source, RunContext(mode=Mode.BASELINE)
            )
        with counters.counting() as optimized:
            parents_opt = framework.bfs(
                case.graph, source, RunContext(mode=Mode.OPTIMIZED)
            )
        assert (parents_base == parents_opt).all()
        assert optimized.edges_examined < baseline.edges_examined

    def test_galois_adapter_optimized_uses_early_exit(self, case, source):
        """Galois' Optimized scheduling picks sync BFS on kron (low diameter);
        the sync path must then run the early-exit pull."""
        from repro.galois.bfs import sync_bfs

        framework = get("galois")
        ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="kron")
        with counters.counting() as adapter:
            parents_adapter = framework.bfs(case.graph, source, ctx)
        with counters.counting() as direct:
            parents_direct = sync_bfs(case.graph, source, pull_early_exit=True)
        assert (parents_adapter == parents_direct).all()
        assert adapter.edges_examined == direct.edges_examined


def test_paper_matrix_work_counters_are_pinned():
    """Every cell of the paper matrix does exactly the work it did before.

    ``tests/fixtures/work_counters_scale6.json`` holds ``edges_examined`` /
    ``rounds`` / ``iterations`` / ``extras`` of the 360 cells (six
    frameworks, five graphs, six kernels, both modes) at scale 6, seed 7,
    one trial per kernel.  A change that means to move a counter
    regenerates the file and says so; a constant-factor optimization must
    pass against the file as committed.
    """
    pinned = json.loads((FIXTURES / "work_counters_scale6.json").read_text())
    spec = BenchmarkSpec(scale=6, seed=7, trials={kernel: 1 for kernel in KERNELS})
    results = run_suite(
        list(all_frameworks().values()), list(GRAPH_NAMES), KERNELS, spec=spec
    )
    measured = {
        f"{r.framework}/{r.kernel}/{r.graph}/{r.mode.value}": {
            "edges_examined": r.edges_examined,
            "rounds": r.rounds,
            "iterations": r.iterations,
            "extras": r.extras,
        }
        for r in results
    }
    assert measured.keys() == pinned.keys()
    moved = {
        cell: {"pinned": pinned[cell], "measured": measured[cell]}
        for cell in pinned
        if measured[cell] != pinned[cell]
    }
    assert not moved, f"{len(moved)} cells changed their work: {json.dumps(moved, indent=1)}"
