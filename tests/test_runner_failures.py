"""Failure-injection tests: the harness must refuse broken frameworks.

The paper's discussion asks for "more formally specified verification and
validation procedures" — these tests prove the runner actually enforces
them by registering deliberately broken kernels and checking the campaign
fails loudly rather than recording bogus timings.
"""

import numpy as np
import pytest

from repro.core import BenchmarkSpec, GraphCase, run_cell
from repro.core.spec import SourcePicker
from repro.errors import VerificationError
from repro.frameworks import KERNELS, Mode, RunContext
from repro.gapbs import GAPReference
from repro.faults import Fault, installed


TINY_SPEC = BenchmarkSpec(scale=8, trials={k: 1 for k in KERNELS})


@pytest.fixture(scope="module")
def case():
    return GraphCase.build("kron", scale=8)


class BrokenBFS(GAPReference):
    """Claims an unreachable vertex was reached."""

    def bfs(self, graph, source, ctx=RunContext()):
        parents = super().bfs(graph, source, ctx)
        missing = np.flatnonzero(parents < 0)
        if missing.size:
            parents[missing[0]] = source
        else:  # fully reachable: corrupt a parent pointer instead
            victim = (source + 1) % graph.num_vertices
            parents[victim] = victim
        return parents


class BrokenSSSP(GAPReference):
    """Returns distances that are off by one."""

    def sssp(self, graph, source, ctx=RunContext()):
        dist = super().sssp(graph, source, ctx)
        finite = np.isfinite(dist) & (dist > 0)
        dist[finite] += 1.0
        return dist


class BrokenCC(GAPReference):
    """Splits the largest component in two."""

    def connected_components(self, graph, ctx=RunContext()):
        labels = super().connected_components(graph, ctx)
        biggest = np.bincount(labels).argmax()
        members = np.flatnonzero(labels == biggest)
        labels[members[: members.size // 2]] = labels.max() + 1
        return labels


class BrokenPR(GAPReference):
    """Returns a uniform vector regardless of structure."""

    def pagerank(self, graph, ctx=RunContext(), tolerance=1e-4, max_iterations=100):
        return np.full(graph.num_vertices, 1.0 / graph.num_vertices)


class BrokenTC(GAPReference):
    """Always one triangle short."""

    def triangle_count(self, graph, ctx=RunContext()):
        return super().triangle_count(graph, ctx) - 1


class BrokenBC(GAPReference):
    """Scales the scores by a constant."""

    def betweenness(self, graph, sources, ctx=RunContext()):
        return 2.0 * super().betweenness(graph, sources, ctx)


@pytest.mark.parametrize(
    "kernel,broken_class",
    [
        ("bfs", BrokenBFS),
        ("sssp", BrokenSSSP),
        ("cc", BrokenCC),
        ("pr", BrokenPR),
        ("tc", BrokenTC),
        ("bc", BrokenBC),
    ],
)
def test_runner_rejects_broken_kernel(case, kernel, broken_class):
    with pytest.raises(VerificationError):
        run_cell(broken_class(), kernel, case, Mode.BASELINE, TINY_SPEC)


@pytest.mark.parametrize("kernel", ["bfs", "sssp", "cc", "bc", "tc"])
def test_warm_oracle_memo_rejects_corrupted_output_like_a_cold_one(kernel):
    """The memo holds the oracle, never a verdict: a passing cell warms it,
    and the next cell's corrupted trial-0 output fails exactly as it does
    against a case that has verified nothing yet."""
    messages = []
    for warm in (False, True):
        fresh = GraphCase.build("kron", scale=8)
        if warm:
            run_cell(GAPReference(), kernel, fresh, Mode.BASELINE, TINY_SPEC)
        assert [key[0] for key in fresh.oracles] == ([kernel] if warm else [])
        with installed(Fault("wrong-result", kernel=kernel)):
            with pytest.raises(VerificationError) as failure:
                run_cell(GAPReference(), kernel, fresh, Mode.OPTIMIZED, TINY_SPEC)
        messages.append(str(failure.value))
    assert messages[0] == messages[1]


def test_runner_accepts_correct_kernels(case):
    for kernel in KERNELS:
        result = run_cell(GAPReference(), kernel, case, Mode.BASELINE, TINY_SPEC)
        assert result.verified


def test_verification_can_be_disabled(case):
    """`verify=False` skips the oracles (for timing-only sweeps)."""
    spec = BenchmarkSpec(scale=8, trials={"tc": 1}, verify=False)
    result = run_cell(BrokenTC(), "tc", case, Mode.BASELINE, spec)
    assert result.seconds > 0  # measured despite the broken output


def test_bc_scores_nonzero_to_make_scaling_detectable(case):
    """Guard for BrokenBC: the roots chosen must yield nonzero scores,
    otherwise the 2x corruption would be invisible."""
    picker = SourcePicker(case.graph, TINY_SPEC.seed)
    roots = picker.next_sources(TINY_SPEC.bc_roots)
    scores = GAPReference().betweenness(case.graph, roots)
    assert np.abs(scores).max() > 0
