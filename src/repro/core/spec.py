"""The GAP benchmark specification, scaled to this reproduction.

Encodes the rules of the benchmark the paper runs:

* six kernels over five graphs (30 tests), under Baseline and Optimized
  rule sets;
* BFS/SSSP run multiple trials from rotating randomly-chosen sources with
  nonzero out-degree; BC uses 4 roots per trial; CC/PR/TC are
  source-independent and repeat for timing stability;
* SSSP's delta may be tuned per graph even under Baseline rules (the one
  explicitly permitted input-sensitive parameter — it changes performance
  by orders of magnitude);
* PR runs to an L1 convergence tolerance; graph transposition is never
  timed (both orientations are stored); TC runs on the symmetrized graph.

Trial counts are scaled down from GAP's 64 to keep the pure-Python sweep
tractable; they are spec parameters, not constants.

The graph axis a spec is run over may name generator graphs *or*
file-backed datasets (``file:/path``, ``dataset:NAME`` — see
:mod:`repro.graphs.datasets`).  ``scale`` does not apply to file-backed
topology, but ``seed`` still keys the synthetic SSSP weights attached to
unweighted inputs, and ``delta_for`` falls back to the default delta for
graphs outside :data:`DELTA_BY_GRAPH`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import BenchmarkConfigError
from ..frameworks.base import KERNELS
from ..generators import DEFAULT_SCALE
from ..graphs import CSRGraph

__all__ = ["BenchmarkSpec", "SourcePicker", "DELTA_BY_GRAPH", "DEFAULT_TRIALS"]

# Per-graph delta tuned once for the corpus (allowed under Baseline rules).
DELTA_BY_GRAPH: dict[str, int] = {
    "road": 256,
    "twitter": 16,
    "web": 32,
    "kron": 16,
    "urand": 32,
}

DEFAULT_TRIALS: dict[str, int] = {
    "bfs": 4,
    "sssp": 4,
    "cc": 3,
    "pr": 3,
    "bc": 3,
    "tc": 3,
}

BC_ROOTS_PER_TRIAL = 4


@dataclass(frozen=True)
class BenchmarkSpec:
    """Configuration of one benchmark campaign."""

    scale: int = DEFAULT_SCALE
    seed: int = 0
    trials: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_TRIALS))
    deltas: dict[str, int] = field(default_factory=lambda: dict(DELTA_BY_GRAPH))
    pr_tolerance: float = 1e-4
    bc_roots: int = BC_ROOTS_PER_TRIAL
    verify: bool = True
    #: Wall-clock budget per trial, in seconds (None = unlimited).  A trial
    #: over budget is recorded with status "timeout" instead of a timing.
    #: In-process (jobs=1) the deadline is soft; on the process backend
    #: (jobs>1) an over-budget worker is hard-killed.
    trial_timeout: float | None = None
    #: Worker processes for the campaign.  1 = serial in-process execution;
    #: >1 shards cells across a process pool over a shared-memory corpus.
    jobs: int = 1
    #: Worker pool flavor for ``jobs > 1``: ``"process"`` (isolated
    #: workers over a shared-memory corpus; hard per-cell kills) or
    #: ``"threads"`` (threads sharing the parent's address space — no
    #: corpus publication or pickling at all, best for GIL-releasing
    #: NumPy kernels; deadlines stay soft because a thread cannot be
    #: killed).  See :mod:`repro.core.campaign`.
    pool: str = "process"
    #: Cells per dispatch message under ``jobs > 1``.  ``None`` sizes
    #: batches automatically from trial counts (see
    #: :mod:`repro.core.batching`); ``1`` restores per-cell dispatch.
    #: Timeout-sensitive cells always dispatch alone regardless.
    batch_size: int | None = None
    #: Re-executions allowed per cell for *transient* failures (worker
    #: crash, OOM, corruption), with deterministic exponential backoff.
    #: Deterministic failures (verification mismatch, ValueError) and
    #: timeouts are never retried.  See :mod:`repro.resilience.retry`.
    retries: int = 0
    #: Consecutive hard failures after which a (framework, kernel) combo's
    #: remaining cells become ``skipped`` results (0 = breaker disabled).
    #: See :mod:`repro.resilience.breaker`.
    breaker_threshold: int = 0

    def __post_init__(self) -> None:
        unknown = set(self.trials) - set(KERNELS)
        if unknown:
            raise BenchmarkConfigError(f"unknown kernels in trials: {sorted(unknown)}")
        if any(count <= 0 for count in self.trials.values()):
            raise BenchmarkConfigError("trial counts must be positive")
        if self.bc_roots <= 0:
            raise BenchmarkConfigError("bc_roots must be positive")
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise BenchmarkConfigError("trial_timeout must be positive (or None)")
        if self.jobs < 1:
            raise BenchmarkConfigError("jobs must be >= 1")
        if self.pool not in ("process", "threads"):
            raise BenchmarkConfigError(
                f"pool must be 'process' or 'threads', got {self.pool!r}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise BenchmarkConfigError("batch_size must be >= 1 (or None = auto)")
        if self.retries < 0:
            raise BenchmarkConfigError("retries must be >= 0")
        if self.breaker_threshold < 0:
            raise BenchmarkConfigError("breaker_threshold must be >= 0")

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable form, used in archive manifests and results
        meta so every stored run carries the spec that produced it."""
        return {
            "scale": self.scale,
            "seed": self.seed,
            "trials": dict(self.trials),
            "deltas": dict(self.deltas),
            "pr_tolerance": self.pr_tolerance,
            "bc_roots": self.bc_roots,
            "verify": self.verify,
            "trial_timeout": self.trial_timeout,
            "jobs": self.jobs,
            "pool": self.pool,
            "batch_size": self.batch_size,
            "retries": self.retries,
            "breaker_threshold": self.breaker_threshold,
        }

    def num_trials(self, kernel: str) -> int:
        """Trial count for a kernel (default 3)."""
        return self.trials.get(kernel, 3)

    def delta_for(self, graph_name: str) -> int:
        """Per-graph SSSP delta (default 16 for unknown graphs)."""
        return self.deltas.get(graph_name, 16)


class SourcePicker:
    """Deterministic rotating source selection, GAP style.

    Sources are drawn uniformly from vertices with nonzero out-degree so
    every trial does real work; the sequence is a function of (graph, seed)
    only, so all frameworks see identical sources.
    """

    def __init__(self, graph: CSRGraph, seed: int = 0) -> None:
        self._candidates = np.flatnonzero(graph.out_degrees > 0)
        if self._candidates.size == 0:
            raise BenchmarkConfigError("graph has no vertex with out-degree > 0")
        self._rng = np.random.default_rng(np.random.SeedSequence([0xB5, seed]))

    def next_source(self) -> int:
        """One source vertex."""
        return int(self._rng.choice(self._candidates))

    def next_sources(self, count: int) -> np.ndarray:
        """``count`` distinct source vertices (BC's root batch)."""
        count = min(count, self._candidates.size)
        return self._rng.choice(self._candidates, size=count, replace=False)
