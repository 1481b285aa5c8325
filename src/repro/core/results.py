"""Result records for benchmark campaigns.

A campaign produces one :class:`RunResult` per (framework, kernel, graph,
mode) cell — the unit of Tables IV and V.  Each record carries per-trial
timings, the machine-independent work counters, and the verification
status, so the table renderers and EXPERIMENTS.md generator need nothing
else.

A cell that crashed or overran its deadline is still a record: ``status``
is ``"error"`` / ``"timeout"`` (with the exception in ``error``) instead
of ``"ok"``, and ``trial_seconds`` holds whatever trials completed.  A
cell that never ran because its (framework, kernel) circuit breaker was
open is ``"skipped"`` (see :mod:`repro.resilience.breaker`), with the
skip reason in ``error``.  The table renderers skip non-ok cells; the
failure table reports them.  ``attempts`` counts executions of the cell
(> 1 when the retry policy re-ran a transient failure).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from ..durable import atomic_write
from ..errors import ReproError
from ..frameworks.base import Mode

__all__ = ["RESULTS_SCHEMA_VERSION", "RunResult", "ResultSet"]

#: Version stamp of the results-file payload: an envelope with
#: ``schema_version``, the cell records (``results``) and campaign ``meta``.
RESULTS_SCHEMA_VERSION = 2


@dataclass
class RunResult:
    """Measured outcome of one benchmark cell."""

    framework: str
    kernel: str
    graph: str
    mode: Mode
    trial_seconds: list[float]
    verified: bool = True
    edges_examined: int = 0
    rounds: int = 0
    iterations: int = 0
    extras: dict[str, float] = field(default_factory=dict)
    status: str = "ok"
    error: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True when the cell ran to completion (status ``"ok"``)."""
        return self.status == "ok"

    @property
    def cell_key(self) -> tuple[str, str, str, str]:
        """Canonical cell identity: ``(graph, mode, kernel, framework)``.

        The campaign enumerates cells in this nesting order; serial and
        parallel executions of the same campaign produce result sets whose
        ``cell_key`` sequences are identical (the equivalence tests key on
        it).
        """
        return (self.graph, self.mode.value, self.kernel, self.framework)

    @property
    def seconds(self) -> float:
        """Average trial time — GAP's reported statistic (NaN if no trial)."""
        if not self.trial_seconds:
            return float("nan")
        return statistics.fmean(self.trial_seconds)

    @property
    def best_seconds(self) -> float:
        """Fastest trial (NaN if no trial completed)."""
        if not self.trial_seconds:
            return float("nan")
        return min(self.trial_seconds)

    @property
    def p50_seconds(self) -> float:
        """Median trial time."""
        from .telemetry import quantile

        return quantile(self.trial_seconds, 0.50)

    @property
    def p95_seconds(self) -> float:
        """95th-percentile trial time (interpolated)."""
        from .telemetry import quantile

        return quantile(self.trial_seconds, 0.95)

    @property
    def stddev_seconds(self) -> float:
        """Sample standard deviation across trials (0 for a single trial)."""
        if len(self.trial_seconds) < 2:
            return 0.0
        return statistics.stdev(self.trial_seconds)

    @property
    def variation(self) -> float:
        """Coefficient of variation (stddev / mean) across trials.

        The paper's discussion observes that "timings for algorithms on
        Road were more unstable compared to other cases"; this is the
        statistic that claim is checked with.
        """
        mean = self.seconds
        return self.stddev_seconds / mean if mean > 0 else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable form of this record."""
        return {
            "framework": self.framework,
            "kernel": self.kernel,
            "graph": self.graph,
            "mode": self.mode.value,
            "trial_seconds": self.trial_seconds,
            "seconds": self.seconds if self.trial_seconds else None,
            "verified": self.verified,
            "edges_examined": self.edges_examined,
            "rounds": self.rounds,
            "iterations": self.iterations,
            "extras": self.extras,
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, item: dict[str, object]) -> "RunResult":
        """Rebuild a record from its :meth:`as_dict` form.

        The single deserialization path shared by results files and the
        checkpoint journal, so a journaled cell round-trips to the exact
        record an uninterrupted campaign would hold.
        """
        return cls(
            framework=item["framework"],
            kernel=item["kernel"],
            graph=item["graph"],
            mode=Mode(item["mode"]),
            trial_seconds=list(item["trial_seconds"]),
            verified=bool(item["verified"]),
            edges_examined=int(item["edges_examined"]),
            rounds=int(item["rounds"]),
            iterations=int(item["iterations"]),
            extras=dict(item["extras"]),
            status=str(item.get("status", "ok")),
            error=str(item.get("error", "")),
            attempts=int(item.get("attempts", 1)),
        )


class ResultSet:
    """A queryable collection of run results."""

    def __init__(
        self,
        results: list[RunResult] | None = None,
        meta: dict[str, object] | None = None,
    ) -> None:
        self.results: list[RunResult] = list(results or [])
        #: Campaign-level provenance (spec, graph/kernel/framework lists);
        #: filled by ``run_suite`` and preserved through save/load so an
        #: archived results file is self-describing.
        self.meta: dict[str, object] = dict(meta or {})

    def add(self, result: RunResult) -> None:
        """Append one result."""
        self.results.append(result)

    def extend(self, results: "ResultSet | list[RunResult]") -> None:
        """Append many results (from a list or another set)."""
        if isinstance(results, ResultSet):
            self.results.extend(results.results)
        else:
            self.results.extend(results)

    def lookup(
        self,
        framework: str | None = None,
        kernel: str | None = None,
        graph: str | None = None,
        mode: Mode | None = None,
    ) -> list[RunResult]:
        """All results matching the given filters."""
        out = []
        for result in self.results:
            if framework is not None and result.framework != framework:
                continue
            if kernel is not None and result.kernel != kernel:
                continue
            if graph is not None and result.graph != graph:
                continue
            if mode is not None and result.mode != mode:
                continue
            out.append(result)
        return out

    def one(self, framework: str, kernel: str, graph: str, mode: Mode) -> RunResult | None:
        """The unique matching result, or None."""
        matches = self.lookup(framework, kernel, graph, mode)
        return matches[0] if matches else None

    def failures(self) -> list[RunResult]:
        """All non-ok cells (errors, timeouts, skips), in run order."""
        return [result for result in self.results if not result.ok]

    def skipped(self) -> list[RunResult]:
        """Cells a circuit breaker converted to ``skipped``, in run order."""
        return [result for result in self.results if result.status == "skipped"]

    def frameworks(self) -> list[str]:
        """Framework names present, in first-seen order."""
        seen: dict[str, None] = {}
        for result in self.results:
            seen.setdefault(result.framework, None)
        return list(seen)

    def payload(self) -> dict[str, object]:
        """The versioned on-disk form: envelope + per-cell records.

        Per-trial times travel whole (``trial_seconds`` in each record) —
        the archive and the regression gate depend on them, aggregates
        alone cannot support a statistical comparison.
        """
        out: dict[str, object] = {
            "schema_version": RESULTS_SCHEMA_VERSION,
            "results": [r.as_dict() for r in self.results],
        }
        if self.meta:
            out["meta"] = self.meta
        return out

    def save_json(self, path: str | Path) -> None:
        """Serialize all results to a JSON file.

        Written with :func:`repro.durable.atomic_write`: a campaign
        killed mid-save leaves the previous file intact, never a torn one.
        """
        atomic_write(path, (json.dumps(self.payload(), indent=2) + "\n").encode())

    @classmethod
    def load_json(cls, path: str | Path) -> "ResultSet":
        """Load a results file written by :meth:`save_json`."""
        raw = json.loads(Path(path).read_text(encoding="ascii"))
        if not isinstance(raw, dict) or not {"schema_version", "results"} <= set(raw):
            raise ReproError(
                f"{path} is not a schema-v{RESULTS_SCHEMA_VERSION} results "
                "file (a JSON object with 'schema_version' and 'results')"
            )
        return cls(
            [RunResult.from_dict(item) for item in raw["results"]],
            meta=dict(raw.get("meta", {})),
        )

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)
