"""Results archive and statistical regression gate (``repro.store``).

The durable-data layer under the benchmark harness:

* :mod:`~repro.store.environment` — machine/toolchain fingerprints that
  make archived numbers interpretable later;
* :mod:`~repro.store.archive` — append-only, content-addressed storage of
  complete runs (per-trial results, spec, telemetry spans, manifest);
* :mod:`~repro.store.stats` — best-of-k + bootstrap-CI comparison of two
  runs with improved/regressed/unchanged classification per cell;
* :mod:`~repro.store.gate` — the pass/fail regression verdict, gate
  report serialization, and baseline promotion.

CLI: ``repro archive`` / ``repro history`` / ``repro diff`` /
``repro gate`` (see ``python -m repro --help``).
"""

from .archive import (
    ARCHIVE_SCHEMA_VERSION,
    RunArchive,
    RunRecord,
    bench_payload,
    default_archive_dir,
    write_json_atomic,
)
from .cellindex import (
    cell_digest,
    derive_index_entries,
    identity_hasher,
    spec_identity,
)
from .environment import fingerprint, git_sha, version_string
from .integrity import (
    ScrubReport,
    last_scrub_report,
    quarantine_count,
    scrub,
    verify_run,
)
from .gate import GateReport, evaluate_gate, promote_baseline, write_gate_report
from .stats import (
    DEFAULT_NOISE_THRESHOLD,
    CellDelta,
    bootstrap_ratio_ci,
    classify_cells,
    summarize_deltas,
)

__all__ = [
    "ARCHIVE_SCHEMA_VERSION",
    "DEFAULT_NOISE_THRESHOLD",
    "CellDelta",
    "GateReport",
    "RunArchive",
    "RunRecord",
    "ScrubReport",
    "bench_payload",
    "bootstrap_ratio_ci",
    "cell_digest",
    "classify_cells",
    "default_archive_dir",
    "derive_index_entries",
    "evaluate_gate",
    "fingerprint",
    "git_sha",
    "identity_hasher",
    "last_scrub_report",
    "promote_baseline",
    "quarantine_count",
    "scrub",
    "spec_identity",
    "summarize_deltas",
    "verify_run",
    "version_string",
    "write_gate_report",
    "write_json_atomic",
]
