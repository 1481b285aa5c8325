"""End-to-end tests for the regression gate and the archive CLI.

The acceptance scenario for the gate subsystem: a re-run that is only
noise must pass the gate at the default noise threshold (no false
positives), while a 2x slowdown injected into one kernel's trial times
must fail it with that cell named.  The baseline is a *real* campaign
through ``run_suite``; every candidate is derived from it with fixed
factors, so each verdict is a function of these tests' own numbers and
not of the load on the machine running them.  Real run-to-run noise is
sampled by the CI ``gate`` job, which gates a fresh campaign against a
committed baseline.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.core import BenchmarkSpec, ResultSet, run_suite
from repro.frameworks import Mode, get
from repro.store import RunArchive

SCALE = 8
KERNELS_USED = ["bfs", "cc"]
SPEC = BenchmarkSpec(scale=SCALE, trials={"bfs": 6, "cc": 6})
#: The "clean re-run": every trial 5 % slower, well inside the 25 %
#: threshold, and different content so the archive keeps both runs.
NOISE_FACTOR = 1.05


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """A real campaign and a candidate derived from it, as results files:
    the candidate is the baseline with every trial vector scaled by
    :data:`NOISE_FACTOR`."""
    tmp = tmp_path_factory.mktemp("gate-campaigns")
    baseline = run_suite(
        [get("gap")],
        ["kron"],
        kernels=KERNELS_USED,
        modes=[Mode.BASELINE],
        spec=SPEC,
    )
    base_path = tmp / "baseline.json"
    cand_path = tmp / "candidate.json"
    baseline.save_json(base_path)
    candidate = ResultSet.load_json(base_path)
    for result in candidate:
        result.trial_seconds = [t * NOISE_FACTOR for t in result.trial_seconds]
    candidate.save_json(cand_path)
    return base_path, cand_path


class TestGateCLI:
    def test_clean_rerun_passes_gate(self, two_runs, tmp_path, capsys):
        base_path, cand_path = two_runs
        out = tmp_path / "BENCH_gate.json"
        code = main(
            [
                "gate",
                "--baseline", str(base_path),
                "--results", str(cand_path),
                "--fail-on-regression",
                "--out", str(out),
            ]
        )
        assert code == 0, capsys.readouterr().out
        assert "gate: PASS" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["bench"] == "gate"
        assert payload["data"]["passed"] is True
        assert payload["data"]["regressions"] == []

    def test_injected_regression_fails_gate_and_names_cell(
        self, two_runs, tmp_path, capsys
    ):
        # The verdict must be a function of this test's own numbers: the cc
        # cell gets a fixed trial vector on the baseline side and its double
        # on the candidate side (two real sub-millisecond measurements are
        # independently noisy, and doubling one of them sometimes left the
        # bootstrap interval straddling the threshold).  Everything else in
        # both files — format, cell naming, the bfs cell — is the real runs'.
        fixed = [1.00e-4, 1.04e-4, 0.97e-4, 1.02e-4, 0.99e-4, 1.01e-4]
        paths = []
        for source, factor in ((two_runs[0], 1.0), (two_runs[1], 2.0)):
            payload = json.loads(source.read_text())
            for record in payload["results"]:
                if record["kernel"] == "cc":
                    record["trial_seconds"] = [t * factor for t in fixed]
            paths.append(tmp_path / f"cc-x{factor:g}.json")
            paths[-1].write_text(json.dumps(payload), encoding="ascii")
        base_path, slow_path = paths
        out = tmp_path / "BENCH_gate.json"
        code = main(
            [
                "gate",
                "--baseline", str(base_path),
                "--results", str(slow_path),
                "--fail-on-regression",
                "--out", str(out),
            ]
        )
        assert code != 0
        printed = capsys.readouterr().out
        assert "gate: FAIL" in printed
        assert "gap/cc/kron/baseline" in printed
        payload = json.loads(out.read_text())
        assert payload["data"]["passed"] is False
        assert "gap/cc/kron/baseline" in payload["data"]["regressions"]
        # The untouched kernel must not be dragged into the verdict.
        assert "gap/bfs/kron/baseline" not in payload["data"]["regressions"]

    def test_report_only_mode_exits_zero_on_regression(
        self, two_runs, tmp_path, capsys
    ):
        base_path, cand_path = two_runs
        slowed = json.loads(cand_path.read_text())
        for record in slowed["results"]:
            record["trial_seconds"] = [t * 3.0 for t in record["trial_seconds"]]
        slow_path = tmp_path / "slowed.json"
        slow_path.write_text(json.dumps(slowed), encoding="ascii")
        code = main(
            ["gate", "--baseline", str(base_path), "--results", str(slow_path)]
        )
        assert code == 0  # no --fail-on-regression: report-only (fork PRs)
        assert "gate: FAIL" in capsys.readouterr().out

    def test_promote_installs_candidate_as_baseline(
        self, two_runs, tmp_path, capsys
    ):
        base_path, cand_path = two_runs
        new_baseline = tmp_path / "baselines" / "smoke.json"
        # Bootstrap: no baseline file yet.
        code = main(
            [
                "gate",
                "--baseline", str(new_baseline),
                "--results", str(cand_path),
                "--promote",
            ]
        )
        assert code == 0
        assert "promoted" in capsys.readouterr().out
        promoted = json.loads(new_baseline.read_text())
        candidate = json.loads(cand_path.read_text())
        assert promoted["results"] == candidate["results"]
        # Re-promoting over an existing baseline replaces it atomically.
        code = main(
            [
                "gate",
                "--baseline", str(new_baseline),
                "--results", str(base_path),
                "--promote",
            ]
        )
        assert code == 0
        assert (
            json.loads(new_baseline.read_text())["results"]
            == json.loads(base_path.read_text())["results"]
        )

    def test_promote_refuses_archive_ref_baseline(self, two_runs):
        _, cand_path = two_runs
        with pytest.raises(SystemExit):
            main(
                [
                    "gate",
                    "--baseline", "latest",
                    "--results", str(cand_path),
                    "--promote",
                ]
            )

    def test_missing_ref_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "gate",
                    "--baseline", str(tmp_path / "nope.json"),
                    "--results", str(tmp_path / "also-nope.json"),
                ]
            )


class TestArchiveCLI:
    def test_archive_history_diff_roundtrip(self, two_runs, tmp_path, capsys):
        """Two archived runs of the same spec: history lists both, diff
        reports every cell unchanged (the subsystem acceptance check)."""
        base_path, cand_path = two_runs
        arch = tmp_path / "archive"
        for path in (base_path, cand_path):
            code = main(
                ["archive", "--results", str(path), "--archive-dir", str(arch)]
            )
            assert code == 0
        capsys.readouterr()

        assert main(["history", "--archive-dir", str(arch)]) == 0
        history = capsys.readouterr().out
        run_ids = [
            line.split()[0]
            for line in history.splitlines()[1:]
            if line.strip()
        ]
        assert len(run_ids) == 2

        code = main(
            [
                "diff",
                "--baseline", run_ids[1],
                "--candidate", run_ids[0],
                "--archive-dir", str(arch),
            ]
        )
        assert code == 0
        diff_out = capsys.readouterr().out
        assert "regressed: 0" in diff_out
        assert "broke: 0" in diff_out
        assert f"unchanged: {len(KERNELS_USED)}" in diff_out

    def test_run_archive_flag_persists_spans(self, tmp_path, capsys):
        arch = tmp_path / "archive"
        code = main(
            [
                "run",
                "--scale", "8",
                "--graphs", "kron",
                "--kernels", "cc",
                "--frameworks", "gap",
                "--modes", "baseline",
                "--archive",
                "--archive-dir", str(arch),
            ]
        )
        assert code == 0
        assert "archived as" in capsys.readouterr().out
        store = RunArchive(arch)
        record = store.lookup("latest")
        assert record.manifest["cells"] == 1
        assert record.manifest["spec"]["scale"] == 8
        spans = record.load_spans()
        assert any(rec.get("kernel") == "cc" for rec in spans)
        results = record.load_results()
        assert results.results[0].trial_seconds  # per-trial data survived

    def test_history_empty_archive(self, tmp_path, capsys):
        assert main(["history", "--archive-dir", str(tmp_path / "empty")]) == 0
        assert "no archived runs" in capsys.readouterr().out


class TestVersionFlag:
    def test_version_flag_prints_version_and_sha(self, capsys):
        from repro import __version__
        from repro.store import version_string

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        printed = capsys.readouterr().out
        assert __version__ in printed
        assert version_string() in printed

    def test_run_banner_carries_version(self, capsys):
        code = main(
            [
                "run",
                "--scale", "7",
                "--graphs", "kron",
                "--kernels", "cc",
                "--frameworks", "gap",
                "--modes", "baseline",
            ]
        )
        assert code == 0
        from repro.store import version_string

        assert f"repro {version_string()}" in capsys.readouterr().out
