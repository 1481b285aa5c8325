"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro run [--scale N] [--graphs a,b] [--kernels x,y]
                        [--frameworks f,g] [--modes baseline,optimized]
                        [--out results.json] [--strict] [--timeout S]
                        [--trace trace.jsonl] [--track-memory]
                        [--jobs N] [--pool process|threads] [--batch-size N]
                        [--cache-dir DIR] [--no-cache]
                        [--journal PATH] [--resume] [--retries N]
                        [--breaker-threshold K]
    python -m repro tables --results results.json
    python -m repro graphs [--scale N]          # Table I
    python -m repro datasets [REF ...] [--dataset-dir DIR] [--stats]
    python -m repro compare --results results.json
    python -m repro generate road --scale N --out road.el [--weighted]
    python -m repro report --results results.json --out report.md
    python -m repro archive --results results.json [--trace trace.jsonl]
    python -m repro history [--limit N]
    python -m repro diff --baseline REF [--candidate REF]
    python -m repro gate --baseline REF --results results.json
                         [--fail-on-regression] [--promote] [--out PATH]
    python -m repro serve [--host H] [--port P] [--jobs N] [--resume]
                          [--archive-dir DIR] [--cache-dir DIR]
                          [--journal-dir DIR] [--max-queue N]
    python -m repro submit --graphs a,b --kernels x,y --frameworks f,g
                           [--modes m] [--scale N] [--seed N]
                           [--server HOST:PORT] [--out results.json]
    python -m repro status [--server HOST:PORT]

``run`` executes the benchmark campaign with verification and prints
Tables IV/V; ``compare`` scores the results against the paper's published
Table V (direction agreement / rank correlation); ``generate`` writes a
corpus graph to a GAP-style edge-list file; ``report`` renders a saved
campaign as markdown.  The graphs axis of ``run`` and ``submit`` accepts
generator names *and* dataset references (``file:/path/to/graph.mtx``,
``dataset:NAME`` — see docs/DATASETS.md); ``datasets`` lists the
registered dataset directory (or describes explicit references) with
content digests.  The ``archive`` / ``history`` / ``diff`` / ``gate``
family stores every campaign in an append-only archive and statistically
compares runs — ``gate --fail-on-regression`` exits non-zero when a cell
regresses beyond the noise threshold (see ``repro.store``).

``serve`` starts the memoizing benchmark server: ``submit`` sends it a
campaign and streams per-cell results back, re-using every cell the
archive has already measured (see ``repro.service`` / docs/SERVICE.md).

A REF is a run-id prefix from ``repro history``, the word ``latest``, or
a path to a results JSON file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import BenchmarkSpec, ResultSet, Telemetry, run_suite
from .core.telemetry import read_trace
from .errors import ArchiveError, BenchmarkConfigError, CampaignAborted, JournalError
from .store import (
    DEFAULT_NOISE_THRESHOLD,
    RunArchive,
    evaluate_gate,
    promote_baseline,
    version_string,
    write_gate_report,
)
from .core.comparison import agreement_summary, compare_table5, framework_rank_correlation
from .core.report import write_markdown_report
from .core.tables import failure_rows, render, table1_rows, table4_rows, table5_rows
from .frameworks import EXTENDED_FRAMEWORK_NAMES, KERNELS, Mode, get
from .generators import DEFAULT_SCALE, GRAPH_NAMES, build_corpus, build_graph, weighted_version
from .graphs import GraphCache, write_edge_list


def _positive_int(text: str) -> int:
    """Argparse type: an integer >= 1, with a readable error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """Argparse type: an integer >= 0, with a readable error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type: a finite number > 0, with a readable error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0 or value != value or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text}")
    return value


def _split(value: str, allowed: tuple[str, ...], label: str) -> list[str]:
    names = [item.strip() for item in value.split(",") if item.strip()]
    unknown = [name for name in names if name not in allowed]
    if unknown:
        raise SystemExit(f"unknown {label}: {unknown} (allowed: {list(allowed)})")
    return names


def _split_graphs(value: str) -> list[str]:
    """Graphs axis: generator names plus ``file:``/``dataset:`` references.

    References are resolved immediately so a typo'd path dies with a
    one-line error before any generation or measurement starts.
    """
    from .errors import ReproError
    from .graphs.datasets import is_dataset_ref, resolve, unknown_graphs

    names = [item.strip() for item in value.split(",") if item.strip()]
    unknown = unknown_graphs(names)
    if unknown:
        raise SystemExit(
            f"unknown graph: {unknown} (allowed: {list(GRAPH_NAMES)} "
            "or file:/dataset: references)"
        )
    for name in names:
        if is_dataset_ref(name):
            try:
                resolve(name)
            except ReproError as exc:
                raise SystemExit(f"cannot resolve {name!r}: {exc}")
    return names


def _result_graphs(results: ResultSet) -> list[str]:
    """Graph axis of a saved ResultSet, in canonical order.

    Generator graphs keep Table I order; file-backed graphs (dataset
    references recorded in the cells) follow in order of appearance, so
    tables over ``run --graphs file:...`` output are not silently empty.
    """
    present = {result.graph for result in results}
    graphs = [g for g in GRAPH_NAMES if g in present]
    seen = set(graphs)
    for result in results:
        if result.graph not in seen:
            seen.add(result.graph)
            graphs.append(result.graph)
    return graphs


def _resolve_results(
    ref: str, archive_dir: str | None
) -> tuple[str, ResultSet, dict[str, object] | None]:
    """Resolve a REF (file path, run-id prefix, or ``latest``).

    Returns ``(display ref, results, environment fingerprint or None)``.
    A file path wins over an archive lookup; files produced by
    ``repro run`` carry their environment in the results meta.
    """
    path = Path(ref)
    if path.is_file():
        results = ResultSet.load_json(path)
        env = results.meta.get("environment")
        return str(path), results, env if isinstance(env, dict) else None
    store = RunArchive(archive_dir)
    try:
        record = store.lookup(ref)
    except ArchiveError as exc:
        raise SystemExit(f"cannot resolve {ref!r}: {exc}")
    env = record.manifest.get("environment")
    return record.run_id, record.load_results(), env if isinstance(env, dict) else None


def _abort_note(verb: str, journal: str | None) -> str:
    """Message for an interrupted campaign, pointing at the resume path."""
    note = f"\ncampaign {verb}."
    if journal:
        note += (
            f" completed cells are checkpointed in {journal}; "
            "re-run with --resume to continue"
        )
    return note


def _cmd_run(args: argparse.Namespace) -> int:
    print(f"repro {version_string()}")
    frameworks = [
        get(name)
        for name in _split(args.frameworks, EXTENDED_FRAMEWORK_NAMES, "framework")
    ]
    graphs = _split_graphs(args.graphs)
    kernels = _split(args.kernels, KERNELS, "kernel")
    modes = [Mode(mode) for mode in args.modes.split(",")]
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal PATH (nothing to resume from)")
    try:
        spec = BenchmarkSpec(
            scale=args.scale,
            trial_timeout=args.timeout,
            jobs=args.jobs,
            pool=args.pool,
            batch_size=args.batch_size,
            retries=args.retries,
            breaker_threshold=args.breaker_threshold,
        )
    except BenchmarkConfigError as exc:
        raise SystemExit(f"invalid run configuration: {exc}")
    if args.no_cache:
        cache = None
    else:
        cache = GraphCache(args.cache_dir)
        try:
            cache.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"cannot use cache directory {cache.root}: {exc}")
    try:
        telemetry = Telemetry(
            sink=args.trace if args.trace else None,
            track_memory=args.track_memory,
        )
    except OSError as exc:
        raise SystemExit(f"cannot open trace file {args.trace}: {exc}")
    try:
        results = run_suite(
            frameworks,
            graphs,
            kernels=kernels,
            modes=modes,
            spec=spec,
            progress=lambda label: print(f"\r  {label:<50}", end="", flush=True),
            telemetry=telemetry,
            strict=args.strict,
            cache=cache,
            journal=args.journal,
            resume=args.resume,
        )
    except JournalError as exc:
        print(f"\ncannot resume campaign: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(_abort_note("interrupted", args.journal), file=sys.stderr)
        return 130
    except CampaignAborted:
        print(_abort_note("terminated", args.journal), file=sys.stderr)
        return 143
    except Exception as exc:
        # --strict fail-fast aborts on the first broken cell; without it
        # only infrastructure failures (not cell failures) land here.
        reason = " (--strict)" if args.strict else ""
        print(f"\nsuite aborted{reason}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        telemetry.close()
    failures = results.failures()
    verified_note = "outputs verified" if not failures else "ok cells verified"
    print(
        f"\r{len(results)} cells measured, {len(failures)} failed "
        f"({verified_note})." + " " * 30
    )
    if args.trace:
        print(f"telemetry trace written to {args.trace}")
    if args.out:
        results.save_json(args.out)
        print(f"saved to {args.out}")
    if args.archive:
        store = RunArchive(args.archive_dir)
        record = store.archive_run(
            results,
            spec=spec,
            spans=telemetry.spans,
            source=f"repro run scale={args.scale} graphs={args.graphs} "
            f"kernels={args.kernels} frameworks={args.frameworks}",
        )
        print(f"archived as {record.run_id} under {store.root}")
    print(render(table4_rows(results, graphs), "Table IV"))
    print(render(table5_rows(results, graphs), "Table V"))
    if failures:
        print(render(failure_rows(results), "Failures"))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    results = ResultSet.load_json(args.results)
    graphs = _result_graphs(results)
    print(render(table4_rows(results, graphs), "Table IV"))
    print(render(table5_rows(results, graphs), "Table V"))
    return 0


def _cmd_graphs(args: argparse.Namespace) -> int:
    print(render(table1_rows(build_corpus(scale=args.scale)), "Table I"))
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .graphs.datasets import list_datasets, resolve

    if args.refs:
        try:
            infos = [resolve(ref, dataset_dir=args.dataset_dir) for ref in args.refs]
        except ReproError as exc:
            raise SystemExit(str(exc))
    else:
        infos = list_datasets(dataset_dir=args.dataset_dir)
        if not infos:
            print(
                "no registered datasets "
                "(set $REPRO_DATASET_DIR or create ./datasets; "
                "file:/path references work without registration)"
            )
            return 0
    print(f"{'name':<20} {'format':<6} {'bytes':>10}  digest (sha256)")
    for info in infos:
        print(
            f"{info.name:<20} {info.format:<6} {info.size_bytes:>10}  "
            f"{info.digest[:16]}  {info.path}"
        )
    if args.stats:
        from .graphs.statistics import summarize

        for info in infos:
            graph = info.load()
            summary = summarize(graph, name=info.name)
            p50, p90, p99 = summary.degree_percentiles
            print(
                f"\n{info.name}: n={graph.num_vertices} m={graph.num_edges} "
                f"directed={graph.directed}"
            )
            print(
                f"  degree p50/p90/p99: {p50:.0f}/{p90:.0f}/{p99:.0f} "
                f"(max out-degree {summary.max_out_degree})"
            )
            print(
                f"  assortativity={summary.assortativity:.3f} "
                f"reciprocity={summary.reciprocity:.3f} "
                f"clustering={summary.global_clustering:.4f}"
            )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    results = ResultSet.load_json(args.results)
    comparisons = compare_table5(results)
    summary = agreement_summary(comparisons)
    print(f"cells: {summary['cells']}")
    print(f"direction agreement: {summary['direction_agreement']:.1%}")
    print("per kernel:", {k: round(v, 2) for k, v in summary["per_kernel"].items()})
    print("per framework:", {k: round(v, 2) for k, v in summary["per_framework"].items()})
    print("rank correlation:", {k: round(v, 2) for k, v in framework_rank_correlation(comparisons).items()})
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.graph not in GRAPH_NAMES:
        raise SystemExit(f"unknown graph {args.graph!r} (allowed: {list(GRAPH_NAMES)})")
    graph = build_graph(args.graph, scale=args.scale, seed=args.seed)
    if args.weighted:
        graph = weighted_version(graph, seed=args.seed)
    write_edge_list(graph, args.out)
    kind = "weighted " if args.weighted else ""
    print(
        f"wrote {kind}{args.graph} (n={graph.num_vertices}, m={graph.num_edges}) "
        f"to {args.out}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    results = ResultSet.load_json(args.results)
    graphs = _result_graphs(results)
    write_markdown_report(results, graphs, args.out)
    print(f"markdown report written to {args.out}")
    return 0


def _cmd_archive(args: argparse.Namespace) -> int:
    results = ResultSet.load_json(args.results)
    spans = read_trace(args.trace) if args.trace else None
    store = RunArchive(args.archive_dir)
    record = store.archive_run(
        results,
        spec=results.meta.get("spec"),
        spans=spans,
        source=f"repro archive {args.results}",
    )
    print(f"archived {args.results} as {record.run_id} under {store.root}")
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    store = RunArchive(args.archive_dir)
    entries = store.list_runs()
    if not entries:
        print(f"no archived runs under {store.root}")
        return 0
    if args.limit is not None:
        entries = entries[: args.limit]
    print(f"{'run':<14} {'created (UTC)':<21} {'cells':>5} {'failed':>6}  source")
    for entry in entries:
        print(
            f"{entry.get('run_id', '?'):<14} "
            f"{str(entry.get('created_at', '')):<21} "
            f"{entry.get('cells', 0):>5} {entry.get('failures', 0):>6}  "
            f"{entry.get('source') or ''}"
        )
    return 0


def _print_deltas(deltas, verbose: bool) -> None:
    def fmt(value: float | None) -> str:
        return f"{value:.3f}" if value is not None else "-"

    print(
        f"{'cell':<40} {'class':<10} {'ratio':>7} {'ci':>15} "
        f"{'base':>9} {'cand':>9}"
    )
    for delta in deltas:
        if not verbose and delta.classification == "unchanged":
            continue
        ci = (
            f"[{delta.ci_low:.2f},{delta.ci_high:.2f}]"
            if delta.ci_low is not None and delta.ci_high is not None
            else "-"
        )
        print(
            f"{delta.cell:<40} {delta.classification:<10} "
            f"{fmt(delta.ratio):>7} {ci:>15} "
            f"{fmt(delta.baseline_best):>9} {fmt(delta.candidate_best):>9}"
        )


def _gate_report(
    args: argparse.Namespace, baseline, candidate, headline: str, advice: str
):
    """Evaluate candidate against baseline (each a ``_resolve_results``
    triple) and print what ``diff`` and ``gate`` both open with."""
    base_ref, base_results, base_env = baseline
    cand_ref, cand_results, cand_env = candidate
    report = evaluate_gate(
        base_results,
        cand_results,
        threshold=args.threshold,
        baseline_ref=base_ref,
        candidate_ref=cand_ref,
        baseline_environment=base_env,
        candidate_environment=cand_env,
    )
    print(headline.format(base=base_ref, cand=cand_ref, threshold=args.threshold))
    summary = report.summary()
    print(
        ", ".join(f"{name}: {count}" for name, count in sorted(summary.items()))
    )
    if report.environment_mismatches:
        print(
            "warning: environments differ on "
            + ", ".join(report.environment_mismatches)
            + f" — {advice}"
        )
    return report


def _cmd_diff(args: argparse.Namespace) -> int:
    report = _gate_report(
        args,
        _resolve_results(args.baseline, args.archive_dir),
        _resolve_results(args.candidate, args.archive_dir),
        "baseline {base} vs candidate {cand} (threshold {threshold:.0%})",
        "ratios partly reflect the machine",
    )
    _print_deltas(report.deltas, verbose=True)
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    cand_source = args.results if args.results else args.candidate
    resolved = _resolve_results(cand_source, args.archive_dir)
    cand_ref, candidate, _ = resolved

    baseline_path = Path(args.baseline)
    if args.promote and not baseline_path.is_file():
        if not (args.baseline.endswith(".json") or "/" in args.baseline):
            raise SystemExit(
                "--promote needs a baseline *file path* to write "
                f"(got archive ref {args.baseline!r})"
            )
        # Bootstrapping: no baseline yet — promote the candidate into place.
        promote_baseline(candidate, baseline_path)
        print(f"no baseline at {baseline_path}; promoted {cand_ref} as the baseline")
        return 0

    report = _gate_report(
        args,
        _resolve_results(args.baseline, args.archive_dir),
        resolved,
        "gate: {cand} vs baseline {base} (noise threshold {threshold:.0%})",
        "consider --promote to rebaseline on this machine",
    )
    if not report.passed:
        print("regressions:")
        for delta in report.regressions:
            ratio = f"{delta.ratio:.2f}x" if delta.ratio is not None else delta.detail
            print(f"  {delta.cell}: {delta.classification} ({ratio})")
    _print_deltas(report.deltas, verbose=args.verbose)
    if args.out:
        write_gate_report(report, args.out)
        print(f"gate report written to {args.out}")
    if args.promote:
        promote_baseline(candidate, baseline_path)
        print(f"promoted {cand_ref} to baseline {baseline_path}")
    if report.passed:
        print("gate: PASS")
        return 0
    print(f"gate: FAIL ({len(report.regressions)} regressed cell(s))")
    return 1 if args.fail_on_regression else 0


def _parse_server(text: str) -> tuple[str, int]:
    """Split a HOST:PORT (or bare PORT) --server value."""
    host, _, port = text.rpartition(":")
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise SystemExit(f"--server must be HOST:PORT, got {text!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import BenchmarkService
    from .service.server import serve_forever

    service = BenchmarkService(
        archive_dir=args.archive_dir,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        journal_dir=args.journal_dir,
        max_pending_jobs=args.max_queue,
        resume=args.resume,
        min_free_bytes=(
            None
            if args.min_free_mb is None
            else int(args.min_free_mb * 1024 * 1024)
        ),
    )
    for report in service.recovery_report:
        print(f"recovered: {report}")
    if service.index_heal_report:
        print(f"index healed: {service.index_heal_report}")

    def ready(host: str, port: int) -> None:
        print(f"repro service listening on http://{host}:{port}", flush=True)
        print(f"archive: {service.archive.root} ({len(service.index)} cells indexed)", flush=True)

    try:
        serve_forever(service, host=args.host, port=args.port, ready=ready)
    except OSError as exc:
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {exc}")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .errors import ServiceError
    from .service import CampaignRequest, ServiceClient

    try:
        request = CampaignRequest.from_dict(
            {
                "graphs": args.graphs,
                "kernels": args.kernels,
                "frameworks": args.frameworks,
                "modes": args.modes,
                "scale": args.scale,
                "seed": args.seed,
                "trial_timeout": args.timeout,
            }
        )
    except ServiceError as exc:
        raise SystemExit(f"invalid campaign: {exc}")
    host, port = _parse_server(args.server)
    cells: list[dict] = []
    try:
        with ServiceClient(host, port, timeout=args.client_timeout) as client:
            for event in client.submit(request):
                kind = event.get("event")
                if kind == "accepted":
                    print(
                        f"campaign {event['campaign']}: {event['cells']} cells "
                        f"({event['hits']} cached, {event['pending']} pending)"
                    )
                elif kind == "cell":
                    cells.append(event)
                    result = event.get("result") or {}
                    tag = "cached" if event.get("cached") else "fresh"
                    best = result.get("trial_seconds") or [None]
                    label = "/".join(event["cell"])
                    status = result.get("status", "error")
                    timing = (
                        f"{min(t for t in best if t is not None):.4f}s"
                        if any(t is not None for t in best)
                        else "-"
                    )
                    print(f"  {label:<44} {status:<8} {timing:>10}  [{tag}]")
                elif kind == "done":
                    note = (
                        f"archived as {event['fresh_run_id']}"
                        if event.get("fresh_run_id")
                        else "fully served from the archive (nothing executed)"
                    )
                    print(
                        f"done: {event['cells']} cells, {event['hits']} cached, "
                        f"{event['executed']} executed; {note}"
                    )
                elif kind == "degraded":
                    reasons = "; ".join(event.get("reasons") or [])
                    print(
                        f"server degraded: {event.get('rejected', 0)} cells "
                        f"rejected ({reasons}); retry in "
                        f"{event.get('retry_after_seconds')}s "
                        f"— {event.get('hits', 0)} cached cells were served",
                        file=sys.stderr,
                    )
                    return 1
                elif kind == "error":
                    print(f"server error: {event.get('message')}", file=sys.stderr)
                    return 1
    except ServiceError as exc:
        raise SystemExit(str(exc))
    if args.out:
        from .core.results import RunResult

        results = ResultSet(
            [
                RunResult.from_dict(event["result"])
                for event in cells
                if event.get("result")
            ],
            meta={"request": request.as_dict(), "service": args.server},
        )
        results.save_json(args.out)
        print(f"saved to {args.out}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json as _json

    from .errors import ServiceError
    from .service import ServiceClient

    host, port = _parse_server(args.server)
    try:
        with ServiceClient(host, port, timeout=10.0) as client:
            payload = client.health() if args.health else client.status()
            print(_json.dumps(payload, indent=2, default=str))
    except ServiceError as exc:
        raise SystemExit(str(exc))
    if args.health and not payload.get("ok"):
        return 1
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    import json as _json

    from .store.archive import RunArchive
    from .store.integrity import scrub

    archive = RunArchive(args.archive_dir)
    report = scrub(archive, quarantine=not args.no_quarantine)
    payload = report.as_dict()
    if args.json:
        print(_json.dumps(payload, indent=2, default=str))
    else:
        print(f"archive: {report.archive_root}")
        print(f"runs checked: {report.checked_runs}")
        for entry in report.quarantined:
            problems = "; ".join(str(p) for p in entry.get("problems", []))
            where = entry.get("quarantined_to", "(reported only)")
            print(f"  quarantined {entry['run_id']}: {problems} -> {where}")
        for problem in report.index_problems:
            print(f"  index: {problem}")
        if report.index_rebuilt:
            print(f"cell index rebuilt: {report.index_entries} entries")
        else:
            print(f"cell index verified: {report.index_entries} entries")
        for problem in report.unresolved:
            print(f"  UNRESOLVED: {problem}")
        print(f"verdict: {report.verdict}")
    return 1 if report.verdict == "failed" else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {version_string()}",
        help="print package version and git SHA, then exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the benchmark campaign")
    run_parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    run_parser.add_argument("--graphs", default=",".join(GRAPH_NAMES))
    run_parser.add_argument("--kernels", default=",".join(KERNELS))
    run_parser.add_argument("--frameworks", default=",".join(EXTENDED_FRAMEWORK_NAMES[:6]))
    run_parser.add_argument("--modes", default="baseline,optimized")
    run_parser.add_argument("--out", default=None)
    run_parser.add_argument(
        "--strict",
        action="store_true",
        help="abort the campaign on the first failing cell (default: record "
        "the failure and keep going)",
    )
    run_parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-trial wall-clock deadline; an over-budget trial becomes a "
        "recorded timeout",
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream per-cell telemetry spans to this JSONL file",
    )
    run_parser.add_argument(
        "--track-memory",
        action="store_true",
        help="record peak heap allocation of each cell's first trial "
        "(tracemalloc; distorts that trial's timing)",
    )
    run_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for the campaign (default 1 = serial); with "
        "N>1 cells run in a process pool over a shared-memory corpus and "
        "--timeout becomes a hard per-cell kill",
    )
    run_parser.add_argument(
        "--pool",
        choices=("process", "threads"),
        default="process",
        help="worker pool flavor for --jobs N>1: 'process' (isolated warm "
        "workers over a shared-memory corpus; hard kills on --timeout) or "
        "'threads' (threads sharing this process's graphs; cheapest "
        "dispatch for GIL-releasing NumPy kernels, soft deadlines)",
    )
    run_parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cells per dispatch message under --jobs N>1 (default: sized "
        "automatically from trial counts; 1 = per-cell dispatch; cells "
        "under a hard --timeout always dispatch alone)",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent graph-cache directory (default: $REPRO_CACHE_DIR "
        "or ~/.cache/repro/graphs); cached graphs skip generation",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always regenerate graphs; neither read nor write the cache",
    )
    run_parser.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="re-run a cell up to N extra times after a *transient* failure "
        "(worker crash, OOM kill, cache corruption) with exponential "
        "backoff; deterministic failures are never retried",
    )
    run_parser.add_argument(
        "--breaker-threshold",
        type=_nonnegative_int,
        default=0,
        metavar="K",
        help="after K consecutive hard failures of one framework/kernel "
        "combination, skip its remaining cells as structured 'skipped' "
        "results (default 0 = disabled)",
    )
    run_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="checkpoint every completed cell to this crash-safe JSONL "
        "journal; combine with --resume to continue an interrupted campaign",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already recorded in --journal (validated against "
        "the campaign fingerprint) and measure only the rest",
    )
    run_parser.add_argument(
        "--archive",
        action="store_true",
        help="archive this campaign (results, spec, telemetry spans, and an "
        "environment fingerprint) in the append-only run archive",
    )
    run_parser.add_argument(
        "--archive-dir",
        default=None,
        metavar="DIR",
        help="archive root (default: $REPRO_ARCHIVE_DIR or results/archive)",
    )
    run_parser.set_defaults(fn=_cmd_run)

    tables_parser = sub.add_parser("tables", help="render tables from saved results")
    tables_parser.add_argument("--results", required=True)
    tables_parser.set_defaults(fn=_cmd_tables)

    graphs_parser = sub.add_parser("graphs", help="print Table I for the corpus")
    graphs_parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    graphs_parser.set_defaults(fn=_cmd_graphs)

    datasets_parser = sub.add_parser(
        "datasets", help="list or describe file-backed datasets"
    )
    datasets_parser.add_argument(
        "refs", nargs="*", metavar="REF",
        help="dataset references (file:/path or dataset:NAME) to describe; "
        "with none given, lists the registered dataset directory",
    )
    datasets_parser.add_argument(
        "--dataset-dir", default=None, metavar="DIR",
        help="dataset registry directory "
        "(default: $REPRO_DATASET_DIR or ./datasets)",
    )
    datasets_parser.add_argument(
        "--stats", action="store_true",
        help="load each dataset and print topology statistics",
    )
    datasets_parser.set_defaults(fn=_cmd_datasets)

    compare_parser = sub.add_parser("compare", help="score results against the paper")
    compare_parser.add_argument("--results", required=True)
    compare_parser.set_defaults(fn=_cmd_compare)

    generate_parser = sub.add_parser("generate", help="write a corpus graph to disk")
    generate_parser.add_argument("graph")
    generate_parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    generate_parser.add_argument("--seed", type=int, default=0)
    generate_parser.add_argument("--weighted", action="store_true")
    generate_parser.add_argument("--out", required=True)
    generate_parser.set_defaults(fn=_cmd_generate)

    report_parser = sub.add_parser("report", help="render saved results as markdown")
    report_parser.add_argument("--results", required=True)
    report_parser.add_argument("--out", required=True)
    report_parser.set_defaults(fn=_cmd_report)

    archive_parser = sub.add_parser(
        "archive", help="store a saved results file in the run archive"
    )
    archive_parser.add_argument("--results", required=True)
    archive_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="JSONL telemetry trace to persist alongside the results",
    )
    archive_parser.add_argument("--archive-dir", default=None, metavar="DIR")
    archive_parser.set_defaults(fn=_cmd_archive)

    history_parser = sub.add_parser("history", help="list archived runs")
    history_parser.add_argument("--archive-dir", default=None, metavar="DIR")
    history_parser.add_argument("--limit", type=int, default=None, metavar="N")
    history_parser.set_defaults(fn=_cmd_history)

    diff_parser = sub.add_parser(
        "diff", help="statistically compare two runs, cell by cell"
    )
    diff_parser.add_argument(
        "--baseline", required=True, metavar="REF",
        help="run-id prefix, 'latest', or a results-file path",
    )
    diff_parser.add_argument(
        "--candidate", default="latest", metavar="REF",
        help="run to compare against the baseline (default: latest)",
    )
    diff_parser.add_argument(
        "--threshold", type=float, default=DEFAULT_NOISE_THRESHOLD,
        metavar="FRACTION",
        help="relative noise band within which a cell is 'unchanged' "
        f"(default {DEFAULT_NOISE_THRESHOLD})",
    )
    diff_parser.add_argument("--archive-dir", default=None, metavar="DIR")
    diff_parser.set_defaults(fn=_cmd_diff)

    gate_parser = sub.add_parser(
        "gate", help="fail when the candidate run regresses past the baseline"
    )
    gate_parser.add_argument(
        "--baseline", required=True, metavar="REF",
        help="baseline run: run-id prefix, 'latest', or a results-file path "
        "(a file path is required for --promote)",
    )
    gate_parser.add_argument(
        "--results", default=None, metavar="PATH",
        help="candidate results file (default: the latest archived run)",
    )
    gate_parser.add_argument(
        "--candidate", default="latest", metavar="REF",
        help="candidate run ref when --results is not given",
    )
    gate_parser.add_argument(
        "--threshold", type=float, default=DEFAULT_NOISE_THRESHOLD,
        metavar="FRACTION",
        help="relative regression threshold: a cell gates only when its "
        "best-of-k ratio and its whole bootstrap CI exceed 1+FRACTION "
        f"(default {DEFAULT_NOISE_THRESHOLD})",
    )
    gate_parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when any cell regresses (default: report only)",
    )
    gate_parser.add_argument(
        "--promote",
        action="store_true",
        help="install the candidate as the new baseline file (atomic); "
        "with a missing baseline this bootstraps it",
    )
    gate_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the gate report as JSON (e.g. BENCH_gate.json)",
    )
    gate_parser.add_argument(
        "--verbose", action="store_true",
        help="print unchanged cells too, not just movers",
    )
    gate_parser.add_argument("--archive-dir", default=None, metavar="DIR")
    gate_parser.set_defaults(fn=_cmd_gate)

    serve_parser = sub.add_parser(
        "serve", help="start the memoizing benchmark server"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=_nonnegative_int, default=8585,
        help="listen port (0 = pick an ephemeral port and print it)",
    )
    serve_parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes in the shared warm pool",
    )
    serve_parser.add_argument(
        "--archive-dir", default=None, metavar="DIR",
        help="archive root backing the cell index "
        "(default: $REPRO_ARCHIVE_DIR or results/archive)",
    )
    serve_parser.add_argument("--cache-dir", default=None, metavar="DIR")
    serve_parser.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="where per-campaign crash journals live "
        "(default: ARCHIVE/journals)",
    )
    serve_parser.add_argument(
        "--max-queue", type=_positive_int, default=16, metavar="N",
        help="campaigns allowed to wait for the engine before submissions "
        "are rejected",
    )
    serve_parser.add_argument(
        "--resume", action="store_true",
        help="on startup, archive and index completed cells from journals "
        "left behind by a crashed server",
    )
    serve_parser.add_argument(
        "--min-free-mb", type=_positive_float, default=None, metavar="MB",
        help="disk low-watermark at the archive root: below this the "
        "server degrades to hits-only read-only mode "
        "(default: $REPRO_MIN_FREE_BYTES or 64 MiB)",
    )
    serve_parser.set_defaults(fn=_cmd_serve)

    submit_parser = sub.add_parser(
        "submit", help="submit a campaign to a running server"
    )
    submit_parser.add_argument("--graphs", required=True)
    submit_parser.add_argument("--kernels", required=True)
    submit_parser.add_argument("--frameworks", required=True)
    submit_parser.add_argument("--modes", default="baseline,optimized")
    submit_parser.add_argument("--scale", type=int, default=10)
    submit_parser.add_argument("--seed", type=int, default=0)
    submit_parser.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-trial deadline, part of the campaign identity",
    )
    submit_parser.add_argument(
        "--server", default="127.0.0.1:8585", metavar="HOST:PORT",
    )
    submit_parser.add_argument(
        "--client-timeout", type=_positive_float, default=3600.0,
        metavar="SECONDS", help="socket timeout while streaming results",
    )
    submit_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="save the streamed cells as a results JSON file",
    )
    submit_parser.set_defaults(fn=_cmd_submit)

    status_parser = sub.add_parser("status", help="query a running server")
    status_parser.add_argument(
        "--server", default="127.0.0.1:8585", metavar="HOST:PORT",
    )
    status_parser.add_argument(
        "--health", action="store_true",
        help="print the full /health payload (watermarks, degraded "
        "state, engine/pool liveness, last scrub verdict); exit 1 if "
        "the server is degraded",
    )
    status_parser.set_defaults(fn=_cmd_status)

    scrub_parser = sub.add_parser(
        "scrub",
        help="verify every archived run + cell-index entry; quarantine "
        "damage and self-heal the index",
    )
    scrub_parser.add_argument(
        "--archive-dir", default=None, metavar="DIR",
        help="archive root to scrub "
        "(default: $REPRO_ARCHIVE_DIR or results/archive)",
    )
    scrub_parser.add_argument(
        "--no-quarantine", action="store_true",
        help="report damage without moving anything (verdict becomes "
        "'failed' if damage is found)",
    )
    scrub_parser.add_argument(
        "--json", action="store_true",
        help="print the full scrub report as JSON",
    )
    scrub_parser.set_defaults(fn=_cmd_scrub)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
