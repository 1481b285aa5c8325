"""Shared plumbing of the benchmark suite: work dirs, clocks, statistics.

Nothing here knows a workload; ``campaigns.py`` and ``services.py`` build
on it.  The suite only ever reads and writes below ``WORK_ROOT`` (inside
the checkout), and points every repo default that would otherwise land
in the user's home (``REPRO_CACHE_DIR``, ``REPRO_ARCHIVE_DIR``, temp
files) into the run's own directory.

End-to-end times are reported **at reference speed**.  The sandbox this
suite is judged on changes speed by tens of percent from one minute to
the next (other tenants of the host), which no amount of repetition
inside one run averages away.  So every timed region is bracketed by a
fixed loop that uses none of the repo's code (``speed_factor``), and its
wall time is divided by how much slower than nominal that loop ran.
"""

from __future__ import annotations

import ctypes
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = REPO_ROOT / ".bench_work"

#: What a fresh interpreter must import before it can run a campaign; the
#: set-up clock of every workload starts with this.
IMPORT_PROBE = (
    "import repro.core, repro.store, repro.service, repro.resilience;"
    "from repro.frameworks import all_frameworks; all_frameworks()"
)


#: Seconds one reference burst takes on the sandbox when nothing else
#: competes for it.  Only sets the scale: a time "at reference speed" reads
#: like plain seconds on a quiet sandbox.
REFERENCE_BURST_S = 0.005

_REFERENCE_VALUES = np.random.default_rng(12345).random(50_000)
_REFERENCE_ORDER = np.random.default_rng(54321).integers(0, 50_000, 50_000)


def _reference_burst() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work (about 5 ms)."""
    started = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(5):
        np.sort(_REFERENCE_VALUES)
        np.cumsum(_REFERENCE_VALUES[_REFERENCE_ORDER])
    return time.perf_counter() - started


def speed_factor() -> float:
    """How many times slower than nominal the machine runs right now.

    One discarded burst (the thread may come out of a wait with cold
    caches), then the mean of ten: on this sandbox a 50 ms sample tracks
    the slowdown of the work beside it markedly better than a 15 ms one.
    """
    _reference_burst()
    return statistics.fmean(_reference_burst() for _ in range(10)) / REFERENCE_BURST_S


@dataclass
class Round:
    """One fixed set of operations, as timed by a workload."""

    wall: float
    #: Seconds per operation, in completion order.
    latencies: list[float]
    #: Whatever else the workload needs from the round (results, samples).
    detail: object = None
    #: Machine slowdown the times were divided by (1.0 = not rescaled).
    speed_factor: float = 1.0


@dataclass
class Outcome:
    """What one pass of one workload produced."""

    attempted: int = 0
    failed: int = 0
    #: Metric name -> value, in the unit BENCHMARK.json declares.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Output checks: (name, passed, detail).
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Operation and sample counts printed beside the metrics.
    info: dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(passed for _, passed, _ in self.checks)

    def report_end_to_end(
        self, setups: Sequence[float], rounds: Sequence[Round], peak_rss_mb: float
    ) -> None:
        """The five end-to-end metrics, defined once for every workload."""
        latencies = [sample for round_ in rounds for sample in round_.latencies]
        self.info.update(
            round_walls=[round(round_.wall, 4) for round_ in rounds],
            speed_factors=[round(round_.speed_factor, 3) for round_ in rounds],
            latency_samples=len(latencies),
        )
        self.metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(round_.wall for round_ in rounds),
            "op_p50_ms": percentile(latencies, 0.50) * 1e3,
            "op_p95_ms": percentile(latencies, 0.95) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }

    def report_trace_pair(self, untraced: Round, traced: Round, speed: float) -> None:
        """Raw wall time of the traced round, what tracing added to it, and
        how fast the machine was meanwhile."""
        self.metrics["trace.wall_s"] = traced.wall
        self.metrics["trace.overhead_frac"] = (traced.wall - untraced.wall) / untraced.wall
        self.metrics["trace.speed_factor"] = speed


def child_env(workdir: Path) -> dict[str, str]:
    """Environment for subprocesses: repo on the path, state in ``workdir``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + existing if existing else "")
    env["REPRO_CACHE_DIR"] = str(workdir / "default-graph-cache")
    env["REPRO_ARCHIVE_DIR"] = str(workdir / "default-archive")
    env["TMPDIR"] = str(workdir)
    return env


def make_workdir() -> Path:
    """A fresh per-run directory; also re-homes this process's defaults."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    os.environ.update(
        {key: value for key, value in child_env(workdir).items() if key != "PYTHONPATH"}
    )
    tempfile.tempdir = str(workdir)
    return workdir


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only succeeds once no concurrent run is left
    except OSError:
        pass


#: Seconds the processes of a finished run get to end by themselves.
SESSION_GRACE_S = 20.0

_PR_SET_PDEATHSIG, _PR_SET_CHILD_SUBREAPER = 1, 36  # <linux/prctl.h>


def _prctl(option: int, value: int) -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: the session is still waited for, see below


def run_in_own_session(command: Sequence[str]) -> int:
    """Run ``command`` to its end and return only once *every* process it
    started has ended and been waited for; returns the command's exit code.

    A run starts processes that outlive the interpreter that started them
    - ``multiprocessing``'s resource tracker (one behind this process's
    shared-memory corpus, another behind the server's) only starts its
    clean-up when its owner exits - and a run that crashes or is
    terminated may orphan a server or pool worker.  So the command gets a
    session of its own, this process adopts whatever the command orphans
    (child subreaper), and nothing is left behind on any way out: the
    process group is terminated once the command has ended, waited for
    until it is empty, and killed if that takes ``SESSION_GRACE_S``;
    SIGTERM and SIGINT are passed on to it.
    """
    _prctl(_PR_SET_CHILD_SUBREAPER, 1)  # without it orphans go to init
    child = subprocess.Popen(list(command), start_new_session=True)
    group = child.pid  # a session leader's process group is its pid

    def signal_group(signum: int) -> bool:
        try:
            os.killpg(group, signum)
            return True
        except ProcessLookupError:
            return False  # the group is empty

    forwarded = {
        signum: signal.signal(signum, lambda received, _frame: signal_group(received))
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        code = child.wait()
    finally:
        # What is left now is either a resource tracker, which ignores
        # SIGTERM and ends once it has cleaned up, or an orphan of a run
        # that did not unwind, which this stops.
        signal_group(signal.SIGTERM)
        deadline = time.monotonic() + SESSION_GRACE_S
        while signal_group(0):
            try:
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass  # reaped an adopted process; look for the next
            except ChildProcessError:
                pass  # the stragglers are not ours to reap (no subreaper)
            if time.monotonic() > deadline:
                signal_group(signal.SIGKILL)
            time.sleep(0.005)
        for signum, previous in forwarded.items():
            signal.signal(signum, previous)
    return code if code >= 0 else 128 - code


def terminate_with_parent() -> None:
    """Have the kernel send this process SIGTERM if its parent dies: a
    killed ``run_in_own_session`` cannot pass anything on any more."""
    _prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def fresh_dir(parent: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix + "-", dir=parent))


def time_fresh_import(workdir: Path) -> float:
    """Seconds a new interpreter needs to import the package and frameworks."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=child_env(workdir), cwd=workdir, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
    )
    return time.perf_counter() - started


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled by the speed factors sampled around them."""
    return seconds / ((before + after) / 2.0)


def timed_setups(set_up: Callable[[], object], repeats: int, tear_down=None):
    """Set up ``repeats`` times; returns the last result and every set-up's
    seconds at reference speed.  ``tear_down(result)`` disposes of each
    result that is not the last."""
    seconds: list[float] = []
    result = None
    for _ in range(repeats):
        if result is not None and tear_down is not None:
            tear_down(result)
        before = speed_factor()
        started = time.perf_counter()
        result = set_up()
        elapsed = time.perf_counter() - started
        seconds.append(at_reference_speed(elapsed, before, speed_factor()))
    return result, seconds


def measure_rounds(run_round: Callable[[int], Round], seconds: float) -> list[Round]:
    """Repeat whole rounds until about ``seconds`` of measuring is used;
    every round's times come back at reference speed.

    Always runs one round; stops as soon as half of another round would
    no longer fit, so run length tracks ``seconds`` without ever cutting
    a round (a fixed operation set) short.
    """
    rounds: list[Round] = []
    started = time.perf_counter()
    before = speed_factor()
    while True:
        round_ = run_round(len(rounds))
        after = speed_factor()
        round_.speed_factor = (before + after) / 2.0
        round_.wall /= round_.speed_factor
        round_.latencies = [sample / round_.speed_factor for sample in round_.latencies]
        rounds.append(round_)
        before = after
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            return rounds


def trace_pair(run_round: Callable[[int], Round]) -> tuple[Round, Round, float]:
    """The traced pass's two rounds (index 0 untraced, 1 traced), left in
    raw seconds, and the machine's mean speed factor around them."""
    before = speed_factor()
    untraced, traced = run_round(0), run_round(1)
    return untraced, traced, (before + speed_factor()) / 2.0


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation across gaps)."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def calibrated_seconds(call: Callable[[], object], min_seconds: float) -> float:
    """Mean seconds per ``call()`` over at least ``min_seconds`` of repeats.

    The repeat count doubles until the loop itself lasts long enough, so a
    sub-millisecond primitive is never reported from one raw reading.
    """
    call()  # first call pays lazy imports and allocator warm-up
    repeats = 1
    while True:
        started = time.perf_counter()
        for _ in range(repeats):
            call()
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return elapsed / repeats
        repeats *= 2


def self_and_children_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports kilobytes


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def run_probe(
    name: str, probe: Callable[[], dict[str, float]], names: Sequence[str]
) -> dict[str, float]:
    """Run one standalone layer probe; a layer that is gone reads 0.

    Later changes may delete or rename a layer this suite times directly
    (they may not edit the suite), so a probe whose imports or call
    signatures no longer resolve reports 0 for its metrics and says so on
    stderr instead of failing the run.  End-to-end paths get no such
    tolerance.
    """
    try:
        values = probe()
    except (ImportError, AttributeError, TypeError) as exc:
        print(f"layer probe {name} unavailable: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return {metric: 0.0 for metric in names}
    return {metric: float(values[metric]) for metric in names}
