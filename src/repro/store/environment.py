"""Environment fingerprinting for archived benchmark runs.

Pollard & Norris's comparison methodology ("A Comparison of Parallel
Graph Processing Implementations") makes the case directly: performance
numbers are only comparable when the environment that produced them is
captured alongside them.  Two archived runs whose fingerprints differ in
CPU, Python, or NumPy version are *not* directly comparable, and the
regression gate reports the mismatch instead of silently trusting the
ratio.

The fingerprint is cheap to compute (one ``git rev-parse`` subprocess at
most per process, however often it is taken) and JSON-serializable; it
goes into every run manifest (:mod:`repro.store.archive`), every
``BENCH_*.json`` payload, and the CLI's ``--version`` string.
"""

from __future__ import annotations

import functools
import os
import platform
import subprocess
import sys

__all__ = ["fingerprint", "fingerprint_mismatches", "git_sha", "version_string"]

#: Fingerprint keys whose disagreement makes two runs non-comparable.
COMPARABILITY_KEYS = ("python", "implementation", "machine", "numpy", "cpu_count")


def git_sha(short: bool = True) -> str | None:
    """The current git commit SHA, or None outside a work tree.

    ``REPRO_GIT_SHA`` overrides the lookup (for CI environments that
    export the SHA but run from an exported tree without ``.git``) and
    is read on every call; the ``git`` answer is asked for once.
    """
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override[:12] if short else override
    return _rev_parse_head(short)


@functools.cache
def _rev_parse_head(short: bool) -> str | None:
    """``git rev-parse HEAD``, forked once per process: the code that is
    running is the code that was imported, whatever HEAD does later."""
    cmd = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=5.0, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def version_string() -> str:
    """``<package version>+g<sha>`` (or just the version without git)."""
    from .. import __version__

    sha = git_sha()
    return f"{__version__}+g{sha}" if sha else __version__


def fingerprint() -> dict[str, object]:
    """One JSON-safe snapshot of everything that shapes a timing."""
    import numpy

    try:
        import scipy

        scipy_version: str | None = scipy.__version__
    except ImportError:  # scipy is a hard dep today, but stay graceful
        scipy_version = None
    from .. import __version__

    return {
        "repro_version": __version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "executable": sys.executable,
    }


def fingerprint_mismatches(
    baseline: dict[str, object] | None, candidate: dict[str, object] | None
) -> list[str]:
    """Comparability-relevant keys on which two fingerprints disagree.

    A non-empty list means ratios between the two runs reflect the
    environment as much as the code; the gate surfaces it as a warning
    (the CI gate compensates with a loose threshold, since the committed
    baseline rarely comes from the exact runner hardware).
    """
    if not baseline or not candidate:
        return []
    return [
        key
        for key in COMPARABILITY_KEYS
        if baseline.get(key) is not None
        and candidate.get(key) is not None
        and baseline.get(key) != candidate.get(key)
    ]
