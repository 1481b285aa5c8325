"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without also catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """A graph, edge list, or CSR structure is malformed."""


class GraphBLASError(ReproError):
    """Base class for errors raised by the semiring (GraphBLAS-style) engine."""


class DimensionMismatchError(GraphBLASError):
    """Operands of a linear-algebra operation have incompatible shapes."""


class DomainMismatchError(GraphBLASError):
    """Operands of a linear-algebra operation have incompatible types."""


class InvalidValueError(GraphBLASError):
    """An argument value is outside the accepted domain."""


class SchedulingError(ReproError):
    """A GraphIt-style schedule is invalid for the algorithm it is applied to."""


class VerificationError(ReproError):
    """A kernel produced an output that fails the GAP verification rules."""


class BenchmarkConfigError(ReproError):
    """The benchmark harness was configured inconsistently."""


class TrialTimeoutError(ReproError):
    """A benchmark trial exceeded its per-trial wall-clock deadline."""


class CellFailedError(ReproError):
    """A strict campaign stopped on a cell whose exception did not survive.

    ``run_suite(strict=True)`` re-raises a failed cell's own exception
    when the cell ran on the caller's thread (the inline backend).  When
    only the error text came back — the cell ran in a worker thread or
    process, or its worker was killed or died — this is raised instead
    (:class:`TrialTimeoutError` for a timeout); the message carries the
    cell label and that text.  Either way the cell is never journaled.
    """


class CorruptLogError(ReproError):
    """A :class:`repro.durable.AppendLog` file has a damaged line *before*
    its final one — corruption, not the torn tail a crash leaves.  The
    journal and the cell index re-raise it as :class:`JournalError` /
    :class:`ArchiveError`."""


class ArchiveError(ReproError):
    """A results-archive operation failed (unknown run, ambiguous ref,
    or a corrupt/unreadable archive layout)."""


class JournalError(ReproError):
    """A checkpoint journal cannot be used (fingerprint mismatch with the
    resuming campaign, wrong version, or corruption before the final
    line — a torn *trailing* line is expected after a crash and handled,
    not an error)."""


class ServiceError(ReproError):
    """A benchmark-service operation failed (invalid campaign request,
    server not reachable, submission rejected, or a protocol violation
    in the client/server exchange)."""


class CampaignAborted(BaseException):
    """The campaign was deliberately terminated (SIGTERM).

    Derives from ``BaseException``, not :class:`ReproError`: fault
    isolation converts ``Exception`` into per-cell failure records, and an
    operator's termination request must unwind the whole campaign —
    flushing the checkpoint journal and releasing shared memory — rather
    than be recorded as one more broken cell.
    """


class UnknownFrameworkError(ReproError):
    """A framework name was requested that is not in the registry."""


class UnknownKernelError(ReproError):
    """A kernel name was requested that is not part of the GAP suite."""


class UnknownGraphError(ReproError):
    """A graph name was requested that is not part of the GAP corpus."""
