"""Wire protocol of the benchmark service.

A submission is a *campaign request*: the measurement axes (graphs,
kernels, frameworks, modes) plus the spec knobs that change what a
measurement means (scale, seed, trials, timeout).  Execution topology is
deliberately absent — how the server parallelizes is its business, and
keeping topology out of the request keeps the cell digests stable across
server configurations (see :mod:`repro.store.cellindex`).

The response is a stream of newline-delimited JSON events:

``accepted``
    First event: the campaign id, total cell count, and the hit/miss
    split the dedup pass computed.
``cell``
    One per cell, as results land: the canonical ``cell`` key, the
    ``result`` payload (``RunResult.as_dict`` form), ``cached`` (True =
    served from the archive without executing anything), and ``run_id``
    (the archived run holding the cell; ``null`` for a freshly executed
    cell, whose run id is only knowable once the whole job is archived —
    the terminal ``done`` event carries it).
``done``
    Terminal event: totals, and ``fresh_run_id`` if this submission
    caused an execution that was archived.
``degraded``
    Terminal event when the server is in hits-only read-only mode
    (disk below its watermark, or draining for shutdown): every
    cached cell was still served, but the listed misses were *rejected*
    — nothing was enqueued or written.  Carries the watermark
    ``reasons`` and a ``retry_after_seconds`` hint; clients should
    resubmit later, and will then hit for everything already measured.
``error``
    Terminal event on rejection (capacity, engine failure, or a dataset
    reference that does not resolve on the server's filesystem).

The graphs axis accepts generator names (``road``, ``kron``, ...) and
dataset references (``file:/path/on/server.mtx``, ``dataset:NAME`` — see
:mod:`repro.graphs.datasets`).  References are resolved server-side: the
cell digests for file-backed cells are keyed on the file's *content
digest*, so two clients referencing byte-identical files share cells.

Both ends carry this over the same small HTTP/1.1, and both read a
message head with :func:`read_line` and :func:`read_fields`, under one
pair of limits: a line of at most :data:`MAX_LINE` bytes, at most
:data:`MAX_HEADERS` header lines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from ..core.batching import canonical_order
from ..core.spec import DEFAULT_TRIALS, BenchmarkSpec
from ..errors import BenchmarkConfigError, ServiceError
from ..frameworks.base import KERNELS
from ..frameworks.registry import EXTENDED_FRAMEWORK_NAMES
from ..generators import GRAPH_NAMES
from ..store.archive import canonical_json

__all__ = ["EVENT_KINDS", "CampaignRequest", "encode_event"]

EVENT_KINDS = ("accepted", "cell", "done", "degraded", "error")

MODE_VALUES = ("baseline", "optimized")

#: Request fields accepted on the wire (anything else is a protocol error).
REQUEST_FIELDS = (
    "graphs",
    "kernels",
    "frameworks",
    "modes",
    "scale",
    "seed",
    "trials",
    "trial_timeout",
)


def _validate_axis(
    name: str, values: tuple[str, ...], allowed: tuple[str, ...]
) -> None:
    if not values:
        raise ServiceError(f"campaign request has no {name}")
    unknown = [value for value in values if value not in allowed]
    if unknown:
        raise ServiceError(
            f"unknown {name} {unknown!r} (allowed: {list(allowed)})"
        )
    if len(set(values)) != len(values):
        raise ServiceError(f"duplicate {name} in {list(values)}")


def _validate_graphs(values: tuple[str, ...]) -> None:
    """Graphs axis: generator names plus dataset references.

    References (``file:/path`` / ``dataset:NAME``) are validated
    *syntactically* here — whether the path resolves is the server's
    business at submission time, because the file lives on the server's
    filesystem, not the client's.  An unresolvable reference becomes a
    structured ``error`` event, not a protocol error.
    """
    from ..graphs.datasets import unknown_graphs

    if not values:
        raise ServiceError("campaign request has no graphs")
    unknown = unknown_graphs(values)
    if unknown:
        raise ServiceError(
            f"unknown graphs {unknown!r} (allowed: {list(GRAPH_NAMES)} "
            "or file:/dataset: references)"
        )
    if len(set(values)) != len(values):
        raise ServiceError(f"duplicate graphs in {list(values)}")


@dataclass(frozen=True)
class CampaignRequest:
    """One validated campaign submission.

    Axis order is preserved as given (it defines the canonical cell
    order of the response), but the *campaign id* is order-sensitive
    too: clients wanting maximal coalescing should submit axes in a
    fixed order.  Cell digests are order-insensitive by construction —
    two requests overlapping in cells share those cells' cache entries
    regardless of axis order.
    """

    graphs: tuple[str, ...]
    kernels: tuple[str, ...]
    frameworks: tuple[str, ...]
    modes: tuple[str, ...] = MODE_VALUES
    scale: int = 10
    seed: int = 0
    trials: dict[str, int] = field(default_factory=dict)
    trial_timeout: float | None = None
    _spec: BenchmarkSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate_graphs(self.graphs)
        _validate_axis("kernels", self.kernels, KERNELS)
        _validate_axis("frameworks", self.frameworks, EXTENDED_FRAMEWORK_NAMES)
        _validate_axis("modes", self.modes, MODE_VALUES)
        if not 4 <= int(self.scale) <= 26:
            raise ServiceError(
                f"scale {self.scale} out of range [4, 26] for a service run"
            )
        trials = dict(DEFAULT_TRIALS)
        trials.update(self.trials)
        try:
            spec = BenchmarkSpec(
                scale=int(self.scale),
                seed=int(self.seed),
                trials=trials,
                trial_timeout=self.trial_timeout,
            )
        except BenchmarkConfigError as exc:
            raise ServiceError(f"invalid campaign spec: {exc}") from exc
        object.__setattr__(self, "_spec", spec)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_dict(cls, payload: object) -> "CampaignRequest":
        """Parse a wire payload; raises :class:`ServiceError` on junk."""
        if not isinstance(payload, dict):
            raise ServiceError("campaign request must be a JSON object")
        unknown = set(payload) - set(REQUEST_FIELDS)
        if unknown:
            raise ServiceError(
                f"unknown request fields {sorted(unknown)} "
                f"(allowed: {list(REQUEST_FIELDS)})"
            )

        def axis(name: str, default: tuple[str, ...] | None = None):
            raw = payload.get(name, default)
            if raw is None:
                raise ServiceError(f"campaign request is missing {name!r}")
            if isinstance(raw, str):
                raw = [part for part in raw.split(",") if part]
            if not isinstance(raw, (list, tuple)):
                raise ServiceError(f"{name} must be a list of names")
            return tuple(str(value) for value in raw)

        trials = payload.get("trials") or {}
        if not isinstance(trials, dict):
            raise ServiceError("trials must be an object of kernel -> count")
        timeout = payload.get("trial_timeout")
        try:
            return cls(
                graphs=axis("graphs"),
                kernels=axis("kernels"),
                frameworks=axis("frameworks"),
                modes=axis("modes", MODE_VALUES),
                scale=int(payload.get("scale", 10)),
                seed=int(payload.get("seed", 0)),
                trials={str(k): int(v) for k, v in trials.items()},
                trial_timeout=None if timeout is None else float(timeout),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed campaign request: {exc}") from exc

    def as_dict(self) -> dict[str, object]:
        """Wire form: the exact payload ``from_dict`` round-trips."""
        return {
            "graphs": list(self.graphs),
            "kernels": list(self.kernels),
            "frameworks": list(self.frameworks),
            "modes": list(self.modes),
            "scale": self.scale,
            "seed": self.seed,
            "trials": dict(self.trials),
            "trial_timeout": self.trial_timeout,
        }

    # -- derived --------------------------------------------------------

    def spec(self) -> BenchmarkSpec:
        """The :class:`BenchmarkSpec` this request measures under.

        Topology fields keep their defaults — the server overrides them
        with its own execution configuration, and they are outside the
        cell digest anyway.  Built once, when the request is validated.
        """
        return self._spec

    def cell_keys(self) -> list[tuple[str, str, str, str]]:
        """Every cell of the campaign in canonical order.

        The campaign loop's own enumeration
        (:func:`repro.core.batching.canonical_order`: graphs outermost,
        then modes, kernels, frameworks), so the event stream and an
        equivalent CLI run list cells identically.
        """
        return list(
            canonical_order(self.graphs, self.modes, self.kernels, self.frameworks)
        )

    @cached_property
    def campaign_id(self) -> str:
        """Content address of the request itself (coalescing key prefix).

        Hashed once per request object: the server names it in every
        event, journal and archive entry of a submission.
        """
        return hashlib.sha256(
            canonical_json(self.as_dict()).encode()
        ).hexdigest()[:12]


def encode_event(event: dict[str, object]) -> bytes:
    """One NDJSON line: compact separators, trailing newline."""
    return json.dumps(event, separators=(",", ":"), default=str).encode() + b"\n"


# -- message heads, as both ends read them ---------------------------------

#: Longest request, status, header, chunk-size or trailer line read, in bytes.
MAX_LINE = 65536
#: Most header (or trailer) lines one message may carry.
MAX_HEADERS = 100

_BLANK = (b"\r\n", b"\n")


class TornMessage(ServiceError):
    """The connection closed before a line of the message was whole."""


class HeadTooLarge(ServiceError):
    """A line over :data:`MAX_LINE` bytes, or over :data:`MAX_HEADERS`
    header lines: refused, never read on."""


def read_line(reader, side: str) -> bytes:
    """One whole line off a buffered reader, at most ``MAX_LINE`` bytes.

    ``side`` names the message (``request`` or ``reply``) in the error.
    """
    line = reader.readline(MAX_LINE)
    if line.endswith(b"\n"):
        return line
    if len(line) == MAX_LINE:
        raise HeadTooLarge(f"{side} has a line over {MAX_LINE} bytes")
    raise TornMessage(f"{side} torn: the connection closed mid-line")


def read_fields(reader, side: str) -> Iterator[tuple[bytes, bytes]]:
    """``(lower-case name, stripped value)`` of each header (or trailer)
    line, up to the blank line that ends them."""
    for _ in range(MAX_HEADERS):
        line = read_line(reader, side)
        if line in _BLANK:
            return
        name, _, value = line.partition(b":")
        yield name.strip().lower(), value.strip()
    if read_line(reader, side) not in _BLANK:
        raise HeadTooLarge(f"{side} has more than {MAX_HEADERS} header lines")
