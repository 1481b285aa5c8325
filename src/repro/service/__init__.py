"""Campaign-as-a-service: a long-running memoizing benchmark server.

The archive made runs content-addressed and the cell index
(:mod:`repro.store.cellindex`) makes individual measurements addressable;
this package is the system that exploits both: a server that accepts
campaign specs over local HTTP, splits them into cells, serves every cell
it has already measured straight from the archive, coalesces concurrent
identical submissions into one execution, runs only genuine misses
through the resilient campaign loop on a warm pool, and streams per-cell results
back to clients as they land.

* :mod:`~repro.service.protocol` — the wire format: validated
  :class:`CampaignRequest`, canonical cell enumeration, event schema;
* :mod:`~repro.service.server` — the thread-free ``_CellTable`` (dedup,
  coalescing, the hot cache) inside :class:`BenchmarkService`, its shell
  of stages (resolve → classify → enqueue → stream; plan → journal → run
  → commit → finish), and the threaded HTTP front end;
* :mod:`~repro.service.client` — :class:`ServiceClient`, a
  persistent-connection NDJSON-streaming client.

CLI: ``repro serve`` / ``repro submit`` / ``repro status``; see
``docs/SERVICE.md`` for the API, dedup semantics, and durability model.
"""

from .protocol import EVENT_KINDS, CampaignRequest, encode_event
from .client import ServiceClient

__all__ = [
    "BenchmarkService",
    "CampaignRequest",
    "EVENT_KINDS",
    "ServiceClient",
    "ServiceHTTPServer",
    "encode_event",
    "serve_forever",
]


def __getattr__(name: str):
    """The server's names, importing :mod:`.server` on first use (PEP 562):
    a process that only submits pays for neither it nor ``http.server``."""
    if name in ("BenchmarkService", "ServiceHTTPServer", "serve_forever"):
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
