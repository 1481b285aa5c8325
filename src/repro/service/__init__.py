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
* :mod:`~repro.service.server` — :class:`BenchmarkService` (dedup,
  coalescing, the single execution engine, journal crash-recovery) and
  the threaded HTTP front end;
* :mod:`~repro.service.client` — :class:`ServiceClient`, a
  persistent-connection NDJSON-streaming client.

CLI: ``repro serve`` / ``repro submit`` / ``repro status``; see
``docs/SERVICE.md`` for the API, dedup semantics, and durability model.
"""

from .protocol import EVENT_KINDS, CampaignRequest, encode_event
from .server import BenchmarkService, ServiceHTTPServer, serve_forever
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
