"""Pickle-free shared-memory publication of the prebuilt graph corpus.

The campaign loop's process backend builds each
:class:`~repro.core.runner.GraphCase` once and shards its cells across
worker processes.  Sending CSR arrays to
every worker through a pipe would pickle megabytes per graph per worker;
instead the parent copies each case's unique arrays once into a
:mod:`multiprocessing.shared_memory` segment and hands workers a small
picklable :class:`SharedCaseHandle`.  Attaching rehydrates the case as
read-only NumPy views over the segment — zero-copy, one physical corpus
shared by every worker regardless of worker count.

Aliasing is preserved exactly (via :func:`repro.graphs.cache.decompose_case`):
the in-adjacency of an undirected graph attaches as the *same* ndarray as
its out-adjacency, and a view that is the base graph (e.g. ``undirected``
of an already-undirected input) attaches as the same :class:`CSRGraph`
object — the derivation invariants of ``GraphCase`` survive the trip.

Lifecycle: the parent owns the segment (:class:`SharedCase`) and unlinks
it when the campaign ends; workers attach (:func:`attach_case`) and drop
their mapping at process exit.  Attached views are marked read-only so a
kernel that mutates its input fails loudly instead of corrupting the
corpus for every other cell.

File-backed datasets (:mod:`repro.graphs.datasets`) ride the same path:
the parent parses the file once while building the case, and workers
attach the published CSR arrays — a worker never opens or re-reads the
dataset file, so campaign behavior cannot depend on the file still
existing (or still having the same bytes) after the corpus is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..graphs.cache import decompose_case, recompose_case
from .runner import GraphCase

__all__ = ["SharedCase", "SharedCaseHandle", "AttachedCase", "export_case", "attach_case"]

# Segment offsets rounded up to cache-line multiples: keeps every array
# naturally aligned for any dtype and avoids false sharing at boundaries.
_ALIGNMENT = 64


@dataclass(frozen=True)
class SharedCaseHandle:
    """Picklable recipe for attaching one case: segment name + layout.

    ``arrays`` holds one ``(offset, dtype, shape)`` triple per unique
    array in the segment; ``layout`` is the case structure from
    :func:`~repro.graphs.cache.decompose_case`.
    """

    name: str
    segment: str
    arrays: tuple[tuple[int, str, tuple[int, ...]], ...]
    layout: dict[str, object]


def _attach_untracked(segment: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource tracker.

    Python < 3.13 registers every attachment with the resource tracker,
    which then unlinks the segment when the attaching process exits —
    destroying it under the parent that still owns it (bpo-38119); with a
    forked worker the tracker is *shared*, so even unregistering after the
    fact would strip the owner's registration.  Suppressing registration
    for the duration of the attach leaves ownership solely with the
    creator.  (Python >= 3.13 exposes this as ``track=False``.)
    """
    try:
        return shared_memory.SharedMemory(name=segment, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original_register(name, rtype)

    resource_tracker.register = register
    try:
        return shared_memory.SharedMemory(name=segment)
    finally:
        resource_tracker.register = original_register


class SharedCase:
    """Owner side of one exported case: the segment plus its handle."""

    def __init__(self, case: GraphCase) -> None:
        layout, arrays = decompose_case(case.graph, case.weighted, case.undirected)
        specs: list[tuple[int, str, tuple[int, ...]]] = []
        offset = 0
        contiguous = [np.ascontiguousarray(array) for array in arrays]
        for array in contiguous:
            offset = -(-offset // _ALIGNMENT) * _ALIGNMENT
            specs.append((offset, array.dtype.str, array.shape))
            offset += array.nbytes
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        try:
            self._copy_arrays(contiguous, specs)
        except BaseException:
            # The segment exists but no caller ever saw this object: a
            # KeyboardInterrupt (or any failure) mid-copy would otherwise
            # leak the /dev/shm segment until reboot.
            self.close(unlink=True)
            raise
        self.handle = SharedCaseHandle(
            name=case.name,
            segment=self._shm.name,
            arrays=tuple(specs),
            layout=layout,
        )

    def _copy_arrays(
        self,
        contiguous: list[np.ndarray],
        specs: list[tuple[int, str, tuple[int, ...]]],
    ) -> None:
        for array, (start, dtype, shape) in zip(contiguous, specs):
            destination = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=start
            )
            destination[...] = array

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def close(self, unlink: bool = True) -> None:
        """Drop the owner mapping and (by default) destroy the segment."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass


class AttachedCase:
    """Worker side: a case whose arrays are views over a shared segment."""

    def __init__(self, case: GraphCase, shm: shared_memory.SharedMemory) -> None:
        self.case = case
        self._shm = shm

    def close(self) -> None:
        """Best-effort unmap (process exit cleans up regardless)."""
        try:
            self._shm.close()
        except BufferError:
            # NumPy views still reference the mapping; the OS reclaims it
            # when the process exits.
            pass


def export_case(case: GraphCase) -> SharedCase:
    """Publish one case to a fresh shared-memory segment."""
    return SharedCase(case)


def attach_case(handle: SharedCaseHandle) -> AttachedCase:
    """Attach to an exported case; arrays are zero-copy read-only views."""
    shm = _attach_untracked(handle.segment)
    views: list[np.ndarray] = []
    for offset, dtype, shape in handle.arrays:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        views.append(view)
    graph, weighted, undirected = recompose_case(handle.layout, views)
    return AttachedCase(GraphCase(handle.name, graph, weighted, undirected), shm)
