"""repro.la — the shared linear-algebra kernel substrate.

One optimized CSR primitive tier under all framework reimplementations:
edge gathers (:mod:`.gather`), first-writer frontier bookkeeping and the
one Δ-stepping on top of it (:mod:`.frontier`), masked/semiring SpMV and
the blocked Gauss-Seidel sweeps over it (:mod:`.spmv`), the wedge-closing
test under every triangle count (:mod:`.intersect`), the multi-root
Brandes sweep under the per-root BCs (:mod:`.sweep`), and the
direction-optimizing traversal with its push/pull policy
(:mod:`.direction`).  Each primitive and each kernel body has one
implementation; the formulations the kernels used before the port
are the oracle the tests compare against
(``tests/reference/la_oracle.py``).  See ``docs/KERNEL_SUBSTRATE.md``.
"""

from .direction import ALPHA, DirectionOptimizer, direction_optimizing_traversal
from .frontier import (
    claim_first_writer,
    delta_stepping,
    first_occurrence_mask,
    relax,
    relax_minimum,
    unique_ids,
)
from .gather import gather_edges, gather_edges_weighted
from .intersect import count_closing, count_forward_triangles
from .spmv import (
    blocked_gauss_seidel,
    masked_pull_claim,
    plus_times_operator,
    spmv_min_plus,
)
from .sweep import brandes_backward, brandes_sweep

__all__ = [
    "ALPHA",
    "DirectionOptimizer",
    "direction_optimizing_traversal",
    "claim_first_writer",
    "first_occurrence_mask",
    "relax_minimum",
    "relax",
    "delta_stepping",
    "unique_ids",
    "gather_edges",
    "gather_edges_weighted",
    "count_closing",
    "count_forward_triangles",
    "masked_pull_claim",
    "plus_times_operator",
    "blocked_gauss_seidel",
    "spmv_min_plus",
    "brandes_backward",
    "brandes_sweep",
]
