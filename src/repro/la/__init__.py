"""repro.la — the shared linear-algebra kernel substrate.

One optimized CSR primitive tier under all framework reimplementations:
edge gathers (:mod:`.gather`), first-writer frontier bookkeeping
(:mod:`.frontier`), masked/semiring SpMV (:mod:`.spmv`), the wedge-closing
test under every triangle count (:mod:`.intersect`), the multi-root
Brandes sweep under the per-root BCs (:mod:`.sweep`), and the
direction-optimizing push/pull policy (:mod:`.direction`).  Each primitive
has one implementation; the formulations the kernels used before the port
are the oracle the tests compare against
(``tests/reference/la_oracle.py``).  See ``docs/KERNEL_SUBSTRATE.md``.
"""

from .direction import ALPHA, BETA, DirectionOptimizer
from .frontier import (
    claim_first_writer,
    first_occurrence_mask,
    relax_minimum,
    unique_ids,
)
from .gather import gather_edges, gather_edges_weighted
from .intersect import count_closing, count_forward_triangles
from .spmv import masked_pull_claim, plus_times_operator, spmv_min_plus
from .sweep import brandes_backward, brandes_sweep

__all__ = [
    "ALPHA",
    "BETA",
    "DirectionOptimizer",
    "claim_first_writer",
    "first_occurrence_mask",
    "relax_minimum",
    "unique_ids",
    "gather_edges",
    "gather_edges_weighted",
    "count_closing",
    "count_forward_triangles",
    "masked_pull_claim",
    "plus_times_operator",
    "spmv_min_plus",
    "brandes_backward",
    "brandes_sweep",
]
