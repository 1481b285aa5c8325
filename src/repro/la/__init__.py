"""repro.la — the shared linear-algebra kernel substrate.

One optimized CSR primitive tier under all framework reimplementations:
edge gathers (:mod:`.gather`), first-writer frontier bookkeeping and the
one Δ-stepping on top of it (:mod:`.frontier`), masked/semiring SpMV and
the blocked Gauss-Seidel sweeps over it (:mod:`.spmv`), the wedge-closing
test under every triangle count (:mod:`.intersect`), the multi-root
Brandes sweep under the per-root BCs (:mod:`.sweep`), the
direction-optimizing traversal with its push/pull policy
(:mod:`.direction`), the frontier operator of Ligra and GraphIt with its
volume rule (:mod:`.edgemap`), and Afforest beside its hooking moves
(:mod:`.hooking`).  Each primitive and each kernel body has one
implementation; the formulations the kernels used before the port
are the oracle the tests compare against
(``tests/reference/la_oracle.py``).  Primitives return what they
examined; each body reports its own work to :mod:`repro.counters` once
per call and returns only its output.  See ``docs/KERNEL_SUBSTRATE.md``.
"""

from .direction import ALPHA, DirectionOptimizer, direction_optimizing_traversal
from .edgemap import edge_map
from .frontier import (
    claim_first_writer,
    delta_stepping,
    first_occurrence_mask,
    relax,
    unique_ids,
)
from .gather import gather_edges
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
    "edge_map",
    "claim_first_writer",
    "first_occurrence_mask",
    "relax",
    "delta_stepping",
    "unique_ids",
    "gather_edges",
    "count_closing",
    "count_forward_triangles",
    "masked_pull_claim",
    "plus_times_operator",
    "blocked_gauss_seidel",
    "spmv_min_plus",
    "brandes_backward",
    "brandes_sweep",
]
