"""GraphBLAS-style sparse linear algebra over semirings.

This package is the reproduction's analog of SuiteSparse:GraphBLAS: typed
sparse vectors/matrices, masked assignment, and matrix products generalized
over semirings.  The LAGraph-style graph algorithms built on top live in
``repro.lagraph``; this layer knows nothing about graphs.
"""

from .matrix import Matrix
from .operations import mxm_masked, mxv, reduce_matrix, vxm
from .ops import ANY_SECONDI, MIN, MIN_PLUS, MIN_SECOND, PLUS_PAIR, PLUS_SECOND
from .vector import Vector

__all__ = [
    "Matrix",
    "Vector",
    "vxm",
    "mxv",
    "mxm_masked",
    "reduce_matrix",
    "MIN",
    "ANY_SECONDI",
    "MIN_PLUS",
    "PLUS_SECOND",
    "PLUS_PAIR",
    "MIN_SECOND",
]
