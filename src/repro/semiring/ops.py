"""Binary operators, monoids, and semirings for the GraphBLAS-style engine.

GraphBLAS generalizes matrix multiplication ``C = A * B`` by replacing the
scalar multiply with any binary operator and the scalar add with any monoid
(associative, commutative, with identity).  The LAGraph algorithms in the
paper use a small set of these:

* ``any_secondi`` — BFS: "adopt any parent; the value is the parent's id";
* ``min_plus`` — SSSP's tropical semiring;
* ``plus_second`` — PageRank's structure-only SpMV;
* ``plus_pair`` — triangle counting ("multiply" is the constant 1);
* ``min_second`` — FastSV's label minimization.

Positional operators (``secondi``) return an *index* of an operand
rather than a value; the engine passes operand indices alongside
values so they can be expressed uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import InvalidValueError
from ..la.frontier import first_occurrence_mask

__all__ = [
    "BinaryOp",
    "Monoid",
    "Semiring",
    "ANY",
    "MIN",
    "PLUS",
    "SECOND",
    "PAIR",
    "SECONDI",
    "PLUS_OP",
    "semiring",
    "ANY_SECONDI",
    "MIN_PLUS",
    "PLUS_SECOND",
    "PLUS_PAIR",
    "MIN_SECOND",
]


@dataclass(frozen=True)
class BinaryOp:
    """A multiplicative operator ``z = f(x, y)``.

    ``fn`` receives ``(x_values, y_values, x_indices, y_indices)`` so that
    positional operators (GraphBLAS ``SECONDI``) can be expressed
    with the same interface; value-only operators ignore the index arrays.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    positional: bool = False

    def apply(
        self,
        x: np.ndarray,
        y: np.ndarray,
        ix: np.ndarray | None = None,
        iy: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply element-wise over aligned operand arrays."""
        return self.fn(x, y, ix, iy)


@dataclass(frozen=True)
class Monoid:
    """An additive monoid: associative, commutative reducer with identity.

    ``reducer`` is a NumPy ufunc (or None for ANY).  The special ANY monoid
    returns an arbitrary member of each reduction group — GraphBLAS exposes
    it so reductions can short-circuit, which LAGraph's BFS exploits to stop
    at the first parent found.
    """

    name: str
    reducer: np.ufunc | None
    identity: float

    @property
    def is_any(self) -> bool:
        return self.reducer is None

    def segment_reduce(
        self, keys: np.ndarray, values: np.ndarray, domain: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reduce ``values`` grouped by ``keys``; returns (unique_keys, reduced).

        Keys need not be sorted.  For ANY, the first occurrence per key wins
        (any member is a valid answer by definition).  ``domain`` (the key
        universe size, when the caller knows it) lets ANY use the substrate's
        sort-free first-occurrence scan instead of ``np.unique``.
        """
        if keys.size == 0:
            return keys, values
        if self.is_any:
            if domain is not None:
                mask = first_occurrence_mask(keys, domain)
                out_keys, out_vals = keys[mask], values[mask]
                order = np.argsort(out_keys)  # k log k on unique keys only
                return out_keys[order], out_vals[order]
            unique, first = np.unique(keys, return_index=True)
            return unique, values[first]
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        values_sorted = values[order]
        boundaries = np.flatnonzero(
            np.concatenate([[True], keys_sorted[1:] != keys_sorted[:-1]])
        )
        reduced = self.reducer.reduceat(values_sorted, boundaries)
        return keys_sorted[boundaries], reduced

    def accumulate_into(
        self, target: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """In-place ``target[k] = monoid(target[k], v)`` for each pair."""
        if self.is_any:
            # ANY keeps the existing value when present; defined here as
            # "first writer wins" via unique-first selection.
            unique, first = np.unique(keys, return_index=True)
            target[unique] = values[first]
            return
        self.reducer.at(target, keys, values)


@dataclass(frozen=True)
class Semiring:
    """An (add-monoid, multiply-op) pair, e.g. min-plus or plus-pair."""

    add: Monoid
    multiply: BinaryOp

    @property
    def name(self) -> str:
        return f"{self.add.name}_{self.multiply.name}"


# ---------------------------------------------------------------------------
# Standard monoids
# ---------------------------------------------------------------------------

ANY = Monoid("any", None, 0.0)
MIN = Monoid("min", np.minimum, np.inf)
PLUS = Monoid("plus", np.add, 0.0)


# ---------------------------------------------------------------------------
# Standard multiplicative operators
# ---------------------------------------------------------------------------

def _second(x, y, ix, iy):
    del x, ix, iy
    return y


def _pair(x, y, ix, iy):
    del y, ix, iy
    return np.ones_like(x, dtype=np.int64) if hasattr(x, "dtype") else 1


def _plus(x, y, ix, iy):
    del ix, iy
    return x + y


def _secondi(x, y, ix, iy):
    del x, y, ix
    if iy is None:
        raise InvalidValueError("SECONDI requires second-operand indices")
    return iy


SECOND = BinaryOp("second", _second)
PAIR = BinaryOp("pair", _pair)
PLUS_OP = BinaryOp("plus", _plus)
SECONDI = BinaryOp("secondi", _secondi, positional=True)


def semiring(add: Monoid, multiply: BinaryOp) -> Semiring:
    """Construct a semiring from a monoid and a multiplicative op."""
    return Semiring(add, multiply)


# The semirings named in the paper's Section III-A.
ANY_SECONDI = semiring(ANY, SECONDI)
MIN_PLUS = semiring(MIN, PLUS_OP)
PLUS_SECOND = semiring(PLUS, SECOND)
PLUS_PAIR = semiring(PLUS, PAIR)
MIN_SECOND = semiring(MIN, SECOND)
