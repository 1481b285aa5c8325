"""Galois-style runtime substrate: worklists and the asynchronous executor."""

from .executor import ASYNC_CHUNK_SIZE, for_each_eager
from .worklists import OrderedByIntegerMetric

__all__ = [
    "ASYNC_CHUNK_SIZE",
    "OrderedByIntegerMetric",
    "for_each_eager",
]
