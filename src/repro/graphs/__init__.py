"""Graph substrate: CSR graphs, edge lists, transforms, and analysis.

This package plays the role of the shared graph-loading layer that every
framework in the paper builds on: a general-purpose CSR format storing both
edge directions, with deduplicated, destination-sorted adjacency.
"""

from .cache import GraphCache, decompose_case, default_cache_dir, recompose_case
from .csr import CSRGraph
from .datasets import (
    DatasetInfo,
    dataset_digest,
    dataset_identity,
    graph_identities,
    is_dataset_ref,
    list_datasets,
    load_dataset_graph,
    resolve,
)
from .edgelist import EdgeList
from .io import (
    file_digest,
    load_graph_file,
    load_npz,
    read_edge_list,
    read_mtx,
    save_npz,
    write_edge_list,
)
from .properties import (
    GraphProperties,
    analyze,
    approximate_diameter,
    classify_degree_distribution,
    undirected_bfs_depths,
)
from .statistics import (
    TopologySummary,
    assortativity,
    degree_histogram,
    global_clustering,
    reciprocity,
    summarize,
)
from .transforms import (
    degree_order_permutation,
    degree_skewed,
    forward_adjacency,
    induced_subgraph,
    lower_triangle_counts,
    permute,
    relabel_by_degree,
)

__all__ = [
    "CSRGraph",
    "EdgeList",
    "GraphCache",
    "decompose_case",
    "default_cache_dir",
    "recompose_case",
    "GraphProperties",
    "TopologySummary",
    "assortativity",
    "degree_histogram",
    "global_clustering",
    "reciprocity",
    "summarize",
    "analyze",
    "approximate_diameter",
    "classify_degree_distribution",
    "undirected_bfs_depths",
    "degree_order_permutation",
    "degree_skewed",
    "forward_adjacency",
    "induced_subgraph",
    "lower_triangle_counts",
    "permute",
    "relabel_by_degree",
    "DatasetInfo",
    "dataset_digest",
    "dataset_identity",
    "file_digest",
    "graph_identities",
    "is_dataset_ref",
    "list_datasets",
    "load_dataset_graph",
    "load_graph_file",
    "load_npz",
    "read_edge_list",
    "read_mtx",
    "resolve",
    "save_npz",
    "write_edge_list",
]
