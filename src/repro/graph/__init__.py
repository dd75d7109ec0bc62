"""Weighted-graph kernel: CSR storage, Laplacians/Fiedler vectors, heavy-edge
matching and contraction — the building blocks of the multilevel partitioners.
"""

from repro.graph.csr import WeightedGraph
from repro.graph.laplacian import laplacian_matrix, fiedler_vector
from repro.graph.matching import heavy_edge_matching
from repro.graph.contract import contract

__all__ = [
    "WeightedGraph",
    "laplacian_matrix",
    "fiedler_vector",
    "heavy_edge_matching",
    "contract",
]
