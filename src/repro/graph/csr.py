"""Compressed-sparse-row weighted graph.

The partitioners operate on undirected graphs with positive integer (or
float) vertex and edge weights — dual graphs of meshes.  Storage follows the
Metis/Chaco convention: ``xadj`` offsets into ``adjncy``/``ewts``, each
undirected edge stored twice.  All bulk operations are vectorized.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class WeightedGraph:
    """Undirected graph in CSR form with vertex and edge weights.

    Attributes
    ----------
    xadj:
        ``(nv+1,)`` int64 — adjacency offsets.
    adjncy:
        ``(2*ne,)`` int64 — neighbor lists.
    ewts:
        ``(2*ne,)`` float64 — edge weights, aligned with ``adjncy``.
    vwts:
        ``(nv,)`` float64 — vertex weights.
    """

    __slots__ = ("xadj", "adjncy", "ewts", "vwts", "_edge_src")

    def __init__(self, xadj, adjncy, ewts, vwts):
        self._edge_src = None
        self.xadj = np.asarray(xadj, dtype=np.int64)
        self.adjncy = np.asarray(adjncy, dtype=np.int64)
        self.ewts = np.asarray(ewts, dtype=np.float64)
        self.vwts = np.asarray(vwts, dtype=np.float64)
        if self.xadj.ndim != 1 or self.xadj[0] != 0:
            raise ValueError("xadj must be 1-D and start at 0")
        if self.xadj[-1] != self.adjncy.shape[0]:
            raise ValueError("xadj[-1] must equal len(adjncy)")
        # the compiled kernels index with these unchecked
        if np.any(self.xadj[1:] < self.xadj[:-1]):
            raise ValueError("xadj must be non-decreasing")
        if self.adjncy.size and (
            self.adjncy.min() < 0 or self.adjncy.max() >= self.n_vertices
        ):
            raise ValueError("adjncy entry out of range")
        if self.ewts.shape != self.adjncy.shape:
            raise ValueError("ewts must align with adjncy")
        if self.vwts.shape[0] != self.n_vertices:
            raise ValueError("vwts must have one entry per vertex")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(cls, n: int, edges, eweights=None, vweights=None) -> "WeightedGraph":
        """Build from an edge list ``(u, v)`` (each undirected edge once).

        Duplicate edges are merged by summing their weights; self-loops are
        dropped.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if eweights is None:
            eweights = np.ones(edges.shape[0])
        else:
            eweights = np.asarray(eweights, dtype=np.float64).reshape(-1)
        if edges.size:
            keep = edges[:, 0] != edges[:, 1]
            edges = edges[keep]
            eweights = eweights[keep]
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        # symmetrize, sort into row-major order, merge duplicates with a
        # segmented sum — same CSR (sorted indices per row) the old sparse
        # matrix round-trip produced, without building a scipy matrix
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        wts = np.concatenate([eweights, eweights])
        order = np.lexsort((cols, rows))
        rows, cols, wts = rows[order], cols[order], wts[order]
        if rows.size:
            head = np.empty(rows.size, dtype=bool)
            head[0] = True
            head[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.nonzero(head)[0]
            adjncy = cols[starts]
            data = np.add.reduceat(wts, starts)
            counts = np.bincount(rows[starts], minlength=n)
        else:
            adjncy = cols
            data = wts
            counts = np.zeros(n, dtype=np.int64)
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=xadj[1:])
        if vweights is None:
            vweights = np.ones(n)
        return cls(xadj, adjncy, data, vweights)

    def with_weights(self, ewts, vwts) -> "WeightedGraph":
        """The same structure under new weights (``ewts`` aligned with
        ``adjncy``).  ``xadj``, ``adjncy`` and the ``edge_src`` cache are
        shared, not copied, and not validated a second time: a graph whose
        topology is fixed — the dual graph of ``M^0`` — is re-weighed every
        round without re-deriving it."""
        graph = object.__new__(WeightedGraph)
        graph.xadj, graph.adjncy = self.xadj, self.adjncy
        graph._edge_src = self.edge_src
        graph.ewts = np.asarray(ewts, dtype=np.float64)
        graph.vwts = np.asarray(vwts, dtype=np.float64)
        if graph.ewts.shape != self.adjncy.shape:
            raise ValueError("ewts must align with adjncy")
        if graph.vwts.shape != self.vwts.shape:
            raise ValueError("vwts must have one entry per vertex")
        return graph

    @classmethod
    def from_scipy(cls, mat, vweights=None) -> "WeightedGraph":
        """Build from a symmetric scipy sparse adjacency matrix."""
        mat = sp.csr_matrix(mat)
        mat.setdiag(0)
        mat.eliminate_zeros()
        n = mat.shape[0]
        if vweights is None:
            vweights = np.ones(n)
        return cls(mat.indptr, mat.indices, mat.data, vweights)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def n_vertices(self) -> int:
        return self.xadj.shape[0] - 1

    @property
    def edge_src(self) -> np.ndarray:
        """``(2*ne,)`` int64 — the source vertex of every ``adjncy`` entry
        (``repeat(arange(nv), diff(xadj))``), built once per graph: the CSR
        arrays are never mutated after construction."""
        if self._edge_src is None:
            self._edge_src = np.repeat(
                np.arange(self.n_vertices, dtype=np.int64), np.diff(self.xadj)
            )
        return self._edge_src

    def __reduce__(self):
        # pickle the four defining arrays, never the derived cache
        return (WeightedGraph, (self.xadj, self.adjncy, self.ewts, self.vwts))

    @property
    def total_vweight(self) -> float:
        return float(self.vwts.sum())

    def to_scipy(self) -> sp.csr_matrix:
        """Adjacency matrix as scipy CSR (edge weights as entries)."""
        return sp.csr_matrix(
            (self.ewts, self.adjncy, self.xadj),
            shape=(self.n_vertices, self.n_vertices),
        )

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    def subgraph(self, vertices) -> tuple:
        """Induced subgraph on ``vertices``.

        Returns ``(sub, mapping)`` where ``mapping`` is the array of original
        vertex ids in subgraph order.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        mat = self.to_scipy()[vertices][:, vertices]
        sub = WeightedGraph.from_scipy(mat, self.vwts[vertices])
        return sub, vertices

    def validate(self) -> None:
        """Check CSR symmetry and weight positivity (test helper)."""
        mat = self.to_scipy()
        asym = mat - mat.T
        if asym.nnz:
            assert abs(asym).max() < 1e-9, "adjacency not symmetric"
        assert np.all(self.ewts > 0), "nonpositive edge weight"
        assert np.all(self.vwts >= 0), "negative vertex weight"
        assert not np.any(self.adjncy == self.edge_src), "self loop"
