"""Graph Laplacians and Fiedler vectors — the engine of Recursive Spectral
Bisection [Pothen, Simon & Liou 1990; Barnard & Simon 1993].

The Fiedler vector is the eigenvector of the (edge-weighted) graph Laplacian
associated with the smallest nonzero eigenvalue.  Splitting vertices at the
weighted median of their Fiedler components yields the spectral bisection.

Graphs up to ``_DENSE_LIMIT`` vertices use the dense symmetric eigensolver;
larger ones one shift-invert Lanczos solve (ARPACK ``eigsh``) started from
the seed's Gaussian draw.  Both are byte-reproducible from one process to
the next for a fixed seed (and, for the dense path, a fixed BLAS thread
count), and an ARPACK failure raises: there is no fallback.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graph.csr import WeightedGraph

#: up to this vertex count the dense eigensolver runs.  Above ~110 vertices
#: ``eigsh`` is faster (a 600-vertex grid: 4.5 vs 55 ms on 2 vCPUs); the
#: limit stays at 600 so that every result and pin on a graph of <= 600
#: vertices keeps its bytes.
_DENSE_LIMIT = 600


def laplacian_matrix(graph: WeightedGraph) -> sp.csr_matrix:
    """Edge-weighted combinatorial Laplacian ``L = D - A``."""
    adj = graph.to_scipy()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    lap = sp.diags(deg) - adj
    return sp.csr_matrix(lap)


def fiedler_vector(graph: WeightedGraph, seed: int = 0) -> np.ndarray:
    """Fiedler vector of ``graph`` (deterministic for a fixed seed).

    ``seed`` draws the Lanczos start vector of the sparse path; on the
    near-degenerate λ₂ ≈ λ₃ eigenspaces of symmetric domains it picks which
    vector of that space comes back.

    For disconnected graphs the returned vector separates components, which
    makes spectral bisection still meaningful (components end up on one side
    or the other).
    """
    n = graph.n_vertices
    if n <= 2:
        # trivial: any antisymmetric vector bisects
        return np.linspace(-1.0, 1.0, n)
    lap = laplacian_matrix(graph)
    if n <= _DENSE_LIMIT:
        # First eigenvalue ~0 (constant vector); take the next one.  With
        # multiple components, eigh still returns an orthogonal basis; index
        # 1 separates components, which is what bisection wants anyway.
        return np.linalg.eigh(lap.toarray())[1][:, 1]
    # shift-invert Lanczos around 0; the small negative sigma keeps the
    # factorization nonsingular
    v0 = np.random.default_rng(seed).standard_normal(n)
    w, v = spla.eigsh(lap, k=2, sigma=-1e-4, which="LM", v0=v0)
    return v[:, np.argsort(w)[1]]
