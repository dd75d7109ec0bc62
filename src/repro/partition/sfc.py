"""Space-filling-curve partitioning of element centroids.

The quality-optimizing partitioners (Multilevel-KL, PNR's migration-aware
KL) pay O(E) refinement work per round.  This module is the cheap end of
the tradeoff: map every element centroid to a position on a Morton (Z) or
Hilbert curve by bit-interleaving quantized coordinates, sort once, and cut
the curve into ``p`` contiguous weight-balanced segments with a prefix-sum
splitter — O(n log n) total, embarrassingly parallel in the key phase, and
naturally *incremental*: the key order of a fixed set of elements never
changes, so a repartition after a weight update only moves the ``p - 1``
cut points (small migration between rounds by construction).

This is the coarse-mesh partitioning strategy of tree-based AMR codes
[Burstedde & Holke, arXiv:1611.02929]: applied to the paper's setting, the
"elements" are the coarse refinement-tree roots of ``M^0`` and the weights
are their current leaf counts, exactly the vertex weights of the coarse
dual graph ``G``.

Keys are bit-deterministic for a fixed quantization (``bits``) and curve,
so two runs over the same mesh produce identical partitions.
"""

from __future__ import annotations

import numpy as np

from repro.perf import PERF

__all__ = [
    "quantize_coords",
    "interleave_bits",
    "morton_keys_from_quantized",
    "hilbert_keys_from_quantized",
    "sfc_keys",
    "weighted_curve_splits",
    "assignment_from_splits",
    "SFCPartitioner",
]

#: default quantization: 16 bits/axis keeps 3-D keys in 48 bits (< int64)
DEFAULT_BITS = 16

_CURVES = ("morton", "hilbert")


# ---------------------------------------------------------------------- #
# quantization and key generation
# ---------------------------------------------------------------------- #


def quantize_coords(coords: np.ndarray, bits: int = DEFAULT_BITS) -> np.ndarray:
    """Map ``(n, dim)`` float coordinates onto the ``[0, 2^bits)`` integer
    grid, axis by axis (min–max normalization).

    A degenerate axis (zero span) quantizes to 0 everywhere.  The grid is
    invariant in *order* under coordinate translation and uniform scaling:
    both cancel in ``(x - min) / span``.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2:
        raise ValueError("coords must be (n, dim)")
    dim = coords.shape[1]
    if dim not in (2, 3):
        raise ValueError("SFC keys are defined for 2-D and 3-D coordinates")
    if not 1 <= bits * dim <= 62:
        raise ValueError(f"bits * dim must fit an int64 key (got {bits}x{dim})")
    if coords.shape[0] == 0:
        return np.empty((0, dim), dtype=np.int64)
    lo = coords.min(axis=0)
    span = coords.max(axis=0) - lo
    span[span == 0] = 1.0
    scale = ((1 << bits) - 1) / span
    q = np.floor((coords - lo) * scale).astype(np.int64)
    # guard the top edge: x == max may land exactly on 2^bits - 1 + eps
    return np.clip(q, 0, (1 << bits) - 1)


def interleave_bits(q: np.ndarray, bits: int) -> np.ndarray:
    """Bit-interleave quantized axes into one scalar key per row.

    Bit ``b`` of axis ``i`` lands at position ``b * dim + (dim - 1 - i)``:
    the most significant group holds the top bit of every axis, axis 0
    foremost — the standard Morton layout.
    """
    q = np.asarray(q, dtype=np.int64)
    n, dim = q.shape
    keys = np.zeros(n, dtype=np.int64)
    for b in range(bits - 1, -1, -1):
        for i in range(dim):
            keys = (keys << 1) | ((q[:, i] >> b) & 1)
    return keys


def morton_keys_from_quantized(q: np.ndarray, bits: int = DEFAULT_BITS) -> np.ndarray:
    """Morton (Z-order) keys of pre-quantized grid coordinates."""
    return interleave_bits(q, bits)


def hilbert_keys_from_quantized(q: np.ndarray, bits: int = DEFAULT_BITS) -> np.ndarray:
    """Hilbert keys of pre-quantized grid coordinates (2-D and 3-D).

    Vectorized Skilling transform ["Programming the Hilbert curve", 2004]:
    axes -> transpose form (Gray decode + per-bit exchange/invert), then the
    transpose bits interleave into the scalar index.  Like the Morton path
    it is a bijection of the grid, so distinct quantized points get
    distinct keys.
    """
    q = np.asarray(q, dtype=np.int64)
    n, dim = q.shape
    x = [q[:, i].copy() for i in range(dim)]

    # inverse undo: top bit downwards
    m = 1 << (bits - 1)
    qbit = m
    while qbit > 1:
        pmask = qbit - 1
        for i in range(dim):
            has = (x[i] & qbit) != 0
            # invert low bits of x[0] where the bit is set, else exchange
            # the low bits of x[0] and x[i]
            t = np.where(has, 0, (x[0] ^ x[i]) & pmask)
            x[0] = np.where(has, x[0] ^ pmask, x[0] ^ t)
            x[i] ^= t
        qbit >>= 1

    # Gray encode
    for i in range(1, dim):
        x[i] ^= x[i - 1]
    t = np.zeros(n, dtype=np.int64)
    qbit = m
    while qbit > 1:
        t = np.where((x[dim - 1] & qbit) != 0, t ^ (qbit - 1), t)
        qbit >>= 1
    for i in range(dim):
        x[i] ^= t

    return interleave_bits(np.column_stack(x), bits)


def sfc_keys(
    coords: np.ndarray, curve: str = "morton", bits: int = DEFAULT_BITS
) -> np.ndarray:
    """Curve keys of raw centroids: quantize, then Morton- or
    Hilbert-encode."""
    if curve not in _CURVES:
        raise ValueError(f"unknown curve {curve!r} (expected one of {_CURVES})")
    with PERF.span("sfc.keys"):
        q = quantize_coords(coords, bits)
        if curve == "morton":
            return morton_keys_from_quantized(q, bits)
        return hilbert_keys_from_quantized(q, bits)


# ---------------------------------------------------------------------- #
# the weighted 1-D splitter
# ---------------------------------------------------------------------- #


def weighted_curve_splits(weights_in_order: np.ndarray, p: int) -> np.ndarray:
    """Cut a weight sequence (already in curve order) into ``p`` contiguous
    segments at the weight-balanced prefix-sum targets.

    Returns the ``p - 1`` interior boundary indices ``b`` (segment ``j`` is
    ``order[b[j-1]:b[j]]``).  Each boundary picks whichever of the two
    bracketing cuts lands closer to its target ``j * W / p``; every segment
    is non-empty whenever ``n >= p``; a zero (or non-finite) total weight
    falls back to index-order equal splitting.
    """
    w = np.asarray(weights_in_order, dtype=np.float64)
    n = w.shape[0]
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        return np.empty(0, dtype=np.int64)
    prefix = np.cumsum(w)
    total = prefix[-1] if n else 0.0
    if not np.isfinite(total) or total <= 0.0:
        # index-order fallback: equal element counts
        return np.asarray(
            [(j * n) // p for j in range(1, p)], dtype=np.int64
        )
    targets = total * np.arange(1, p) / p
    raw = np.searchsorted(prefix, targets, side="left") + 1
    # choose the closer of the two bracketing cuts, then force strictly
    # increasing boundaries so no part is empty while n >= p
    bounds = np.empty(p - 1, dtype=np.int64)
    prev = 0
    for j in range(p - 1):
        b = int(raw[j])
        if b > 1 and abs(prefix[b - 2] - targets[j]) <= abs(prefix[b - 1] - targets[j]):
            b -= 1
        lo = prev + 1
        hi = n - (p - 1 - j)
        if hi < lo:  # n < p: later parts stay empty, nothing to guarantee
            hi = lo
        bounds[j] = min(max(b, lo), max(hi, lo))
        prev = bounds[j]
    return np.minimum(bounds, n)


def assignment_from_splits(
    order: np.ndarray, splits: np.ndarray, n: int, p: int
) -> np.ndarray:
    """Expand curve-order boundary indices into a per-element assignment."""
    sizes = np.diff(np.concatenate(([0], splits, [n])))
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.repeat(np.arange(p, dtype=np.int64), sizes)
    return assignment


# ---------------------------------------------------------------------- #
# incremental entry point
# ---------------------------------------------------------------------- #


class SFCPartitioner:
    """Incremental SFC repartitioner over a *fixed* element set.

    ``fit(coords)`` computes keys and the curve order once (for the coarse
    dual graph the roots of ``M^0`` never move, so this happens exactly
    once per run); each subsequent :meth:`partition` call re-splits the
    cached order against the latest weights — an O(n) cumsum plus an
    O(p log n) cut search, no sort and no key generation.  Because the
    order is reused, consecutive partitions differ only where the cut
    points slid, which is what keeps migration volume small between
    adaptation rounds.
    """

    def __init__(self, curve: str = "morton", bits: int = DEFAULT_BITS):
        if curve not in _CURVES:
            raise ValueError(
                f"unknown curve {curve!r} (expected one of {_CURVES})"
            )
        self.curve = curve
        self.bits = bits
        self.order = None
        self.keys = None
        self.last_splits = None

    @property
    def fitted(self) -> bool:
        return self.order is not None

    def fit(self, coords: np.ndarray) -> "SFCPartitioner":
        """Compute and cache the curve order of ``coords``."""
        self.keys = sfc_keys(coords, curve=self.curve, bits=self.bits)
        with PERF.span("sfc.sort"):
            self.order = np.argsort(self.keys, kind="stable")
        self.last_splits = None
        return self

    def partition(self, weights, p: int) -> np.ndarray:
        """Cut the cached curve order into ``p`` segments balanced under
        ``weights`` (``None`` for unit weights)."""
        if not self.fitted:
            raise RuntimeError("fit(coords) must run before partition()")
        n = self.order.shape[0]
        if p < 1:
            raise ValueError("p must be >= 1")
        if weights is None:
            weights = np.ones(n)
        else:
            weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != n:
            raise ValueError("weights must have one entry per fitted point")
        with PERF.span("sfc.split"):
            splits = weighted_curve_splits(weights[self.order], p)
        self.last_splits = splits
        return assignment_from_splits(self.order, splits, n, p)
