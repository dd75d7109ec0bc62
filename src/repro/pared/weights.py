"""Packed (struct-of-arrays) weight reports in key form.

A weight report is a dict of flat numpy arrays — the oracle of the weight
protocol's slot-space frames, which name edges by skeleton slot instead
(:meth:`~repro.pared.protocols._WeightProtocol.weigh`):

``v_ids`` / ``v_wts``
    Sorted coarse-root ids with their fresh vertex weights.
``e_keys`` / ``e_wts``
    Sorted packed edge keys with their fresh edge weights.  Edge ``(a, b)``
    with ``a < b`` packs to ``a * n_roots + b`` (:func:`edge_keys`), so a
    report is self-contained given ``n_roots`` and every array op is a
    sorted-int64 primitive.

All arrays in a report are sorted ascending and duplicate-free.  ``G``'s
key set is ``M^0``'s and never changes, and every root has exactly one
owner, so a delta needs no deletions: a key a rank stops reporting is
reported by its new owner.
"""

from __future__ import annotations

import numpy as np

from repro.partition.distributed import edge_keys, split_edge_keys

_EMPTY_I = np.empty(0, dtype=np.int64)


def full_weight_report(graph, owner: np.ndarray, rank: int) -> dict:
    """This rank's complete P1 weight report from the coarse dual graph.

    Vertex weights of owned roots; edge ``(a, b)`` (``a < b``) reported by
    the owner of ``a`` — exactly the ownership rule of the dict-based
    protocol, built with one CSR sweep instead of per-root loops.  Only
    the owned rows of ``graph`` are read, so a graph weighed at those rows
    alone (:func:`~repro.mesh.dualgraph.coarse_dual_graph` given
    ``roots``) gives the same report.  The keys come out ascending because the sweep is in CSR
    order: rows ascending, each row's neighbours ascending.
    """
    owner = np.asarray(owner, dtype=np.int64)
    mine = owner == rank
    v_ids = np.flatnonzero(mine)
    src = graph.edge_src
    dst = graph.adjncy
    mask = mine[src] & (src < dst)
    keys = edge_keys(src[mask], dst[mask], owner.shape[0])
    return {
        "v_ids": v_ids,
        "v_wts": np.asarray(graph.vwts[v_ids], dtype=np.float64),
        "e_keys": keys,
        "e_wts": np.asarray(graph.ewts[mask], dtype=np.float64),
    }


def _changed(ids, wts, prev_ids, prev_wts):
    """Entries of (ids, wts) that are new or differ from the previous
    report.  Both id arrays sorted ascending."""
    if prev_ids.size == 0:
        return ids, wts
    pos = np.minimum(np.searchsorted(prev_ids, ids), prev_ids.size - 1)
    same = (prev_ids[pos] == ids) & (prev_wts[pos] == wts)
    return ids[~same], wts[~same]


def diff_weight_report(full: dict, prev) -> dict:
    """Delta of ``full`` against the previous full report ``prev``: the
    entries that are new or whose weight changed.  ``prev=None`` means no
    baseline: the full report travels verbatim.  A round cuts the same
    delta in slot space (:meth:`~repro.pared.protocols._WeightProtocol.weigh`);
    this sorted-key form is its test oracle and the benchmark replay's.
    """
    if prev is None:
        return full
    v_ids, v_wts = _changed(full["v_ids"], full["v_wts"], prev["v_ids"], prev["v_wts"])
    e_keys, e_wts = _changed(
        full["e_keys"], full["e_wts"], prev["e_keys"], prev["e_wts"]
    )
    return {"v_ids": v_ids, "v_wts": v_wts, "e_keys": e_keys, "e_wts": e_wts}


def split_report_by_owner(full: dict, owner, n_roots: int, rank: int) -> dict:
    """Split this rank's canonical edge report by the *other* endpoint's
    owner: the per-neighbor slices of ``full`` (the benchmark's replay
    reads them; no round ships them).

    Edge ``(a, b)`` (``a < b``) in ``full`` has ``owner[a] == rank``; the
    entry belongs to neighbor ``t = owner[b]`` when ``t != rank``.  Returns
    ``{t: {"e_keys": ..., "e_wts": ...}}`` with sorted keys per neighbor.
    """
    owner = np.asarray(owner, dtype=np.int64)
    _, b = split_edge_keys(full["e_keys"], n_roots)
    dst_owner = owner[b] if b.size else _EMPTY_I
    out = {}
    for t in np.unique(dst_owner):
        t = int(t)
        if t == rank:
            continue
        pick = dst_owner == t
        out[t] = {
            "e_keys": full["e_keys"][pick],
            "e_wts": full["e_wts"][pick],
        }
    return out
