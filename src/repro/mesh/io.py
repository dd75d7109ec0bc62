"""Mesh and partition I/O.

Two formats:

* **npz** — the library's native snapshot: vertices, leaf connectivity,
  leaf→root map and depths (plus an optional partition), enough to restart
  analysis or hand a mesh to another tool.  The full refinement forest is
  reconstructible only up to the leaf level; nested workflows should keep
  the live object.
* **Triangle/TetGen text** (``.node`` / ``.ele``) — the de-facto exchange
  format of 1990s–2000s unstructured-mesh codes (Shewchuk's *Triangle*,
  Si's *TetGen*); PARED-era systems read and wrote these.  Writing covers
  2-D and 3-D leaf meshes; reading returns ``(verts, cells)`` arrays that
  seed a fresh :class:`~repro.mesh.mesh2d.TriMesh` / ``TetMesh``.
"""

from __future__ import annotations

import io as _io
import os

import numpy as np


def save_npz(path, mesh, partition=None) -> None:
    """Save the leaf mesh (and optionally a leaf partition) to ``path``."""
    mesh = getattr(mesh, "mesh", mesh)
    data = {
        "dim": np.int64(mesh.dim),
        "verts": mesh.verts,
        "cells": mesh.leaf_cells(),
        "roots": mesh.leaf_roots(),
        "depths": mesh.forest.depth_array[mesh.leaf_ids()],
        "n_roots": np.int64(mesh.n_roots),
    }
    if partition is not None:
        partition = np.asarray(partition)
        if partition.shape[0] != mesh.n_leaves:
            raise ValueError("partition must align with current leaves")
        data["partition"] = partition
    np.savez_compressed(path, **data)


def load_npz(path) -> dict:
    """Load a leaf-mesh snapshot; returns a dict with ``verts``, ``cells``,
    ``roots``, ``depths``, ``dim``, ``n_roots`` and optionally
    ``partition``."""
    with np.load(path) as z:
        out = {k: z[k] for k in z.files}
    out["dim"] = int(out["dim"])
    out["n_roots"] = int(out["n_roots"])
    return out


def write_node_file(path, verts) -> None:
    """Write a Triangle/TetGen ``.node`` file (1-indexed, no attributes)."""
    verts = np.asarray(verts, dtype=float)
    n, dim = verts.shape
    with open(path, "w") as f:
        f.write(f"{n} {dim} 0 0\n")
        for i, p in enumerate(verts, start=1):
            coords = " ".join(f"{x:.17g}" for x in p)
            f.write(f"{i} {coords}\n")


def write_ele_file(path, cells, attributes=None) -> None:
    """Write a Triangle/TetGen ``.ele`` file (1-indexed); ``attributes``
    (e.g. a partition) become the per-element attribute column."""
    cells = np.asarray(cells, dtype=np.int64)
    n, npc = cells.shape
    n_attr = 0 if attributes is None else 1
    if attributes is not None:
        attributes = np.asarray(attributes)
        if attributes.shape[0] != n:
            raise ValueError("attributes must align with cells")
    with open(path, "w") as f:
        f.write(f"{n} {npc} {n_attr}\n")
        for i in range(n):
            nodes = " ".join(str(v + 1) for v in cells[i])
            if attributes is not None:
                f.write(f"{i + 1} {nodes} {attributes[i]}\n")
            else:
                f.write(f"{i + 1} {nodes}\n")


def _strip_comments(lines):
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            yield line


def read_node_file(path) -> np.ndarray:
    """Read a ``.node`` file; returns ``(n, dim)`` coordinates (0-indexed
    order preserved)."""
    with open(path) as f:
        lines = list(_strip_comments(f))
    header = lines[0].split()
    n, dim = int(header[0]), int(header[1])
    verts = np.empty((n, dim))
    for line in lines[1 : n + 1]:
        parts = line.split()
        idx = int(parts[0]) - 1
        verts[idx] = [float(x) for x in parts[1 : 1 + dim]]
    return verts


def read_ele_file(path):
    """Read an ``.ele`` file; returns ``(cells, attributes_or_None)``
    0-indexed."""
    with open(path) as f:
        lines = list(_strip_comments(f))
    header = lines[0].split()
    n, npc = int(header[0]), int(header[1])
    n_attr = int(header[2]) if len(header) > 2 else 0
    cells = np.empty((n, npc), dtype=np.int64)
    attrs = np.empty(n, dtype=np.int64) if n_attr else None
    for line in lines[1 : n + 1]:
        parts = line.split()
        idx = int(parts[0]) - 1
        cells[idx] = [int(v) - 1 for v in parts[1 : 1 + npc]]
        if n_attr:
            attrs[idx] = int(float(parts[1 + npc]))
    return cells, attrs


def save_state(path, mesh) -> None:
    """Checkpoint the *complete* nested-mesh state — forest, all elements
    (any status), vertices and the midpoint memo — so a restart resumes
    with identical element ids, reactivation behaviour and geometry.

    Unlike :func:`save_npz` (leaf snapshot for exchange), this is the
    restart format: :func:`load_state` reconstructs a mesh object that is
    behaviourally indistinguishable from the original.
    """
    mesh = getattr(mesh, "mesh", mesh)
    f = mesh.forest
    # midpoint keys are packed pair_key ints in memory; persist them as
    # (a, b) pairs so the on-disk format is self-describing and stable
    packed = np.array(sorted(mesh._midpoint.keys()), dtype=np.int64).reshape(-1)
    mid_keys = np.column_stack([packed >> 32, packed & 0xFFFFFFFF]).reshape(-1, 2)
    mid_vals = np.array(
        [mesh._midpoint[int(k)] for k in packed], dtype=np.int64
    )
    np.savez_compressed(
        path,
        dim=np.int64(mesh.dim),
        verts=mesh.verts,
        cells=mesh.cells,
        parent=f.parent_array,
        child0=f.child0_array,
        child1=f.child1_array,
        root=f.root_array,
        depth=f.depth_array,
        status=f.status_array,
        n_roots=np.int64(f.n_roots),
        mid_keys=mid_keys,
        mid_vals=mid_vals,
    )


def load_state(path):
    """Reconstruct a :class:`~repro.mesh.mesh2d.TriMesh` / ``TetMesh`` from
    a :func:`save_state` checkpoint, bit-for-bit in ids and forest state."""
    from repro.mesh.forest import LEAF, RefinementForest
    from repro.mesh.growable import GrowableMatrix, GrowableVector
    from repro.mesh.mesh2d import TriMesh
    from repro.mesh.mesh3d import TetMesh

    with np.load(path) as z:
        data = {k: z[k] for k in z.files}
    dim = int(data["dim"])
    cls = TriMesh if dim == 2 else TetMesh

    mesh = cls.__new__(cls)
    mesh._pts = GrowableMatrix(dim, float, capacity=max(16, 2 * data["verts"].shape[0]))
    mesh._pts.extend(data["verts"])
    npc = cls.nodes_per_cell
    mesh._cells = GrowableMatrix(npc, np.int64, capacity=max(16, 2 * data["cells"].shape[0]))
    mesh._cells.extend(data["cells"])

    forest = RefinementForest.__new__(RefinementForest)
    for name, dtype in (
        ("parent", np.int64), ("child0", np.int64), ("child1", np.int64),
        ("root", np.int64), ("status", np.uint8),
    ):
        vec = GrowableVector(dtype, capacity=max(16, 2 * data[name].shape[0]))
        vec.extend(data[name])
        setattr(forest, f"_{name}", vec)
    depth_vec = GrowableVector(np.int32, capacity=max(16, 2 * data["depth"].shape[0]))
    depth_vec.extend(data["depth"])
    forest._depth = depth_vec
    forest._n_roots = int(data["n_roots"])
    forest._n_leaves = int((data["status"] == LEAF).sum())
    mesh.forest = forest

    mesh._midpoint = {
        (int(a) << 32) | int(b): int(v)
        for (a, b), v in zip(data["mid_keys"], data["mid_vals"])
    }
    forest._init_caches()
    mesh._rebuild_adjacency()
    return mesh


def save_checkpoint(path, mesh, owner=None, metadata=None) -> None:
    """Checkpoint for a PARED-style run: full mesh state plus the current
    root-ownership array and arbitrary metadata (round number, parameters)."""
    import pickle

    mesh = getattr(mesh, "mesh", mesh)
    save_state(path, mesh)
    side = str(path) + ".meta"
    with open(side, "wb") as f:
        pickle.dump({"owner": None if owner is None else np.asarray(owner),
                     "metadata": metadata}, f)


def load_checkpoint(path):
    """Returns ``(mesh, owner_or_None, metadata)`` from a checkpoint."""
    import pickle

    mesh = load_state(path)
    side = str(path) + ".meta"
    with open(side, "rb") as f:
        extra = pickle.load(f)
    return mesh, extra["owner"], extra["metadata"]


def save_triangle_mesh(prefix, mesh, partition=None) -> None:
    """Write ``<prefix>.node`` + ``<prefix>.ele`` for the current leaf
    mesh."""
    mesh = getattr(mesh, "mesh", mesh)
    write_node_file(f"{prefix}.node", mesh.verts)
    write_ele_file(f"{prefix}.ele", mesh.leaf_cells(), attributes=partition)


def load_triangle_mesh(prefix):
    """Read ``<prefix>.node`` + ``<prefix>.ele``; returns
    ``(verts, cells, attributes_or_None)`` with unused trailing vertices
    retained (ids as in the file)."""
    verts = read_node_file(f"{prefix}.node")
    cells, attrs = read_ele_file(f"{prefix}.ele")
    return verts, cells, attrs
