"""Build & load the compiled multilevel core (:mod:`_klcore.c`).

The core — heavy-edge matching, contraction and the whole KL refinement —
is compiled on first use with the system C compiler into a content-hashed
shared object next to the source (or a temporary directory when the package
directory is read-only) and loaded through :mod:`ctypes`.  Everything
degrades gracefully: no compiler, a failed build, a failed allocation
inside a kernel, or ``REPRO_KL_NATIVE=0`` make every wrapper here return
``None``, and the caller runs its numpy/Python reference instead
(:func:`repro.graph.matching._match_rounds`,
:func:`repro.graph.contract._contract_py`,
:func:`repro.partition.kl._kl_refine_py`).  ``tests/test_kl_native.py`` and
``tests/test_multilevel_native.py`` assert the two paths agree array for
array.

The build deliberately avoids ``-ffast-math`` and FMA contraction (any flag
that would let the compiler reassociate or fuse float expressions): gain
keys and merged weights must be bit-identical to the Python/numpy
arithmetic or heap pop order — and therefore the refinement output — could
drift.

A welcome side effect of the ctypes boundary: the GIL is released for the
duration of a kernel, so under the threaded SimMPI runtime worker ranks keep
running while the coordinator repartitions.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.perf import PERF
from repro.runtime.envflags import env_bool

_SRC = Path(__file__).with_name("_klcore.c")
_CFLAGS = ["-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]
_LOCK = threading.Lock()
_LIB = None
_TRIED = False
_DISABLED = not env_bool("REPRO_KL_NATIVE", default=True)

_DUMMY_I64 = np.zeros(1, dtype=np.int64)  # stands in for hom when alpha == 0


def _configure(lib) -> None:
    c_i64 = ctypes.c_int64
    c_f64 = ctypes.c_double
    i64p = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    f64p = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    lib.hem_match.restype = None
    lib.hem_match.argtypes = [c_i64, c_i64, i64p, i64p, i64p, i64p]
    lib.contract.restype = c_i64
    lib.contract.argtypes = [
        c_i64, i64p, i64p, f64p, f64p, i64p,  # n, CSR, vwts, match
        i64p, f64p, i64p, i64p, f64p,         # cmap, cvw, cxadj, cadj, cew
    ]
    lib.kl_refine.restype = c_i64
    lib.kl_refine.argtypes = [
        c_i64, c_i64,                  # n, p
        i64p, i64p, f64p, f64p,        # xadj, adjncy, ewts, vw
        i64p, c_f64,                   # hom, alpha
        c_f64, c_i64,                  # beta, deadband
        c_f64, c_f64, c_f64,           # mean, maxcap, floor_w
        c_i64, c_i64, c_i64,           # window, stall_limit, in_band_tail
        c_f64, c_i64,                  # min_gain, max_passes
        i64p, f64p,                    # asg (in/out), stats (out)
    ]
    lib.klcore_fail_after.restype = None
    lib.klcore_fail_after.argtypes = [c_i64]


def _compile_and_load():
    src = _SRC.read_bytes()
    tag = hashlib.sha256(src + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cc = os.environ.get("CC", "cc")
    so = _SRC.with_name(f"_klcore-{tag}.so")
    if not so.exists():
        with tempfile.TemporaryDirectory() as td:
            tmp = Path(td) / "klcore.so"
            subprocess.run(
                [cc, *_CFLAGS, "-o", str(tmp), str(_SRC)],
                check=True, capture_output=True,
            )
            try:
                os.replace(tmp, so)  # atomic publish for future imports
            except OSError:
                # package dir read-only: dlopen from the tempdir — on
                # POSIX the mapping survives the directory's deletion
                lib = ctypes.CDLL(str(tmp))
                _configure(lib)
                return lib
    lib = ctypes.CDLL(str(so))
    _configure(lib)
    return lib


def load():
    """The compiled core, built on first call; ``None`` if unavailable."""
    global _LIB, _TRIED
    if _DISABLED:
        return None
    if _TRIED:
        return _LIB
    with _LOCK:
        if not _TRIED:
            try:
                _LIB = _compile_and_load()
            except Exception:
                _LIB = None
            _TRIED = True
    return _LIB


def _csr(graph) -> tuple:
    """``(xadj, adjncy, ewts, vwts)`` as the kernels take them (a no-op for
    every graph the constructors build)."""
    return (
        np.ascontiguousarray(graph.xadj, dtype=np.int64),
        np.ascontiguousarray(graph.adjncy, dtype=np.int64),
        np.ascontiguousarray(graph.ewts, dtype=np.float64),
        np.ascontiguousarray(graph.vwts, dtype=np.float64),
    )


def hem_match(n: int, es, ed, order):
    """Greedy matching over candidate edges ``(es, ed)`` listed in ``order``
    by ascending priority; ``None`` means "fall back"."""
    lib = load()
    if lib is None:
        return None
    match = np.empty(n, dtype=np.int64)
    lib.hem_match(
        n, es.shape[0],
        np.ascontiguousarray(es, dtype=np.int64),
        np.ascontiguousarray(ed, dtype=np.int64),
        np.ascontiguousarray(order, dtype=np.int64),
        match,
    )
    return match


def contract(graph, match):
    """Contract ``graph`` along ``match``: ``(xadj, adjncy, ewts, vwts,
    cmap)`` of the coarse graph (the first four as views of fine-sized
    buffers), or ``None`` for "fall back"."""
    lib = load()
    if lib is None:
        return None
    n = graph.n_vertices
    nnz = graph.adjncy.shape[0]
    cmap = np.empty(n, dtype=np.int64)
    cvw = np.empty(n, dtype=np.float64)
    cxadj = np.empty(n + 1, dtype=np.int64)
    cadj = np.empty(nnz, dtype=np.int64)
    cew = np.empty(nnz, dtype=np.float64)
    nc = lib.contract(n, *_csr(graph), match, cmap, cvw, cxadj, cadj, cew)
    if nc < 0:
        return None
    end = int(cxadj[nc])
    return cxadj[: nc + 1], cadj[:end], cew[:end], cvw[:nc], cmap


def kl_refine(state, in_band_tail: int):
    """Run every pass of one ``kl_refine`` call in the compiled core and
    return the refined assignment; ``None`` means "fall back".
    ``in_band_tail`` is :data:`repro.partition.kl.IN_BAND_TAIL`.

    The kernel works on a private copy, so a ``None`` return leaves
    ``state`` untouched.
    """
    out = _kl_refine_stats(state, in_band_tail)
    if out is None:
        return None
    asg, (passes, seconds, _, moves, kept) = out
    PERF.add("kl.pass", float(seconds), calls=int(passes))
    PERF.add("kl.moves", 0.0, calls=int(moves))
    PERF.add("kl.kept", 0.0, calls=int(kept))
    return asg


def _kl_refine_stats(state, in_band_tail: int):
    """``(assignment, [passes, seconds in them, best objective, moves
    tried, moves kept])``."""
    lib = load()
    if lib is None:
        return None
    cfg = state.cfg
    alpha = float(cfg.alpha) if state.home is not None else 0.0
    if alpha:
        hom = np.ascontiguousarray(state.home, dtype=np.int64)
    else:
        hom = _DUMMY_I64  # never dereferenced when alpha == 0
    asg = state.assign.copy()
    stats = np.zeros(5, dtype=np.float64)
    status = lib.kl_refine(
        state.graph.n_vertices, state.p, *_csr(state.graph),
        hom, alpha,
        float(cfg.beta), int(cfg.balance_mode == "deadband"),
        state.mean, state.maxcap, state.mean - state.band,
        int(cfg.window), int(cfg.stall_limit), int(in_band_tail),
        float(cfg.min_gain), int(cfg.max_passes),
        asg, stats,
    )
    if status:  # allocation failure inside the kernel
        return None
    return asg, stats
