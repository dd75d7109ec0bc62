"""Build & load the compiled multilevel core (:mod:`_klcore.c`).

The core — heavy-edge matching, contraction, the whole KL refinement, and
the fused V-cycle entries :func:`coarsen` / :func:`refine` — is compiled on
first use with the system C compiler into a content-hashed shared object
next to the source (or a temporary directory when the package directory is
read-only) and loaded through :mod:`ctypes`.  Everything degrades
gracefully: no compiler, a failed build, a failed allocation inside a
kernel, or ``REPRO_KL_NATIVE=0`` make every wrapper here return ``None``,
and the caller runs its numpy/Python reference instead
(:func:`repro.graph.matching._match_rounds`,
:func:`repro.graph.contract._contract_py`,
:func:`repro.partition.kl._kl_refine_py`,
:func:`repro.partition.multilevel.build_hierarchy` +
:func:`~repro.partition.multilevel.v_cycle`).
``tests/test_kl_native.py`` and ``tests/test_multilevel_native.py`` assert
the two paths agree array for array.

The fused entries draw the matchings' seeded tie order with a C port of
numpy's PCG64 ``Generator.permutation``, started from the generator state
numpy's seeding produced.  When the core loads, a few C draws are compared
with numpy's; on a mismatch :func:`coarsen` and :func:`refine` stay off and
the per-level path runs, so native ≡ pure cannot break silently.

The build deliberately avoids ``-ffast-math`` and FMA contraction (any flag
that would let the compiler reassociate or fuse float expressions): gain
keys and merged weights must be bit-identical to the Python/numpy
arithmetic or heap pop order — and therefore the refinement output — could
drift.

Arrays cross the boundary as raw addresses: every wrapper normalises its
arrays first (:func:`_csr`, ``ascontiguousarray``) and :func:`_ptr` only
asserts dtype and C-contiguity before taking the address.

A welcome side effect of the ctypes boundary: the GIL is released for the
duration of a kernel, so under the threaded SimMPI runtime the ranks'
repartitions run in parallel.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.perf import PERF
from repro.runtime.envflags import env_bool

_SRC = Path(__file__).with_name("_klcore.c")
_CFLAGS = ["-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]
_LOCK = threading.Lock()
_LIB = None
_TRIED = False
_DISABLED = not env_bool("REPRO_KL_NATIVE", default=True)
#: whether the fused entries passed the load-time PCG64 self-check
_FUSED = False

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_U64 = np.dtype(np.uint64)
_M64 = (1 << 64) - 1
_DUMMY_I64 = np.zeros(1, dtype=np.int64)  # stands in for hom when alpha == 0

#: kernel status: an output buffer is too small — grow them all, call again
_GROW = -2


def _ptr(a: np.ndarray, dtype) -> int:
    """The address of an array a wrapper has already normalised."""
    assert a.dtype == dtype and a.flags.c_contiguous
    return a.ctypes.data


def _configure(lib) -> None:
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    ptr = ctypes.c_void_p
    lib.hem_match.restype = i64
    lib.hem_match.argtypes = [i64, i64, ptr, ptr, ptr, ptr]
    lib.contract.restype = i64
    lib.contract.argtypes = [
        i64, ptr, ptr, ptr, ptr, ptr,  # n, CSR, vwts, match
        ptr, ptr, ptr, ptr, ptr,       # cmap, cvw, cxadj, cadj, cew
    ]
    lib.kl_refine.restype = i64
    lib.kl_refine.argtypes = [
        i64, i64,                      # n, p
        ptr, ptr, ptr, ptr,            # xadj, adjncy, ewts, vw
        ptr, f64,                      # hom, alpha
        f64, i64,                      # beta, deadband
        f64, f64, f64,                 # mean, maxcap, floor_w
        i64, i64, i64,                 # window, stall_limit, in_band_tail
        f64, i64,                      # min_gain, max_passes
        ptr, ptr,                      # asg (in/out), stats (out)
    ]
    lib.pcg64_permutation.restype = None
    lib.pcg64_permutation.argtypes = [ptr, i64, ptr]
    lib.coarsen.restype = i64
    lib.coarsen.argtypes = [
        i64, ptr, ptr, ptr, ptr, ptr,  # n, CSR, vwts, home
        i64, i64, i64, f64,            # constrain, coarsen_to, max_levels, min_shrink
        ptr, i64,                      # states, nstates
        i64, i64,                      # cap_v, cap_e
        ptr, ptr,                      # nv, ne
        ptr, ptr, ptr, ptr,            # cxadj, cadj, cew, cvw
        ptr, ptr, ptr,                 # cmap, chome, stats
    ]
    lib.refine.restype = i64
    lib.refine.argtypes = [
        i64, ptr, ptr,                 # nlev, nv, ne
        ptr, ptr, ptr, ptr,            # level 0 CSR, vwts
        ptr, ptr, ptr, ptr,            # coarse cxadj, cadj, cew, cvw
        ptr, ptr, ptr,                 # cmap, home, chome
        i64, ptr, i64, f64,            # p, cfgs, ncfg, rebalance_above
        i64, ptr, ptr, ptr,            # in_band_tail, start, out, stats
    ]
    lib.klcore_fail_after.restype = None
    lib.klcore_fail_after.argtypes = [i64]


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
    global _LIB, _TRIED, _FUSED
    if _DISABLED:
        return None
    if _TRIED:
        return _LIB
    with _LOCK:
        if not _TRIED:
            try:
                _LIB = _compile_and_load()
                _FUSED = _draws_agree(_LIB)
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


def _csr_ptrs(csr) -> list:
    xadj, adjncy, ewts, vwts = csr
    return [_ptr(xadj, _I64), _ptr(adjncy, _I64), _ptr(ewts, _F64), _ptr(vwts, _F64)]


def hem_match(n: int, es, ed, order):
    """Greedy matching over candidate edges ``(es, ed)`` listed in ``order``
    by ascending priority; ``None`` means "fall back"."""
    lib = load()
    if lib is None:
        return None
    es = np.ascontiguousarray(es, dtype=np.int64)
    ed = np.ascontiguousarray(ed, dtype=np.int64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    match = np.empty(n, dtype=np.int64)
    lib.hem_match(
        n, es.shape[0], _ptr(es, _I64), _ptr(ed, _I64), _ptr(order, _I64),
        _ptr(match, _I64),
    )
    return match


def contract(graph, match):
    """Contract ``graph`` along ``match`` (normalised by the caller):
    ``(xadj, adjncy, ewts, vwts, cmap)`` of the coarse graph (the first
    four as views of fine-sized buffers), or ``None`` for "fall back"."""
    lib = load()
    if lib is None:
        return None
    n = graph.n_vertices
    nnz = graph.adjncy.shape[0]
    csr = _csr(graph)
    cmap = np.empty(n, dtype=np.int64)
    cvw = np.empty(n, dtype=np.float64)
    cxadj = np.empty(n + 1, dtype=np.int64)
    cadj = np.empty(nnz, dtype=np.int64)
    cew = np.empty(nnz, dtype=np.float64)
    nc = lib.contract(
        n, *_csr_ptrs(csr), _ptr(match, _I64),
        _ptr(cmap, _I64), _ptr(cvw, _F64), _ptr(cxadj, _I64),
        _ptr(cadj, _I64), _ptr(cew, _F64),
    )
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
    _credit_kl(passes, seconds, moves, kept)
    return asg


def _credit_kl(passes, seconds, moves, kept) -> None:
    PERF.add("kl.pass", float(seconds), calls=int(passes))
    PERF.add("kl.moves", 0.0, calls=int(moves))
    PERF.add("kl.kept", 0.0, calls=int(kept))


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
    csr = _csr(state.graph)
    status = lib.kl_refine(
        state.graph.n_vertices, state.p, *_csr_ptrs(csr),
        _ptr(hom, _I64), alpha,
        float(cfg.beta), int(cfg.balance_mode == "deadband"),
        state.mean, state.maxcap, state.mean - state.band,
        int(cfg.window), int(cfg.stall_limit), int(in_band_tail),
        float(cfg.min_gain), int(cfg.max_passes),
        _ptr(asg, _I64), _ptr(stats, _F64),
    )
    if status:  # allocation failure inside the kernel
        return None
    return asg, stats


# ---------------------------------------------------------------------- #
# the seeded tie order: numpy's PCG64 draws, ported
# ---------------------------------------------------------------------- #


@functools.lru_cache(maxsize=4096)
def _pcg_state(seed: int) -> tuple:
    """``default_rng(seed)``'s PCG64 state as four words (state high, state
    low, increment high, increment low) — what the C generator starts
    from.  Reading it costs a generator construction, hence the cache."""
    st = np.random.default_rng(seed).bit_generator.state["state"]
    s, inc = st["state"], st["inc"]
    return (s >> 64, s & _M64, inc >> 64, inc & _M64)


@functools.lru_cache(maxsize=256)
def _seed_block(seed: int, levels: int) -> np.ndarray:
    """The states of ``default_rng(seed + l)`` for ``l < levels``: the
    matching of level ``l`` draws its tie order from row ``l``."""
    rows = [_pcg_state(seed + level) for level in range(levels)]
    block = np.array(rows, dtype=np.uint64).reshape(levels, 4)
    block.flags.writeable = False
    return block


def permutation(seed: int, m: int, lib=None):
    """``default_rng(seed).permutation(m)`` drawn by the compiled port;
    ``None`` without a compiled core."""
    lib = lib or load()
    if lib is None:
        return None
    state = np.array(_pcg_state(seed), dtype=np.uint64)
    out = np.empty(m, dtype=np.int64)
    lib.pcg64_permutation(_ptr(state, _U64), m, _ptr(out, _I64))
    return out


def _draws_agree(lib) -> bool:
    """The load-time self-check of the port against numpy (every size hits
    a different mix of buffered 32-bit draws and rejections)."""
    for seed in (0, 41, 2**40 + 3):
        for m in (0, 1, 2, 7, 1000):
            if not np.array_equal(
                permutation(seed, m, lib), np.random.default_rng(seed).permutation(m)
            ):
                return False
    return True


# ---------------------------------------------------------------------- #
# the fused V-cycle: coarsen, then refine
# ---------------------------------------------------------------------- #


def _first_capacity(n: int, nnz: int) -> tuple:
    """Coarse vertices and CSR entries the first ``coarsen`` call gets room
    for, summed over levels (measured: 1.35 n and 2.24 nnz on a 10 368-tet
    dual graph at p = 16, less in 2-D); the kernel asks for more when a
    level does not fit."""
    return 2 * n + 64, 3 * nnz + 64


class Levels:
    """A hierarchy :func:`coarsen` built: level 0 is the input graph, the
    coarse levels live back to back in arrays the wrapper owns."""

    __slots__ = ("graph", "csr", "home", "nlev", "nv", "ne",
                 "cxadj", "cadj", "cew", "cvw", "cmap", "chome")

    def level_graph(self, level: int) -> WeightedGraph:
        """``graphs[level]`` of :func:`~repro.partition.multilevel.build_hierarchy`."""
        if level == 0:
            return self.graph
        v0 = int(self.nv[1:level].sum())
        e0 = int(self.ne[1:level].sum())
        n, nnz = int(self.nv[level]), int(self.ne[level])
        x0 = v0 + level - 1
        return WeightedGraph(
            self.cxadj[x0 : x0 + n + 1], self.cadj[e0 : e0 + nnz],
            self.cew[e0 : e0 + nnz], self.cvw[v0 : v0 + n],
        )

    def level_home(self, level: int):
        """``homes[level]`` of the same hierarchy."""
        if self.home is None or level == 0:
            return self.home
        v0 = int(self.nv[1:level].sum())
        return self.chome[v0 : v0 + int(self.nv[level])]


def coarsen(graph, coarsen_to: int, seed, home, constrain: bool,
            max_levels: int, min_shrink: float):
    """Every level of ``build_hierarchy(graph, coarsen_to, seed, home,
    constrain)`` (under its ``MAX_LEVELS`` / ``MIN_SHRINK``) in one
    compiled call, as :class:`Levels`; ``None`` means "run the reference".

    Credits ``multilevel.coarsen`` once and ``matching.hem`` / ``contract``
    with the matchings tried and the levels built, as the reference does.
    """
    lib = load()
    if lib is None or not _FUSED or not isinstance(seed, (int, np.integer)) or seed < 0:
        return None
    t0 = perf_counter()
    n = graph.n_vertices
    csr = _csr(graph)
    nnz = csr[1].shape[0]
    if home is not None:
        home = np.ascontiguousarray(home, dtype=np.int64)
    states = _seed_block(int(seed), max_levels if n > coarsen_to else 0)
    lv = Levels()
    lv.graph, lv.csr, lv.home = graph, csr, home
    lv.nv = np.empty(max_levels + 1, dtype=np.int64)
    lv.ne = np.empty(max_levels + 1, dtype=np.int64)
    stats = np.zeros(4, dtype=np.float64)
    cap_v, cap_e = _first_capacity(n, nnz)
    while True:
        lv.cxadj = np.empty(cap_v + max_levels, dtype=np.int64)
        lv.cadj = np.empty(cap_e, dtype=np.int64)
        lv.cew = np.empty(cap_e, dtype=np.float64)
        lv.cvw = np.empty(cap_v, dtype=np.float64)
        lv.cmap = np.empty(n + cap_v, dtype=np.int64)
        lv.chome = np.empty(cap_v if home is not None else 0, dtype=np.int64)
        status = lib.coarsen(
            n, *_csr_ptrs(csr), None if home is None else _ptr(home, _I64),
            int(bool(constrain)), int(coarsen_to), int(max_levels), float(min_shrink),
            _ptr(states, _U64), states.shape[0], cap_v, cap_e,
            _ptr(lv.nv, _I64), _ptr(lv.ne, _I64),
            _ptr(lv.cxadj, _I64), _ptr(lv.cadj, _I64), _ptr(lv.cew, _F64),
            _ptr(lv.cvw, _F64), _ptr(lv.cmap, _I64), _ptr(lv.chome, _I64),
            _ptr(stats, _F64),
        )
        if status != _GROW:
            break
        cap_v, cap_e = 2 * cap_v, 2 * cap_e
    if status < 0:
        return None
    lv.nlev = int(status)
    tried, built, t_hem, t_contract = stats
    PERF.add("matching.hem", float(t_hem), calls=int(tried))
    PERF.add("contract", float(t_contract), calls=int(built))
    PERF.add("multilevel.coarsen", perf_counter() - t0)
    return lv


def refine(levels: Levels, start, p: int, cfgs: list, rebalance_above: float,
           in_band_tail: int):
    """Project ``start`` (an assignment of the coarsest level) up through
    ``levels`` and refine every level in one compiled call; ``None`` means
    "run the reference".

    Without a home (``multilevel_partition``), each level runs ``cfgs[0]``
    while ``graph_imbalance`` exceeds ``rebalance_above``, then ``cfgs[1]``;
    with one (``multilevel_repartition``), ``cfgs[0]`` against the level's
    home, and the result falls back to the home if it scores worse under
    Equation 1 (``cfgs[0].alpha`` / ``.beta``).  Credits
    ``multilevel.refine`` once and the ``kl.*`` counters as the reference's
    ``kl_refine`` calls would.
    """
    lib = load()
    if lib is None or not _FUSED:
        return None
    t0 = perf_counter()
    start = np.ascontiguousarray(start, dtype=np.int64)
    packed = np.array(
        [[c.alpha, c.beta, c.balance_tol, c.min_gain, c.balance_mode == "deadband",
          c.window, c.stall_limit, c.max_passes] for c in cfgs],
        dtype=np.float64,
    )
    home = levels.home
    out = np.empty(levels.graph.n_vertices, dtype=np.int64)
    stats = np.zeros(6, dtype=np.float64)
    status = lib.refine(
        levels.nlev, _ptr(levels.nv, _I64), _ptr(levels.ne, _I64),
        *_csr_ptrs(levels.csr),
        _ptr(levels.cxadj, _I64), _ptr(levels.cadj, _I64),
        _ptr(levels.cew, _F64), _ptr(levels.cvw, _F64), _ptr(levels.cmap, _I64),
        None if home is None else _ptr(home, _I64),
        None if home is None else _ptr(levels.chome, _I64),
        p, _ptr(packed, _F64), len(cfgs), float(rebalance_above), int(in_band_tail),
        _ptr(start, _I64), _ptr(out, _I64), _ptr(stats, _F64),
    )
    if status:
        return None
    calls, seconds, passes, pass_seconds, moves, kept = stats
    PERF.add("kl.refine", float(seconds), calls=int(calls))
    _credit_kl(passes, pass_seconds, moves, kept)
    PERF.add("multilevel.refine", perf_counter() - t0)
    return out
