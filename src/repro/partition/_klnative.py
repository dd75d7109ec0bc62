"""Wrappers of the compiled multilevel core (:mod:`_klcore.c`).

The core — heavy-edge matching, contraction, the whole KL refinement, and
the fused V-cycle entries :func:`coarsen` / :func:`refine` — is built on
first use by :func:`repro._native.build` (content-hashed shared object,
ctypes, GIL released, no float reassociation) and is the only
implementation: a failed build raises ``ImportError``, a failed scratch
allocation inside a kernel ``MemoryError``, an input a kernel cannot take
``ValueError``.  ``tests/test_kl_native.py`` and
``tests/test_multilevel_native.py`` hold every kernel to its numpy/Python
oracle in ``tests/_kl_oracle.py``, array for array.

The fused entries draw the matchings' seeded tie order with a C port of
numpy's PCG64 ``Generator.permutation``, and greedy growing its start
vertices with a port of ``Generator.integers``, both started from the
generator state numpy's seeding produced.  When the core loads, a few C
draws of each are compared with numpy's; a mismatch (a numpy whose
``permutation`` or ``integers`` changed) fails the load, so the compiled
V-cycle cannot drift from numpy's draws silently.

Arrays cross the boundary as raw addresses: every wrapper normalises its
arrays first (:func:`_csr`, ``ascontiguousarray``) and :func:`_ptr` only
asserts dtype and C-contiguity before taking the address.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import _native
from repro._native import ptr as _ptr
from repro.perf import PERF

_SRC = Path(__file__).with_name("_klcore.c")
_LOCK = threading.Lock()
_LIB = None

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_U64 = np.dtype(np.uint64)
_M64 = (1 << 64) - 1
_DUMMY_I64 = np.zeros(1, dtype=np.int64)  # stands in for hom when alpha == 0

#: kernel status: a scratch allocation failed / an output buffer is too
#: small (grow them all, call again) / an input the kernel cannot take
_NOMEM, _GROW, _BADARG = -1, -2, -3


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
    lib.pcg64_integers.restype = None
    lib.pcg64_integers.argtypes = [ptr, i64, ptr, ptr]
    lib.grow.restype = i64
    lib.grow.argtypes = [
        i64, ptr, ptr, ptr, ptr,       # n, CSR, vwts
        i64, ptr, ptr, ptr,            # p, state, targets, out
    ]
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
        i64, ptr, ptr, ptr,            # in_band_tail, grow state, out, stats
    ]
    lib.klcore_fail_after.restype = None
    lib.klcore_fail_after.argtypes = [i64]


def load():
    """The compiled core, built on first call.  Raises ``ImportError`` if
    it does not build or its PCG64 port disagrees with numpy."""
    global _LIB
    if _LIB is not None:
        return _LIB
    with _LOCK:
        if _LIB is None:
            lib = _native.build(_SRC, _configure)
            for name, agree in (("permutation", _permutation_agrees),
                                ("integers", _integers_agree)):
                if not agree(lib):
                    raise ImportError(
                        f"{_SRC.name}: the PCG64 port disagrees with numpy "
                        f"{np.__version__}'s Generator.{name}"
                    )
            _LIB = lib
    return _LIB


def _check(status: int, kernel: str) -> int:
    """``status`` unless it reports a failure, which raises."""
    if status == _NOMEM:
        raise MemoryError(f"{_SRC.name}: {kernel} could not allocate its scratch")
    if status == _BADARG:
        raise ValueError(f"{_SRC.name}: {kernel} was given an input it cannot take")
    return status


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
    by ascending priority."""
    lib = load()
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
    four as views of fine-sized buffers).  A ``match`` that is no
    involution raises ``ValueError``."""
    lib = load()
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
    _check(nc, "contract")
    end = int(cxadj[nc])
    return cxadj[: nc + 1], cadj[:end], cew[:end], cvw[:nc], cmap


def kl_refine(graph, assign, p: int, home, cfg, in_band_tail: int):
    """Run every pass of one ``kl_refine`` call (validated ``assign`` and
    ``home``, a ``KLConfig``) in the compiled core and return the refined
    assignment.  ``in_band_tail`` is :data:`repro.partition.kl.IN_BAND_TAIL`.

    The kernel works on a private copy: the inputs are never written.
    """
    asg, (passes, seconds, _, moves, kept) = _kl_refine_stats(
        graph, assign, p, home, cfg, in_band_tail
    )
    _credit_kl(passes, seconds, moves, kept)
    return asg


def _credit_kl(passes, seconds, moves, kept) -> None:
    PERF.add("kl.pass", float(seconds), calls=int(passes))
    PERF.add("kl.moves", 0.0, calls=int(moves))
    PERF.add("kl.kept", 0.0, calls=int(kept))


def _kl_refine_stats(graph, assign, p: int, home, cfg, in_band_tail: int):
    """``(assignment, [passes, seconds in them, best objective, moves
    tried, moves kept])``."""
    lib = load()
    alpha = float(cfg.alpha) if home is not None else 0.0
    if alpha:
        hom = np.ascontiguousarray(home, dtype=np.int64)
    else:
        hom = _DUMMY_I64  # never dereferenced when alpha == 0
    asg = np.array(assign, dtype=np.int64)
    vwts = graph.vwts
    mean = float(np.bincount(asg, weights=vwts, minlength=p).sum()) / p
    # The balance envelope cannot be tighter than the vertex-weight
    # granularity: with indivisible trees of weight up to w_max, subset
    # weights are only controllable to ~w_max/2.  Chasing a tighter band
    # would churn migration without ever converging.
    wmax = float(vwts.max()) if vwts.size else 0.0
    band = max(cfg.balance_tol * mean, 0.5 * wmax)
    stats = np.zeros(5, dtype=np.float64)
    status = lib.kl_refine(
        graph.n_vertices, p, *_csr_ptrs(_csr(graph)),
        _ptr(hom, _I64), alpha,
        float(cfg.beta), int(cfg.balance_mode == "deadband"),
        mean, mean + band, mean - band,
        int(cfg.window), int(cfg.stall_limit), int(in_band_tail),
        float(cfg.min_gain), int(cfg.max_passes),
        _ptr(asg, _I64), _ptr(stats, _F64),
    )
    _check(status, "kl_refine")
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
    """``default_rng(seed).permutation(m)`` drawn by the compiled port."""
    lib = lib or load()
    state = np.array(_pcg_state(seed), dtype=np.uint64)
    out = np.empty(m, dtype=np.int64)
    lib.pcg64_permutation(_ptr(state, _U64), m, _ptr(out, _I64))
    return out


def integers(seed: int, highs, lib=None):
    """``[rng.integers(h) for h in highs]`` with ``rng =
    default_rng(seed)``, drawn by the compiled port (1 <= h <= 2**32)."""
    lib = lib or load()
    state = np.array(_pcg_state(seed), dtype=np.uint64)
    highs = np.ascontiguousarray(highs, dtype=np.int64)
    out = np.empty(highs.shape[0], dtype=np.int64)
    lib.pcg64_integers(_ptr(state, _U64), highs.shape[0], _ptr(highs, _I64),
                       _ptr(out, _I64))
    return out


#: bounds the self-check draws in turn: no draw (1), small ones, ones that
#: reject about every other draw (2**31 + 1, 3 * 2**30 + 1) and the full
#: 32-bit range, in an order that shifts the buffered half-draw
_CHECK_HIGHS = (1, 2, 7, 126, 2**31 + 1, 1000, 3 * 2**30 + 1, 2**32, 5) * 3


def _permutation_agrees(lib) -> bool:
    """The load-time self-check of the permutation port against numpy
    (every size hits a different mix of buffered 32-bit draws and
    rejections)."""
    for seed in (0, 41, 2**40 + 3):
        for m in (0, 1, 2, 7, 1000):
            if not np.array_equal(
                permutation(seed, m, lib), np.random.default_rng(seed).permutation(m)
            ):
                return False
    return True


def _integers_agree(lib) -> bool:
    """The load-time self-check of the bounded-draw port against numpy."""
    for seed in (0, 41, 2**40 + 3):
        rng = np.random.default_rng(seed)
        expect = [int(rng.integers(h)) for h in _CHECK_HIGHS]
        if integers(seed, _CHECK_HIGHS, lib).tolist() != expect:
            return False
    return True


# ---------------------------------------------------------------------- #
# greedy growing
# ---------------------------------------------------------------------- #


def grow(graph, p: int, seed: int, targets=None):
    """``greedy_graph_growing(graph, p, seed, targets)`` in the compiled
    core (``targets``: ``None``, meaning W/p each, or ``p`` weights)."""
    lib = load()
    state = np.array(_pcg_state(seed), dtype=np.uint64)
    if targets is not None:
        targets = np.ascontiguousarray(targets, dtype=np.float64)
    out = np.empty(graph.n_vertices, dtype=np.int64)
    _check(lib.grow(
        graph.n_vertices, *_csr_ptrs(_csr(graph)), p, _ptr(state, _U64),
        None if targets is None else _ptr(targets, _F64), _ptr(out, _I64),
    ), "grow")
    return out


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


def coarsen(graph, coarsen_to: int, seed, home, constrain: bool,
            max_levels: int, min_shrink: float):
    """Every level of the contraction hierarchy of ``graph`` — heavy-edge
    matchings seeded ``seed``, ``seed + 1``, … (constrained to ``home``'s
    subsets with ``constrain``), contracted until ``coarsen_to`` vertices,
    ``max_levels`` levels or a level keeping ``min_shrink`` of its
    vertices — in one compiled call, as :class:`Levels`.

    Credits ``multilevel.coarsen`` once and ``matching.hem`` / ``contract``
    with the matchings tried and the levels built.
    """
    lib = load()
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
    lv.nlev = _check(int(status), "coarsen")
    tried, built, t_hem, t_contract = stats
    PERF.add("matching.hem", float(t_hem), calls=int(tried))
    PERF.add("contract", float(t_contract), calls=int(built))
    PERF.add("multilevel.coarsen", perf_counter() - t0)
    return lv


def refine(levels: Levels, p: int, cfgs: list, rebalance_above: float,
           in_band_tail: int, grow_seed=None):
    """Assign the coarsest level of ``levels`` — greedy growing seeded
    ``grow_seed`` or, when that is ``None``, the projected home — then
    project it up through every level and refine each, in one compiled
    call.

    Without a home (``multilevel_partition``), each level runs ``cfgs[0]``
    while ``graph_imbalance`` exceeds ``rebalance_above``, then ``cfgs[1]``;
    with one (``multilevel_repartition``), ``cfgs[0]`` against the level's
    home, and the result falls back to the home if it scores worse under
    Equation 1 (``cfgs[0].alpha`` / ``.beta``).  Credits
    ``multilevel.refine`` once and the ``kl.*`` counters as one
    ``kl_refine`` call per level and configuration would.
    """
    lib = load()
    t0 = perf_counter()
    state = None if grow_seed is None else np.array(_pcg_state(grow_seed), dtype=np.uint64)
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
        None if state is None else _ptr(state, _U64), _ptr(out, _I64),
        _ptr(stats, _F64),
    )
    _check(status, "refine")
    calls, seconds, passes, pass_seconds, moves, kept = stats
    PERF.add("kl.refine", float(seconds), calls=int(calls))
    _credit_kl(passes, pass_seconds, moves, kept)
    PERF.add("multilevel.refine", perf_counter() - t0)
    return out
