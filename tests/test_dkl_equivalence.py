"""The ``dkl`` round engine against its frozen self.

``src/repro/partition/distributed.py`` keeps each part's adjacency and
connectivity rows in a persistent state that is patched around every
accepted move, scores boundary rows only, ships the escape offer inside
the regular proposal frame and hands the views their adopted edges once
per call.  The engine it replaced — whole-part ``_conn_matrix`` rebuild
and full gain matrix every part-round, a second exchange for the escape
offer, ``PartView.absorb`` after every batch — is frozen in
``tests/_reference_kernels.py``.  Both must agree **bit for bit** on the
final assignment, the full trace (moves, escapes, rebalances, rollbacks,
gains and priorities) and the pruned views, for non-integer weights, dead
parts, and starts that force rebalances, multi-pass rollbacks and roots
that leave a part and return.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import WeightedGraph
from repro.partition import distributed as engine
from repro.partition.distributed import DKLConfig, PartView

from tests import _reference_kernels as frozen


def run_serial(eng, graph, p, a0, cfg, live):
    """Drive ``eng``'s round loop the way the serial driver does, but keep
    the views: ``(assignment, trace, views)``."""
    assign = np.asarray(a0, dtype=np.int64).copy()
    views = {part: PartView.from_graph(graph, part, assign) for part in live}
    loads = np.bincount(assign, weights=graph.vwts, minlength=p).astype(
        np.float64
    )
    wmax = float(graph.vwts.max())
    trace = []
    exchange = eng._serial_exchange(live)
    if eng is frozen:  # the frozen loop keeps the signature it was frozen with
        eng._refine_loop(
            graph.n_vertices, p, views, assign, assign.copy(), loads, live,
            cfg, wmax, exchange, live, trace=trace,
        )
    else:
        eng._refine_loop(views, assign, loads, live, cfg, wmax, exchange, trace)
    return assign, trace, views


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_same_run(got, want, live):
    a_got, t_got, v_got = got
    a_want, t_want, v_want = want
    assert np.array_equal(a_got, a_want)
    assert len(t_got) == len(t_want)
    for rg, rw in zip(t_got, t_want):
        assert rg.keys() == rw.keys()
        if "rollback" in rw:
            assert rg == rw
            continue
        assert (rg["round"], rg["pass"]) == (rw["round"], rw["pass"])
        for kind in ("moves", "escape", "rebalance"):
            assert len(rg[kind]) == len(rw[kind]), kind
            for mg, mw in zip(rg[kind], rw[kind]):
                assert mg.keys() == mw.keys()
                for key in ("v", "src", "dst"):
                    assert mg[key] == mw[key]
                for key in ("vw", "gain", "prio", "adj_w"):
                    assert np.array_equal(bits(mg[key]), bits(mw[key])), key
                assert np.array_equal(mg["adj"], mw["adj"])
    for part in live:
        for field in ("e_keys", "e_wts", "vwts"):
            x, y = getattr(v_got[part], field), getattr(v_want[part], field)
            assert x.dtype == y.dtype
            assert np.array_equal(x, y), (part, field)
        assert np.array_equal(bits(v_got[part].e_wts), bits(v_want[part].e_wts))


def random_case(seed, p, start, dead):
    """A connected-ish random graph with non-integer edge and vertex
    weights, a ``live`` subset and a start assignment of the asked shape."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 48))
    m = int(rng.integers(n, 3 * n))
    pairs = np.concatenate(
        [
            np.column_stack([np.arange(n - 1), np.arange(1, n)]),  # a path
            rng.integers(0, n, size=(m, 2)),
        ]
    )
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    ew = rng.random(pairs.shape[0]) * 3.0 + 0.05
    vw = rng.random(n) * 4.0 + 0.1
    graph = WeightedGraph.from_edges(n, pairs, ew, vw)
    live = list(range(p))
    if dead and p > 2:
        keep = int(rng.integers(2, p))
        live = sorted(rng.choice(p, size=keep, replace=False).tolist())
    k = len(live)
    if start == "striped":  # maximal cut: big first batches, long fronts
        idx = np.arange(n) % k
    elif start == "skewed":  # almost everything on one part: rebalance
        idx = (rng.random(n) ** 4 * k).astype(np.int64)
    else:
        idx = rng.integers(0, k, size=n)
    idx[:k] = np.arange(k)  # every live part starts with a member
    return graph, live, np.asarray(live, dtype=np.int64)[idx]


def tally(trace):
    """What a trace exercised: counts of each record kind, passes, and
    roots that left a part and came back to it (any mix of moves and
    rollbacks)."""
    out = dict.fromkeys(
        ("moves", "escape", "rebalance", "rollback", "returns"), 0
    )
    seen = {}
    passes = set()
    for rec in trace:
        if "rollback" in rec:
            out["rollback"] += len(rec["rollback"])
            hops = [(u["v"], u["to"]) for u in rec["rollback"]]
        else:
            passes.add(rec["pass"])
            hops = []
            for kind in ("moves", "escape", "rebalance"):
                out[kind] += len(rec[kind])
                for m in rec[kind]:
                    seen.setdefault(m["v"], {m["src"]})
                    hops.append((m["v"], m["dst"]))
        for v, to in hops:
            if to in seen.setdefault(v, set()):
                out["returns"] += 1
            seen[v].add(to)
    out["passes"] = len(passes)
    return out


@given(
    seed=st.integers(0, 10**6),
    p=st.sampled_from([2, 3, 8]),
    start=st.sampled_from(["striped", "skewed", "random"]),
    dead=st.booleans(),
    alpha=st.sampled_from([0.0, 0.1, 0.37]),
)
@settings(max_examples=60, deadline=None)
def test_engine_equals_frozen_engine(seed, p, start, dead, alpha):
    graph, live, a0 = random_case(seed, p, start, dead)
    cfg = DKLConfig(seed=seed % 17, alpha=alpha)
    want = run_serial(frozen, graph, p, a0, cfg, live)
    got = run_serial(engine, graph, p, a0, cfg, live)
    assert_same_run(got, want, live)


def test_the_property_reaches_the_hard_cases():
    """The equivalence above is only worth its cases: over a fixed family
    the runs must contain rebalance donations, escapes, rolled-back
    suffixes over several passes, and roots that leave a part and return
    to it — the paths where an incremental state goes stale first."""
    total = dict.fromkeys(
        ("moves", "escape", "rebalance", "rollback", "returns"), 0
    )
    most_passes = 0
    for seed in range(12):
        for start in ("striped", "skewed"):
            graph, live, a0 = random_case(seed, 3, start, dead=False)
            cfg = DKLConfig(seed=seed)
            want = run_serial(frozen, graph, 3, a0, cfg, live)
            got = run_serial(engine, graph, 3, a0, cfg, live)
            assert_same_run(got, want, live)
            seen = tally(got[1])
            most_passes = max(most_passes, seen.pop("passes"))
            for key, n in seen.items():
                total[key] += n
    assert all(n > 0 for n in total.values()), total
    assert most_passes >= 2


def test_integer_weights_and_grid():
    """The shape PARED feeds it: unit edges, integer leaf-count weights."""
    side = 10
    ids = np.arange(side * side).reshape(side, side)
    pairs = np.concatenate(
        [
            np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
            np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()]),
        ]
    )
    vw = np.ones(side * side)
    vw[ids[2:6, 3:8].ravel()] = 6.0
    graph = WeightedGraph.from_edges(side * side, pairs, vweights=vw)
    p = 4
    rows, cols = np.divmod(ids.ravel(), side)
    a0 = (rows // 5 * 2 + cols // 5).astype(np.int64)  # four quadrants
    cfg = DKLConfig()
    live = list(range(p))
    want = run_serial(frozen, graph, p, a0, cfg, live)
    got = run_serial(engine, graph, p, a0, cfg, live)
    assert_same_run(got, want, live)
    assert tally(got[1])["moves"] > 0
