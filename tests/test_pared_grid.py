"""The ``run_pared`` grid: every partitioner × transport × p × problem.

39 cells, each run on thread and on shm: 32 2-D cells — {pnr, mlkl, sfc,
dkl} × p ∈ {1..4} × {corner, peak} — each the benchmark's ``ParedWorkload``
at n = 24 for 4 rounds, seed 0; 6 3-D cells — {pnr, sfc} × p ∈ {1, 2, 3} —
on ``unit_cube(5)`` with the top 15 % of leaves by the 3-D corner indicator
marked, 3 rounds; and ``corner2d_p2_shm_pnr``, the benchmark workload's own
config (corner, n = 40, 5 rounds, p = 2, ``pnr``, seed 71).  Two contracts
per cell:

* the thread and shm runs agree exactly, history for history (every
  field, ``local_load`` included) and phase ledger for phase ledger —
  asserted here, no stored value;
* the thread run's record equals the cell's entry in
  ``tests/golden/pared_grid.json`` exactly: ``phases``, the literal
  ``{phase: [messages, bytes]}``; ``rounds``, rank 0's scalar fields per
  round (``imbalance_before`` as the JSON number ``float.__repr__``
  writes, which reads back bit-exact); and ``history``, the sha256 of every
  rank's history without ``local_load`` (owner maps included; ``leaf_crc``
  pins element ids, not only the refined geometry).

In 3-D the test also requires ``leaf_crc`` to agree across p in every
round: parallel refinement numbers every element as serial refinement does.
And over the golden itself, P0 and P2 each send ``p·(p−1)`` frames a
round, under every partitioner.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python -m tests.test_pared_grid --regen

which writes one line per phase table and per round record, so ``git diff``
of the golden shows which cells and rounds moved.
"""

import hashlib
import json
import pathlib
from functools import partial

import numpy as np
import pytest

from bench.workloads import CORNER_FRACTION, ParedWorkload
from repro.core import PNR
from repro.fem import CornerLaplace3D, interpolation_error_indicator, mark_top_fraction
from repro.mesh import AdaptiveMesh
from repro.pared import ParedConfig, run_pared
from repro.runtime.shm import shutdown_pools

GOLDEN = pathlib.Path(__file__).parent / "golden" / "pared_grid.json"

PARTITIONERS = ("pnr", "mlkl", "sfc", "dkl")
PROBLEMS = ("corner", "peak")
RANKS = (1, 2, 3, 4)
CUBE_PARTITIONERS = ("pnr", "sfc")
CUBE_RANKS = (1, 2, 3)
BENCH_CELL = "corner2d_p2_shm_pnr"
INT_FIELDS = ("round", "leaves", "leaf_crc", "cut", "shared_vertices",
              "elements_moved", "trees_moved", "p_live")
_CORNER_3D = CornerLaplace3D()


def run_cell(partitioner: str, problem: str, p: int, transport: str, *,
             n: int = 24, rounds: int = 4, seed: int = 0):
    """``(histories, stats)`` of one 2-D grid cell."""
    w = ParedWorkload(
        f"{problem}_p{p}_{transport}_{partitioner}", problem=problem, n=n,
        rounds=rounds, p=p, transport=transport, partitioner=partitioner,
    )
    w.generate(seed)
    return w.call()


def cube_mesh() -> AdaptiveMesh:
    return AdaptiveMesh.unit_cube(5)


def cube_marker(amesh, rnd):
    ind = interpolation_error_indicator(amesh, _CORNER_3D.exact)
    return mark_top_fraction(amesh, ind, CORNER_FRACTION), []


def run_cube_cell(partitioner: str, p: int, transport: str):
    """``(histories, stats)`` of one 3-D grid cell."""
    return run_pared(ParedConfig(
        p=p, make_mesh=cube_mesh, marker=cube_marker, rounds=3, pnr=PNR(seed=0),
        transport=transport, partitioner=partitioner,
    ))


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}{len(value)}".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())


def record(out) -> dict:
    """A cell's golden entry: ``phases``, rank 0's ``rounds`` and the
    ``history`` hash."""
    histories, stats = out
    h = hashlib.sha256()
    _feed(h, [[{k: v for k, v in rec.items() if k != "local_load"} for rec in rank]
               for rank in histories])
    return {
        "phases": {ph: list(mb) for ph, mb in stats.phase_report().items()},
        "rounds": [{**{k: int(rec[k]) for k in INT_FIELDS},
                    "imbalance_before": float(rec["imbalance_before"])}
                   for rec in histories[0]],
        "history": h.hexdigest(),
    }


def _key(partitioner: str, problem: str, p: int) -> str:
    return f"{partitioner}/{problem}/p{p}"


def cells() -> dict:
    """``{key: run(transport)}``, every cell in the golden's order."""
    out = {_key(pa, pr, p): partial(run_cell, pa, pr, p)
           for pa in PARTITIONERS for pr in PROBLEMS for p in RANKS}
    out.update({_key(pa, "cube", p): partial(run_cube_cell, pa, p)
                for pa in CUBE_PARTITIONERS for p in CUBE_RANKS})
    out[BENCH_CELL] = partial(run_cell, "pnr", "corner", 2, n=40, rounds=5, seed=71)
    return out


def _assert_same_run(thread, shm) -> None:
    (hist_t, stats_t), (hist_s, stats_s) = thread, shm
    assert len(hist_t) == len(hist_s)
    for per_rank_t, per_rank_s in zip(hist_t, hist_s):
        assert len(per_rank_t) == len(per_rank_s)
        for a, b in zip(per_rank_t, per_rank_s):
            assert a.keys() == b.keys()
            for key in a:
                assert np.array_equal(a[key], b[key]), (a["round"], key)
    assert stats_t.phase_report() == stats_s.phase_report()


def run_checked(run):
    """A cell's thread run, once its shm run is asserted equal to it."""
    thread = run("thread")
    _assert_same_run(thread, run("shm"))
    return thread


@pytest.fixture(scope="module")
def golden():
    yield json.loads(GOLDEN.read_text())
    shutdown_pools()


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_cell(golden, partitioner, problem, p):
    key = _key(partitioner, problem, p)
    assert record(run_checked(cells()[key])) == golden[key]


def test_bench_cell(golden):
    assert record(run_checked(cells()[BENCH_CELL])) == golden[BENCH_CELL]


@pytest.mark.parametrize("partitioner", CUBE_PARTITIONERS)
def test_cube_cells(golden, partitioner):
    crcs = []
    for p in CUBE_RANKS:
        key = _key(partitioner, "cube", p)
        thread = run_checked(cells()[key])
        assert record(thread) == golden[key]
        crcs.append([[rec["leaf_crc"] for rec in rank] for rank in thread[0]])
    # every rank of every p numbers every round's leaves alike
    rounds = [{crc for per_p in crcs for rank in per_p for crc in [rank[r]]}
              for r in range(3)]
    assert all(len(ids) == 1 for ids in rounds), rounds


def test_one_frame_per_pair_per_round(golden):
    """P0 and P2 are one allgather a round each, so ``p·(p−1)`` frames
    (none at p = 1), whatever the partitioner."""
    for key, cell in golden.items():
        p, rounds = cell["rounds"][0]["p_live"], len(cell["rounds"])
        frames = p * (p - 1) * rounds
        assert cell["phases"].get("P0", [0, 0])[0] == frames, key
        assert cell["phases"].get("P2", [0, 0])[0] == frames, key


def compute_golden() -> dict:
    try:
        return {key: record(run_checked(run)) for key, run in cells().items()}
    finally:
        shutdown_pools()


def dumps(table: dict) -> str:
    """The golden's text: one line per phase table and per round record."""
    entries = []
    for key, cell in table.items():
        rounds = ",\n".join(f"      {json.dumps(rec)}" for rec in cell["rounds"])
        entries.append(
            f"  {json.dumps(key)}: {{\n"
            f'    "phases": {json.dumps(cell["phases"])},\n'
            f'    "rounds": [\n{rounds}\n    ],\n'
            f'    "history": {json.dumps(cell["history"])}\n  }}'
        )
    return "{\n" + ",\n".join(entries) + "\n}\n"


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.write_text(dumps(compute_golden()))
        print(f"wrote {GOLDEN}")
