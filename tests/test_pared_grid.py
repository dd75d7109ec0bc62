"""The ``run_pared`` grid: every partitioner × transport × p × problem.

64 2-D cells — {pnr, mlkl, sfc, dkl} × {thread, shm} × p ∈ {1..4} ×
{corner, peak} — each the benchmark's ``ParedWorkload`` at n = 24 for 4
rounds, seed 0; and 12 3-D cells — {pnr, sfc} × {thread, shm} × p ∈ {1, 2,
3} — on ``unit_cube(5)`` with the top 15 % of leaves by the 3-D corner
indicator marked, 3 rounds.  Two contracts per (partitioner, p, problem):

* the thread and shm runs agree exactly, history for history (every
  field, ``local_load`` included) and phase ledger for phase ledger —
  asserted here, no stored value;
* their digest — every rank's history without ``local_load`` (whose
  ``leaf_crc`` pins element ids, not only the refined geometry), and
  ``phase_report()`` — equals the one committed in
  ``tests/golden/pared_grid.json``.  A change that moves a digest names
  the moved cells and the reason in its description.

In 3-D the test also requires ``leaf_crc`` to agree across p in every
round: parallel refinement numbers every element as serial refinement does.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python -m tests.test_pared_grid --regen

which prints, for each cell whose digest changed, which half moved
(``history`` / ``phases``) before it writes the file.
"""

import hashlib
import json
import pathlib

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
_CORNER_3D = CornerLaplace3D()


def run_cell(partitioner: str, problem: str, p: int, transport: str):
    """``(histories, stats)`` of one grid cell."""
    w = ParedWorkload(
        f"{problem}_p{p}_{transport}_{partitioner}", problem=problem, n=24,
        rounds=4, p=p, transport=transport, partitioner=partitioner,
    )
    w.generate(0)
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


def digest(out) -> dict:
    """``{"history": sha256 of every rank's history minus local_load,
    "phases": sha256 of phase_report()}``."""
    histories, stats = out
    h = hashlib.sha256()
    _feed(h, [[{k: v for k, v in rec.items() if k != "local_load"} for rec in rank]
               for rank in histories])
    ph = hashlib.sha256()
    _feed(ph, stats.phase_report())
    return {"history": h.hexdigest(), "phases": ph.hexdigest()}


def _key(partitioner: str, problem: str, p: int) -> str:
    return f"{partitioner}/{problem}/p{p}"


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


@pytest.fixture(scope="module")
def golden():
    yield json.loads(GOLDEN.read_text())
    shutdown_pools()


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_cell(golden, partitioner, problem, p):
    thread = run_cell(partitioner, problem, p, "thread")
    shm = run_cell(partitioner, problem, p, "shm")
    _assert_same_run(thread, shm)
    assert digest(thread) == golden[_key(partitioner, problem, p)]


@pytest.mark.parametrize("partitioner", CUBE_PARTITIONERS)
def test_cube_cells(golden, partitioner):
    crcs = []
    for p in CUBE_RANKS:
        thread = run_cube_cell(partitioner, p, "thread")
        _assert_same_run(thread, run_cube_cell(partitioner, p, "shm"))
        assert digest(thread) == golden[_key(partitioner, "cube", p)]
        crcs.append([[rec["leaf_crc"] for rec in rank] for rank in thread[0]])
    # every rank of every p numbers every round's leaves alike
    rounds = [{crc for per_p in crcs for rank in per_p for crc in [rank[r]]}
              for r in range(3)]
    assert all(len(ids) == 1 for ids in rounds), rounds


def compute_golden() -> dict:
    out = {}
    try:
        for partitioner in PARTITIONERS:
            for problem in PROBLEMS:
                for p in RANKS:
                    thread = run_cell(partitioner, problem, p, "thread")
                    _assert_same_run(thread, run_cell(partitioner, problem, p, "shm"))
                    out[_key(partitioner, problem, p)] = digest(thread)
        for partitioner in CUBE_PARTITIONERS:
            for p in CUBE_RANKS:
                thread = run_cube_cell(partitioner, p, "thread")
                _assert_same_run(thread, run_cube_cell(partitioner, p, "shm"))
                out[_key(partitioner, "cube", p)] = digest(thread)
    finally:
        shutdown_pools()
    return out


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        old, new = json.loads(GOLDEN.read_text()), compute_golden()
        for key, halves in new.items():
            moved = [h for h in halves if old.get(key, {}).get(h) != halves[h]]
            if moved:
                print(f"{key}: {' '.join(moved)} moved")
        GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
        print(f"wrote {GOLDEN}")
