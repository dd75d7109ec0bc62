"""A3 — system bench: PARED end-to-end over the simulated runtime.

Runs the full solve→estimate→adapt→repartition→migrate loop (Figure 2's
phases) on p ranks, reporting per-phase message/byte traffic and checking
the two system-level properties the paper claims:

* parallel refinement produces the same mesh as serial refinement (the
  replicas' metrics agree across ranks, and the leaf count matches a serial
  replay);
* the round protocol — every rank merges ``G`` and takes the same
  decision — keeps the load balanced while migrating few elements per
  round.
"""

from __future__ import annotations

import numpy as np

from conftest import paper_scale
from repro.core import PNR
from repro.experiments import format_table
from repro.fem import CornerLaplace2D, interpolation_error_indicator, mark_top_fraction
from repro.mesh import AdaptiveMesh
from repro.pared import ParedConfig, run_pared


def run_system(p: int, rounds: int, n: int):
    prob = CornerLaplace2D()

    def marker(amesh, rnd):
        ind = interpolation_error_indicator(amesh, prob.exact)
        return mark_top_fraction(amesh, ind, 0.15), []

    cfg = ParedConfig(
        p=p,
        make_mesh=lambda: AdaptiveMesh.unit_square(n),
        marker=marker,
        rounds=rounds,
        pnr=PNR(seed=4),
        imbalance_trigger=0.05,
    )
    histories, stats = run_pared(cfg)

    # serial replay must land on the identical mesh size
    serial = AdaptiveMesh.unit_square(n)
    for rnd in range(rounds):
        refine_ids, _ = marker(serial, rnd)
        serial.refine(refine_ids)
    return histories, stats, serial.n_leaves


def test_pared_system(benchmark, write_result):
    p = 4 if not paper_scale() else 8
    rounds = 4
    n = 12 if not paper_scale() else 24
    histories, stats, serial_leaves = benchmark.pedantic(
        run_system, args=(p, rounds, n), rounds=1, iterations=1
    )
    hist = histories[0]
    rows = [
        (
            rec["round"], rec["leaves"], rec["cut"], rec["shared_vertices"],
            rec["elements_moved"], rec["trees_moved"],
            round(rec["imbalance_before"], 3),
        )
        for rec in hist
    ]
    phase_rows = [
        (phase, msgs, bts) for phase, (msgs, bts) in stats.phase_report().items()
    ]
    write_result(
        "pared_system",
        format_table(
            ["round", "leaves", "cut", "sharedV", "elems moved", "trees moved", "imb before"],
            rows,
            title=f"A3: PARED rounds (p={p})",
        )
        + "\n\n"
        + format_table(["phase", "messages", "bytes"], phase_rows, title="traffic by phase"),
    )

    # parallel == serial refinement
    assert hist[-1]["leaves"] == serial_leaves
    # all replicas agree
    for other in histories[1:]:
        for a, b in zip(hist, other):
            assert a["leaves"] == b["leaves"] and a["cut"] == b["cut"]
            assert np.array_equal(a["owner"], b["owner"])
    # migration stays a modest fraction of the mesh each round
    for rec in hist:
        assert rec["elements_moved"] <= 0.5 * rec["leaves"]
    # phases P0, P2 and P3 must all have produced traffic
    report = stats.phase_report()
    for phase in ("P0", "P2", "P3"):
        assert phase in report and report[phase][0] > 0, f"no traffic in {phase}"
    # the migration exchange is sparse (only non-empty channels carry a
    # message, and no rank broadcasts the owner map): total P3 traffic
    # must stay below the dense all-pairs exchange it replaced,
    # whose payload legs alone cost p*(p-1) messages per round
    p3_msgs = report["P3"][0]
    dense_payload_msgs = rounds * p * (p - 1)
    assert p3_msgs < dense_payload_msgs, (
        f"P3 sent {p3_msgs} messages; the dense exchange's payload legs "
        f"alone would send {dense_payload_msgs}"
    )
    benchmark.extra_info["traffic"] = {k: v for k, v in report.items()}
