"""E1 — Figure 3 (2-D table): partition quality of Multilevel-KL vs PNR.

Paper protocol (Section 6): adaptively refine the 2-D corner-Laplace mesh
level by level; after each refinement partition the adapted mesh with
(a) Multilevel-KL on the fine dual graph and (b) PNR on the weighted coarse
dual graph (α = 0.1); report the number of shared vertices for p subsets.

Expected shape: PNR's shared-vertex counts track Multilevel-KL's within a
small factor at every level — partitioning the coarse graph loses little
quality (the point of Section 6 and Theorem 6.1).
"""

from __future__ import annotations

import numpy as np

from conftest import proc_counts
from repro.experiments import (
    format_table,
    mlkl_stepper,
    pnr_stepper,
    quality_headers,
    run_quality_ladder,
)
from repro.experiments.paper_data import FIG3_2D_PNR, FIG3_PROCS


def check_fig3(benchmark, write_result, dim: int):
    """Run the Figure 3 protocol in ``dim`` dimensions, write its table and
    assert the paper's shape: PNR's shared-vertex counts stay in
    Multilevel-KL's ballpark (generous slack for the reduced scale)."""
    plist = proc_counts(reduced=[4, 8, 16], paper=[4, 8, 16, 32, 64, 128])
    rows = benchmark.pedantic(
        run_quality_ladder,
        args=(mlkl_stepper(seed=1), pnr_stepper(seed=1), plist),
        kwargs={"dim": dim},
        rounds=1,
        iterations=1,
    )
    write_result(
        f"fig3_quality_{dim}d",
        format_table(
            quality_headers(plist), rows,
            title=f"Figure 3 ({dim}D): shared vertices, Multilevel-KL vs PNR",
        ),
    )
    sv = np.array([r[2:] for r in rows], dtype=float)
    mlkl, pnr = sv[:, : len(plist)], sv[:, len(plist):]
    ratios = pnr[mlkl > 0] / mlkl[mlkl > 0]
    assert ratios.mean() < 1.5, f"PNR quality degraded on average: {ratios.mean():.2f}x"
    assert ratios.max() < 2.5, f"PNR quality outlier: {ratios.max():.2f}x"
    benchmark.extra_info["mean_quality_ratio"] = float(ratios.mean())


def test_fig3_2d(benchmark, write_result):
    check_fig3(benchmark, write_result, 2)


def test_fig3_paper_scale_p32(benchmark, write_result):
    """The one direct numerical comparison with the paper: PNR's shared
    vertices at p = 32 on the paper-scale 2-D ladder (12,482 triangles,
    levels 0–5) next to Figure 3's own PNR column — always at paper scale
    (≈ 2 s), whatever ``REPRO_PAPER_SCALE`` says."""
    p, levels = 32, 5
    rows = benchmark.pedantic(
        run_quality_ladder,
        args=(mlkl_stepper(seed=1), pnr_stepper(seed=1), [p]),
        kwargs={"dim": 2, "paper_scale": True, "levels": levels},
        rounds=1,
        iterations=1,
    )
    col = FIG3_PROCS.index(p)
    table = [
        (level, elems, mlkl, pnr, FIG3_2D_PNR[level][col],
         f"{pnr / FIG3_2D_PNR[level][col]:.2f}")
        for level, elems, mlkl, pnr in rows
    ]
    write_result(
        "paper_scale_fig3_p32",
        format_table(
            ["level", "elems", f"MLKL p={p}", f"PNR p={p}", "paper PNR", "ratio"],
            table,
            title="Figure 3 (2D) at paper scale: shared vertices vs the paper's PNR column",
        ),
        paper=True,
    )
    ratios = np.array([float(r[-1]) for r in table])
    assert len(rows) == levels + 1
    assert np.all((ratios > 2 / 3) & (ratios < 1.5)), f"PNR/paper ratios {ratios}"
    benchmark.extra_info["pnr_over_paper"] = ratios.tolist()
