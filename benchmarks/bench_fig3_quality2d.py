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
