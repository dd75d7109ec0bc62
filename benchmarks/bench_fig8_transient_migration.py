"""E6 — Figure 8: elements moved per time step of the transient run.

Same run as the Figure 7 bench; this one reports the migration series for
RSB, permuted RSB, and PNR.

Expected shape (Section 10's headline numbers):

* raw RSB moves ~50–100 % of the elements at every step;
* the Biswas–Oliker permutation helps but remains spiky, with peaks of
  tens of percent (paper: >46 % peaks, ~21 % average at p = 32);
* PNR's series is small (paper: 1.2–5.5 % average) and *smooth*, and its
  total movement is a small fraction of permuted RSB's.
"""

from __future__ import annotations

import numpy as np
import pytest

from _transient import transient_series
from conftest import paper_scale, proc_counts
from repro.experiments import format_series
from repro.experiments.tables import summarize_series


PLIST = proc_counts(reduced=[4, 8], paper=[4, 8, 16, 32])


def run_all(plist):
    return {p: transient_series(p) for p in plist}


def moved_fracs(series, name):
    # drop the first step (initial placement, no migration by definition)
    return np.array([r["moved_frac"] for r in series[name][1:]])


def test_fig8_transient_migration(benchmark, write_result):
    all_series = benchmark.pedantic(run_all, args=(PLIST,), rounds=1, iterations=1)
    blocks = []
    for p in PLIST:
        blocks.append(
            format_series(
                all_series[p],
                "moved",
                every=2,
                title=f"Figure 8 (p={p}): elements moved per step",
            )
        )
        agg = summarize_series(all_series[p], "moved_frac")
        blocks.append(
            "aggregates (fraction of elements moved): "
            + ", ".join(
                f"{name}: mean={v['mean']:.3f} max={v['max']:.3f}"
                for name, v in agg.items()
            )
        )
    write_result("fig8_transient_migration", "\n\n".join(blocks))

    for p in PLIST:
        series = all_series[p]
        rsb = moved_fracs(series, "RSB")
        rsb_perm = moved_fracs(series, "RSB-perm")
        pnr = moved_fracs(series, "PNR")
        assert rsb.mean() > 0.3, f"p={p}: raw RSB moved only {rsb.mean():.2f}"
        # Reduced-scale meshes (~2k elements) carry coarser tree granularity
        # than the paper's 15–30k meshes, so the absolute PNR fraction is
        # higher; the ordering PNR < permuted-RSB < raw-RSB is the shape
        # under test.
        pnr_cap = 0.08 if paper_scale() else 0.16
        assert pnr.mean() < pnr_cap, f"p={p}: PNR moved {pnr.mean():.2f} on average"
        assert pnr.sum() < 0.75 * rsb_perm.sum(), (
            f"p={p}: PNR total movement ({pnr.sum():.1f}) should be well below "
            f"permuted RSB's ({rsb_perm.sum():.1f})"
        )
        benchmark.extra_info[f"pnr_mean_moved_p{p}"] = float(pnr.mean())
        benchmark.extra_info[f"rsbperm_mean_moved_p{p}"] = float(rsb_perm.mean())


@pytest.mark.xfail(
    not paper_scale(),
    strict=True,
    reason="reduced scale, p=8, step 16 (3 226 leaves): PNR moves 1 493 "
    "elements (0.463) after carrying imbalance 0.40 / 0.61 through steps "
    "14-15 - a catch-up rebalance at the tree-weight granularity limit of "
    "an 800-root mesh; RSB-perm's worst step is 0.384 (ROADMAP item 6)",
)
def test_fig8_pnr_smoothness():
    """The repo's own smoothness check, not a number in the paper: PNR's
    worst step is bounded, unlike RSB-perm's spikes."""
    for p in PLIST:
        series = transient_series(p)
        pnr, rsb_perm = moved_fracs(series, "PNR"), moved_fracs(series, "RSB-perm")
        assert pnr.max() < max(0.25, rsb_perm.max()), f"p={p}: PNR spike {pnr.max():.2f}"
