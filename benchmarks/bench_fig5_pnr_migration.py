"""E4 — Figure 5 (table): migration cost of PNR repartitioning.

Identical protocol to the Figure 4 bench but with PNR (α = 0.1, β = 0.8)
partitioning and repartitioning the coarse dual graph.

Expected shape: migration drops to a few percent of the mesh, does not grow
with mesh size, and the Biswas–Oliker permutation no longer helps (PNR's
output is already label-aligned with the current distribution — in Figure 5
the two migration columns are identical).  Cut sizes stay comparable to
RSB's.
"""

from __future__ import annotations

import numpy as np

from _protocol import cached_protocol
from conftest import proc_counts
from repro.experiments import REPARTITION_HEADERS, format_table


def test_fig5_pnr_migration(benchmark, write_result):
    plist = proc_counts(reduced=[4, 8, 16], paper=[4, 8, 16, 32, 64])
    rows = benchmark.pedantic(
        cached_protocol, args=("pnr", plist), rounds=1, iterations=1
    )
    write_result(
        "fig5_pnr_migration",
        format_table(REPARTITION_HEADERS, rows, title="Figure 5: repartitioning with PNR (alpha=0.1, beta=0.8)"),
    )
    pnr_frac = np.array([r[6] / r[4] for r in rows])
    assert pnr_frac.mean() < 0.12, f"PNR migration too large: {pnr_frac}"
    assert pnr_frac.max() < 0.3, f"PNR migration outlier: {pnr_frac}"

    # permutation gains nothing for PNR (already label-aligned)
    gain = np.array([(r[6] - r[7]) / max(r[6], 1) for r in rows])
    assert gain.mean() < 0.25, "permutation should barely help PNR"

    # head-to-head with the Figure 4 RSB numbers (same meshes, same sizes)
    rsb_rows = cached_protocol("rsb", plist)
    rsb_perm_frac = np.array([r[7] / r[4] for r in rsb_rows])
    assert pnr_frac.mean() < 0.6 * rsb_perm_frac.mean(), (
        f"PNR ({pnr_frac.mean():.3f}) should migrate far less than even "
        f"permuted RSB ({rsb_perm_frac.mean():.3f})"
    )
    # cut quality comparable: PNR within a modest factor of RSB per row
    cut_ratio = np.array(
        [r[5] / max(rr[5], 1) for r, rr in zip(rows, rsb_rows)]
    )
    assert cut_ratio.mean() < 1.6, f"PNR cut degraded vs RSB: {cut_ratio}"
    benchmark.extra_info["pnr_migration_fraction_mean"] = float(pnr_frac.mean())
    benchmark.extra_info["cut_ratio_vs_rsb_mean"] = float(cut_ratio.mean())
