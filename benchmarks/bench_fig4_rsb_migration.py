"""E3 — Figure 4 (table): migration cost of RSB repartitioning.

A series of adapted 2-D meshes of roughly doubling size; each is
distributed by an RSB partition, slightly refined, then repartitioned by
RSB.  The table reports cut before/after and the migration needed to adopt
the new partition — raw (``C_migrate(Π^t, Π̂^t)``) and after the
Biswas–Oliker subset permutation (``C_migrate(Π^t, Π̃^t)``).

Expected shape (the paper's Section 7 point): RSB migrates a large fraction
of the mesh — around 50–100 % raw, still tens of percent after the optimal
relabeling — and the fraction does not shrink as the mesh grows.
"""

from __future__ import annotations

import numpy as np

from _protocol import cached_protocol
from conftest import proc_counts
from repro.experiments import REPARTITION_HEADERS, format_table


def test_fig4_rsb_migration(benchmark, write_result):
    plist = proc_counts(reduced=[4, 8, 16], paper=[4, 8, 16, 32, 64])
    rows = benchmark.pedantic(
        cached_protocol, args=("rsb", plist), rounds=1, iterations=1
    )
    write_result(
        "fig4_rsb_migration",
        format_table(REPARTITION_HEADERS, rows, title="Figure 4: repartitioning with RSB"),
    )
    raw_frac = np.array([r[6] / r[4] for r in rows])
    perm_frac = np.array([r[7] / r[4] for r in rows])
    assert raw_frac.mean() > 0.3, f"RSB raw migration unexpectedly small: {raw_frac}"
    assert perm_frac.mean() > 0.05, f"permuted RSB migration unexpectedly small: {perm_frac}"
    # permutation must never hurt
    assert np.all(perm_frac <= raw_frac + 1e-12)
    benchmark.extra_info["raw_migration_fraction_mean"] = float(raw_frac.mean())
    benchmark.extra_info["perm_migration_fraction_mean"] = float(perm_frac.mean())
