#!/usr/bin/env python
"""Render the paper's qualitative figures as SVGs.

* Figure 1 analog — the corner-adapted Laplace mesh (with its PNR
  partition colored);
* Figure 6 analogs — the transient mesh at t = −0.5 and t = +0.5, showing
  the refined region following the peak across the diagonal.

Writes ``results/fig1_mesh.svg``, ``results/fig6a.svg``,
``results/fig6b.svg`` — open in any browser.

Run:  python examples/figures_gallery.py
"""

from pathlib import Path

from repro.core import PNR
from repro.experiments.laplace import laplace_ladder
from repro.experiments.transient import transient_mesh_sequence
from repro.mesh.quality import quality_report
from repro.viz import mesh_to_svg, partition_to_svg, save_svg

OUT = Path(__file__).resolve().parent.parent / "results"
OUT.mkdir(exist_ok=True)

# Figure 1 analog: corner-adapted mesh with a PNR partition
for level, amesh in laplace_ladder(dim=2, n=16, levels=5):
    pass
pnr = PNR(seed=0)
fine = pnr.induced_fine(amesh, pnr.initial_partition(amesh, 8))
save_svg(OUT / "fig1_mesh.svg", partition_to_svg(amesh, fine))
print(f"fig1_mesh.svg: {amesh.n_leaves} elements, 8 subsets")
# Figure 1's shape claim in numbers: Rivara bisection keeps angles bounded
rep = quality_report(amesh)
print(f"  min angle {rep['min_angle_deg']:.1f} deg, depth <= {rep['depth_max']}, "
      f"quality min/mean {rep['quality_min']:.3f}/{rep['quality_mean']:.3f}")

# Figure 6 analogs: transient mesh at the first and last step
first = last = None
for step, t, am in transient_mesh_sequence(n=14, steps=16):
    if first is None:
        first = mesh_to_svg(am)
        n_first = am.n_leaves
    last = mesh_to_svg(am)
    n_last = am.n_leaves
save_svg(OUT / "fig6a.svg", first)
save_svg(OUT / "fig6b.svg", last)
print(f"fig6a.svg: {n_first} elements at t=-0.5")
print(f"fig6b.svg: {n_last} elements at t=+0.5")
