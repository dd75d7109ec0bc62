#!/usr/bin/env python
"""Section 10 end-to-end: tracking a moving disturbance (miniature
Figures 7 and 8).

A sharp peak travels along the diagonal of the square; the mesh refines
ahead of it and coarsens behind it.  At each step the mesh is repartitioned
three ways — fresh RSB, RSB with the Biswas–Oliker subset permutation, and
PNR — and the number of elements each method migrates is recorded, along
with the shared-vertex quality.

Run:  python examples/transient_tracking.py
"""

from repro.experiments import (
    TransientRunner,
    format_series,
    pnr_stepper,
    rsb_perm_stepper,
    rsb_stepper,
)
from repro.experiments.tables import summarize_series

P = 4
STEPS = 16

runner = TransientRunner(
    P,
    {
        "RSB": rsb_stepper(seed=3),
        "RSB-perm": rsb_perm_stepper(seed=3),
        "PNR": pnr_stepper(seed=5),
    },
    steps=STEPS,
    n=16,
)
series = runner.run()

print(format_series(series, "shared_vertices", title=f"Shared vertices per step (p={P})"))
print()
print(format_series(series, "moved", title=f"Elements moved per step (p={P})"))
print()
for name, agg in summarize_series(series, "moved_frac").items():
    print(f"{name:>9}: moved {agg['mean']:.1%} of elements per step on average "
          f"(max {agg['max']:.1%})")
