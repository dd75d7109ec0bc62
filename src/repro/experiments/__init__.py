"""Experiment drivers reproducing the paper's evaluation.

* :mod:`repro.experiments.steppers` — the four methods the tables compare
  (PNR, RSB, permuted RSB, Multilevel-KL) under one calling convention,
  ``method(amesh, p, state) -> (fine_assignment, state)``.
* :mod:`repro.experiments.laplace` — the Section 6 refinement ladders
  (corner-singular Laplace problem, 2-D and 3-D) and the two protocols run
  over them: ``run_quality_ladder`` (Figure 3) and
  ``run_repartition_protocol`` (Figures 4, 5).
* :mod:`repro.experiments.transient` — the Section 10 moving-peak run
  behind Figures 7 and 8 (``TransientRunner``).
* :mod:`repro.experiments.tracking` — element-level assignment inheritance
  across adaptation (children live where their parent lived), used to
  measure migration for partitioners that do not respect tree boundaries.
* :mod:`repro.experiments.tables` — plain-text table/series formatting in
  the paper's layout.

Scale: all drivers default to a reduced mesh size so the benches run in
seconds; set ``REPRO_PAPER_SCALE=1`` (or pass ``paper_scale=True``) for the
paper's mesh sizes.
"""

from repro.experiments.laplace import (
    REPARTITION_HEADERS,
    default_scale,
    ladder_pairs,
    laplace_ladder,
    quality_headers,
    run_quality_ladder,
    run_repartition_protocol,
)
from repro.experiments.paper_data import paper_consistency_report
from repro.experiments.steppers import (
    mlkl_stepper,
    pnr_stepper,
    rsb_perm_stepper,
    rsb_stepper,
)
from repro.experiments.tracking import AssignmentTracker
from repro.experiments.transient import transient_mesh_sequence, TransientRunner
from repro.experiments.tables import (
    format_phase_table,
    format_series,
    format_table,
)

__all__ = [
    "laplace_ladder",
    "ladder_pairs",
    "default_scale",
    "run_quality_ladder",
    "quality_headers",
    "run_repartition_protocol",
    "REPARTITION_HEADERS",
    "pnr_stepper",
    "rsb_stepper",
    "rsb_perm_stepper",
    "mlkl_stepper",
    "AssignmentTracker",
    "transient_mesh_sequence",
    "TransientRunner",
    "format_table",
    "format_series",
    "format_phase_table",
    "paper_consistency_report",
]
