"""E2 — Figure 3 (3-D table): Multilevel-KL vs PNR quality on the 3-D
corner-Laplace ladder (Section 6's tetrahedral analog).

Same protocol and expected shape as the 2-D bench; the paper reports the
3-D quality gap to be even smaller than in 2-D.
"""

from __future__ import annotations

from bench_fig3_quality2d import check_fig3


def test_fig3_3d(benchmark, write_result):
    check_fig3(benchmark, write_result, 3)
