"""Tests for the experiment drivers: ladders, the paper protocols and their
steppers, transient sequence, tracking, tables."""

import numpy as np
import pytest

from repro.experiments import (
    AssignmentTracker,
    TransientRunner,
    format_series,
    format_table,
    laplace_ladder,
    ladder_pairs,
    mlkl_stepper,
    pnr_stepper,
    rsb_perm_stepper,
    rsb_stepper,
    run_quality_ladder,
    run_repartition_protocol,
)
from repro.experiments.tables import summarize_series
from repro.experiments.transient import adapt_step, transient_mesh_sequence
from repro.mesh import AdaptiveMesh


class TestLadder:
    def test_levels_grow(self):
        sizes = [am.n_leaves for _, am in laplace_ladder(dim=2, n=8, levels=3)]
        assert len(sizes) == 4
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_threshold_mode_terminates(self):
        out = list(laplace_ladder(dim=2, n=8, levels=30, tol=5e-3))
        assert len(out) < 31  # stops when the error criterion is met

    def test_growth_concentrates_at_corner(self):
        gen = laplace_ladder(dim=2, n=8, levels=3)
        _, am = list(gen)[-1]
        depths = am.mesh.forest.depth_array[am.leaf_ids()]
        cents = am.leaf_centroids()
        deep = depths >= depths.max() - 1
        assert cents[deep][:, 0].mean() > 0.2
        assert cents[deep][:, 1].mean() > 0.2

    def test_3d_ladder(self):
        sizes = [am.n_leaves for _, am in laplace_ladder(dim=3, n=3, levels=2)]
        assert sizes[-1] > sizes[0]

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            list(laplace_ladder(dim=4))


class TestLadderPairs:
    def test_event_sequence(self):
        events = [(ph, k) for ph, k, _ in ladder_pairs(dim=2, n=8, n_measure=2, growth_rounds=1)]
        assert events[0] == ("before", 0)
        assert events[1] == ("after", 0)
        assert ("grow", 0) in events
        assert events[-1] == ("after", 1)

    def test_small_refinement_is_small(self):
        last_before = None
        for ph, k, am in ladder_pairs(dim=2, n=8, n_measure=1, small_fraction=0.02):
            if ph == "before":
                last_before = am.n_leaves
            elif ph == "after":
                growth = am.n_leaves / last_before
                assert 1.0 < growth < 1.2


class TestTransientSequence:
    def test_mesh_follows_peak(self):
        sizes = []
        peaks = []
        for step, t, am in transient_mesh_sequence(n=10, steps=6):
            sizes.append(am.n_leaves)
            depths = am.mesh.forest.depth_array[am.leaf_ids()]
            cents = am.leaf_centroids()
            deep = depths >= depths.max() - 1
            peaks.append(cents[deep].mean(axis=0))
        # refined region tracks the moving peak from (+,+) to (-,-)
        assert peaks[0][0] > peaks[-1][0]
        assert peaks[0][1] > peaks[-1][1]

    def test_size_stays_bounded(self):
        sizes = [am.n_leaves for _, _, am in transient_mesh_sequence(n=10, steps=8)]
        assert max(sizes) < 4 * min(sizes), "coarsening must bound the mesh size"

    def test_adapt_step_keeps_conformality(self):
        am = AdaptiveMesh.unit_square(8)
        adapt_step(am, -0.5, 4e-3, 4e-4)
        am.mesh.check_conformal()
        adapt_step(am, -0.4, 4e-3, 4e-4)
        am.mesh.check_conformal()


class TestTracker:
    def test_refined_children_inherit(self):
        am = AdaptiveMesh.unit_square(4)
        tracker = AssignmentTracker(am)
        a = (np.arange(am.n_leaves) % 2).astype(np.int64)
        tracker.stamp(a)
        am.refine(am.leaf_ids()[:4])
        inh = tracker.inherited()
        assert inh.shape[0] == am.n_leaves
        # unrefined leaves keep their stamp
        leaf_ids = am.leaf_ids()
        for k, eid in enumerate(leaf_ids):
            if int(eid) < 32:  # original roots still leaves
                assert inh[k] == a[int(eid)]

    def test_children_get_parent_assignment(self):
        am = AdaptiveMesh.unit_square(4)
        tracker = AssignmentTracker(am)
        a = np.zeros(am.n_leaves, dtype=np.int64)
        a[0] = 3
        tracker.stamp(a)
        am.refine([am.leaf_ids()[0]])
        inh = tracker.inherited()
        roots = am.mesh.leaf_roots()
        target_root = 0
        members = roots == target_root
        assert np.all(inh[members] == 3)

    def test_coarsened_parent_from_descendants(self):
        am = AdaptiveMesh.unit_square(4)
        am.uniform_refine(1)
        tracker = AssignmentTracker(am)
        a = np.full(am.n_leaves, 2, dtype=np.int64)
        tracker.stamp(a)
        am.coarsen(am.leaf_ids())
        inh = tracker.inherited()
        assert np.all(inh == 2)

    def test_migration_count(self):
        am = AdaptiveMesh.unit_square(4)
        tracker = AssignmentTracker(am)
        a = np.zeros(am.n_leaves, dtype=np.int64)
        tracker.stamp(a)
        new = a.copy()
        new[:5] = 1
        assert tracker.migration(new) == 5

    def test_stamp_wrong_shape(self):
        am = AdaptiveMesh.unit_square(4)
        tracker = AssignmentTracker(am)
        with pytest.raises(ValueError):
            tracker.stamp(np.zeros(3))


class TestRunnerAndTables:
    def test_runner_series_fields(self):
        def trivial(amesh, p, state):
            cents = amesh.leaf_centroids()
            return (cents[:, 0] > 0).astype(np.int64), state

        runner = TransientRunner(2, {"halves": trivial}, n=8, steps=3)
        series = runner.run()
        assert len(series["halves"]) == 3
        rec = series["halves"][0]
        for key in ("step", "t", "leaves", "shared_vertices", "cut", "moved",
                    "moved_frac", "imbalance"):
            assert key in rec
        assert series["halves"][0]["moved"] == 0  # initial placement

    def test_format_table(self):
        text = format_table(["a", "bb"], [(1, 2.5), (10, 0.333)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series_and_summary(self):
        series = {
            "m1": [{"step": 0, "x": 1}, {"step": 1, "x": 3}],
            "m2": [{"step": 0, "x": 2}, {"step": 1, "x": 4}],
        }
        text = format_series(series, "x")
        assert "m1" in text and "m2" in text
        agg = summarize_series(series, "x")
        assert agg["m1"]["mean"] == 2.0
        assert agg["m2"]["max"] == 4


class TestPinnedProtocols:
    """Rows captured at commit c99ae73 from the drivers this module's
    protocol functions replaced (``benchmarks/_protocol.py``,
    ``benchmarks/_transient.py``, ``bench_fig3_quality2d.py``) — the shared
    driver and steppers must reproduce them exactly.  All meshes stay under
    the dense-eigensolver limit, so the RSB rows are reproducible."""

    def test_fig45_rows_pnr(self):
        rows = run_repartition_protocol(
            pnr_stepper(seed=0), [2, 4], dim=2, n=8, n_measure=2
        )
        assert rows == [
            (0, 2, 128, 12, 134, 12, 2, 2),
            (0, 4, 128, 22, 134, 19, 17, 17),
            (1, 2, 248, 7, 256, 7, 0, 0),
            (1, 4, 248, 25, 256, 27, 0, 0),
        ]

    def test_fig45_rows_rsb(self):
        rows = run_repartition_protocol(
            rsb_stepper(seed=1), [2, 4], dim=2, n=8, n_measure=2
        )
        assert rows == [
            (0, 2, 128, 8, 134, 8, 131, 3),
            (0, 4, 128, 16, 134, 17, 131, 8),
            (1, 2, 248, 6, 256, 6, 252, 4),
            (1, 4, 248, 19, 256, 21, 252, 46),
        ]

    def test_transient_series(self):
        methods = {
            "RSB": rsb_stepper(seed=11),
            "RSB-perm": rsb_perm_stepper(seed=11),
            "PNR": pnr_stepper(seed=5),
        }
        series = TransientRunner(2, methods, n=8, steps=4).run()
        got = {
            name: ([r["moved"] for r in recs], [r["shared_vertices"] for r in recs])
            for name, recs in series.items()
        }
        assert got == {
            "RSB": ([0, 446, 408, 86], [17, 19, 17, 17]),
            "RSB-perm": ([0, 72, 88, 92], [17, 19, 17, 17]),
            # re-captured when KL gained the in-band tail (a pass stops 32
            # non-improving moves past its best prefix once every part is
            # inside the balance band)
            "PNR": ([0, 83, 72, 19], [23, 25, 24, 26]),
        }

    def test_fig3_rows(self):
        rows = run_quality_ladder(
            mlkl_stepper(seed=1), pnr_stepper(seed=1), [2, 4],
            dim=2, n=8, levels=2,
        )
        assert rows == [
            (0, 128, 9, 23, 9, 23),
            (1, 158, 9, 22, 10, 21),
            (2, 190, 8, 23, 12, 26),
        ]
