"""Tests for the command-line interface (every subcommand at tiny scale)."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    REPARTITION_HEADERS,
    TransientRunner,
    format_series,
    format_table,
    mlkl_stepper,
    pnr_stepper,
    quality_headers,
    rsb_stepper,
    run_quality_ladder,
    run_repartition_protocol,
)
from repro.runtime.transport import resolve_backend


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("info", "quality", "repartition", "transient", "bound",
                    "pared", "solve", "render"):
            args = parser.parse_args(
                [cmd] if cmd != "render" else [cmd, "--out", "x.svg"]
            )
            assert callable(args.fn)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out

    def test_solve(self, capsys):
        assert main(["solve", "--n", "6", "--levels", "1"]) == 0
        out = capsys.readouterr().out
        assert "Adaptive Laplace solve" in out
        assert "Linf" in out

    def test_quality(self, capsys):
        assert main(["quality", "--n", "8", "--levels", "2",
                     "--procs", "2", "4"]) == 0
        rows = run_quality_ladder(mlkl_stepper(seed=1), pnr_stepper(seed=1),
                                  [2, 4], dim=2, n=8, levels=2)
        assert capsys.readouterr().out == format_table(
            quality_headers([2, 4]), rows,
            title="Quality (2D): shared vertices") + "\n"

    def _check_repartition(self, capsys, name, method):
        rc = main(["repartition", "--method", name, "--n", "8",
                   "--sizes", "2", "--procs", "2", "4"])
        assert rc == 0
        rows = run_repartition_protocol(method, [2, 4], dim=2, n=8, n_measure=2)
        assert capsys.readouterr().out == format_table(
            REPARTITION_HEADERS, rows,
            title=f"Repartitioning with {name.upper()}") + "\n"

    def test_repartition_pnr(self, capsys):
        self._check_repartition(capsys, "pnr", pnr_stepper(seed=0))

    def test_repartition_rsb(self, capsys):
        # the CLI's RSB draws its first partition at --seed + 1
        self._check_repartition(capsys, "rsb", rsb_stepper(seed=1))

    def test_transient(self, capsys, tmp_path):
        svg = str(tmp_path / "s.svg")
        rc = main(["transient", "--p", "2", "--n", "8", "--steps", "4",
                   "--svg", svg])
        assert rc == 0
        series = TransientRunner(
            2, {"PNR": pnr_stepper(seed=5), "RSB": rsb_stepper(seed=5)},
            n=8, steps=4,
        ).run()
        out = capsys.readouterr().out
        for key, title in (("shared_vertices", "shared vertices per step (p=2)"),
                           ("moved", "elements moved per step")):
            assert format_series(series, key, title=title) in out
        assert (tmp_path / "s.svg").read_text().startswith("<svg")

    def test_bound(self, capsys):
        assert main(["bound", "--n", "8", "--p", "4"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out and "PNR elements moved" in out

    def test_pared(self, capsys):
        assert main(["pared", "--p", "2", "--n", "6", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "PARED on 2 ranks" in out
        # no --transport: the run takes whatever REPRO_TRANSPORT resolves to
        assert f"{resolve_backend()} backend" in out
        assert "P2:" in out

    def test_pared_phase_report(self, capsys):
        assert main(["pared", "--p", "2", "--n", "6", "--rounds", "2",
                     "--phase-report"]) == 0
        out = capsys.readouterr().out
        assert "PARED phase timing" in out
        for col in ("phase", "calls", "seconds", "share", "ms/call"):
            assert col in out
        for row in ("pared.P0", "pared.P3", "pared.P0.mark", "pared.P0.lepp",
                    "pared.P0.exchange", "mesh.refine", "mesh.coarsen",
                    "multilevel.coarsen", "multilevel.refine", "kl.refine",
                    "kl.pass", "kl.moves", "kl.kept"):
            assert row in out

    def test_pared_dkl_partitioner(self, capsys):
        assert main(["pared", "--p", "2", "--n", "6", "--rounds", "2",
                     "--partitioner", "dkl", "--phase-report"]) == 0
        out = capsys.readouterr().out
        assert "dkl partitioner" in out
        # the tournament steps appear in the timing table
        assert "dkl.propose" in out and "dkl.resolve" in out

    def test_pared_shm_transport(self, capsys):
        assert main(["pared", "--p", "2", "--n", "6", "--rounds", "1",
                     "--transport", "shm"]) == 0
        out = capsys.readouterr().out
        assert "shm backend" in out
        assert "P2:" in out

    def test_render(self, capsys, tmp_path):
        out_path = str(tmp_path / "mesh.svg")
        rc = main(["render", "--n", "6", "--levels", "1", "--p", "2",
                   "--out", out_path])
        assert rc == 0
        text = (tmp_path / "mesh.svg").read_text()
        assert text.startswith("<svg") and "<polygon" in text

    def test_report(self, capsys, tmp_path):
        out = str(tmp_path / "REPORT.md")
        rc = main(["report", "--results", "results", "--out", out])
        assert rc == 0
        text = (tmp_path / "REPORT.md").read_text()
        assert "# Reproduction report" in text
        assert "Paper claim" in text

    def test_report_missing_results_dir(self, capsys, tmp_path):
        rc = main(["report", "--results", str(tmp_path / "nope")])
        assert rc == 0
        assert "missing" in capsys.readouterr().out
