"""Tests for the command-line interface (every subcommand at tiny scale)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


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
        assert main(["quality", "--n", "6", "--levels", "1", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "MLKL p=2" in out and "PNR p=2" in out

    def test_repartition_pnr(self, capsys):
        rc = main(["repartition", "--method", "pnr", "--n", "8",
                   "--sizes", "1", "--procs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Repartitioning with PNR" in out
        assert "C_mig raw" in out

    def test_repartition_rsb(self, capsys):
        rc = main(["repartition", "--method", "rsb", "--n", "8",
                   "--sizes", "1", "--procs", "2"])
        assert rc == 0
        assert "RSB" in capsys.readouterr().out

    def test_transient(self, capsys, tmp_path):
        svg = str(tmp_path / "s.svg")
        rc = main(["transient", "--p", "2", "--n", "8", "--steps", "4",
                   "--methods", "pnr", "--svg", svg])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PNR" in out
        assert (tmp_path / "s.svg").read_text().startswith("<svg")

    def test_bound(self, capsys):
        assert main(["bound", "--n", "8", "--p", "4"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out and "PNR elements moved" in out

    def test_pared(self, capsys):
        assert main(["pared", "--p", "2", "--n", "6", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "PARED on 2 ranks" in out
        assert "thread backend" in out
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
                    "multilevel.coarsen", "multilevel.refine"):
            assert row in out

    def test_pared_dkl_partitioner(self, capsys):
        assert main(["pared", "--p", "2", "--n", "6", "--rounds", "2",
                     "--partitioner", "dkl", "--phase-report"]) == 0
        out = capsys.readouterr().out
        assert "dkl partitioner" in out
        # refinement traffic is attributed to its own phase label and the
        # tournament steps appear in the timing table
        assert "dkl:" in out
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
