"""Shared machinery of the reproduction benches.

Every bench (one per paper table/figure, see DESIGN.md's experiment index)
runs its experiment once under ``benchmark.pedantic``, writes the
paper-style table to ``results/<name>.txt``, and asserts the *qualitative
shape* of the paper's result (who wins, by roughly what factor) — absolute
numbers differ because the meshes default to reduced scale.

Set ``REPRO_PAPER_SCALE=1`` for paper-scale meshes and processor counts
(minutes instead of seconds).
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from repro.experiments import default_scale as paper_scale  # REPRO_PAPER_SCALE

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def provenance() -> str:
    """First line of every results file: which code, on what, produced it.
    Taken once per session, before any table is written, so the tables a run
    rewrites do not mark its own checkout dirty."""
    from repro.partition import _klnative
    from repro.runtime.envflags import effective_cpu_count

    sha = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=7"],
        cwd=RESULTS_DIR.parent, capture_output=True, text=True,
    ).stdout.strip() or "unknown"
    return (
        f"# git {sha}, {effective_cpu_count()} cpus, "
        f"native KL {'on' if _klnative.load() else 'off'}"
    )


@pytest.fixture()
def write_result(results_dir, provenance):
    def _write(name: str, text: str, paper: bool = None) -> None:
        """``paper`` states the scale of a bench that runs at one scale
        only; by default it is the session's (``REPRO_PAPER_SCALE``)."""
        scale = paper_scale() if paper is None else paper
        path = results_dir / f"{name}.txt"
        path.write_text(
            f"{provenance}, {'paper' if scale else 'reduced'} scale\n{text}\n"
        )
        print(f"\n{text}\n[written to {path}]")

    return _write


def proc_counts(reduced, paper):
    """Processor-count list for the current scale."""
    return paper if paper_scale() else reduced
