"""Tests of the benchmark itself (``python -m pytest bench/tests``; outside
tier-1's ``testpaths``).  They run all four workloads at smoke scale — a
fixture of these tests, not a switch of ``python3 -m bench`` — through the
same code the command runs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import bench.__main__ as cli
import bench.run
import bench.workloads
from bench import ROOT, harness, replay
from bench.spans import NullRecorder, Recorder
from bench.workloads import LadderWorkload, ParedWorkload
from repro.runtime.envflags import effective_cpu_count

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

needs_two_cores = pytest.mark.skipif(
    effective_cpu_count() < 2, reason="the p=2 workloads need two cores"
)


def smoke_workloads() -> dict:
    corner = dict(problem="corner", n=10, rounds=2)
    return {
        w.name: w
        for w in (
            ParedWorkload("corner2d_p1_thread", p=1, transport="thread",
                          partitioner="pnr", **corner),
            ParedWorkload("corner2d_p2_shm_pnr", p=2, transport="shm",
                          partitioner="pnr", **corner),
            ParedWorkload("peak2d_p2_shm_dkl", problem="peak", n=10, rounds=3,
                          p=2, transport="shm", partitioner="dkl"),
            LadderWorkload("ladder3d_k16_pnr", n=4, rungs=3, k=4),
        )
    }


def workload_params():
    return [
        pytest.param(n, marks=needs_two_cores) if "_p2_" in n else n
        for n in NAMES
    ]


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    """The command wired to smoke-scale workloads and a scratch trace dir."""
    monkeypatch.setattr(bench.workloads, "make_workloads", smoke_workloads)
    monkeypatch.setattr(bench.run, "TRACE_DIR", tmp_path)
    return tmp_path


def traced(name: str, seed: int) -> dict:
    return bench.run.run_once(smoke_workloads()[name], seed, 0.5, True)


# ---------------------------------------------------------------------- #
# the declaration
# ---------------------------------------------------------------------- #


def test_declaration_keeps_to_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    # 4 + 22 runs per workload, with set-up, inside 3420 s
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) <= 3420
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(cli.EXACT) <= {m["name"] for m in SPEC["per_layer"]}
    assert NAMES == list(bench.workloads.make_workloads())


# ---------------------------------------------------------------------- #
# the command, at smoke scale
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", workload_params())
@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_declared_metric_once(smoke, capsys, name, trace):
    code = cli.main(["--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = [ln for ln in lines[:-1] if ln.startswith(m["name"] + " = ")]
        assert len(printed) == 1, m["name"]
        assert printed[0].endswith(" " + m["unit"])
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and np.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workload_params())
def test_trace_file_is_trace_event_json(smoke, name):
    traced(name, 3)
    doc = json.loads((smoke / f"{name}.trace.json").read_text())
    events = doc["traceEvents"]
    assert events and events[0]["name"] == "replay"
    assert doc["metadata"]["workload"] == name
    for ev in events:
        assert ev["ph"] == "X" and ev["dur"] >= 0 and ev["ts"] >= 0
        assert {"name", "cat", "pid", "tid", "args"} <= set(ev)
    # children lie inside their parents
    for ev in events[1:]:
        parent = events[ev["args"]["parent"]]
        assert parent["ts"] <= ev["ts"]
        assert ev["ts"] + ev["dur"] <= parent["ts"] + parent["dur"] + 1e-3


@pytest.mark.parametrize("name", workload_params())
def test_exact_counts_repeat_and_follow_the_seed(smoke, name):
    first = traced(name, 3)["metrics"]
    again = traced(name, 3)["metrics"]
    other = traced(name, 4)["metrics"]
    for key in cli.EXACT:
        assert first[key]["value"] == again[key]["value"], key
    assert any(first[k]["value"] != other[k]["value"] for k in cli.EXACT)


# ---------------------------------------------------------------------- #
# replay and spans
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", workload_params())
def test_replay_is_the_run_the_program_made(name):
    workload = smoke_workloads()[name]
    try:
        workload.generate(5)
        out = workload.call()
        assert workload.check(out, workload.digest(out)) == []
        if isinstance(workload, LadderWorkload):
            rp = replay.replay_ladder(workload, NullRecorder())
            assert replay.compare_with_ladder(rp, out) == []
        else:
            rp = replay.replay_pared(workload, NullRecorder())
            assert rp.leaves == [h["leaves"] for h in out[0][0]]
            assert replay.compare_with_pared(rp, out) == []
    finally:
        workload.teardown()


def test_self_times_and_unattributed_add_up_to_the_replay_wall():
    workload = smoke_workloads()["corner2d_p1_thread"]
    workload.generate(5)
    rec = Recorder()
    replay.replay_pared(workload, rec)
    root = rec.spans[0]["end"] - rec.spans[0]["start"]
    own = rec.self_by_name()
    layers = sum(v for k, v in own.items() if k not in ("replay", "round"))
    unattributed = own["replay"] + own["round"]
    assert layers + unattributed == pytest.approx(root, rel=1e-9)
    assert all(t >= 0 for t in rec.self_times())
    assert rec.total_by_name()["mesh.refine"][0] == workload.rounds
    assert {"fem.mark", "mesh.refine", "mesh.dual_graph", "pared.weights",
            "mesh.history_metrics"} <= set(own)


# ---------------------------------------------------------------------- #
# the correctness gate and the noise control
# ---------------------------------------------------------------------- #


class FakeWorkload:
    """Scripted results: the gate must count a differing result, a raising
    call and a hang as failures, and must not hang itself."""

    def __init__(self, script):
        self.script = list(script)
        self.torn_down = False

    def call(self):
        step = self.script.pop(0) if self.script else "ok"
        if step == "raise":
            raise RuntimeError("boom")
        if step == "hang":
            time.sleep(30)
        return step

    def check(self, out, reference):
        return [] if out == reference else ["result differs"]

    def spin(self):
        return harness.SPIN_REF_S

    def teardown(self):
        self.torn_down = True


def test_gate_counts_wrong_and_raising_calls():
    w = FakeWorkload(["ok", "wrong", "raise", "ok"])
    res = harness.timed_loop(w, "ok", seconds=0.2, timeout=5.0)
    assert res.failed == 2 and res.attempted >= 4
    assert not res.hung and res.last_good == "ok"
    flagged = [s.problems[0] for s in res.rows if s.problems]
    assert flagged[0] == "result differs" and flagged[1].startswith("raised")


def test_a_hang_is_a_counted_failure_not_a_stuck_run():
    w = FakeWorkload(["ok", "hang", "ok"])
    t0 = time.perf_counter()
    res = harness.timed_loop(w, "ok", seconds=60.0, timeout=0.3)
    assert time.perf_counter() - t0 < 5.0
    assert res.hung and w.torn_down
    assert (res.attempted, res.failed) == (2, 1)


def test_fewer_cores_than_ranks_fails_loudly(monkeypatch):
    monkeypatch.setattr(bench.run, "effective_cpu_count", lambda: 1)
    with pytest.raises(SystemExit, match="needs 2 cores"):
        bench.run.run_once(smoke_workloads()["corner2d_p2_shm_pnr"], 0, 0.5, False)


@needs_two_cores
def test_gate_sees_a_run_that_left_the_pool(monkeypatch):
    """A job that cannot ride the persistent pool (here: a closure marker)
    is demoted to a one-shot fork by the runtime; the gate must say so."""
    workload = smoke_workloads()["corner2d_p2_shm_pnr"]
    try:
        workload.generate(5)
        marker = workload.cfg.marker
        workload.cfg = workload.config(marker=lambda a, r: marker(a, r))
        problems = workload.check(workload.call(), None)
        assert any("pool" in p for p in problems)
    finally:
        workload.teardown()


@needs_two_cores
def test_the_command_leaves_no_process_behind():
    """The shm segment starts multiprocessing's resource tracker, which a
    3.11 interpreter leaves running at exit; the command must stop it too.
    Run in a session of its own, nothing of that session may remain."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench", "--workload", "corner2d_p2_shm_pnr",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, _ = proc.communicate(timeout=170)
    assert proc.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["correct"]
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                session = int(fh.read().rsplit(")", 1)[1].split()[3])
        except OSError:
            continue  # ended between listing and reading
        if session == proc.pid:
            left.append(int(pid))
    assert left == []


def test_order_statistics():
    values = [float(v) for v in range(1, 31)]
    assert harness.tail(values) == 20.0  # ten samples beyond it at n = 30
    assert harness.iqr_frac(values) == pytest.approx(15.5 / 15.5)
    assert harness.tail([3.0, 1.0, 2.0]) == 2.0
    assert harness.calibrated(2.0, 2 * harness.SPIN_REF_S) == 1.0
