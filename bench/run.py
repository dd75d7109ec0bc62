"""One benchmark run: set-up, the timed loop, and either the end-to-end
metrics (``trace=0``) or the traced run's per-layer metrics (``trace=1``).

The metric names, units and the split into end-to-end and per-layer come
from ``BENCHMARK.json``; a run that computes a different set than the file
declares is an error, so the two cannot drift apart.
"""

from __future__ import annotations

import json
from time import perf_counter

from bench import BENCH_DIR, ROOT, harness, probes, replay
from bench.harness import calibrated, median
from bench.spans import NullRecorder, Recorder
from bench.workloads import LadderWorkload, rank_spin
from repro.pared import run_pared
from repro.runtime.envflags import effective_cpu_count
from repro.runtime.stats import TrafficStats

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 5
#: share of ``--seconds`` a traced run spends on timed samples (they feed
#: the ``harness.*`` statistics); the replay and probes use the rest
TRACED_LOOP_SHARE = 0.6
#: traced (and null) replays per traced run; a span's seconds are the
#: median over the traced ones
REPLAYS = 3
#: the first call of a checkout may compile the KL kernel
SETUP_TIMEOUT_S = 120.0

TRACE_DIR = BENCH_DIR / "traces"


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class BenchmarkError(SystemExit):
    """The run cannot produce a result worth recording; exits non-zero."""

    def __init__(self, message: str):
        super().__init__(f"bench: {message}")


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #


def set_up(workload, seed: int):
    """From nothing to a warm program: seeded inputs, the KL kernel loaded
    (compiled on a fresh checkout), a cold rank pool forked by the first
    call, one untimed warm-up call.  Returns ``(wall, warm-up result)``."""
    workload.teardown()
    t0 = perf_counter()
    workload.generate(seed)
    probes.native_kl()
    _, out, problems = harness.guarded_call(workload, None, SETUP_TIMEOUT_S)
    wall = perf_counter() - t0
    if problems:
        raise BenchmarkError(
            f"{workload.name}: the warm-up call failed: " + "; ".join(problems)
        )
    return wall, out


# ---------------------------------------------------------------------- #
# the traced run
# ---------------------------------------------------------------------- #


def _replays(replay_fn, workload):
    """``REPLAYS`` replays with spans alternating with as many under a null
    recorder (what the spans' overhead is measured against), a spin between
    each.  Returns the traced replays as ``(recorder, scale)`` pairs —
    ``scale`` calibrates that replay's seconds — the replay's result, the
    null replays' median calibrated wall, and the spins."""
    spins = [harness.spin()]
    traced, null_walls = [], []
    for i in range(2 * REPLAYS):
        rec = NullRecorder() if i % 2 else Recorder()
        t0 = perf_counter()
        result = replay_fn(workload, rec)
        wall = perf_counter() - t0
        spins.append(harness.spin())
        scale = harness.SPIN_REF_S / ((spins[-2] + spins[-1]) / 2)
        if i % 2:
            null_walls.append(wall * scale)
        else:
            traced.append((rec, scale))
    return traced, result, median(null_walls), spins


def _calibrated_pared_wall(cfg, reps: int) -> float:
    """Median calibrated wall of ``reps`` calls of another config of the
    same problem (the launch probe, the one-rank leg of the speed-up)."""
    run_pared(cfg)
    cals = []
    spin_before = rank_spin(cfg.p, cfg.transport)
    for _ in range(reps):
        t0 = perf_counter()
        run_pared(cfg)
        wall = perf_counter() - t0
        spin_after = rank_spin(cfg.p, cfg.transport)
        cals.append(calibrated(wall, (spin_before + spin_after) / 2))
        spin_before = spin_after
    return median(cals)


def traced_metrics(workload, seed: int, loop, quality: dict):
    """Per-layer metrics of one workload; returns ``(metrics, problems)``.

    Every time is calibrated like the end-to-end ones: replay spans and
    probes by the spins taken around them in this process, the harvested
    call's rank-summed spans by that call's own spins."""
    out = loop.last_good
    cals = [s.cal for s in loop.good()]
    if isinstance(workload, LadderWorkload):
        replay_fn, compare = replay.replay_ladder, replay.compare_with_ladder
        launch_s, speedup = 0.0, 0.0
        stats, rounds = TrafficStats(), 1  # no runtime: every count is 0
    else:
        replay_fn, compare = replay.replay_pared, replay.compare_with_pared
        launch_s = _calibrated_pared_wall(workload.config(rounds=0), 3)
        # the same problem on one thread rank over this workload's wall;
        # 1 by definition at p = 1
        speedup = 1.0 if workload.p == 1 else _calibrated_pared_wall(
            workload.config(p=1, transport="thread"), 5
        ) / median(cals)
        stats, rounds = out[1], workload.rounds
    traced, rp, wall_null, spins = _replays(replay_fn, workload)
    problems = compare(rp, out)

    def span_s(name):
        """Median over the replays of a span name's calibrated seconds."""
        return median(rec.seconds(name) * scale for rec, scale in traced)

    def unattributed(rec):
        own = rec.self_by_name()
        return (own["replay"] + own.get("round", 0.0)) / rec.seconds("replay")

    probed = {
        "partition.kl_refine_s": probes.kl_probe(
            rp.graph, rp.owner, rp.parts, workload.pnr
        ),
        **probes.graph_probes(rp.graph, seed),
        **probes.transport_probes(workload.p, workload.transport),
    }
    spins.append(harness.spin())
    probe_scale = harness.SPIN_REF_S / median(spins)
    counts = rp.counts
    bisections = counts["bisections"]
    replay_wall = span_s("replay")

    m = {name: value * probe_scale for name, value in probed.items()}
    m.update({
        f"{name}_s": span_s(name)
        for name in (
            "mesh.build", "mesh.refine", "mesh.coarsen", "mesh.dual_graph",
            "mesh.history_metrics", "fem.mark", "partition.initial",
            "partition.repartition", "pared.own_marks", "pared.weights",
            "pared.directives", "pared.pack", "pared.unpack",
            "runtime.codec_encode", "runtime.codec_decode",
        )
    })
    m.update(probes.stats_metrics(
        stats, rounds, harness.SPIN_REF_S / loop.last_good_spin
    ))
    m.update({
        "mesh.refine_bisections": float(bisections),
        "mesh.refine_us_per_bisection": (
            m["mesh.refine_s"] / bisections * 1e6 if bisections else 0.0
        ),
        "mesh.coarsen_merges": float(counts["merges"]),
        "fem.marked_refine": float(counts["marked_refine"]),
        "fem.marked_coarsen": float(counts["marked_coarsen"]),
        "partition.repartition_calls": float(counts["repartitions"]),
        "partition.native_kl": probes.native_kl(),
        "pared.launch_s": launch_s,
        "pared.moved_trees": float(counts["moved_trees"]),
        "pared.moved_elements": float(counts["moved_elements"]),
        "pared.speedup_vs_p1": speedup,
        "runtime.codec_bytes": float(counts["codec_bytes"]),
        "harness.samples": float(len(cals)),
        "harness.run_wall_tail_s": harness.tail(cals),
        "harness.run_wall_iqr_frac": harness.iqr_frac(cals),
        "harness.run_wall_raw_s": median(s.wall for s in loop.good()),
        "harness.spin_ms": median(loop.spins) * 1e3,
        "harness.spin_iqr_frac": harness.iqr_frac(loop.spins),
        "harness.cpu_count": float(effective_cpu_count()),
        "harness.replay_wall_s": replay_wall,
        "harness.unattributed_frac": median(
            unattributed(rec) for rec, _ in traced
        ),
        "harness.trace_overhead_frac": (replay_wall - wall_null) / wall_null,
        "harness.peak_rss_mb": harness.peak_rss_mb(),
        "e2e.cut_final": quality["cut_final"],
        "e2e.migrated_frac": quality["migrated_frac"],
        "e2e.imbalance_final": quality["imbalance_final"],
        "e2e.failed_frac": loop.failed / loop.attempted,
    })

    rec, scale = traced[-1]
    rec.write_chrome_trace(
        TRACE_DIR / f"{workload.name}.trace.json",
        {"workload": workload.name, "calibration_scale": scale,
         **harness.host_info(seed)},
    )
    return m, problems


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #


def end_to_end_metrics(setups, loop, quality: dict) -> dict:
    good = loop.good() or loop.rows
    return {
        "setup_s": median(setups),
        "run_wall_s": median(s.cal for s in good),
        # the complement of cut edges per leaf element, because a declared
        # end-to-end metric may never read 0 and a one-part run cuts
        # nothing; the raw cut is the per-layer e2e.cut_final
        "uncut_frac": 1.0 - quality["cut_final"] / quality["leaves_final"],
    }


def run_once(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Returns the result object the command prints as its last line, plus
    ``problems`` (human-readable failures) and ``hung``."""
    if effective_cpu_count() < workload.p:
        raise BenchmarkError(
            f"{workload.name} needs {workload.p} cores, this process may use "
            f"{effective_cpu_count()}: refusing to record an oversubscribed "
            "number"
        )
    spec = declared()
    setups = []
    try:
        # the spin runs where the ranks run: through the previous set-up's
        # pool before a set-up and the fresh one after; one discarded spin
        # forks the first pool and warms it
        workload.spin()
        for _ in range(1 if trace else SETUP_REPS):
            spin_before = workload.spin()
            wall, warm = set_up(workload, seed)
            setups.append(
                calibrated(wall, (spin_before + workload.spin()) / 2)
            )
        reference = workload.digest(warm)
        timeout = min(60.0, max(10.0, 20.0 * wall))
        loop = harness.timed_loop(
            workload, reference,
            seconds * (TRACED_LOOP_SHARE if trace else 1.0), timeout,
        )
        problems = [p for s in loop.rows for p in s.problems]
        quality = workload.quality(loop.last_good or warm)
        if trace and loop.last_good is None:
            raise BenchmarkError(
                f"{workload.name}: no timed call passed, nothing to trace: "
                + "; ".join(problems)
            )
        if trace:
            values, replay_problems = traced_metrics(
                workload, seed, loop, quality
            )
            problems += replay_problems
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            values = end_to_end_metrics(setups, loop, quality)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        workload.teardown()
    if set(values) != set(units):
        raise BenchmarkError(
            "computed metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    return {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
        "problems": problems,
        "hung": loop.hung,
    }
