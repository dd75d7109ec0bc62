"""``python3 -m bench``: the benchmark's one command.

``--workload W --seed S --seconds T --trace 0|1``
    One run (the form the driver calls): human-readable metric lines, then
    one JSON object as the last line of standard output.
no ``--trace``
    The suite: every workload (or ``--workload W``), untraced then traced,
    each run in a fresh process; prints one table and writes
    ``bench/out/suite-seed<S>.json`` and one trace per workload.
``repeat``
    The suite twice on the same checkout and seed; prints both values of
    every end-to-end metric with their difference, bound and verdict, checks
    that the counts that must repeat exactly do, exits non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from bench import BENCH_DIR, ROOT, SRC

OUT_DIR = BENCH_DIR / "out"

#: per-layer metrics that are counts of the program's decisions: they must
#: repeat exactly between two runs of the same code and seed
EXACT = (
    "e2e.cut_final", "e2e.migrated_frac", "e2e.imbalance_final",
    "e2e.failed_frac", "mesh.refine_bisections", "mesh.coarsen_merges",
    "fem.marked_refine", "fem.marked_coarsen", "partition.repartition_calls",
    "pared.moved_trees", "pared.moved_elements", "runtime.codec_bytes",
    "runtime.msgs_per_round", "runtime.bytes_per_round", "runtime.P0_bytes",
    "runtime.P2_bytes", "runtime.P3_bytes", "runtime.dkl_bytes",
    "runtime.ring_frames", "runtime.spill_frames", "runtime.copied_bytes",
)


def single_run(args) -> int:
    from bench.harness import stop_children
    from bench.run import run_once
    from bench.workloads import make_workloads

    workloads = make_workloads()
    if args.workload not in workloads:
        sys.exit(f"bench: unknown workload {args.workload!r} "
                 f"(expected one of {sorted(workloads)})")
    try:
        result = run_once(
            workloads[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    finally:
        # on every way out: no rank, no resource tracker outlives the run
        stop_children()
    problems = result.pop("problems")
    hung = result.pop("hung")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"! {problem}")
    print(json.dumps(result))
    sys.stdout.flush()
    if hung:
        # a call hit its deadline on the thread backend: its rank threads
        # cannot be cancelled and would block a normal interpreter exit
        os._exit(0)
    return 0


# ---------------------------------------------------------------------- #
# suite and repeat: every run in a fresh process, as the driver does it
# ---------------------------------------------------------------------- #


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "-m", "bench", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"bench: {' '.join(cmd)} exited {proc.returncode}")
    for line in proc.stdout.splitlines():
        if line.startswith("!"):
            print(f"  {workload}: {line}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_suite(names, seed: int, seconds: float) -> dict:
    suite = {}
    for name in names:
        suite[name] = {}
        for trace in (0, 1):
            print(f"running {name} --trace {trace} ...", flush=True)
            suite[name][trace] = _child(name, seed, seconds, trace)
    return suite


def print_suite(suite: dict, spec: dict) -> None:
    names = list(suite)
    width = max(len(m["name"]) for m in spec["per_layer"]) + 2
    print(f"{'metric':<{width}}{'unit':<10}" + "".join(f"{n:>22}" for n in names))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        print(f"-- {key}")
        for m in spec[key]:
            row = "".join(
                f"{suite[n][trace]['metrics'][m['name']]['value']:>22.6g}"
                for n in names
            )
            print(f"{m['name']:<{width}}{m['unit']:<10}{row}")
    print("-- calls")
    for field, fold in (("attempted", sum), ("failed", sum), ("correct", all)):
        row = "".join(
            f"{fold(suite[n][t][field] for t in (0, 1))!s:>22}" for n in names
        )
        print(f"{field:<{width}}{'':<10}{row}")


def _selected(args, spec) -> list:
    return [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]
    ]


def suite_command(args, spec) -> int:
    from bench.harness import host_info

    names = _selected(args, spec)
    suite = run_suite(names, args.seed, args.seconds)
    print_suite(suite, spec)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"suite-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"host": host_info(args.seed), "seconds": args.seconds,
                   "runs": suite}, fh, indent=1)
    print(f"wrote {path.relative_to(ROOT)}; traces in bench/traces/")
    ok = all(r["correct"] for runs in suite.values() for r in runs.values())
    return 0 if ok else 1


def repeat_command(args, spec) -> int:
    from bench.harness import host_info

    names = _selected(args, spec)
    first = run_suite(names, args.seed, args.seconds)
    second = run_suite(names, args.seed, args.seconds)
    host = host_info(args.seed)
    print("first suite:")
    print_suite(first, spec)
    print()
    print(f"repeat: two suites of the same checkout ({host['git_sha'][:12]}), "
          f"seed {args.seed}, {args.seconds:g} s per run, "
          f"{host['effective_cpu_count']} usable cores")
    print(f"{'workload':<22}{'metric':<16}{'first':>12}{'second':>12}"
          f"{'worse by':>10}{'bound':>8}  verdict")
    bad = 0
    for name in names:
        for m in spec["end_to_end"]:
            a = first[name][0]["metrics"][m["name"]]["value"]
            b = second[name][0]["metrics"][m["name"]]["value"]
            # how much worse the less favourable of the two reads, as a
            # share of the other: order of the two suites must not matter
            worse = abs(a - b) / min(abs(a), abs(b))
            ok = worse <= m["bound"]
            bad += not ok
            print(f"{name:<22}{m['name']:<16}{a:>12.6g}{b:>12.6g}"
                  f"{worse:>10.4f}{m['bound']:>8.2f}  "
                  f"{'agree' if ok else 'DISAGREE'}")
    print("counts that must repeat exactly:")
    for name in names:
        diff = [
            k for k in EXACT
            if first[name][1]["metrics"][k]["value"]
            != second[name][1]["metrics"][k]["value"]
        ]
        failed = sum(first[name][t]["failed"] + second[name][t]["failed"]
                     for t in (0, 1))
        bad += bool(diff) + bool(failed)
        print(f"  {name:<22}{len(EXACT) - len(diff)}/{len(EXACT)} identical, "
              f"{failed} failed calls"
              + (f"  DIFFER: {', '.join(diff)}" if diff else ""))
    print("verdict:", "the two suites agree" if not bad else f"{bad} disagreements")
    return 1 if bad else 0


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        sys.exit("bench: run from a checkout of the repository "
                 f"(no src/repro or BENCHMARK.json under {ROOT})")
    from bench.run import declared

    spec = declared()
    ap = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("mode", nargs="?", choices=("run", "repeat"), default="run")
    ap.add_argument("--workload", help="one of: "
                    + ", ".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="length of one run's timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="one run: 0 end-to-end metrics, 1 per-layer metrics")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.mode == "repeat":
        return repeat_command(args, spec)
    if args.trace is None:
        return suite_command(args, spec)
    if args.workload is None:
        ap.error("--trace needs --workload")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
