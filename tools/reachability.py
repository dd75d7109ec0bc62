#!/usr/bin/env python
"""Which functions in ``src/repro`` does the program itself reach?

The reachability audit of docs/testing.md as one script.  It runs every
driver the audit counts as a caller — each ``repro`` subcommand with each
flag, every ``examples/*.py``, each ``BENCHMARK.json`` workload once with
``--trace 0``, and CI's paper-figure benches with ``--benchmark-disable``
(tier-1 is not a driver) — in a child interpreter whose ``sitecustomize``
installs one profile function with ``sys.setprofile`` and
``threading.setprofile``.  Every interpreter the drivers start inherits it
(forked shm ranks through the fork, the bench harness's subprocesses
through ``PYTHONPATH``), and each writes the code objects under
``src/repro`` it entered when it exits (``os._exit`` included).  Then an
``ast`` walk lists every function and method of ``src/repro`` by its first
line (its first decorator's, as ``co_firstlineno`` reports it); a function
no driver entered is unreached, and a function nested in an unreached one
counts under it.  The C kernels are not traced.

The drivers rewrite ``results/`` and build the kernels, so run it on a
fresh copy of the tree (``git archive HEAD | tar -x -C <dir>``); it refuses
a tree whose kernels are already built, where the build function
``_native._compile`` would read as unreached::

    python tools/reachability.py [OUT]

It prints the inventory (or writes it to ``OUT``): the totals, then one
line per unreached function, ``path:line qualified.name (lines)``.  It exits
non-zero if a driver failed, since the audit is then incomplete.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    rows = {{(os.path.abspath(c.co_filename), c.co_firstlineno) for c in list(_seen)}}
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "a") as fh:
        fh.writelines(f"{{f}}\\t{{line}}\\n" for f, line in rows if f.startswith({src!r}))


_exit = os._exit


def _exit_dumping(code):
    _dump()
    _exit(code)


os._exit = _exit_dumping
atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def drivers(scratch: Path) -> list:
    """Every caller the audit counts, as argument lists for ``python``."""
    cli = [
        ["--help"],
        ["info"],
        ["quality", "--dim", "2", "--n", "8", "--levels", "2", "--procs", "2", "4"],
        ["quality", "--dim", "3", "--n", "2", "--levels", "2", "--procs", "2"],
        ["repartition", "--method", "pnr", "--dim", "2", "--n", "8", "--sizes", "2",
         "--procs", "2", "4"],
        ["repartition", "--method", "rsb", "--dim", "2", "--n", "8", "--sizes", "2",
         "--procs", "2"],
        ["repartition", "--method", "pnr", "--dim", "3", "--n", "2", "--sizes", "2",
         "--procs", "2"],
        ["transient", "--n", "8", "--steps", "4", "--p", "2", "--methods", "rsb", "pnr",
         "--svg", str(scratch / "transient.svg")],
        ["bound", "--n", "8", "--p", "4"],
        ["solve", "--n", "8", "--levels", "2"],
        ["report", "--results", "results", "--out", str(scratch / "REPORT.md")],
        ["render", "--n", "8", "--levels", "2", "--p", "4", "--out",
         str(scratch / "mesh.svg")],
    ]
    for transport in ("thread", "shm"):
        for part in ("pnr", "mlkl", "sfc", "dkl"):
            cli.append(["pared", "--p", "3", "--n", "8", "--rounds", "2", "--transport",
                        transport, "--partitioner", part, "--phase-report"])
    cli.append(["pared", "--p", "3", "--n", "8", "--rounds", "2", "--partitioner", "sfc",
                "--sfc-curve", "hilbert"])
    runs = [["-m", "repro", *args] for args in cli]
    runs += [[str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs += [["-m", "bench", "--workload", w["name"], "--seed", "0", "--seconds", "3",
              "--trace", "0"] for w in spec["workloads"]]
    benches = ["bench_fig*.py", "bench_sec8_bound.py", "bench_thm61_projection.py",
               "bench_ablation_*.py", "bench_scaling.py", "bench_pared_system.py",
               "bench_distributed_refine.py"]
    files = [str(p) for pat in benches for p in sorted((ROOT / "benchmarks").glob(pat))]
    runs.append(["-m", "pytest", *files, "-q", "-p", "no:cacheprovider",
                 "--benchmark-disable"])
    return runs


def reached_lines(out: Path) -> set:
    """``(file, first line)`` of every code object a driver entered."""
    reached = set()
    for dump in out.glob("*.txt"):
        for row in dump.read_text().splitlines():
            path, line = row.split("\t")
            reached.add((path, int(line)))
    return reached


def unreached(reached: set) -> tuple:
    """``(rows, total lines, total functions)``: one ``(path, line, name,
    lines)`` row per unreached function, outermost first."""
    rows, total, count = [], 0, 0

    def visit(body, path, prefix):
        nonlocal total, count
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                size = node.end_lineno - first + 1
                total += size
                count += 1
                if (str(path), first) in reached:
                    visit(node.body, path, f"{prefix}{node.name}.")
                else:
                    rows.append((path, first, prefix + node.name, size))

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()).body, path, "")
    return rows, total, count


def main(argv: list) -> int:
    if len(argv) > 1:
        raise SystemExit(__doc__)
    built = sorted(SRC.rglob("_*core-*.so"))
    if built:
        raise SystemExit(f"{built[0].relative_to(ROOT)} is already built: run the "
                         "audit on a fresh copy (git archive HEAD | tar -x -C DIR)")
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out, hook, scratch = tmp / "reached", tmp / "hook", tmp / "scratch"
        for d in (out, hook, scratch):
            d.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK.format(out=str(out), src=str(SRC)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(ROOT / "src")]))
        for args in drivers(scratch):
            print("==", " ".join(args), file=sys.stderr, flush=True)
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True)
            if proc.returncode:
                failed.append(" ".join(args))
                print(proc.stderr[-2000:], file=sys.stderr)
        reached = reached_lines(out)
    rows, total, count = unreached(reached)
    lines = sum(r[3] for r in rows)
    report = [f"{lines} unreached function lines in {len(rows)} functions "
              f"(of {total} lines in {count} functions under src/repro)"]
    report += [f"driver failed: {f}" for f in failed]
    report += [f"{p.relative_to(ROOT)}:{line} {name} ({size})" for p, line, name, size in rows]
    text = "\n".join(report) + "\n"
    if argv:
        Path(argv[0]).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
