"""Command-line interface: ``python -m repro <command>``.

Commands drive the paper's experiments at configurable scale:

========================  ===================================================
``info``                  version and system inventory
``quality``               Figure 3 — shared vertices, Multilevel-KL vs PNR
``repartition``           Figures 4/5 — migration table for RSB or PNR
``transient``             Figures 7/8 — moving-peak series (quality + moves)
``bound``                 Section 8 — migration model vs measured PNR cost
``pared``                 run the parallel PARED loop, print phase traffic
``solve``                 adaptive FEM ladder with true-error report
``render``                write an SVG of an adapted mesh / partition
========================  ===================================================
"""

from __future__ import annotations

import argparse
import sys


def _cmd_info(args) -> int:
    import repro

    print(f"repro {repro.__version__} — PNR / PARED reproduction (IPPS 2000)")
    print(__doc__)
    return 0


def _cmd_quality(args) -> int:
    from repro.experiments import (
        format_table,
        mlkl_stepper,
        pnr_stepper,
        quality_headers,
        run_quality_ladder,
    )

    rows = run_quality_ladder(
        mlkl_stepper(seed=args.seed), pnr_stepper(seed=args.seed), args.procs,
        dim=args.dim, n=args.n, levels=args.levels,
    )
    print(format_table(quality_headers(args.procs), rows,
                       title=f"Quality ({args.dim}D): shared vertices"))
    return 0


def _cmd_repartition(args) -> int:
    from repro.experiments import (
        REPARTITION_HEADERS,
        format_table,
        pnr_stepper,
        rsb_stepper,
        run_repartition_protocol,
    )

    if args.method == "pnr":
        method = pnr_stepper(seed=args.seed)
    else:
        # Figure 4's RSB has always drawn its first partition at seed + 1
        method = rsb_stepper(seed=args.seed + 1)
    rows = run_repartition_protocol(
        method, args.procs, dim=args.dim, n=args.n, n_measure=args.sizes
    )
    print(format_table(REPARTITION_HEADERS, rows,
                       title=f"Repartitioning with {args.method.upper()}"))
    return 0


def _cmd_transient(args) -> int:
    from repro.experiments import (
        TransientRunner,
        format_series,
        pnr_stepper,
        rsb_stepper,
    )
    from repro.experiments.tables import summarize_series

    methods = {}
    if "pnr" in args.methods:
        methods["PNR"] = pnr_stepper(seed=args.seed)
    if "rsb" in args.methods:
        methods["RSB"] = rsb_stepper(seed=args.seed)
    series = TransientRunner(args.p, methods, n=args.n, steps=args.steps).run()
    print(format_series(series, "shared_vertices", every=max(1, args.steps // 20),
                        title=f"shared vertices per step (p={args.p})"))
    print()
    print(format_series(series, "moved", every=max(1, args.steps // 20),
                        title="elements moved per step"))
    for name, agg in summarize_series(series, "moved_frac").items():
        print(f"{name}: mean moved {agg['mean']:.1%}, max {agg['max']:.1%}")
    if args.svg:
        from repro.viz import save_svg, series_to_svg

        save_svg(args.svg, series_to_svg(series, "moved", title="elements moved"))
        print(f"wrote {args.svg}")
    return 0


def _cmd_bound(args) -> int:
    from repro.core import PNR
    from repro.core.bounds import (
        mesh_migration_bound,
        migration_lower_bound,
        routed_migration_cost,
    )
    from repro.mesh import AdaptiveMesh, coarse_dual_graph, processor_graph
    from repro.partition import graph_migration

    amesh = AdaptiveMesh.unit_square(args.n)
    amesh.uniform_refine(1)
    p = args.p
    pnr = PNR(seed=args.seed)
    current = pnr.initial_partition(amesh, p)
    fine = pnr.induced_fine(amesh, current)
    h = processor_graph(amesh.mesh, fine, p)
    n0 = amesh.n_leaves
    leaf_ids = amesh.leaf_ids()
    amesh.refine(leaf_ids[fine == 0])
    m = amesh.n_leaves - n0
    g = coarse_dual_graph(amesh.mesh)
    new = pnr.repartition(amesh, p, current)
    moved = graph_migration(g, current, new)
    print(f"overloaded processor 0 with m={m} new elements (p={p})")
    print(f"  lower bound  sum d_0j m/p : {migration_lower_bound(h, 0, m):8.1f}")
    print(f"  mesh model 2(sqrt p-1)(p-1)m/p: {mesh_migration_bound(p, m):8.1f}")
    print(f"  PNR elements moved        : {moved:8.0f}")
    print(f"  PNR routed (hops) cost    : {routed_migration_cost(h, current, new, g.vwts):8.1f}")
    return 0


def _cmd_pared(args) -> int:
    from repro.core import PNR
    from repro.experiments import format_table
    from repro.fem import (
        CornerLaplace2D,
        interpolation_error_indicator,
        mark_top_fraction,
    )
    from repro.mesh import AdaptiveMesh
    from repro.pared import ParedConfig, run_pared

    prob = CornerLaplace2D()

    def marker(amesh, rnd):
        ind = interpolation_error_indicator(amesh, prob.exact)
        return mark_top_fraction(amesh, ind, 0.15), []

    cfg = ParedConfig(
        p=args.p,
        make_mesh=lambda: AdaptiveMesh.unit_square(args.n),
        marker=marker,
        rounds=args.rounds,
        pnr=PNR(seed=args.seed),
        transport=args.transport,
        partitioner=args.partitioner,
        sfc_curve=args.sfc_curve,
    )
    histories, stats = run_pared(cfg)
    rows = [
        (r["round"], r["leaves"], r["cut"], r["shared_vertices"],
         r["elements_moved"], r["trees_moved"], f"{r['imbalance_before']:.3f}")
        for r in histories[0]
    ]
    backend = stats.backend  # resolved by spmd_run, recorded on the stats
    print(format_table(
        ["round", "leaves", "cut", "sharedV", "moved", "trees", "imb"],
        rows,
        title=f"PARED on {args.p} ranks "
              f"({backend} backend, {args.partitioner} partitioner)",
    ))
    for phase, (msgs, nbytes) in stats.phase_report().items():
        print(f"  {phase}: {msgs} messages, {nbytes} bytes")
    wire = stats.wire_report()
    if wire:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(wire.items()))
        print(f"  wire: {parts}")
    if args.phase_report:
        from repro.experiments import format_phase_table

        print()
        print(format_phase_table(stats.kernel_perf))
    return 0


def _cmd_solve(args) -> int:
    from repro.experiments import format_table
    from repro.fem import (
        CornerLaplace2D,
        fem_solution_error,
        interpolation_error_indicator,
        mark_top_fraction,
        solve_poisson,
    )
    from repro.mesh import AdaptiveMesh

    prob = CornerLaplace2D()
    amesh = AdaptiveMesh.unit_square(args.n)
    rows = []
    for level in range(args.levels + 1):
        u = solve_poisson(amesh, g=prob.dirichlet)
        err = fem_solution_error(amesh, u, prob.exact)
        rows.append((level, amesh.n_leaves, f"{err['linf']:.3e}", f"{err['l2_nodal']:.3e}"))
        if level < args.levels:
            ind = interpolation_error_indicator(amesh, prob.exact)
            amesh.refine(mark_top_fraction(amesh, ind, 0.2))
    print(format_table(["level", "elements", "Linf", "L2(nodal)"], rows,
                       title="Adaptive Laplace solve"))
    return 0


def _cmd_render(args) -> int:
    from repro.core import PNR
    from repro.fem import CornerLaplace2D, interpolation_error_indicator, mark_top_fraction
    from repro.mesh import AdaptiveMesh
    from repro.viz import partition_to_svg, save_svg

    prob = CornerLaplace2D()
    amesh = AdaptiveMesh.unit_square(args.n)
    for _ in range(args.levels):
        ind = interpolation_error_indicator(amesh, prob.exact)
        amesh.refine(mark_top_fraction(amesh, ind, 0.2))
    assignment = None
    if args.p > 1:
        pnr = PNR(seed=args.seed)
        assignment = pnr.induced_fine(amesh, pnr.initial_partition(amesh, args.p))
    save_svg(args.out, partition_to_svg(amesh, assignment))
    print(f"wrote {args.out} ({amesh.n_leaves} elements, p={args.p})")
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    text = generate_report(args.results, out_path=args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and inventory").set_defaults(fn=_cmd_info)

    q = sub.add_parser("quality", help="Figure 3 table")
    q.add_argument("--dim", type=int, default=2, choices=(2, 3))
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--levels", type=int, default=4)
    q.add_argument("--procs", type=int, nargs="+", default=[4, 8])
    q.add_argument("--seed", type=int, default=1)
    q.set_defaults(fn=_cmd_quality)

    r = sub.add_parser("repartition", help="Figure 4/5 table")
    r.add_argument("--method", choices=("rsb", "pnr"), default="pnr")
    r.add_argument("--dim", type=int, default=2, choices=(2, 3))
    r.add_argument("--n", type=int, default=None)
    r.add_argument("--sizes", type=int, default=3)
    r.add_argument("--procs", type=int, nargs="+", default=[4, 8])
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(fn=_cmd_repartition)

    t = sub.add_parser("transient", help="Figure 7/8 series")
    t.add_argument("--p", type=int, default=4)
    t.add_argument("--n", type=int, default=16)
    t.add_argument("--steps", type=int, default=20)
    t.add_argument("--methods", nargs="+", default=["rsb", "pnr"])
    t.add_argument("--seed", type=int, default=5)
    t.add_argument("--svg", default=None, help="also write a series SVG")
    t.set_defaults(fn=_cmd_transient)

    b = sub.add_parser("bound", help="Section 8 bound check")
    b.add_argument("--n", type=int, default=16)
    b.add_argument("--p", type=int, default=16)
    b.add_argument("--seed", type=int, default=3)
    b.set_defaults(fn=_cmd_bound)

    pa = sub.add_parser("pared", help="run the parallel PARED loop")
    pa.add_argument("--p", type=int, default=4)
    pa.add_argument("--n", type=int, default=12)
    pa.add_argument("--rounds", type=int, default=4)
    pa.add_argument("--seed", type=int, default=2)
    from repro.partition.registry import available_partitioners
    from repro.runtime.transport import BACKENDS

    pa.add_argument(
        "--transport", choices=BACKENDS, default=None,
        help="rank backend: threads (default), or shm (one OS process per "
             "rank exchanging frames through shared-memory rings; also "
             "via REPRO_TRANSPORT)",
    )

    pa.add_argument(
        "--partitioner", choices=available_partitioners(), default="pnr",
        help="repartitioning strategy, run identically on every rank: "
             "pnr (Equation-1 KL, default), mlkl (scratch Multilevel-KL), "
             "sfc (space-filling-curve splitting), or dkl (distributed "
             "boundary refinement over neighbor halos)",
    )
    pa.add_argument(
        "--sfc-curve", choices=("morton", "hilbert"), default="morton",
        help="curve of the sfc partitioner",
    )
    pa.add_argument(
        "--phase-report", action="store_true",
        help="also print the per-phase wall-clock table (P0-P3/audit plus "
             "the nested repartition spans) from the run's perf counters",
    )
    pa.set_defaults(fn=_cmd_pared)

    s = sub.add_parser("solve", help="adaptive FEM error ladder")
    s.add_argument("--n", type=int, default=16)
    s.add_argument("--levels", type=int, default=4)
    s.set_defaults(fn=_cmd_solve)

    rp = sub.add_parser("report", help="assemble the reproduction report")
    rp.add_argument("--results", default="results")
    rp.add_argument("--out", default=None)
    rp.set_defaults(fn=_cmd_report)

    rd = sub.add_parser("render", help="SVG of an adapted/partitioned mesh")
    rd.add_argument("--n", type=int, default=16)
    rd.add_argument("--levels", type=int, default=4)
    rd.add_argument("--p", type=int, default=8)
    rd.add_argument("--seed", type=int, default=0)
    rd.add_argument("--out", default="mesh.svg")
    rd.set_defaults(fn=_cmd_render)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
