"""Plain-text tables and series in the paper's layout, for benches and
examples (and for EXPERIMENTS.md)."""

from __future__ import annotations


def format_table(headers, rows, title: str = "") -> str:
    """Fixed-width table: ``headers`` is a list of column names, ``rows`` a
    list of tuples (numbers are rendered compactly)."""

    def cell(x):
        if isinstance(x, float):
            if x == int(x) and abs(x) < 1e12:
                return str(int(x))
            return f"{x:.3g}"
        return str(x)

    str_rows = [[cell(x) for x in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


#: the PARED round phases, in pipeline order
_ROUND_PHASES = ("pared.P0", "pared.P1", "pared.P2", "pared.P3", "pared.audit")

#: event counters credited with zero seconds (``PERF.add(name, 0.0,
#: calls=count)``): their ``calls`` column is the count
_KL_COUNTS = ("kl.moves", "kl.kept")


def format_phase_table(kernel_perf: dict, title: str = "PARED phase timing") -> str:
    """The per-phase wall-clock profile of a PARED run as aligned columns.

    ``kernel_perf`` is ``stats.kernel_perf`` from :func:`repro.pared.
    run_pared` — ``{span name: (calls, seconds)}`` aggregated over all
    ranks.  The top block is the round phases P0–P3 (+audit when enabled)
    with their share of the round total; below are the spans nested
    *inside* them — under P0 the marker, the LEPP walk, the request
    exchange (``pared.P0.*``) and the mesh kernel (``mesh.refine`` /
    ``mesh.coarsen``); under P1 ``mesh.dual_graph`` (the recount of ``G``'s
    weights); under P3 ``pared.repartition.serial`` (every rank's merge +
    repartition, summed over ranks), the two halves of its
    multilevel V-cycle (``multilevel.coarsen`` / ``multilevel.refine``;
    the initial partition at launch counts in too), the KL refinement
    inside it (``kl.*``) and the ``dkl.*`` tournament steps — whose shares
    read as fractions of the same total, so where P0 goes and the
    repartition share of wall time are visible at a glance.  Two
    rows are counts, not spans: ``kl.moves`` (KL moves tried) and
    ``kl.kept`` (moves not rolled back), whose share is of ``kl.moves``.
    """
    kernel_perf = kernel_perf or {}
    phases = [n for n in _ROUND_PHASES if n in kernel_perf]
    nested = [
        n
        for n in sorted(kernel_perf)
        if n == "pared.repartition.serial"
        or n.startswith(("dkl.", "kl.", "mesh.", "multilevel.", "pared.P0."))
    ]
    total = sum(kernel_perf[n][1] for n in phases)
    rows = []
    for name in phases + nested:
        calls, secs = kernel_perf[name]
        label = name if name in phases else "  " + name
        if name in _KL_COUNTS:
            moves = kernel_perf.get("kl.moves", (0, 0.0))[0]
            share = f"{calls / moves:.1%}" if name == "kl.kept" and moves else "-"
            rows.append((label, calls, "-", share, "-"))
            continue
        rows.append(
            (
                label,
                calls,
                f"{secs:.4f}",
                f"{secs / total:.1%}" if total else "-",
                f"{secs / calls * 1e3:.2f}" if calls else "-",
            )
        )
    return format_table(
        ["phase", "calls", "seconds", "share", "ms/call"], rows, title=title
    )


def format_series(series: dict, field: str, every: int = 1, title: str = "") -> str:
    """Render one per-step field of a :class:`TransientRunner` result as
    columns (step, then one column per method)."""
    names = list(series)
    steps = [rec["step"] for rec in series[names[0]]]
    rows = []
    for i, s in enumerate(steps):
        if i % every:
            continue
        rows.append((s, *(series[name][i][field] for name in names)))
    return format_table(["step", *names], rows, title=title)


def summarize_series(series: dict, field: str) -> dict:
    """Per-method mean/max/total of one field — the aggregates the paper
    quotes in prose ("average movement of 21% for 32 processors")."""
    out = {}
    for name, recs in series.items():
        vals = [rec[field] for rec in recs]
        out[name] = {
            "mean": sum(vals) / len(vals),
            "max": max(vals),
            "total": sum(vals),
        }
    return out
