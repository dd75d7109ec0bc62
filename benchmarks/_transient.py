"""Per-process memo of the Section 10 transient experiment, so the Figure 7
(quality) and Figure 8 (migration) benches share one run per processor
count.  Three methods replay the same adaptation sequence: fresh RSB every
step (raw labels), RSB followed by the Biswas–Oliker subset permutation
against the current distribution, and PNR with α = 0.1, β = 0.8."""

from __future__ import annotations

from repro.experiments import (
    TransientRunner,
    pnr_stepper,
    rsb_perm_stepper,
    rsb_stepper,
)

METHODS = {
    "RSB": rsb_stepper(seed=11),
    "RSB-perm": rsb_perm_stepper(seed=11),
    "PNR": pnr_stepper(seed=5),
}

_CACHE: dict = {}


def transient_series(p: int, **kw) -> dict:
    key = (p, tuple(sorted(kw.items())))
    if key not in _CACHE:
        _CACHE[key] = TransientRunner(p, METHODS, **kw).run()
    return _CACHE[key]
