"""Per-process memo of the 2-D Figure 4 / Figure 5 protocol
(:func:`repro.experiments.run_repartition_protocol`), so the PNR bench can
compare against the RSB rows without recomputing them."""

from __future__ import annotations

from repro.experiments import pnr_stepper, rsb_stepper, run_repartition_protocol

# Figure 4's RSB has always drawn its first partition at seed 1
METHODS = {"rsb": rsb_stepper(seed=1), "pnr": pnr_stepper(seed=0)}

_CACHE: dict = {}


def cached_protocol(name: str, plist):
    key = (name, tuple(plist))
    if key not in _CACHE:
        _CACHE[key] = run_repartition_protocol(METHODS[name], plist)
    return _CACHE[key]
