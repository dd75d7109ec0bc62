"""Per-phase wall-clock accounting for the multilevel kernels.

The runtime already counts *traffic* per phase
(:class:`repro.runtime.stats.TrafficStats`); this module is the matching
*time* side: a process-wide registry of named spans that the hot kernels
(KL passes, matching, contraction, hierarchy build) report into, so
``run_pared`` — and anything else — can say where its rounds spend time
instead of guessing.  The project rule is "no optimization without
measuring"; this is the measuring.

Usage::

    from repro.perf import PERF

    with PERF.span("kl.pass"):
        ...

    print(PERF.snapshot())

Spans nest; times are *inclusive* (a ``multilevel.refine`` span contains
its ``kl.pass`` children), so the snapshot is read per-name, not summed
across names.  Counters are thread-safe — the SimMPI ranks are threads, so
PARED runs aggregate over all ranks.  Overhead is two ``perf_counter``
calls plus a lock acquire per span, which is why spans wrap *phases*
(a KL pass, a matching, a contraction level), never per-element work.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

__all__ = ["PerfRegistry", "PERF"]


class PerfRegistry:
    """Thread-safe named wall-clock accumulators (seconds + call counts)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)

    def add(self, name: str, elapsed: float, calls: int = 1) -> None:
        """Credit ``elapsed`` seconds over ``calls`` calls to ``name`` (the
        compiled kernels report their own pass count and time this way)."""
        with self._lock:
            self.seconds[name] += elapsed
            self.calls[name] += calls

    def span(self, name: str):
        """Context manager timing one phase under ``name``."""
        return _Span(self, name)

    def snapshot(self) -> dict:
        """``{name: (calls, seconds)}``, sorted by descending time."""
        with self._lock:
            items = [
                (name, (self.calls[name], self.seconds[name]))
                for name in self.seconds
            ]
        items.sort(key=lambda kv: -kv[1][1])
        return dict(items)

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` from another registry into this one —
        the forked backend ships each rank's spans to the parent so
        multi-process runs aggregate exactly like threaded ones."""
        with self._lock:
            for name, (calls, secs) in snap.items():
                self.calls[name] += calls
                self.seconds[name] += secs

    def reset(self) -> None:
        with self._lock:
            self.seconds.clear()
            self.calls.clear()


class _Span:
    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: PerfRegistry, name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._registry.add(self._name, time.perf_counter() - self._t0)
        return False


#: the process-wide registry the library kernels report into
PERF = PerfRegistry()
