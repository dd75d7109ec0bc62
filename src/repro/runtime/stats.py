"""Traffic and phase accounting for the simulated runtime.

Every message through a :class:`~repro.runtime.simmpi.SimComm` records its
(source, destination, bytes, phase).  Phases are the paper's P0–P3 labels
(or anything the driver sets); the PARED benches report per-phase message
and byte totals from these counters.
"""

from __future__ import annotations

import threading
from collections import defaultdict


class TrafficStats:
    """Thread-safe message/byte counters, grouped by phase."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.messages = defaultdict(int)  # phase -> count
        self.bytes = defaultdict(int)  # phase -> payload bytes
        self.by_pair = defaultdict(int)  # (src, dst) -> count
        #: set by spmd_run when a FaultPlan is active (a
        #: :class:`~repro.runtime.faults.FaultLog`), else None
        self.fault_log = None
        #: set by run_pared: the repro.perf snapshot of the run —
        #: ``{span name: (calls, seconds)}``, all ranks aggregated
        self.kernel_perf = None
        #: set by spmd_run: the transport backend the run actually used
        #: (``"thread"``/``"shm"``) — assert this, not the config, when a
        #: test must know which wire it exercised
        self.backend = None
        # wire-level channel counters, orthogonal to the logical ledger
        # above: which physical channel each frame actually travelled
        # (``queue_*`` on thread, ``ring_*`` on shm) plus, on shm,
        # ``copied_bytes`` — payload bytes copied across the process
        # boundary (every ring frame, in full)
        self.wire = defaultdict(int)

    def record(self, src: int, dst: int, nbytes: int, phase: str) -> None:
        with self._lock:
            self.messages[phase] += 1
            self.bytes[phase] += nbytes
            self.by_pair[(src, dst)] += 1

    def record_wire(self, channel: str, nbytes: int) -> None:
        """Count one frame of ``nbytes`` on a physical channel."""
        with self._lock:
            self.wire[channel + "_frames"] += 1
            self.wire[channel + "_bytes"] += nbytes

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def as_dict(self) -> dict:
        """Plain-container snapshot of the counters, suitable for shipping
        across a process boundary (the forked backend sends each worker's
        ledger to the parent this way)."""
        with self._lock:
            return {
                "messages": dict(self.messages),
                "bytes": dict(self.bytes),
                "by_pair": [
                    [src, dst, n] for (src, dst), n in self.by_pair.items()
                ],
                "wire": dict(self.wire),
            }

    def merge_dict(self, snap: dict) -> None:
        """Fold one :meth:`as_dict` snapshot into these counters.  Merging
        the per-process ledgers preserves the exactly-once rule: each
        logical message was recorded once, on its sending rank."""
        with self._lock:
            for phase, n in snap["messages"].items():
                self.messages[phase] += n
            for phase, n in snap["bytes"].items():
                self.bytes[phase] += n
            for src, dst, n in snap["by_pair"]:
                self.by_pair[(src, dst)] += n
            for channel, n in snap.get("wire", {}).items():
                self.wire[channel] += n

    def phase_report(self) -> dict:
        """``{phase: (messages, bytes)}`` snapshot."""
        with self._lock:
            return {
                ph: (self.messages[ph], self.bytes[ph])
                for ph in sorted(set(self.messages) | set(self.bytes))
            }

    def wire_report(self) -> dict:
        """Plain-dict snapshot of the physical-channel counters."""
        with self._lock:
            return dict(self.wire)

