"""Simulated distributed-memory runtime.

mpi4py is the natural backend for PARED's communication, but the algorithms
under study are defined by their *communication structure* — who sends what
to whom in phases P0–P3 — not by the wall-clock of a particular
interconnect.  :class:`~repro.runtime.simmpi.SimComm` provides an
mpi4py-flavoured API (``send``/``recv``/``allgather``/``allreduce``/
``barrier``) over in-process threads and
queues or forked rank processes over shared-memory rings, with full
per-phase traffic accounting
(:class:`~repro.runtime.stats.TrafficStats`), so every experiment reports
exact message and byte counts deterministically.
"""

from repro.runtime.codec import decode, encode
from repro.runtime.faults import (
    FaultLog,
    FaultPlan,
    FaultToleranceExhausted,
    SimRankCrashed,
)
from repro.runtime.recovery import (
    CheckpointStore,
    MembershipChange,
    PeerCrashed,
    RoundCheckpoint,
    compact_owner,
    expand_owner,
)
from repro.runtime.simmpi import SimComm, spmd_run
from repro.runtime.stats import TrafficStats
from repro.runtime.transport import (
    FrameAssembler,
    SimMPIAborted,
    SimMPITimeout,
    SimRankDied,
    pack_frame,
    resolve_backend,
)

__all__ = [
    "encode",
    "decode",
    "SimComm",
    "spmd_run",
    "SimMPIAborted",
    "SimMPITimeout",
    "SimRankDied",
    "FrameAssembler",
    "pack_frame",
    "resolve_backend",
    "FaultPlan",
    "FaultLog",
    "FaultToleranceExhausted",
    "SimRankCrashed",
    "PeerCrashed",
    "MembershipChange",
    "RoundCheckpoint",
    "CheckpointStore",
    "compact_owner",
    "expand_owner",
    "TrafficStats",
]
