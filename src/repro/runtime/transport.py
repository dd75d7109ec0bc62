"""The transport seam of the SimMPI runtime.

:class:`~repro.runtime.simmpi.SimComm` owns everything *semantic* about
message passing — tag matching, the stash, collectives, phase accounting,
the crash clock and membership — and delegates the raw wire to a
transport object with two operations:

``push_parts(dest, tag, parts, total)``
    Put one framed message on the wire (buffered; on shm a full ring
    blocks the sender while it drains its own side).  ``parts`` is the
    scatter-gather list of :func:`~repro.runtime.codec.encode_parts` and
    ``total`` its byte length; the transport gathers them once, wherever
    its frames live (a joined ``bytes`` on the queue wire, the ring
    records themselves on shm).
``pull(source, slice_s)``
    Return the next ``(tag, frame)`` from ``source`` — the frame is
    ``bytes`` the receiver owns, on every backend — or raise
    :class:`TransportEmpty` after waiting at most ``slice_s`` seconds.

Both raise :class:`SimMPIAborted` once the run is cancelled (a peer
failed), before they do anything else: an aborted send puts nothing on
the wire, and an aborted receive hands nothing up.

The seam is deliberately small: every collective — the pairwise
recursive-doubling/ring ``allgather``, the nonblocking ``iallgather``,
and ``barrier``, an allgather of ``None`` tokens — is built entirely
from these two operations.  ``push_parts`` being buffered — a full shm
ring holds its sender only until the receiver next drains, never until a
matching receive — is what makes ``iallgather`` legal: a rank posts all its
first-step frames immediately and returns a ``Request``; the deferred
``wait()`` only ever *pulls*, so no new wire primitive (and no
per-backend code) was needed for overlap.

Two backends implement the seam (:data:`BACKENDS`):

* :class:`ThreadTransport` — the in-process wire: one ``queue.Queue`` per
  ordered rank pair and the shared abort event.  This is the default and
  the only backend that supports fault injection and crash recovery.
* :class:`~repro.runtime.shm.ShmTransport` — the forked backend: one OS
  process per rank (pooled, or a one-shot fork for unpicklable jobs),
  frames through one shared-memory ring per ordered rank pair.  See
  :mod:`repro.runtime.shm`.

Fault injection is a *decorator* over the same two operations
(:class:`~repro.runtime.faults.FaultyTransport`, wrapped around a rank's
transport by ``spmd_run`` iff a plan is present): it never looks behind
the seam, and ``SimComm`` never looks at it.

This module holds the seam's vocabulary: the exceptions, backend
selection (:func:`resolve_backend`), the socket framing of the forked
backend's control channel (:data:`HEADER`, :func:`pack_frame`,
:class:`FrameAssembler`) and the error precedence of a finished run on
either backend (:func:`finish_spmd_run`).

Backend selection: ``spmd_run(..., transport="thread"|"shm")``, or the
``REPRO_TRANSPORT`` environment variable when the argument is omitted
(see :func:`resolve_backend`).  Fault plans and ``recover=True`` force
the thread backend; asking for the shm backend *explicitly* with either
active is an error.
"""

from __future__ import annotations

import queue
import struct
import warnings

from repro.runtime.envflags import env_choice

__all__ = [
    "BACKENDS",
    "HEADER",
    "FrameAssembler",
    "SimMPIAborted",
    "SimMPITimeout",
    "SimRankCrashed",
    "SimRankDied",
    "ThreadTransport",
    "TransportEmpty",
    "finish_spmd_run",
    "pack_frame",
    "resolve_backend",
]

#: every settable transport name — ``resolve_backend``, ``REPRO_TRANSPORT``,
#: the CLI's ``--transport`` choices and the conformance suite all read this
BACKENDS = ("thread", "shm")

#: socket frame header of the forked backend: tag (int64) + payload
#: length (uint64)
HEADER = struct.Struct("<qQ")


class SimMPIAborted(RuntimeError):
    """Another rank failed; this rank's pending communication is void."""


class SimRankDied(SimMPIAborted):
    """A rank's worker process terminated mid-run (forked backend)."""


class SimRankCrashed(RuntimeError):
    """A rank was killed by the fault plan (crash-at-op)."""


class SimMPITimeout(TimeoutError):
    """``recv(timeout=...)`` expired with no matching message.

    Raised with the same message shape on every backend::

        rank <r> timed out receiving from <source> tag <tag>
    """


class TransportEmpty(Exception):
    """No message arrived within the pull slice (internal signal)."""


#: one-shot latch of the quiet shm→thread fallback warning: CI logs
#: need the notice once, not once per spmd_run of a fault suite
_FALLBACK_WARNED = False


def resolve_backend(explicit=None, faults=None, recover: bool = False) -> str:
    """Resolve the transport backend name for one ``spmd_run``.

    ``explicit`` (the ``transport=`` argument) wins; otherwise the
    ``REPRO_TRANSPORT`` environment variable; otherwise ``"thread"``.
    Either must name one of :data:`BACKENDS`; anything else raises
    ``ValueError``.
    Fault injection and crash recovery are thread-backend features: with
    either active an *environment* preference for ``"shm"`` falls back
    to ``"thread"`` (so fault suites run unchanged under
    ``REPRO_TRANSPORT=shm``) with a one-shot ``RuntimeWarning`` — a CI
    matrix leg must be able to see in its log that a run it believed was
    exercising the forked backend was not.  An *explicit* ``transport=
    "shm"`` raises — the caller asked for an unsupported combination.

    The backend actually used is also recorded on the run's
    ``TrafficStats`` as ``stats.backend``, so tests can assert it rather
    than trust the configuration.
    """
    global _FALLBACK_WARNED
    name = explicit or env_choice("REPRO_TRANSPORT", BACKENDS, default="thread")
    if name not in BACKENDS:
        raise ValueError(
            f"unknown transport {name!r} (expected one of {BACKENDS})"
        )
    if name != "thread" and (faults is not None or recover):
        if explicit is not None:
            raise ValueError(
                "fault injection and crash recovery run on the thread "
                f"backend only; drop transport={name!r} or the "
                "faults/recover options"
            )
        if not _FALLBACK_WARNED:
            _FALLBACK_WARNED = True
            reason = "fault injection" if faults is not None else "crash recovery"
            warnings.warn(
                f"REPRO_TRANSPORT={name} ignored: {reason} requires the "
                "thread backend; this run (and any later ones this "
                "process) falls back to transport='thread'",
                RuntimeWarning,
                stacklevel=2,
            )
        return "thread"
    return name


def pack_frame(tag: int, payload: bytes) -> bytes:
    """One wire message: 16-byte header + codec frame, as raw bytes."""
    return HEADER.pack(tag, len(payload)) + payload


class FrameAssembler:
    """Incremental decoder of the length-prefixed message stream.

    Feed it byte chunks exactly as they come off a socket — split at any
    boundary, including mid-header — and it yields complete ``(tag,
    payload)`` messages in order.  The payload bytes are returned exactly
    as sent (the codec frame, or a legacy plain-pickle frame), so
    reassembly is bit-transparent to :func:`repro.runtime.codec.decode`.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list:
        """Absorb ``chunk``; return the list of messages it completed."""
        self._buf += chunk
        out = []
        while True:
            if len(self._buf) < HEADER.size:
                return out
            tag, length = HEADER.unpack_from(self._buf, 0)
            end = HEADER.size + length
            if len(self._buf) < end:
                return out
            out.append((tag, bytes(self._buf[HEADER.size : end])))
            del self._buf[:end]

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting the rest of their message."""
        return len(self._buf)


class ThreadTransport:
    """The in-process wire, behind the transport seam."""

    __slots__ = ("_shared", "_rank")

    def __init__(self, shared, rank: int):
        self._shared = shared
        self._rank = rank

    def push_parts(self, dest: int, tag: int, parts, total: int) -> None:
        if self._shared.abort.is_set():
            raise SimMPIAborted("run aborted")
        # the joined frame crosses by reference — nothing is memcpy'd on
        # this channel
        self._shared.stats.record_wire("queue", total)
        self._shared.queues[(self._rank, dest)].put((tag, b"".join(parts)))

    def pull(self, source: int, slice_s: float):
        if self._shared.abort.is_set():
            raise SimMPIAborted("run aborted")
        try:
            return self._shared.queues[(source, self._rank)].get(
                timeout=slice_s
            )
        except queue.Empty:
            raise TransportEmpty() from None


def finish_spmd_run(results, errors, deaths, stats, return_stats):
    """Apply a finished run's error precedence and return shape (both
    backends).

    ``deaths`` are rank deaths that end the run — a forked rank's process
    dying, or every rank of a ``recover=True`` run — and surface first,
    typed and clean; survivors' SimRankDied views of the same death are
    its consequences.  Otherwise the lowest-rank *primary* error wins:
    SimMPIAborted on peers is a consequence of the abort, not a cause.  A
    plan-injected crash is an expected diagnostic, not a wrapped failure,
    and is re-raised as itself.
    """
    if deaths:
        raise deaths[0]
    primary = [
        (r, e)
        for r, e in enumerate(errors)
        if e is not None and not isinstance(e, SimMPIAborted)
    ]
    if primary:
        rank, exc = primary[0]
        if isinstance(exc, SimRankCrashed):
            raise exc
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    if return_stats:
        return results, stats
    return results
