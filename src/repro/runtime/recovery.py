"""Crash recovery primitives: membership events, round checkpoints, and the
survivor-side rendezvous protocol.

PARED's replicated coarse structure makes rank failure survivable almost for
free: every rank already holds the full mesh and the ownership map, so the
only state that must be rolled back after a death is the mesh, the owner
map, the history and the round counter.  :class:`CheckpointStore` keeps a
deep copy of exactly that at every round barrier.  The weight protocol's
round state is not checkpointed: survivors start a fresh one, whose first
P2 carries full reports.

The runtime half lives in :mod:`repro.runtime.simmpi`: with
``spmd_run(..., recover=True)`` a rank dying of
:class:`~repro.runtime.faults.SimRankCrashed` or
:class:`~repro.runtime.faults.FaultToleranceExhausted` is converted into a
:class:`MembershipChange` on the shared membership ledger instead of
aborting the run, and every surviving rank's next receive raises
:class:`PeerCrashed`.  Survivors then run the protocol in this module:

1. **acknowledge** the membership epoch (``comm.acknowledge_membership``);
2. **flush** every live channel with :func:`flush_channels` — an epoch-
   stamped marker exchange that doubles as the recovery rendezvous barrier
   and discards in-flight messages of the interrupted round;
3. **agree** on the replay round with :func:`agree_replay_round` — the
   minimum checkpointed round across survivors, which every survivor
   computes from the others' reports (round skew between ranks is at most
   one, so a two-deep checkpoint store always has it);
4. **restore** that checkpoint, re-assign the dead rank's coarse roots to
   survivors (every survivor plans the same map), and replay from the
   following round with ``p - 1`` ranks.

Everything here is deterministic given the fault plan's seed, so a
recovered run is replayable bit-for-bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.runtime.faults import recv_with_retry

#: dedicated tags of the recovery protocol (PARED uses 10..50 and 90/91)
FLUSH_TAG = 70
AGREE_TAG = 71

#: sentinel "round" reported by a rank that has no checkpoint yet; strictly
#: smaller than the setup checkpoint's round (-1), so an agreement that
#: includes it forces a full re-setup on every survivor
NO_CHECKPOINT = -2


@dataclass(frozen=True)
class MembershipChange:
    """One rank leaving the computation, as recorded on the shared ledger.

    ``epoch`` increases by one per death; survivors compare it against the
    epoch they last acknowledged to detect unprocessed changes.  ``cause``
    is ``"crash"`` (injected :class:`SimRankCrashed`) or ``"timeout"``
    (:class:`FaultToleranceExhausted` — the rank's retry budget ran out).
    ``op`` is the dead rank's communication-op count at death when known.
    """

    rank: int
    epoch: int
    cause: str
    op: int = -1


class PeerCrashed(RuntimeError):
    """Group membership changed under a surviving rank.

    Raised from blocked communication calls when the shared epoch is ahead
    of the rank's acknowledged epoch.  Carries the unacknowledged
    :class:`MembershipChange` events so the handler knows who died without
    another lookup.
    """

    def __init__(self, events):
        self.events = list(events)
        dead = sorted(e.rank for e in self.events)
        super().__init__(
            f"group membership changed: rank(s) {dead} left the computation"
        )


@dataclass
class RoundCheckpoint:
    """A rank's recoverable state at one round barrier.

    ``round`` is the last completed round (``-1`` = setup finished, round 0
    not yet run).  The adaptation inputs need no checkpointing: markers are
    pure functions of ``(mesh, round)`` and the repartitioner is seeded, so
    replaying from here is deterministic.
    """

    round: int
    amesh: object
    owner: np.ndarray
    history: list


class CheckpointStore:
    """Keeps the last ``keep`` round checkpoints, deep-copied both ways.

    Two checkpoints suffice for PARED: ranks proceed in lockstep rounds and
    blocking P2/P3 communication bounds the round skew between any two live
    ranks by one, so the agreed replay round (the minimum across survivors)
    is always within ``keep=2`` of every rank's latest.
    """

    def __init__(self, keep: int = 2):
        self.keep = keep
        self._ckpts: dict = {}

    def save(self, ckpt: RoundCheckpoint) -> None:
        self._ckpts[ckpt.round] = copy.deepcopy(ckpt)
        while len(self._ckpts) > self.keep:
            del self._ckpts[min(self._ckpts)]

    def latest_round(self) -> int:
        return max(self._ckpts) if self._ckpts else NO_CHECKPOINT

    def restore(self, rnd: int) -> RoundCheckpoint:
        if rnd not in self._ckpts:
            raise KeyError(
                f"no checkpoint for round {rnd} (have {sorted(self._ckpts)})"
            )
        return copy.deepcopy(self._ckpts[rnd])

    def discard_after(self, rnd: int) -> None:
        """Drop checkpoints newer than ``rnd`` — they describe rounds the
        replay is about to redo, and must not win a later agreement."""
        for r in [r for r in self._ckpts if r > rnd]:
            del self._ckpts[r]

    def clear(self) -> None:
        self._ckpts.clear()

    def __len__(self) -> int:
        return len(self._ckpts)


# --------------------------------------------------------------------- #
# owner-map compaction: repartitioners require labels in range(p)
# --------------------------------------------------------------------- #


def compact_owner(owner: np.ndarray, live) -> np.ndarray:
    """Relabel an owner map over the sorted ``live`` ranks into the dense
    range ``0..len(live)-1`` (what the partition kernels require)."""
    live_arr = np.asarray(sorted(int(r) for r in live), dtype=np.int64)
    owner = np.asarray(owner, dtype=np.int64)
    pos = np.searchsorted(live_arr, owner)
    hit = pos < live_arr.size
    hit[hit] = live_arr[pos[hit]] == owner[hit]
    if not hit.all():
        a = int(np.argmin(hit))
        raise ValueError(f"root {a} owned by non-live rank {int(owner[a])}")
    return pos


def expand_owner(compact: np.ndarray, live) -> np.ndarray:
    """Inverse of :func:`compact_owner`: dense labels back to live ranks."""
    live_arr = np.asarray(sorted(int(r) for r in live), dtype=np.int64)
    return live_arr[np.asarray(compact, dtype=np.int64)]


# --------------------------------------------------------------------- #
# survivor-side protocol
# --------------------------------------------------------------------- #


def flush_channels(comm, live, epoch: int, seen: dict = None) -> dict:
    """Drain every live channel up to an epoch-stamped flush marker.

    Each survivor sends ``("flush", epoch)`` to every live peer, then
    receives markers until it has seen one stamped with at least its own
    acknowledged epoch from each peer.  Receiving in-order up to the marker
    pulls every pre-crash in-flight message into the tag stash, which is
    then discarded — the replay must not consume messages of the round it
    is about to redo.  Because a peer only sends its marker once it has
    itself entered recovery, the exchange doubles as a rendezvous barrier:
    no survivor proceeds to the agreement step before all have stopped
    making progress on the interrupted round.

    ``seen`` carries marker epochs already consumed across nested recovery
    attempts (a second death during recovery restarts the protocol; markers
    already received must not be waited for again).  Returns it updated.
    """
    if seen is None:
        seen = {}
    for peer in live:
        if peer != comm.rank:
            comm.send(("flush", epoch), peer, tag=FLUSH_TAG)
    for peer in live:
        if peer == comm.rank:
            continue
        while seen.get(peer, NO_CHECKPOINT) < epoch:
            marker, marker_epoch = recv_with_retry(comm, peer, tag=FLUSH_TAG)
            if marker != "flush":
                raise RuntimeError(
                    f"rank {comm.rank} expected a flush marker from {peer}, "
                    f"got {marker!r}"
                )
            seen[peer] = max(seen.get(peer, NO_CHECKPOINT), int(marker_epoch))
        comm.clear_stash(peer)
    # messages from the dead rank(s) can never be consumed again
    for peer in comm.dead_ranks():
        comm.clear_stash(peer)
    return seen


def agree_replay_round(comm, live, my_latest: int) -> int:
    """Survivors agree on the round to restore: the minimum of their latest
    checkpoint rounds.  Every survivor sends its own to every other and
    takes the minimum of all, so each decides the same with no root.
    :data:`NO_CHECKPOINT` means some survivor never finished setup, so all
    of them re-run it from scratch."""
    for dst in live:
        if dst != comm.rank:
            comm.send(my_latest, dst, tag=AGREE_TAG)
    return min(
        my_latest if src == comm.rank else recv_with_retry(comm, src, tag=AGREE_TAG)
        for src in live
    )
