"""Grow-in-place numpy storage used by the mesh database.

Adaptive refinement appends elements and vertices continuously; reallocating
a fresh numpy array per append would be quadratic.  These small wrappers keep
a capacity-doubling backing array and expose a zero-copy view of the live
prefix, following the "be easy on the memory: use views, not copies" rule.

The backing arrays are also what the compiled mesh kernel
(:mod:`repro.mesh._meshnative`) writes in place: its wrapper reserves room
(:meth:`~GrowableVector.reserve`), the kernel appends past the live
prefix, and :meth:`~GrowableVector.commit` publishes the new length.
:class:`IntMap` is the midpoint memo in the same form — a hash map the
kernel probes and inserts into directly.
"""

from __future__ import annotations

import numpy as np


class GrowableVector:
    """An array that grows along its first axis: amortized O(1) appends,
    ``data`` a *view* of the live prefix (invalidated by the next append
    that grows)."""

    __slots__ = ("_buf", "_n", "address")

    def __init__(self, dtype, capacity: int = 16, row_shape: tuple = ()):
        self._buf, self._n = np.empty((0, *row_shape), dtype=dtype), 0
        self._allocate(max(capacity, 1))

    def _allocate(self, capacity: int) -> None:
        """The one place the backing array is replaced: a new one of
        ``capacity`` rows takes over the live rows, and its address is
        recorded in :attr:`address`, where the compiled kernels read it."""
        buf = np.empty((capacity, *self._buf.shape[1:]), dtype=self._buf.dtype)
        buf[: self._n] = self._buf[: self._n]
        self._buf, self.address = buf, buf.ctypes.data

    def __getstate__(self):
        return self.data, self.capacity

    def __setstate__(self, state) -> None:  # a copy allocates its own
        self._buf, capacity = state
        self._n = self._buf.shape[0]
        self._allocate(capacity)

    def __len__(self) -> int:
        return self._n

    @property
    def data(self) -> np.ndarray:
        return self._buf[: self._n]

    @property
    def buffer(self) -> np.ndarray:
        """The whole backing array, capacity rows long."""
        return self._buf

    @property
    def capacity(self) -> int:
        """Rows the backing array holds."""
        return self._buf.shape[0]

    def reserve(self, extra: int) -> None:
        """Make room for ``extra`` more rows (capacity doubles)."""
        need = self._n + extra
        cap = self.capacity
        if need > cap:
            while cap < need:
                cap *= 2
            self._allocate(cap)

    def commit(self, n: int) -> None:
        """Set the live length to ``n`` after rows were written in place
        into :attr:`buffer`."""
        assert self._n <= n <= self._buf.shape[0]
        self._n = n

    def extend(self, rows) -> int:
        """Append multiple rows; returns the index of the first one."""
        rows = np.asarray(rows)
        k = rows.shape[0]
        self.reserve(k)
        self._buf[self._n : self._n + k] = rows
        first = self._n
        self._n += k
        return first

    def __getitem__(self, idx):
        return self.data[idx]


class GrowableMatrix(GrowableVector):
    """A growable 2-D array of fixed column count (rows appended)."""

    __slots__ = ()

    def __init__(self, cols: int, dtype, capacity: int = 16):
        super().__init__(dtype, capacity, (int(cols),))

    def extend(self, rows) -> int:
        rows = np.asarray(rows)
        return super().extend(rows.reshape(1, -1) if rows.ndim == 1 else rows)


_GOLD = 0x9E3779B97F4A7C15  # Fibonacci hashing: 2**64 / golden ratio


class IntMap:
    """Non-negative int64 keys to int64 values, in numpy arrays a compiled
    kernel can probe and extend in place.

    Open addressing with linear probing over a power-of-two ``slot`` table
    (at most half full) of positions into two insertion-ordered vectors,
    :attr:`keys_array` and :attr:`values_array`; a key hashes to the top
    bits of ``key * 0x9E3779B97F4A7C15 mod 2**64``.  The compiled kernel
    (``mesh/_meshcore.c``) uses the same hash and probe, so either side
    finds what the other inserted.  Entries are never removed.
    """

    __slots__ = ("_slot", "_shift", "_keys", "_vals", "slot_address")

    def __init__(self, capacity: int = 16):
        self._keys = GrowableVector(np.int64, capacity)
        self._vals = GrowableVector(np.int64, capacity)
        self._resize(max(16, 2 * capacity))

    def _resize(self, size: int) -> None:
        """Rehash into a new slot table of at least ``size`` slots."""
        bits = (size - 1).bit_length()
        self._slot = np.full(1 << bits, -1, dtype=np.int64)
        self.slot_address = self._slot.ctypes.data
        self._shift = 64 - bits
        self._place(np.arange(len(self._keys), dtype=np.int64))

    def __getstate__(self):
        return self._keys, self._vals, self._slot.shape[0]

    def __setstate__(self, state) -> None:
        self._keys, self._vals, size = state
        self._resize(size)

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        h = keys.astype(np.uint64) * np.uint64(_GOLD)
        return (h >> np.uint64(self._shift)).astype(np.int64)

    def _place(self, pos: np.ndarray) -> None:
        """Enter distinct absent keys, by position, into the slot table:
        every key claims the first free slot on its probe path (where
        several claim one, one wins and the rest probe on)."""
        slot = self._slot
        mask = slot.shape[0] - 1
        h = self._hash(self._keys.data[pos])
        while pos.size:
            free = slot[h] < 0
            slot[h[free]] = pos[free]
            lost = slot[h] != pos
            pos, h = pos[lost], (h[lost] + 1) & mask

    def reserve(self, extra: int) -> None:
        """Make room for ``extra`` more entries without a rehash."""
        self._keys.reserve(extra)
        self._vals.reserve(extra)
        need = 2 * (len(self._keys) + extra)
        if need > self._slot.shape[0]:
            self._resize(need)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Value of every key in the int64 array ``keys``, ``-1`` where absent."""
        out = np.full(keys.shape[0], -1, dtype=np.int64)
        slot, stored = self._slot, self._keys.buffer
        mask = slot.shape[0] - 1
        pos = np.arange(keys.shape[0])
        h = self._hash(keys)
        while pos.size:
            i = slot[h]
            hit = (i >= 0) & (stored[i] == keys[pos])
            out[pos[hit]] = self._vals.buffer[i[hit]]
            go = (i >= 0) & ~hit
            pos, h = pos[go], (h[go] + 1) & mask
        return out

    def add_new(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert distinct keys none of which is present yet."""
        self.reserve(keys.shape[0])
        first = self._keys.extend(keys)
        self._vals.extend(values)
        self._place(np.arange(first, first + keys.shape[0], dtype=np.int64))

    @property
    def keys_array(self) -> np.ndarray:
        """Every key, in insertion order."""
        return self._keys.data

    @property
    def values_array(self) -> np.ndarray:
        """Every value, aligned with :attr:`keys_array`."""
        return self._vals.data

    def commit(self, n: int) -> None:
        """Publish entries ``len(self)..n-1`` that a kernel appended to the
        vectors and entered into the slot table itself."""
        self._keys.commit(n)
        self._vals.commit(n)

    def __len__(self) -> int:
        return len(self._keys)
