"""Typed, array-native message codec for the simulated wire.

Every message through :class:`~repro.runtime.simmpi.SimComm` used to be a
full ``pickle.dumps``/``loads`` round-trip.  PARED's messages, though, are
overwhelmingly numpy arrays and small containers of them (owner maps,
refine-target lists, packed weight reports, migration frames), and pickling
those costs an object-graph walk per message.  This codec encodes them as a
small tag header plus raw buffers instead:

frame format (all integers little-endian)::

    frame     := MAGIC(1) node
    node      := TAG(1) body
    NONE/TRUE/FALSE          -> no body
    INT                      -> int64(8)
    FLOAT                    -> float64(8)
    STR / BYTES              -> len(u32) raw
    LIST / TUPLE             -> count(u32) node*
    DICT                     -> count(u32) (key-node value-node)*
    ARRAY                    -> dtype-str-len(u8) dtype-str ndim(u8)
                                shape(int64*ndim) raw(tobytes, C-order)
    INTLIST                  -> count(u32) int64*count   (list of py ints)
    PICKLE                   -> len(u32) pickle-bytes    (fallback leaf)

The fallback keeps the wire total: any node the typed encoder does not
recognise (object-dtype arrays, dataclasses, exceptions, int subclasses...)
becomes a PICKLE leaf, so ``decode(encode(x)) == x`` for every picklable
``x``.  A frame that does not start with :data:`MAGIC` is rejected: only
:func:`encode` produces frames, and a whole-message pickle from anywhere
else is never unpickled.

Sizes reported to :class:`~repro.runtime.stats.TrafficStats` are simply
``len(frame)``: the accounting rule is unchanged ("bytes put on the wire
for this logical message"), only the wire format is new.  Decoded arrays
own their memory (they are copied out of the frame) on every transport,
so receivers may mutate and keep them freely.

:func:`encode_parts` returns the frame as a *scatter-gather list* of
buffers instead of one joined ``bytes`` — array payloads stay memoryviews
of the live array, so a transport that can write segments directly into
its destination (the shm ring) skips the join copy entirely.
``b"".join(encode_parts(obj)) == encode(obj)`` always, so the ledger rule
(record ``sum(part sizes)``) accounts identically on every backend.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np

__all__ = [
    "encode",
    "encode_parts",
    "decode",
    "parts_nbytes",
    "MAGIC",
]

#: first byte of every typed frame; not b'\x80' (pickle's PROTO opcode) and
#: not printable ASCII, so a stray whole-message pickle is never misdetected
#: as a frame — it is rejected
MAGIC = 0x93

_NONE = 0x00
_TRUE = 0x01
_FALSE = 0x02
_INT = 0x03
_FLOAT = 0x04
_STR = 0x05
_BYTES = 0x06
_LIST = 0x07
_TUPLE = 0x08
_DICT = 0x09
_ARRAY = 0x0A
_INTLIST = 0x0B
_PICKLE = 0x0C

_u32 = struct.Struct("<I")
_i64 = struct.Struct("<q")
_f64 = struct.Struct("<d")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _encode_node(obj, out: list) -> None:
    t = type(obj)
    if obj is None:
        out.append(b"\x00")
    elif t is bool:
        out.append(b"\x01" if obj else b"\x02")
    elif t is int:
        if _INT64_MIN <= obj <= _INT64_MAX:
            out.append(b"\x03" + _i64.pack(obj))
        else:
            _encode_pickle(obj, out)
    elif t is float:
        out.append(b"\x04" + _f64.pack(obj))
    elif t is str:
        raw = obj.encode("utf-8")
        out.append(b"\x05" + _u32.pack(len(raw)) + raw)
    elif t is bytes:
        out.append(b"\x06" + _u32.pack(len(obj)) + obj)
    elif t is np.ndarray:
        if obj.dtype.hasobject:
            _encode_pickle(obj, out)
        else:
            dt = obj.dtype.str.encode("ascii")
            out.append(
                b"\x0a"
                + bytes((len(dt),))
                + dt
                + bytes((obj.ndim,))
                + b"".join(_i64.pack(s) for s in obj.shape)
            )
            # the raw data travels as a memoryview of the (contiguous)
            # array — no copy here; the join in encode(), the socket
            # write, or the ring write is the single gather point
            a = np.ascontiguousarray(obj)
            if a.nbytes == 0:
                out.append(b"")
            else:
                try:
                    out.append(memoryview(a.reshape(-1)).cast("B"))
                except (TypeError, ValueError):
                    # exotic formats (structured dtypes) refuse the cast
                    out.append(a.tobytes())
    elif t is list:
        # the common hot case: a flat list of python ints (refine targets,
        # leaf ids) ships as one int64 buffer instead of n nodes
        if obj and all(
            type(x) is int and _INT64_MIN <= x <= _INT64_MAX for x in obj
        ):
            out.append(b"\x0b" + _u32.pack(len(obj)))
            out.append(memoryview(np.asarray(obj, dtype=np.int64)).cast("B"))
        else:
            out.append(b"\x07" + _u32.pack(len(obj)))
            for item in obj:
                _encode_node(item, out)
    elif t is tuple:
        out.append(b"\x08" + _u32.pack(len(obj)))
        for item in obj:
            _encode_node(item, out)
    elif t is dict:
        out.append(b"\x09" + _u32.pack(len(obj)))
        for k, v in obj.items():
            _encode_node(k, out)
            _encode_node(v, out)
    else:
        _encode_pickle(obj, out)


def _encode_pickle(obj, out: list) -> None:
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    out.append(b"\x0c" + _u32.pack(len(raw)) + raw)


def encode(obj) -> bytes:
    """Serialize ``obj`` into one typed frame (bytes)."""
    return b"".join(encode_parts(obj))


def encode_parts(obj) -> list:
    """Serialize ``obj`` into a scatter-gather list of buffers.

    ``b"".join(parts)`` is exactly :func:`encode`'s frame; array payloads
    are memoryviews of the live arrays (zero-copy until the caller
    gathers them), so the parts must be consumed before the arrays are
    mutated.  Use :func:`parts_nbytes` for the frame length.
    """
    out = [bytes((MAGIC,))]
    _encode_node(obj, out)
    return out


def parts_nbytes(parts) -> int:
    """Total frame bytes of a :func:`encode_parts` list (``len`` of a
    memoryview is elements, not bytes — this sums byte sizes)."""
    return sum(p.nbytes if isinstance(p, memoryview) else len(p) for p in parts)


def _decode_node(buf, pos: int):
    """Decode the node at ``buf[pos]`` -> ``(object, next pos)``; arrays
    are copied out of ``buf``."""
    tag = buf[pos]
    pos += 1
    if tag == _NONE:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _INT:
        return _i64.unpack_from(buf, pos)[0], pos + 8
    if tag == _FLOAT:
        return _f64.unpack_from(buf, pos)[0], pos + 8
    if tag == _STR:
        (n,) = _u32.unpack_from(buf, pos)
        pos += 4
        return str(buf[pos : pos + n], "utf-8"), pos + n
    if tag == _BYTES:
        (n,) = _u32.unpack_from(buf, pos)
        pos += 4
        return bytes(buf[pos : pos + n]), pos + n
    if tag == _LIST or tag == _TUPLE:
        (n,) = _u32.unpack_from(buf, pos)
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _decode_node(buf, pos)
            items.append(item)
        return (items if tag == _LIST else tuple(items)), pos
    if tag == _DICT:
        (n,) = _u32.unpack_from(buf, pos)
        pos += 4
        d = {}
        for _ in range(n):
            k, pos = _decode_node(buf, pos)
            v, pos = _decode_node(buf, pos)
            d[k] = v
        return d, pos
    if tag == _ARRAY:
        dlen = buf[pos]
        pos += 1
        dtype = np.dtype(str(buf[pos : pos + dlen], "ascii"))
        pos += dlen
        ndim = buf[pos]
        pos += 1
        shape = tuple(
            _i64.unpack_from(buf, pos + 8 * i)[0] for i in range(ndim)
        )
        pos += 8 * ndim
        count = 1
        for s in shape:
            count *= s
        nbytes = count * dtype.itemsize
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=pos)
        # copy out of the frame: receivers own (and may mutate) their data
        return arr.reshape(shape).copy(), pos + nbytes
    if tag == _INTLIST:
        (n,) = _u32.unpack_from(buf, pos)
        pos += 4
        arr = np.frombuffer(buf, dtype=np.int64, count=n, offset=pos)
        return arr.tolist(), pos + 8 * n
    if tag == _PICKLE:
        (n,) = _u32.unpack_from(buf, pos)
        pos += 4
        return pickle.loads(buf[pos : pos + n]), pos + n
    raise ValueError(f"corrupt typed frame: unknown tag 0x{tag:02x} at {pos - 1}")


def decode(frame: bytes):
    """Inverse of :func:`encode`.  A frame not starting with :data:`MAGIC`
    raises ``ValueError`` naming its first byte."""
    if len(frame) == 0 or frame[0] != MAGIC:
        first = f"first byte 0x{frame[0]:02x}" if len(frame) else "empty"
        raise ValueError(
            f"not a typed frame: {first}, expected MAGIC 0x{MAGIC:02x}"
        )
    obj, pos = _decode_node(frame, 1)
    if pos != len(frame):
        raise ValueError(
            f"corrupt typed frame: {len(frame) - pos} trailing bytes"
        )
    return obj
