"""Build the package's compiled kernels.

Each kernel is one C file next to its ctypes wrapper —
``partition/_klcore.c`` (matching, contraction, KL refinement, the fused
V-cycle) and ``mesh/_meshcore.c`` (the 2-D and 3-D Rivara wave loops
and the adjacency stitch).  :func:`build` compiles one on first use with the
system C compiler (``$CC``, default ``cc``) into a content-hashed shared
object next to the source (or a temporary directory when the package
directory is read-only) and loads it through :class:`ctypes.CDLL`, so the
GIL is released for the duration of every call and the threaded SimMPI
ranks run their kernels in parallel.  :func:`load` is the one loader the
wrappers call: it builds a kernel once per process and caches it.

A C compiler is a requirement: the compiled kernels are the package's
only implementation of what they do, and a failed build raises
``ImportError``.  The flags deliberately avoid ``-ffast-math`` and FMA
contraction (any flag that would let the compiler reassociate or fuse
float expressions): every kernel is bit-identical to its numpy/Python
oracle under ``tests/``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

CFLAGS = ["-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]

_LOCK = threading.Lock()
_LIBS: dict = {}  # source path -> its loaded, checked library


def load(src: Path, configure, check=None):
    """:func:`build` ``src`` on the first call, then let ``check(lib)``
    refuse it by raising ``ImportError``; later calls return the same
    library.  A failed build or check is not cached: the next call tries
    again."""
    lib = _LIBS.get(src)
    if lib is None:
        with _LOCK:
            lib = _LIBS.get(src)
            if lib is None:
                lib = build(src, configure)
                if check is not None:
                    check(lib)
                _LIBS[src] = lib
    return lib


def ptr(a, dtype) -> int:
    """The address of an array a wrapper has already normalised."""
    assert a.dtype == dtype and a.flags.c_contiguous
    return a.ctypes.data


def build(src: Path, configure):
    """Compile ``src`` (unless its ``<stem>-<hash>.so`` already exists),
    load it and let ``configure`` declare its signatures.  Raises
    ``ImportError`` naming the compiler, with the tail of its output, if
    the build fails."""
    code = src.read_bytes()
    tag = hashlib.sha256(code + " ".join(CFLAGS).encode()).hexdigest()[:16]
    so = src.with_name(f"{src.stem}-{tag}.so")
    if not so.exists():
        with tempfile.TemporaryDirectory() as td:
            tmp = Path(td) / so.name
            _compile(src, tmp)
            try:
                os.replace(tmp, so)  # atomic publish for future imports
            except OSError:
                # package dir read-only: dlopen from the tempdir — on
                # POSIX the mapping survives the directory's deletion
                return _load(tmp, configure)
    return _load(so, configure)


def _compile(src: Path, out: Path) -> None:
    cc = os.environ.get("CC", "cc")
    try:
        subprocess.run(
            [cc, *CFLAGS, "-o", str(out), str(src)],
            check=True, capture_output=True, text=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        tail = (getattr(exc, "stderr", None) or str(exc)).strip()[-2000:]
        raise ImportError(
            f"cannot build {src.name} with the C compiler {cc!r} (set $CC to "
            f"another): repro needs one for its compiled kernels\n{tail}"
        ) from exc


def _load(so: Path, configure):
    lib = ctypes.CDLL(str(so))
    configure(lib)
    return lib
