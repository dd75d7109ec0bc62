"""Build the package's compiled kernels.

Each kernel is one C file next to its ctypes wrapper —
``partition/_klcore.c`` (matching, contraction, KL refinement, the fused
V-cycle) and ``mesh/_meshcore.c`` (the 2-D Rivara wave loop and the
adjacency stitch).  :func:`build` compiles one on first use with the
system C compiler (``$CC``, default ``cc``) into a content-hashed shared
object next to the source (or a temporary directory when the package
directory is read-only) and loads it through :class:`ctypes.CDLL`, so the
GIL is released for the duration of every call and the threaded SimMPI
ranks run their kernels in parallel.

The flags deliberately avoid ``-ffast-math`` and FMA contraction (any flag
that would let the compiler reassociate or fuse float expressions): every
kernel is bit-identical to its numpy/Python reference, which stays both
the fallback and the parity oracle.

``REPRO_KL_NATIVE=0`` is the one switch that turns every compiled kernel
off: each wrapper module starts its ``_DISABLED`` flag from
:data:`ENABLED`, and a disabled, unbuildable or failing kernel makes its
wrapper return "fall back" to the reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

from repro.runtime.envflags import env_bool

CFLAGS = ["-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]

#: ``REPRO_KL_NATIVE`` as read at import: False runs every numpy reference
ENABLED = env_bool("REPRO_KL_NATIVE", default=True)


def ptr(a, dtype) -> int:
    """The address of an array a wrapper has already normalised."""
    assert a.dtype == dtype and a.flags.c_contiguous
    return a.ctypes.data


def build(src: Path, configure):
    """Compile ``src`` (unless its ``<stem>-<hash>.so`` already exists),
    load it and let ``configure`` declare its signatures.  Raises on any
    failure; the caller caches the outcome."""
    code = src.read_bytes()
    tag = hashlib.sha256(code + " ".join(CFLAGS).encode()).hexdigest()[:16]
    so = src.with_name(f"{src.stem}-{tag}.so")
    if not so.exists():
        with tempfile.TemporaryDirectory() as td:
            tmp = Path(td) / so.name
            subprocess.run(
                [os.environ.get("CC", "cc"), *CFLAGS, "-o", str(tmp), str(src)],
                check=True, capture_output=True,
            )
            try:
                os.replace(tmp, so)  # atomic publish for future imports
            except OSError:
                # package dir read-only: dlopen from the tempdir — on
                # POSIX the mapping survives the directory's deletion
                return _load(tmp, configure)
    return _load(so, configure)


def _load(so: Path, configure):
    lib = ctypes.CDLL(str(so))
    configure(lib)
    return lib
