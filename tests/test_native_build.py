"""A C compiler is a requirement: without one the compiled kernels fail to
build loudly — there is no numpy fallback to take over silently.  (That a
kernel which cannot allocate its scratch raises ``MemoryError`` is swept
allocation by allocation in ``tests/test_multilevel_native.py`` and
``tests/test_mesh_native.py``.)"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mesh import _meshnative

_BUILD = """
import sys
from pathlib import Path
from repro import _native
from repro.mesh._meshnative import _configure
try:
    _native.build(Path(sys.argv[1]), _configure)
except ImportError as exc:
    print(exc)
    sys.exit(3)
"""


@pytest.mark.parametrize("cc", ["false", "/nonexistent/bin/cc"])
def test_missing_compiler_raises_import_error_naming_it(tmp_path, cc):
    """A fresh copy of ``_meshcore.c`` (so no cached shared object is hit)
    built with a compiler that fails or does not exist."""
    src = tmp_path / "_meshcore.c"
    src.write_bytes(Path(_meshnative._SRC).read_bytes())
    env = dict(os.environ, CC=cc, PYTHONPATH=str(Path(_meshnative.__file__).parents[2]))
    out = subprocess.run(
        [sys.executable, "-c", _BUILD, str(src)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 3, out.stderr
    assert f"cannot build _meshcore.c with the C compiler {cc!r}" in out.stdout
    assert not list(tmp_path.glob("*.so"))
