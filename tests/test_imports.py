"""Each submodule imports on its own in a fresh interpreter, loading only the
standard library and numpy: numpy is the only runtime dependency."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "module", ["complexes", "operators", "hodge", "spectral", "bounds", "extremal", "cli"]
)
def test_submodule_imports_cold(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # the baseline is what a bare interpreter has loaded, .pth preloads included
    code = (
        "import sys; before = set(sys.modules)\n"
        f"import lapgap.{module}\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "lapgap" in loaded
    assert loaded <= set(sys.stdlib_module_names) | {"numpy", "lapgap"}, loaded
