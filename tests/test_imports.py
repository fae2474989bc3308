"""Each submodule imports on its own in a fresh interpreter, loading only the
standard library and numpy: numpy is the only runtime dependency.  The
package loads its modules on first use, so the commands that compute no
spectrum never load numpy."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from pathlib import Path

import pytest

import lapgap

MODULES = ("complexes", "operators", "hodge", "spectral", "bounds", "extremal", "cli")


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """code in a fresh interpreter that imports lapgap from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


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


def test_submodules_import_cold_in_any_order():
    """Every ordered pair, each in its own interpreter: no module imports a
    name from one that an import cycle leaves half initialised."""
    pairs = list(permutations(MODULES, 2))
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda p: run_python(f"import lapgap.{p[0]}, lapgap.{p[1]}"), pairs))
    failed = {p: proc.stderr.strip().splitlines()[-1] for p, proc in zip(pairs, procs)
              if proc.returncode}
    assert not failed, failed


# each step runs in one interpreter, in order; after each, the script
# records whether numpy is loaded
_STEPS_SCRIPT = """
import contextlib, io, json, sys
from importlib import import_module
steps = json.loads(sys.argv[1])
out = []
for step in steps:
    code = None
    if isinstance(step, str):
        import_module(step)
    else:
        from lapgap.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(step)
            except SystemExit as exc:
                code = exc.code
    out.append([step, code, "numpy" in sys.modules])
print(json.dumps(out))
"""


def numpy_after_each(steps: list) -> list[tuple]:
    """(step, exit code or None, numpy loaded) for each step: a module to
    import, or an argv to run ``cli.main`` on."""
    proc = run_python(_STEPS_SCRIPT, json.dumps(steps))
    assert proc.returncode == 0, proc.stderr
    return [tuple(row) for row in json.loads(proc.stdout)]


def test_combinatorial_paths_leave_numpy_unloaded(tmp_path):
    facets = tmp_path / "facets.txt"
    facets.write_text("n 5\n0 1 2\n2 3\n3 4\n", encoding="utf-8")
    edges = tmp_path / "edges.txt"
    edges.write_text("n 4\n0 1\n1 2\n0 2\n2 3\n", encoding="utf-8")
    bad = tmp_path / "bad.txt"
    bad.write_text("n 3\n0 x\n", encoding="utf-8")
    steps = [
        "lapgap", "lapgap.errors", "lapgap.complexes", "lapgap.cli",
        ["build", "Z(2,3,1)"],
        ["build", f"file({facets})"],
        ["missing", "skeleton(10,4)"],
        ["missing", f"clique({edges})"],
        ["build", "skeleton(3,"],
        ["build", f"file({bad})"],
        ["--help"],
        ["gap", "--no-such-flag", "skeleton(3,1)"],
    ]
    codes = [None] * 4 + [0, 0, 0, 0, 2, 2, 0, 2]
    rows = numpy_after_each(steps)
    assert [row[1] for row in rows] == codes
    assert [row[0] for row in rows if row[2]] == []


def test_a_spectral_command_loads_numpy():
    assert numpy_after_each([["gap", "skeleton(3,1)"]]) == [(["gap", "skeleton(3,1)"], 0, True)]


# ---------------------------------------------------------------------------
# the package surface


def test_every_export_is_its_modules_current_binding(monkeypatch):
    assert lapgap.__all__ and len(set(lapgap.__all__)) == len(lapgap.__all__)
    for module, names in lapgap._EXPORTS.items():
        mod = importlib.import_module(f"lapgap.{module}")
        assert getattr(lapgap, module) is mod
        for name in names:
            assert getattr(lapgap, name) is getattr(mod, name), name
    assert set(lapgap.__all__) <= set(dir(lapgap))
    namespace: dict = {}
    exec("from lapgap import *", namespace)
    assert set(lapgap.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        lapgap.no_such_name  # noqa: B018
    assert not hasattr(lapgap, "no_such_name")
    sentinel = object()
    monkeypatch.setattr(lapgap.bounds, "bound_profile", sentinel)
    assert lapgap.bound_profile is sentinel


def test_build_z_keeps_its_extremal_name():
    from lapgap import complexes, extremal

    assert extremal.build_z is complexes.build_z is lapgap.build_z
    assert extremal.ZParams is complexes.ZParams is lapgap.ZParams
