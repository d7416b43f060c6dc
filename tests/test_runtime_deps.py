"""The simulator runs on numpy alone: scipy is a test-only dependency.

Run as a script, this module is a smoke test of that: it refuses every
``scipy`` import, imports the CLI, the testbed and the soak harness,
drives the paper testbed for one simulated second, and fails if any
``scipy`` module got loaded.  The test below runs the script in a fresh
interpreter against ``src/``.  The ``runtime-deps`` CI job runs it
against a non-editable install with no extras, from outside the
checkout, which also proves the installed package carries its lookup
tables::

    python tests/test_runtime_deps.py
"""

from __future__ import annotations

import importlib
import importlib.abc
import os
import subprocess
import sys

RUNTIME_MODULES = ("repro.cli", "repro.scenarios.testbed", "repro.soak.harness")


class _RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path=None, target=None):
        if fullname.split(".")[0] == "scipy":
            raise ImportError(f"{fullname} is not a runtime dependency")
        return None


def smoke() -> None:
    sys.meta_path.insert(0, _RefuseScipy())
    for name in RUNTIME_MODULES:
        importlib.import_module(name)
    from repro.cli import main

    assert main(["drive", "--seconds", "1", "--seed", "1"]) == 0
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, loaded
    print(f"scipy-free smoke OK: {os.path.dirname(sys.modules['repro'].__file__)}")


def test_runtime_imports_and_drive_without_scipy():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(repo, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "scipy-free smoke OK" in done.stdout


if __name__ == "__main__":
    smoke()
