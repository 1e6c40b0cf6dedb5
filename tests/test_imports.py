"""Each mapnav module imports on its own, as the first import of a fresh
interpreter, so an import cycle fails here whichever module it starts from
(``mapnav.model`` imports the instruction encoder, which runs the model's
attention layer)."""
import os
import pkgutil
import subprocess
import sys

import pytest

import mapnav

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mapnav.__file__)))
MODULES = ["mapnav"] + sorted(m.name for m in pkgutil.walk_packages(mapnav.__path__, "mapnav."))


def test_every_module_is_listed():
    assert {"mapnav.language.encoder", "mapnav.model.attention", "mapnav.cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
