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


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    proc = run_fresh(f"import {module}")
    assert proc.returncode == 0, proc.stderr


def test_config_does_not_import_the_controller():
    """The controller reads a RunConfig's fields; the config needs nothing
    of the controller."""
    proc = run_fresh("import sys, mapnav.config; assert 'mapnav.controller' not in sys.modules")
    assert proc.returncode == 0, proc.stderr
