"""The package's import graph: errors -> linalg -> {slh, punctured_line} ->
fock, with config, ensembles, report and cli on top.  The package root
imports nothing, so importing one layer loads only the layers below it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import slhkit

SRC = Path(slhkit.__file__).resolve().parents[1]
ALL = {"errors", "linalg", "slh", "punctured_line", "fock", "config",
       "ensembles", "report", "cli"}


def loaded_by(module: str) -> set:
    """The slhkit submodules a fresh interpreter holds after importing
    ``slhkit.<module>``."""
    script = (f"import sys, slhkit.{module}; "
              "print(*sorted(k for k in sys.modules if k.startswith('slhkit')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.split()
    assert names[0] == "slhkit"
    return {name.removeprefix("slhkit.") for name in names[1:]}


@pytest.mark.parametrize("module,below", [
    ("errors", set()),
    ("linalg", {"errors"}),
    ("slh", {"errors", "linalg"}),
    ("punctured_line", {"errors", "linalg"}),
    ("fock", {"errors", "linalg", "slh"}),
    ("cli", ALL - {"cli"}),
])
def test_a_layer_loads_only_the_layers_below_it(module, below):
    assert loaded_by(module) == below | {module}
