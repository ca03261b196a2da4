"""The package's import graph: errors -> linalg -> {slh, phases} ->
{punctured_line, fock}, with config, ensembles, report and cli on top.  The
package root imports nothing, so importing one layer runs only the layers
below it.

``cli`` holds ``fock`` and ``punctured_line`` in ``sys.modules`` as lazy
placeholders (``importlib.util.LazyLoader``), and a placeholder's code runs
on the first read of any of its attributes. So these tests ask which modules
have *executed*: a placeholder's type is the loader's module subclass until
it runs, and ``type()`` reads no attribute of it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import slhkit

SRC = Path(slhkit.__file__).resolve().parents[1]
EXAMPLE = SRC.parent / "configs" / "example.json"
# What every CLI process runs, whatever its subcommand.
CLI_BASE = {"errors", "linalg", "slh", "phases", "config", "ensembles",
            "report", "cli"}
LAYERS = {"fock", "punctured_line"}

PROBE = """
import sys, types
{statements}
held = sorted(k for k in sys.modules if k.startswith("slhkit"))
print(*held)
print(*(k for k in held if type(sys.modules[k]) is types.ModuleType))
"""


def modules_after(statements: str) -> tuple:
    """(held, executed): the slhkit submodules a fresh interpreter holds in
    ``sys.modules`` after running ``statements``, and those of them whose
    code has run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(statements=statements)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    held, executed = (line.split() for line in proc.stdout.splitlines())
    assert held[0] == executed[0] == "slhkit"
    return tuple({name.removeprefix("slhkit.") for name in names[1:]}
                 for names in (held, executed))


@pytest.mark.parametrize("module,below", [
    ("errors", set()),
    ("linalg", {"errors"}),
    ("slh", {"errors", "linalg"}),
    ("punctured_line", {"errors", "linalg", "phases"}),
    ("fock", {"errors", "linalg", "slh"}),
    ("phases", {"errors", "linalg"}),
    ("config", {"errors", "linalg", "slh", "phases"}),
    ("ensembles", {"errors", "linalg", "slh"}),
])
def test_a_layer_loads_only_the_layers_below_it(module, below):
    held, executed = modules_after(f"import slhkit.{module}")
    assert held == executed == below | {module}


def test_a_grid_draw_runs_no_grid_code():
    # random_bump is a plain callable on nodes: drawing one and evaluating
    # it loads nothing beyond what importing ensembles loads.
    held, executed = modules_after(
        "import numpy as np\n"
        "from slhkit.ensembles import random_bump\n"
        "bump = random_bump(np.random.default_rng(0), 'right')\n"
        "assert bump(np.linspace(0.5, 2.0, 7)).shape == (7,)")
    assert held == executed == {"errors", "linalg", "slh", "ensembles"}


def test_cli_holds_the_layers_without_running_them():
    # perfbench's tracer reads sys.modules["slhkit.fock"] after importing
    # only slhkit.cli, so the placeholders must be there.
    held, executed = modules_after(
        "from slhkit import cli\n"
        f"cli.load_config({str(EXAMPLE)!r})")
    assert executed == CLI_BASE
    assert held == CLI_BASE | LAYERS


@pytest.mark.parametrize("command,layers", [
    ("slh", set()),
    ("phase", set()),
    ("scatter", set()),
    ("defect", {"punctured_line"}),
    ("fock", {"fock"}),
])
def test_a_subcommand_runs_only_its_own_layer(command, layers):
    held, executed = modules_after(
        "import os\n"
        "from slhkit import cli\n"
        f"code = cli.main([{command!r}, '--config', {str(EXAMPLE)!r}, "
        "'--out', os.devnull])\n"
        "assert code == 0, code")
    assert executed == CLI_BASE | layers
    assert held == CLI_BASE | LAYERS
