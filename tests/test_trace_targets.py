"""Every function the benchmark's tracer wraps must exist in slhkit, or a
refactor that deletes a traced name breaks ``perfbench/run.py --trace 1``."""

import importlib

import pytest

from conftest import PERFBENCH, load_script

TARGETS = load_script(PERFBENCH / "tracing.py").TARGETS


@pytest.mark.parametrize("module,function",
                         [(module, function) for module, function, _ in TARGETS])
def test_trace_target_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"slhkit.{module}"),
                            function, None))
