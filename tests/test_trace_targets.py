"""Every function the benchmark's tracer wraps must exist in slhkit, or a
refactor that deletes a traced name breaks ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return [(module, function) for module, function, _ in tracing.TARGETS]


@pytest.mark.parametrize("module,function", _targets())
def test_trace_target_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"slhkit.{module}"),
                            function, None))
