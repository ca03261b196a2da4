"""The benchmark tracer's computed-figure hooks read the return values and
arguments of slhkit functions (``ModeOperators`` fields, ``GridFunction``
arrays); a layout change that breaks them must fail here, not only under
``perfbench/run.py --trace 1``."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from slhkit import cli, fock, punctured_line
from slhkit.config import config_from_dict
from slhkit.ensembles import random_grid_function

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_hooks_measure_fock_and_grid_runs(monkeypatch):
    tracing, workloads = _load("tracing"), _load("workloads")
    fock_config = config_from_dict(
        json.loads(workloads.generate_config("fock-kernel", 1)))
    defect_config = config_from_dict({
        "m": 1, "n": 1,
        "E": [[[0.3, 0.0], [0.5, -0.2]], [[0.5, 0.2], [1.0, 0.0]]],
        "grid": {"T": 30.0, "h": 3e-3}})
    tracer = tracing.Tracer()
    # the kernel solves are not a traced stage; span them here to see which
    # stage each one runs in
    monkeypatch.setattr(fock, "boundary_kernel",
                        tracer.wrap("fock.boundary_kernel", fock.boundary_kernel))
    restore = tracing.instrument(tracer)
    try:
        cli.run_command("fock", fock_config, 1, 1)
        cli.run_command("defect", defect_config)
        # The defect suite pairs half-lines and calls no two-sided grid
        # function; the grid hook reads the GridFunctions of a direct call.
        grid_spans = len([s for s in tracer.spans
                          if s.name.startswith("punctured_line.")])
        spec = punctured_line.GridSpec(30.0, 3e-3)
        rng = np.random.default_rng(0)
        punctured_line.sobolev_inner(random_grid_function(rng, spec),
                                     random_grid_function(rng, spec))
    finally:
        restore()
    assert not hasattr(cli.run_command, "__wrapped__")
    assert grid_spans == 0
    totals = tracing.run_totals(tracer.spans)[0]
    for name in ("fock.dim", "fock.operator_bytes", "punctured_line.nodes",
                 "punctured_line.bytes"):
        assert totals.get(name, 0) > 0, name
    # sizes, the largest seen: (m, n, d) = (1, 2, 4) and T / h
    assert totals["fock.dim"] == 256
    # three builds of 4n + 1 = 9 forms at the dense 16 dim^2 bytes each; a
    # mode family whose len() is not n changes this figure
    assert totals["fock.operator_bytes"] == 28311552
    assert totals["punctured_line.nodes"] == 10000
    # three batteries (plain, gauged, one sweep draw), each building the SLH
    # triple and route B's rows once, plus the two row builds of
    # gauge_zero_reduction
    assert totals["slh.slh_triple.calls"] == 3
    assert totals["fock.stacked_boundary_rows.calls"] == 5
    assert totals["fock.subspace_equivalence.calls"] == 3
    assert totals["fock.sample_domain_vectors.calls"] == 3
    # both kernel solves of a battery run inside subspace_equivalence, whose
    # span the time goes to; sample_domain_vectors solves no kernel, only
    # the one null space that intersects route B's kernel with the guard
    stages = [tracer.spans[s.parent].name for s in tracer.spans
              if s.name == "fock.boundary_kernel"]
    assert stages == ["fock.subspace_equivalence"] * 6
    solves = [tracer.spans[s.parent].name for s in tracer.spans
              if s.name == "linalg.null_space"]
    assert solves.count("fock.sample_domain_vectors") == 3
    assert set(solves) == {"fock.boundary_kernel", "fock.sample_domain_vectors"}
