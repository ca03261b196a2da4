"""Tests of the benchmark's own logic: config generation, span arithmetic and
the fingerprint gate. Run with ``python3 -m pytest perfbench``."""

import json
import random

import pytest

from tracing import Span, Tracer, layer_metrics, run_totals, self_times
from workloads import WORKLOADS, coupling_matrix, gate, generate_config


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert generate_config(name, 7) == generate_config(name, 7)
    assert generate_config(name, 7) != generate_config(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_coupling_is_hermitian_with_unit_max(name):
    w = WORKLOADS[name]
    e = coupling_matrix(w, random.Random(3))
    size = (1 + w.n) * w.m
    assert all(e[i][j] == e[j][i].conjugate() for i in range(size) for j in range(size))
    assert max(abs(x) for row in e for x in row) == pytest.approx(1.0)


def _system_channel_block(name, seed):
    cfg = json.loads(generate_config(name, seed))
    m = cfg["m"]
    return [cell for row in cfg["E"][m:] for cell in row[:m]]


def test_fock_kernel_zeroes_e_l0_and_fock_coupled_keeps_it():
    assert all(c == [0.0, 0.0] for c in _system_channel_block("fock-kernel", 5))
    assert any(c != [0.0, 0.0] for c in _system_channel_block("fock-coupled", 5))


def _tree():
    # run 1:  a [0, 10] with children b [1, 4] and c [5, 9]; c has child d [6, 8]
    # run 2:  a [20, 23] with no children
    spans = [Span("x.a", 1, None, 0.0, 10.0), Span("x.b", 1, 0, 1.0, 4.0),
             Span("x.c", 1, 0, 5.0, 9.0), Span("x.d", 1, 2, 6.0, 8.0),
             Span("x.a", 2, None, 20.0, 23.0)]
    return spans


def test_self_time_subtracts_children_only():
    assert self_times(_tree()) == [3.0, 3.0, 2.0, 2.0, 3.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 1, None, 0.0, 10.0), Span("c1", 1, 0, 1.0, 5.0),
             Span("c2", 1, 0, 3.0, 7.0), Span("c3", 1, 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_run_totals_and_medians():
    runs = run_totals(_tree())
    assert runs[1]["x.a.s"] == 10.0 and runs[1]["x.a.self_s"] == 3.0
    assert runs[1]["x.d.calls"] == 1 and "x.d.s" not in runs[2]
    medians = layer_metrics(_tree(), ["x.a.s", "x.d.s"])
    assert medians == {"x.a.s": 6.5, "x.d.s": 1.0}


def test_tracer_records_parents_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda x: x * 2,
                        lambda args, result: {"m.bytes": result})
    outer = tracer.wrap("m.outer", lambda x: inner(x) + inner(x))
    tracer.run = 1
    assert outer(3) == 12
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("m.outer", None), ("m.inner", 0), ("m.inner", 0)]
    assert run_totals(tracer.spans)[1]["m.bytes"] == 12


def _fock_report(dims=(11, 11), vectors=10, gauged_dims=(11, 11), passed=True):
    checks = [
        {"name": "kernel_dims", "value": list(dims), "tolerance": None, "pass": passed},
        {"name": "max_principal_angle", "value": 4e-15, "tolerance": 1e-8, "pass": True},
        {"name": "gauged.kernel_dims", "value": list(gauged_dims), "tolerance": None,
         "pass": True},
    ]
    return {"command": "fock", "config_hash": "0", "checks": checks,
            "results": {"domain_vectors": vectors, "gauged.domain_vectors": vectors}}


def test_gate_accepts_honest_fock_reports():
    assert gate("fock-kernel", _fock_report()) == []
    assert gate("fock-coupled", _fock_report((0, 0), 0, (0, 0))) == []


@pytest.mark.parametrize("name, report", [
    ("fock-kernel", _fock_report(dims=(11, 10))),         # routes disagree
    ("fock-kernel", _fock_report(dims=(0, 0))),           # vacuous kernel
    ("fock-kernel", _fock_report(vectors=0)),             # no domain vectors
    ("fock-kernel", _fock_report(gauged_dims=(0, 0))),    # vacuous gauged battery
    ("fock-kernel", _fock_report(passed=False)),          # a failed check
    ("fock-coupled", _fock_report((3, 3), 0, (0, 0))),    # kernel should be empty
    ("slh-sweep", _fock_report()),                        # wrong subcommand
])
def test_gate_rejects_doctored_reports(name, report):
    assert gate(name, report)


def test_gate_counts_slh_sweep_records():
    checks = [{"name": f"sweep[{i:03d}].identities", "value": 0.0, "tolerance": 1e-10,
               "pass": True} for i in range(WORKLOADS["slh-sweep"].sweep)]
    report = {"command": "slh", "config_hash": "0", "checks": checks, "results": {}}
    assert gate("slh-sweep", report) == []
    report["checks"] = checks[:-1]
    assert gate("slh-sweep", report)
