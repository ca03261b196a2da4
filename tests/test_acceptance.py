"""Acceptance suite: each criterion at the tolerance of the CLI record that
makes the same check (``cli.TOLERANCES``, or ``config.Tolerances()`` for the
Fock angle and action); criteria 2 and 3 read the CLI's own defect suite. A
bound that no record states is a literal marked "no record".

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion that passes.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from slhkit.cli import TOLERANCES, run_command
from slhkit.config import Tolerances, config_from_dict
from slhkit.ensembles import random_coupling, random_gauge
from slhkit.fock import (build_mode_operators, fock_battery, scattering_rows,
                         stacked_boundary_rows, subspace_equivalence)
from slhkit.linalg import cayley
from slhkit.phases import boundary_phase, scatter_regularized
from slhkit.slh import (
    GAUGE_CHECK_SIGMAS,
    ScalarGauge,
    gauge_reduction_check,
    identity_residuals,
    slh_triple,
    validate_coupling,
)

MODEL = {"m": 1, "n": 1,
         "E": [[[0.3, 0.0], [0.5, -0.2]], [[0.5, 0.2], [1.0, 0.0]]]}
PHASE_POINTS = (0.0, 0.1, 1.0, 2.0, float(np.pi))


def announce(number, label):
    print(f"ACCEPTANCE {number} {label}: PASS")


@pytest.fixture(scope="module")
def defect_runs():
    """The CLI defect suite's records, seed 3, at T = 40 and h, then h/2."""
    configs = {h: config_from_dict(dict(MODEL, grid={"T": 40.0, "h": h}))
               for h in (1e-3, 5e-4)}
    return {h: {check.name: check
                for check in run_command("defect", config, 3).checks}
            for h, config in configs.items()}


def test_criterion_1_boundary_phase_contrast():
    for e in PHASE_POINTS:
        ph = boundary_phase(e)
        assert abs(abs(ph.s) - 1.0) <= TOLERANCES["phase.unimodular"]
        # no record: the Cayley angle -2 arctan(E/2) and its small-E limit
        assert abs(np.angle(ph.s) - (-2.0 * np.arctan(e / 2))) <= 1e-12
        if e <= 0.3:
            assert abs(ph.s - np.exp(-1j * e)) <= e ** 3 / 10
    assert boundary_phase(2.0).s == -1j  # no record
    for e in PHASE_POINTS:
        for eps in (0.1, 0.01):
            r = scatter_regularized(e, eps)
            assert r.phase_error <= TOLERANCES["scatter.phase_error"]
    contrast = scatter_regularized(float(np.pi), 0.1).contrast
    assert contrast > TOLERANCES["scatter.contrast_exceeds_half"]
    announce(1, "boundary-phase contrast")


def test_criterion_2_jump_splitting_identities(defect_runs):
    # 100 instances at each of sigma = 0 (kappa_pm = 1/2), 0.3 and -1
    for records in defect_runs.values():
        assert records["jump_splitting_identity"].passed
    announce(2, "jump splitting identities (boundary arithmetic)")


def test_criterion_3_defect_vector_suite(defect_runs):
    # every record at its table tolerance, these among them
    for records in defect_runs.values():
        assert records.keys() > {
            "jump_on_defect_plus", "jump_on_defect_minus", "defect_norm_plus",
            "defect_norm_minus", "reproducing_plus", "reproducing_minus",
            "decomposition_orthogonality"}
        assert [name for name, check in records.items()
                if not check.passed] == []
    # no record: the O(h^2) symmetry defect quarters as h halves
    ratio = (defect_runs[1e-3]["id_symmetry_defect"].value
             / defect_runs[5e-4]["id_symmetry_defect"].value)
    assert 3.5 <= ratio <= 4.5
    announce(3, f"defect-vector suite (symmetry ratio {ratio:.3f})")


def test_criterion_4_slh_matrix_identities():
    rng = np.random.default_rng(404)
    checked = 0
    for m, n in ((1, 1), (2, 1), (2, 2), (3, 3)):
        for _ in range(25):
            e = random_coupling(rng, m, n)
            res = slh_triple(e)
            residuals = identity_residuals(res)
            assert len(residuals) == 8
            assert max(residuals.values()) <= TOLERANCES["sweep.identities"]
            if n * m == 1:
                ref = cayley(e.full[1:, 1:], 0.5)[0, 0]
                assert (abs(res.s[0, 0] - ref)
                        <= TOLERANCES["scalar_cayley_match"])
            checked += 1
    assert checked == 100
    announce(4, "coupling-matrix identities (100 random draws)")


def test_criterion_5_gauge_consistency():
    rng = np.random.default_rng(505)
    # Z = 0 reduction
    for m, n in ((1, 1), (2, 2)):
        e = random_coupling(rng, m, n)
        assert (gauge_reduction_check(slh_triple(e))["z_zero_residual"]
                <= TOLERANCES["gauge_z_zero_reduction"])
    # scalar kappa closed forms on the (e, sigma) grid
    h0, c = 0.2, 0.3 - 0.4j
    for e_val in (-2.0, -1.0, 0.0, 1.0, 2.0):
        raw = np.array([[h0, np.conj(c)], [c, e_val]])
        res = slh_triple(validate_coupling(raw, 1, 1))
        scalar = gauge_reduction_check(res)
        assert tuple(scalar["scalar_residuals"]) == GAUGE_CHECK_SIGMAS
        for residuals in scalar["scalar_residuals"].values():
            assert (max(residuals.values())
                    <= TOLERANCES["gauge_scalar_closed_form"])
    # gauged Ito isometry over 50 random (E, Z)
    for _ in range(50):
        m, n = (1, 2) if rng.uniform() < 0.5 else (2, 1)
        e = random_coupling(rng, m, n)
        res = slh_triple(e, random_gauge(rng, m, n))
        assert (identity_residuals(res)["ito_isometry"]
                <= TOLERANCES["ito_isometry"])
    announce(5, "gauge-family consistency")


FOCK_TRIPLES = ((1, 1, 5), (2, 1, 5), (1, 2, 4))


def test_criterion_6_domain_equivalence():
    rng = np.random.default_rng(606)
    for m, n, d in FOCK_TRIPLES:
        start = time.monotonic()
        for i in range(20):
            e = random_coupling(rng, m, n, zero_channel_system=True)
            gauged = ScalarGauge(0.3) if i % 2 else random_gauge(rng, m, n)
            for gauge in (None, gauged):
                ops = build_mode_operators(m, n, d, gauge)
                eq = subspace_equivalence(
                    ops.space, stacked_boundary_rows(e, ops),
                    scattering_rows(slh_triple(e, gauge), ops))
                assert eq["dim_b"] == eq["dim_c"] > 0  # > 0: no record
                assert eq["max_angle"] <= Tolerances().kernel
        elapsed = time.monotonic() - start
        assert elapsed <= 10.0  # no record
    announce(6, "boundary-subspace equivalence (both routes, both gauges)")


def test_criterion_7_singular_action_identity():
    rng, atol = np.random.default_rng(707), Tolerances().action
    for m, n, d in FOCK_TRIPLES:
        for i in range(5):
            e = random_coupling(rng, m, n, zero_channel_system=True)
            for gauge in (None, ScalarGauge(0.3), random_gauge(rng, m, n)):
                ops = build_mode_operators(m, n, d, gauge)
                residuals = fock_battery(e, ops, 10, rng, atol)["action_residuals"]
                assert len(residuals) == 10
                assert max(residuals) <= atol
    announce(7, "singular action identity (photon guard d-2)")


def test_criterion_8_cli_determinism(tmp_path):
    config = dict(MODEL, seed=11)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))

    # the second run states the config's seed as a flag
    payloads = []
    for name, flags in (("a.json", []), ("b.json", ["--seed", "11"])):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "slhkit", "fock", "--config", str(path),
             "--sweep", "3", "--out", str(out), *flags],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]

    bad = dict(config, E=[[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]])
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    proc = subprocess.run(
        [sys.executable, "-m", "slhkit", "slh", "--config", str(bad_path)],
        capture_output=True, text=True)
    assert proc.returncode != 0
    announce(8, "CLI determinism and exit-code contract")
