"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion; a failed assertion marks the criterion FAIL.
"""

import json
import subprocess
import sys
import time

import numpy as np

from slhkit.ensembles import random_coupling, random_gauge
from slhkit.fock import (build_mode_operators, fock_battery, scattering_rows,
                         stacked_boundary_rows, subspace_equivalence)
from slhkit.linalg import cayley
from slhkit.phases import boundary_phase, scatter_regularized
from slhkit.punctured_line import (
    SIDES,
    GridSpec,
    Traces,
    decomposition_half,
    decomposition_values,
    defect_coefficients,
    defect_half,
    jump_splitting_defect,
    norm_from_inner,
    reproducing_half,
    reproducing_residual,
    sample_half,
    sobolev_half,
    symmetry_half,
    symmetry_values,
)
from slhkit.slh import (
    GAUGE_CHECK_SIGMAS,
    ScalarGauge,
    gauge_reduction_check,
    identity_residuals,
    slh_triple,
    validate_coupling,
)

GRID = GridSpec(40.0, 1e-3)
PHASE_POINTS = (0.0, 0.1, 1.0, 2.0, float(np.pi))


def announce(number, label, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {label}: {status}")
    assert ok


def test_criterion_1_boundary_phase_contrast():
    for e in PHASE_POINTS:
        ph = boundary_phase(e)
        assert abs(abs(ph.s) - 1.0) <= 1e-14
        assert abs(np.angle(ph.s) - (-2.0 * np.arctan(e / 2))) <= 1e-12
        if e <= 0.3:
            assert abs(ph.s - np.exp(-1j * e)) <= e ** 3 / 10
    assert boundary_phase(2.0).s == -1j
    for e in PHASE_POINTS:
        for eps in (0.1, 0.01):
            r = scatter_regularized(e, eps)
            assert r.phase_error <= 1e-6
    contrast = scatter_regularized(float(np.pi), 0.1).contrast
    assert contrast > 0.5
    announce(1, "boundary-phase contrast")


def test_criterion_2_jump_splitting_identities():
    rng = np.random.default_rng(202)
    # sigma = 0 is the symmetric-delta split: kappa_pm = 1/2 exactly
    for sigma in (0.0, 0.3, -1.0):
        for _ in range(100):
            values = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(4))
            assert jump_splitting_defect(*values, sigma) <= 1e-13
    announce(2, "jump splitting identities (boundary arithmetic)")


def test_criterion_3_defect_vector_suite():
    # The half-line functions cli.command_defect calls: each check is one
    # per-half function on the left half-line and on the right, joined by
    # its ``..._values``/``..._residual`` function. phi_- lives on the left
    # half-line and phi_+ on the right.
    rng = np.random.default_rng(303)
    phi = {left: defect_half(GRID, left) for left in SIDES}
    for left in SIDES:
        assert Traces.one_sided(left, phi[left].limit).jump == -1j
        norm = sum(sobolev_half(GRID, left, phi[left], phi[left]))
        assert abs(norm_from_inner(norm) - 1.0) <= 1e-5

    def gauss(amp, width, center):
        return lambda t: amp * np.exp(-width * (t - center) ** 2)

    def halves(spec, left, right):
        return [sample_half(spec, side, fn)
                for side, fn in zip(SIDES, (left, right))]

    worst = 0.0
    for _ in range(10):
        amp = complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1))
        w, c = rng.uniform(0.5, 2.0), rng.uniform(0.7, 2.2)
        # psi_r on the right half-line, psi_l on the left
        for left, fn in ((False, gauss(amp, w, c)), (True, gauss(amp, w, -c))):
            psi = sample_half(GRID, left, fn)
            worst = max(worst, reproducing_residual(left, reproducing_half(
                GRID, left, phi[left], [psi])[0], psi.limit))
    assert worst <= 1e-5

    for _ in range(5):
        psi = halves(
            GRID,
            gauss(complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
                  rng.uniform(0.5, 2.0), -rng.uniform(0.7, 2.2)),
            gauss(complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
                  rng.uniform(0.5, 2.0), rng.uniform(0.7, 2.2)))
        c_plus, c_minus = defect_coefficients(psi[0].limit, psi[1].limit)
        defects = decomposition_values(*(
            decomposition_half(GRID, left, [(u, c)], phi[left])[0]
            for left, u, c in zip(SIDES, psi, (c_minus, c_plus))))
        assert defects["orthogonality"] <= 1e-5

    fl, fr = gauss(0.4 - 0.3j, 0.7, -1.1), gauss(1.2 + 0.5j, 1.3, 0.8)
    gl, gr = gauss(0.9 + 0.2j, 0.5, -1.7), gauss(0.3 - 0.8j, 0.9, 1.4)
    defects = {}
    for h in (1e-3, 5e-4):
        spec = GridSpec(40.0, h)
        f, g = halves(spec, fl, fr), halves(spec, gl, gr)
        defects[h] = symmetry_values(
            *(symmetry_half(spec, left, u, v)
              for left, u, v in zip(SIDES, f, g)),
            Traces(f[0].limit, f[1].limit), Traces(g[0].limit, g[1].limit),
            0.3)["id_symmetry_defect"]
    ratio = defects[1e-3] / defects[5e-4]
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
            assert max(residuals.values()) <= 1e-10
            if n * m == 1:
                ref = cayley(e.full[1:, 1:], 0.5)[0, 0]
                assert abs(res.s[0, 0] - ref) <= 1e-12
            checked += 1
    assert checked == 100
    announce(4, "coupling-matrix identities (100 random draws)")


def test_criterion_5_gauge_consistency():
    rng = np.random.default_rng(505)
    # Z = 0 reduction
    for m, n in ((1, 1), (2, 2)):
        e = random_coupling(rng, m, n)
        assert gauge_reduction_check(e)["z_zero_residual"] <= 1e-12
    # scalar kappa closed forms on the (e, sigma) grid
    h0, c = 0.2, 0.3 - 0.4j
    for e_val in (-2.0, -1.0, 0.0, 1.0, 2.0):
        raw = np.array([[h0, np.conj(c)], [c, e_val]])
        scalar = gauge_reduction_check(validate_coupling(raw, 1, 1))
        assert tuple(scalar["scalar_residuals"]) == GAUGE_CHECK_SIGMAS
        for residuals in scalar["scalar_residuals"].values():
            assert max(residuals.values()) <= 1e-12
    # gauged Ito isometry over 50 random (E, Z)
    for _ in range(50):
        m, n = (1, 2) if rng.uniform() < 0.5 else (2, 1)
        e = random_coupling(rng, m, n)
        res = slh_triple(e, random_gauge(rng, m, n))
        assert identity_residuals(res)["ito_isometry"] <= 1e-10
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
                assert eq["dim_b"] == eq["dim_c"] > 0
                assert eq["max_angle"] <= 1e-8
        elapsed = time.monotonic() - start
        assert elapsed <= 10.0
    announce(6, "boundary-subspace equivalence (both routes, both gauges)")


def test_criterion_7_singular_action_identity():
    rng = np.random.default_rng(707)
    for m, n, d in FOCK_TRIPLES:
        for i in range(5):
            e = random_coupling(rng, m, n, zero_channel_system=True)
            for gauge in (None, ScalarGauge(0.3), random_gauge(rng, m, n)):
                ops = build_mode_operators(m, n, d, gauge)
                residuals = fock_battery(e, ops, 10, rng, 1e-8)["action_residuals"]
                assert len(residuals) == 10
                assert max(residuals) <= 1e-8
    announce(7, "singular action identity (photon guard d-2)")


def test_criterion_8_cli_determinism(tmp_path):
    config = {
        "m": 1, "n": 1,
        "E": [[[0.3, 0.0], [0.5, -0.2]], [[0.5, 0.2], [1.0, 0.0]]],
        "seed": 11,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))

    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "slhkit", "fock", "--config", str(path),
             "--sweep", "3", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]

    bad = dict(config)
    bad["E"] = [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    proc = subprocess.run(
        [sys.executable, "-m", "slhkit", "slh", "--config", str(bad_path)],
        capture_output=True, text=True)
    assert proc.returncode != 0
    announce(8, "CLI determinism and exit-code contract")
