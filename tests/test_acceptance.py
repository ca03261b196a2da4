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
from slhkit.fock import (
    action_residuals,
    boundary_subspace_b,
    boundary_subspace_c,
    build_mode_operators,
    sample_domain_vectors,
)
from slhkit.linalg import cayley, channel_projector, principal_angles
from slhkit.punctured_line import (
    GridSpec,
    boundary_phase,
    decompose_sobolev,
    defect_vectors,
    id_symmetry_defect,
    kappas,
    sample,
    scatter_regularized,
    sobolev_inner,
    sobolev_norm,
)
from slhkit.slh import GaugeMatrix, ScalarGauge, slh_triple, validate_coupling

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
    for sigma in (0.0, 0.3, -1.0):
        kp, km = kappas(sigma)
        for _ in range(100):
            fp, fm, gp, gm = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                              for _ in range(4))
            lhs = np.conj(fp) * gp - np.conj(fm) * gm
            # symmetric-delta split
            ds_f, ds_g = 0.5 * (fp + fm), 0.5 * (gp + gm)
            rhs_star = np.conj(fp - fm) * ds_g + np.conj(ds_f) * (gp - gm)
            assert abs(lhs - rhs_star) <= 1e-13
            # damped split
            zf, zg = km * fp + kp * fm, km * gp + kp * gm
            rhs_zeta = np.conj(fp - fm) * zg + np.conj(zf) * (gp - gm)
            assert abs(lhs - rhs_zeta) <= 1e-13
    announce(2, "jump splitting identities (boundary arithmetic)")


def test_criterion_3_defect_vector_suite():
    rng = np.random.default_rng(303)
    phi_plus, phi_minus = defect_vectors(GRID)
    assert phi_plus.jump == -1j and phi_minus.jump == -1j
    assert abs(sobolev_norm(phi_plus) - 1.0) <= 1e-5
    assert abs(sobolev_norm(phi_minus) - 1.0) <= 1e-5

    def gauss(amp, width, center):
        return lambda t: amp * np.exp(-width * (t - center) ** 2)

    for _ in range(10):
        amp = complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1))
        w, c = rng.uniform(0.5, 2.0), rng.uniform(0.7, 2.2)
        psi_r = sample(GRID, right=gauss(amp, w, c))
        assert abs(sobolev_inner(1j * phi_plus, psi_r)
                   - psi_r.right_limit) <= 1e-5
        psi_l = sample(GRID, left=gauss(amp, w, -c))
        assert abs(sobolev_inner(-1j * phi_minus, psi_l)
                   - psi_l.left_limit) <= 1e-5

    for _ in range(5):
        psi = sample(GRID,
                     left=gauss(complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
                                rng.uniform(0.5, 2.0), -rng.uniform(0.7, 2.2)),
                     right=gauss(complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
                                 rng.uniform(0.5, 2.0), rng.uniform(0.7, 2.2)))
        dec = decompose_sobolev(psi)
        scale = sobolev_norm(dec.psi0)
        assert abs(sobolev_inner(phi_plus, dec.psi0)) <= 1e-5 * scale
        assert abs(sobolev_inner(phi_minus, dec.psi0)) <= 1e-5 * scale

    fl, fr = gauss(0.4 - 0.3j, 0.7, -1.1), gauss(1.2 + 0.5j, 1.3, 0.8)
    gl, gr = gauss(0.9 + 0.2j, 0.5, -1.7), gauss(0.3 - 0.8j, 0.9, 1.4)
    defects = {}
    for h in (1e-3, 5e-4):
        spec = GridSpec(40.0, h)
        f = sample(spec, left=fl, right=fr)
        g = sample(spec, left=gl, right=gr)
        defects[h] = abs(id_symmetry_defect(f, g))
    ratio = defects[1e-3] / defects[5e-4]
    assert 3.5 <= ratio <= 4.5
    announce(3, f"defect-vector suite (symmetry ratio {ratio:.3f})")


def test_criterion_4_slh_matrix_identities():
    rng = np.random.default_rng(404)
    checked = 0
    for m, n in ((1, 1), (2, 1), (2, 2), (3, 3)):
        pi = channel_projector(m, n)
        eye = np.eye((1 + n) * m)
        for _ in range(25):
            e = random_coupling(rng, m, n)
            res = slh_triple(e)
            g, f = res.ito.full, res.dressing.full
            assert res.ito_isometry_defect() <= 1e-10
            assert np.abs(g + 1j * (e.full @ f)).max() <= 1e-10
            assert np.abs(f @ (eye + 0.5j * (pi @ e.full)) - eye).max() <= 1e-10
            assert np.abs(0.5 * (e.full @ (eye + res.galilean.full))
                          - 1j * g).max() <= 1e-10
            assert res.s_unitarity_defect() <= 1e-10
            assert res.h_hermiticity_defect() <= 1e-10
            if n * m == 1:
                ref = cayley(e.block.xll, 0.5)[0, 0]
                assert abs(res.s[0, 0] - ref) <= 1e-12
            checked += 1
    assert checked == 100
    announce(4, "coupling-matrix identities (100 random draws)")


def test_criterion_5_gauge_consistency():
    rng = np.random.default_rng(505)
    # Z = 0 reduction
    for m, n in ((1, 1), (2, 2)):
        e = random_coupling(rng, m, n)
        zero = GaugeMatrix(np.zeros((n * m, n * m)))
        diff = np.abs(slh_triple(e).ito.full - slh_triple(e, zero).ito.full).max()
        assert diff <= 1e-12
    # scalar kappa closed forms on the (e, sigma) grid
    h0, c = 0.2, 0.3 - 0.4j
    for e_val in (-2.0, -1.0, 0.0, 1.0, 2.0):
        raw = np.array([[h0, np.conj(c)], [c, e_val]])
        e = validate_coupling(raw, 1, 1)
        for sigma in (-1.0, 0.0, 0.3, 1.0):
            res = slh_triple(e, ScalarGauge(sigma))
            kp, km = kappas(sigma)
            den = 1 + 1j * kp * e_val
            assert abs(res.s[0, 0] - (1 - 1j * km * e_val) / den) <= 1e-12
            assert abs(res.l[0, 0] - (-1j * c / den)) <= 1e-12
            w = np.conj(c) * kp * c / den
            assert abs(res.h[0, 0] - (h0 + (w - np.conj(w)) / 2j)) <= 1e-12
    # gauged Ito isometry over 50 random (E, Z)
    for _ in range(50):
        m, n = (1, 2) if rng.uniform() < 0.5 else (2, 1)
        e = random_coupling(rng, m, n)
        res = slh_triple(e, random_gauge(rng, m, n))
        assert res.ito_isometry_defect() <= 1e-10
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
                sub_b = boundary_subspace_b(e, ops)
                sub_c = boundary_subspace_c(e, ops)
                assert sub_b.dim == sub_c.dim > 0
                angles = principal_angles(sub_b.columns, sub_c.columns)
                assert angles.max() <= 1e-8
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
                vectors = sample_domain_vectors(e, ops, 10, rng)
                assert len(vectors) == 10
                scale = boundary_subspace_b(e, ops).sigma_max
                assert max(action_residuals(e, ops, vectors,
                                            scale=scale)) <= 1e-8
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
