import numpy as np
import pytest

from slhkit.ensembles import random_coupling, random_gauge
from slhkit.errors import NonHermitianInput, SingularDressing, SizeMismatch
from slhkit.linalg import adjoint, cayley, channel_projector, partition
from slhkit.slh import (
    CouplingMatrix,
    GaugeMatrix,
    ScalarGauge,
    derived_matrices,
    gauge_reduction_check,
    ito_matrix,
    slh_triple,
    validate_coupling,
)

SHAPES = ((1, 1), (2, 1), (2, 2), (3, 3))


def closed_form_triple(e, gauge=None):
    """Independent resolvent-form oracle for (S, L, H).

    Uses explicit matrix inverses of 1 + i E_ll kappa_plus (kappa taken on the
    channel block), never the Ito-matrix pipeline.
    """
    m, n = e.m, e.n
    nm = n * m
    if gauge is None:
        z = np.zeros((nm, nm), dtype=complex)
    elif isinstance(gauge, ScalarGauge):
        z = gauge.sigma * np.eye(nm, dtype=complex)
    else:
        z = gauge.zll
    kp = 0.5 * np.eye(nm) + 1j * z
    km = 0.5 * np.eye(nm) - 1j * z
    ell = e.block.xll
    el0 = e.block.xl0
    e0l = e.block.x0l
    den = np.linalg.inv(np.eye(nm) + 1j * (ell @ kp))
    s = den @ (np.eye(nm) - 1j * (ell @ km))
    l = -1j * (den @ el0)
    w = e0l @ kp @ den @ el0
    h = e.block.x00 + (w - adjoint(w)) / 2j
    return s, l, h


class TestValidateCoupling:
    def test_zero_is_valid(self):
        e = validate_coupling(np.zeros((2, 2)), 1, 1)
        assert e.m == 1 and e.n == 1

    def test_real_symmetric_is_valid(self):
        validate_coupling(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 1)

    def test_forced_adjoint_relation(self):
        with pytest.raises(NonHermitianInput):
            validate_coupling(np.array([[0.0, 1j], [1j, 0.0]]), 1, 1)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            validate_coupling(np.zeros((3, 3)), 1, 1)


class TestItoMatrix:
    def test_zero_coupling(self):
        e = validate_coupling(np.zeros((4, 4)), 2, 1)
        assert np.abs(ito_matrix(e).full).max() == 0.0

    def test_scalar_diagonal_example(self):
        # oracle: -2i/(1+i) evaluated with plain complex arithmetic
        expected = -2j / (1 + 1j)
        assert expected == -1 - 1j
        e = validate_coupling(np.diag([0.0, 2.0]), 1, 1)
        g = ito_matrix(e)
        assert abs(g.full[0, 0]) == 0.0
        assert abs(g.full[1, 1] - expected) < 1e-14
        s = 1.0 + g.full[1, 1]
        assert abs(s - (-1j)) < 1e-14

    def test_gauged_scalar_oracle(self):
        # G_ll = -ie / (1 - ez + ie/2), unimodular S, for real e and z
        for e_val in (-2.0, -0.5, 1.0, 2.0):
            for z_val in (-1.0, 0.0, 0.3, 1.0):
                e = validate_coupling(np.diag([0.0, e_val]), 1, 1)
                gauge = GaugeMatrix(np.array([[z_val]]))
                g = ito_matrix(e, gauge)
                oracle = -1j * e_val / (1 - e_val * z_val + 0.5j * e_val)
                assert abs(g.full[1, 1] - oracle) < 1e-14
                s = 1 + g.full[1, 1]
                s_oracle = ((1 - e_val * z_val - 0.5j * e_val)
                            / (1 - e_val * z_val + 0.5j * e_val))
                assert abs(s - s_oracle) < 1e-14
                assert abs(abs(s) - 1.0) < 1e-14

    def test_singular_dressing_surfaces(self):
        # Reachable only by bypassing hermiticity validation: E_ll = 2i makes
        # the dressing factor 1 + i*(2i)/2 = 0.
        forged = CouplingMatrix(block=partition(np.diag([0.0, 2j]), 1, 1))
        with pytest.raises(SingularDressing):
            ito_matrix(forged)


class TestDerivedMatrices:
    def test_zero_coupling(self):
        e = validate_coupling(np.zeros((2, 2)), 1, 1)
        v, mm, f = derived_matrices(ito_matrix(e))
        assert np.abs(v.full - channel_projector(1, 1)).max() == 0.0
        assert np.abs(mm.full - np.eye(2)).max() == 0.0
        assert np.abs(f.full - np.eye(2)).max() == 0.0

    def test_scalar_example_blocks(self):
        e = validate_coupling(np.diag([0.0, 2.0]), 1, 1)
        v, mm, f = derived_matrices(ito_matrix(e))
        assert abs(mm.full[1, 1] - (-1j)) < 1e-14
        assert abs(f.full[1, 1] - (1 - 1j) / 2) < 1e-14
        assert abs(mm.full[0, 0] - 1.0) == 0.0

    def test_definitional_identities(self):
        rng = np.random.default_rng(5)
        e = random_coupling(rng, 2, 2)
        g = ito_matrix(e)
        v, mm, _ = derived_matrices(g)
        pi = channel_projector(2, 2)
        assert np.abs(pi @ (v.full - g.full) - pi).max() == 0.0
        assert np.abs((np.eye(6) - pi) @ (mm.full - np.eye(6))).max() == 0.0


class TestSLHTriple:
    def test_zero_coupling(self):
        e = validate_coupling(np.zeros((2, 2)), 1, 1)
        res = slh_triple(e)
        assert np.abs(res.s - np.eye(1)).max() == 0.0
        assert np.abs(res.l).max() == 0.0
        assert np.abs(res.h).max() == 0.0

    def test_pure_emission_example(self):
        # E00 = h0, El0 = c, Ell = 0  ->  S = 1, L = -ic, H = h0
        h0, c = 0.7, 0.4 - 0.9j
        raw = np.array([[h0, np.conj(c)], [c, 0.0]])
        res = slh_triple(validate_coupling(raw, 1, 1))
        assert abs(res.s[0, 0] - 1.0) < 1e-14
        assert abs(res.l[0, 0] - (-1j * c)) < 1e-14
        assert abs(res.h[0, 0] - h0) < 1e-14

    def test_scalar_gauge_closed_form(self):
        # restated triple with kappa_pm, all scalar blocks nonzero
        h0, c, e11 = -0.3, 0.8 + 0.2j, 1.0
        raw = np.array([[h0, np.conj(c)], [c, e11]])
        e = validate_coupling(raw, 1, 1)
        for sigma in (-1.0, 0.0, 0.3, 1.0):
            gauge = ScalarGauge(sigma)
            kp, km = gauge.kappa_plus, gauge.kappa_minus
            den = 1 + 1j * kp * e11
            s_ref = (1 - 1j * km * e11) / den
            l_ref = -1j * c / den
            w = np.conj(c) * kp * c / den
            h_ref = h0 + (w - np.conj(w)) / 2j
            res = slh_triple(e, gauge)
            assert abs(res.s[0, 0] - s_ref) < 1e-13
            assert abs(res.l[0, 0] - l_ref) < 1e-13
            assert abs(res.h[0, 0] - h_ref) < 1e-13

    def test_extraction_matches_closed_form_oracle(self):
        rng = np.random.default_rng(6)
        for m, n in SHAPES:
            e = random_coupling(rng, m, n)
            for gauge in (None, ScalarGauge(0.4), random_gauge(rng, m, n)):
                res = slh_triple(e, gauge)
                s_ref, l_ref, h_ref = closed_form_triple(e, gauge)
                assert np.abs(res.s - s_ref).max() < 1e-11
                assert np.abs(res.l - l_ref).max() < 1e-11
                assert np.abs(res.h - h_ref).max() < 1e-11

    def test_identity_sweep(self):
        rng = np.random.default_rng(7)
        count = 0
        for m, n in SHAPES:
            for _ in range(25):
                e = random_coupling(rng, m, n)
                res = slh_triple(e)
                size = e.block.size
                eye = np.eye(size)
                pi = channel_projector(m, n)
                g, f = res.ito.full, res.dressing.full
                assert res.ito_isometry_defect() <= 1e-10
                assert np.abs(g + 1j * (e.full @ f)).max() <= 1e-10
                assert np.abs(f @ (eye + 0.5j * (pi @ e.full)) - eye).max() <= 1e-10
                half_e = 0.5 * (e.full @ (eye + res.galilean.full))
                assert np.abs(half_e - 1j * g).max() <= 1e-10
                assert res.s_unitarity_defect() <= 1e-10
                assert res.h_hermiticity_defect() <= 1e-10
                assert res.recomposition_defect() <= 1e-10
                count += 1
        assert count == 100

    def test_first_row_of_model_matrix_unchanged(self):
        rng = np.random.default_rng(8)
        e = random_coupling(rng, 2, 2)
        res = slh_triple(e)
        assert np.abs(res.model.full[:2] - res.ito.full[:2]).max() == 0.0

    def test_scalar_matches_cayley(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            e = random_coupling(rng, 1, 1)
            res = slh_triple(e)
            ref = cayley(e.block.xll, 0.5)
            assert abs(res.s[0, 0] - ref[0, 0]) <= 1e-12

    def test_small_coupling_matches_exponential_phase(self):
        for e_val in np.linspace(-0.3, 0.3, 13):
            if e_val == 0.0:
                continue
            e = validate_coupling(np.diag([0.0, e_val]), 1, 1)
            s = slh_triple(e).s[0, 0]
            assert abs(s - np.exp(-1j * e_val)) <= abs(e_val) ** 3 / 10


class TestGaugeFamily:
    def test_scalar_gauge_constants(self):
        g = ScalarGauge(0.7)
        assert g.kappa_plus + g.kappa_minus == 1.0
        assert np.conj(g.kappa_plus) == g.kappa_minus
        assert g.kappa_plus.real == 0.5

    def test_derived_matrices_definitions(self):
        rng = np.random.default_rng(15)
        e = random_coupling(rng, 2, 1)
        res = slh_triple(e, ScalarGauge(0.2))
        pi = channel_projector(2, 1)
        g = res.ito.full
        eye = np.eye(4)
        assert np.abs(res.model.full - (g + pi)).max() <= 1e-12
        assert np.abs(res.galilean.full - (eye + pi @ g)).max() <= 1e-12
        assert np.abs(res.dressing.full - (eye + 0.5 * (pi @ g))).max() <= 1e-12

    def test_reduction_report(self):
        raw = np.array([[0.2, 0.5 - 0.1j], [0.5 + 0.1j, 1.3]])
        report = gauge_reduction_check(validate_coupling(raw, 1, 1))
        assert report["z_zero_residual"] <= 1e-12
        for residuals in report["scalar_residuals"].values():
            assert max(residuals.values()) <= 1e-12

    def test_reduction_random_matrix_case(self):
        rng = np.random.default_rng(10)
        e = random_coupling(rng, 2, 2)
        report = gauge_reduction_check(e)
        assert report["z_zero_residual"] <= 1e-12

    def test_gauged_ito_isometry_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m, n = (1, 1) if rng.uniform() < 0.5 else (2, 2)
            e = random_coupling(rng, m, n)
            res = slh_triple(e, random_gauge(rng, m, n))
            assert res.ito_isometry_defect() <= 1e-10
            assert res.s_unitarity_defect() <= 1e-10
            assert res.h_hermiticity_defect() <= 1e-10

    def test_scalar_gauge_equals_matrix_gauge(self):
        rng = np.random.default_rng(14)
        e = random_coupling(rng, 2, 1)
        sigma = 0.45
        res_scalar = slh_triple(e, ScalarGauge(sigma))
        res_matrix = slh_triple(e, GaugeMatrix(sigma * np.eye(2)))
        assert np.abs(res_scalar.ito.full - res_matrix.ito.full).max() <= 1e-14
