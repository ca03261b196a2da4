from dataclasses import replace

import numpy as np
import pytest

from slhkit import slh
from slhkit.ensembles import random_coupling, random_gauge
from slhkit.errors import NonHermitianInput, SingularDressing, SizeMismatch
from slhkit.linalg import adjoint, cayley, channel_projector
from slhkit.punctured_line import kappas
from slhkit.slh import (
    GAUGE_CHECK_SIGMAS,
    CouplingMatrix,
    GaugeMatrix,
    ScalarGauge,
    derived_matrices,
    gauge_reduction_check,
    identity_residuals,
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
    ell = e.full[m:, m:]
    el0 = e.full[m:, :m]
    e0l = e.full[:m, m:]
    den = np.linalg.inv(np.eye(nm) + 1j * (ell @ kp))
    s = den @ (np.eye(nm) - 1j * (ell @ km))
    l = -1j * (den @ el0)
    w = e0l @ kp @ den @ el0
    h = e.full[:m, :m] + (w - adjoint(w)) / 2j
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
        # wrong (1+n)m side, m = 0, n = 0 and a 3-d array, through validation
        # and through direct construction
        for raw, m, n in ((np.zeros((3, 3)), 1, 1), (np.eye(5), 2, 2),
                          (np.zeros((0, 0)), 0, 1), (np.zeros((2, 2)), 2, 0),
                          (np.zeros((2, 2, 2)), 1, 1)):
            with pytest.raises(SizeMismatch):
                validate_coupling(raw, m, n)
            with pytest.raises(SizeMismatch):
                CouplingMatrix(m=m, n=n, full=raw)


class TestItoMatrix:
    def test_zero_coupling(self):
        e = validate_coupling(np.zeros((4, 4)), 2, 1)
        assert np.abs(ito_matrix(e)).max() == 0.0

    def test_scalar_diagonal_example(self):
        # oracle: -2i/(1+i) evaluated with plain complex arithmetic
        expected = -2j / (1 + 1j)
        assert expected == -1 - 1j
        e = validate_coupling(np.diag([0.0, 2.0]), 1, 1)
        g = ito_matrix(e)
        assert abs(g[0, 0]) == 0.0
        assert abs(g[1, 1] - expected) < 1e-14
        s = 1.0 + g[1, 1]
        assert abs(s - (-1j)) < 1e-14

    def test_gauged_scalar_oracle(self):
        # G_ll = -ie / (1 - ez + ie/2), unimodular S, for real e and z
        for e_val in (-2.0, -0.5, 1.0, 2.0):
            for z_val in (-1.0, 0.0, 0.3, 1.0):
                e = validate_coupling(np.diag([0.0, e_val]), 1, 1)
                gauge = GaugeMatrix(np.array([[z_val]]))
                g = ito_matrix(e, gauge)
                oracle = -1j * e_val / (1 - e_val * z_val + 0.5j * e_val)
                assert abs(g[1, 1] - oracle) < 1e-14
                s = 1 + g[1, 1]
                s_oracle = ((1 - e_val * z_val - 0.5j * e_val)
                            / (1 - e_val * z_val + 0.5j * e_val))
                assert abs(s - s_oracle) < 1e-14
                assert abs(abs(s) - 1.0) < 1e-14

    def test_singular_dressing_surfaces(self):
        # Reachable only by bypassing hermiticity validation: E_ll = 2i makes
        # the dressing factor 1 + i*(2i)/2 = 0.
        forged = CouplingMatrix(m=1, n=1, full=np.diag([0.0, 2j]))
        with pytest.raises(SingularDressing):
            ito_matrix(forged)


class TestDerivedMatrices:
    def test_zero_coupling(self):
        e = validate_coupling(np.zeros((2, 2)), 1, 1)
        v, mm, f = derived_matrices(ito_matrix(e), 1, 1)
        assert np.abs(v - channel_projector(1, 1)).max() == 0.0
        assert np.abs(mm - np.eye(2)).max() == 0.0
        assert np.abs(f - np.eye(2)).max() == 0.0

    def test_scalar_example_blocks(self):
        e = validate_coupling(np.diag([0.0, 2.0]), 1, 1)
        v, mm, f = derived_matrices(ito_matrix(e), 1, 1)
        assert abs(mm[1, 1] - (-1j)) < 1e-14
        assert abs(f[1, 1] - (1 - 1j) / 2) < 1e-14
        assert abs(mm[0, 0] - 1.0) == 0.0

    def test_definitional_identities(self):
        rng = np.random.default_rng(5)
        e = random_coupling(rng, 2, 2)
        g = ito_matrix(e)
        v, mm, _ = derived_matrices(g, 2, 2)
        pi = channel_projector(2, 2)
        assert np.abs(pi @ (v - g) - pi).max() == 0.0
        assert np.abs((np.eye(6) - pi) @ (mm - np.eye(6))).max() == 0.0


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
        scalar = gauge_reduction_check(validate_coupling(raw, 1, 1))
        assert tuple(scalar["scalar_residuals"]) == GAUGE_CHECK_SIGMAS
        for residuals in scalar["scalar_residuals"].values():
            assert list(residuals) == ["s", "l", "h"]
            assert max(residuals.values()) < 1e-13

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

    def test_first_row_of_model_matrix_unchanged(self):
        rng = np.random.default_rng(8)
        e = random_coupling(rng, 2, 2)
        res = slh_triple(e)
        assert np.abs(res.model[:2] - res.ito[:2]).max() == 0.0

    def test_scalar_matches_cayley(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            e = random_coupling(rng, 1, 1)
            res = slh_triple(e)
            ref = cayley(e.full[1:, 1:], 0.5)
            assert abs(res.s[0, 0] - ref[0, 0]) <= 1e-12

    def test_small_coupling_matches_exponential_phase(self):
        for e_val in np.linspace(-0.3, 0.3, 13):
            if e_val == 0.0:
                continue
            e = validate_coupling(np.diag([0.0, e_val]), 1, 1)
            s = slh_triple(e).s[0, 0]
            assert abs(s - np.exp(-1j * e_val)) <= abs(e_val) ** 3 / 10


class TestIdentityResiduals:
    UNGAUGED = ["g_equals_minus_ief", "dressing_inverse", "half_e_galilean"]

    def test_keys_in_report_order(self):
        rng = np.random.default_rng(11)
        e = random_coupling(rng, 2, 1)
        common = ["ito_isometry", "s_unitarity", "h_hermiticity",
                  "recomposition", "first_row"]
        assert list(identity_residuals(slh_triple(e))) == common + self.UNGAUGED
        gauged = slh_triple(e, random_gauge(rng, 2, 1))
        assert list(identity_residuals(gauged)) == common

    @pytest.mark.parametrize("field,key", [
        ("ito", "ito_isometry"),
        ("s", "s_unitarity"),
        ("h", "h_hermiticity"),
        ("l", "recomposition"),
        ("model", "first_row"),
        ("dressing", "g_equals_minus_ief"),
        ("dressing", "dressing_inverse"),
        ("galilean", "half_e_galilean"),
    ])
    def test_perturbed_matrix_fails_its_identity(self, field, key):
        # every entry of one matrix moved by 1e-6 (1 + i): the identity that
        # reads it must rise far above its 1e-10 bound
        res = slh_triple(random_coupling(np.random.default_rng(12), 2, 2))
        moved = getattr(res, field) + 1e-6 * (1 + 1j)
        assert identity_residuals(res)[key] <= 1e-10
        assert identity_residuals(replace(res, **{field: moved}))[key] > 1e-8


class TestGaugeFamily:
    def test_scalar_gauge_constants(self):
        kp, km = kappas(0.7)
        assert kp + km == 1.0
        assert np.conj(kp) == km
        assert kp.real == 0.5

    def test_derived_matrices_definitions(self):
        rng = np.random.default_rng(15)
        e = random_coupling(rng, 2, 1)
        res = slh_triple(e, ScalarGauge(0.2))
        pi = channel_projector(2, 1)
        g = res.ito
        eye = np.eye(4)
        assert np.abs(res.model - (g + pi)).max() <= 1e-12
        assert np.abs(res.galilean - (eye + pi @ g)).max() <= 1e-12
        assert np.abs(res.dressing - (eye + 0.5 * (pi @ g))).max() <= 1e-12

    def test_reduction_report(self):
        raw = np.array([[0.2, 0.5 - 0.1j], [0.5 + 0.1j, 1.3]])
        report = gauge_reduction_check(validate_coupling(raw, 1, 1))
        assert report["z_zero_residual"] <= 1e-12
        for residuals in report["scalar_residuals"].values():
            assert max(residuals.values()) <= 1e-12

    def test_closed_forms_fail_with_wrong_kappas(self, monkeypatch):
        # the pipeline never reads kappas, so a wrong kappa_pm = 1/2 -+ 2i sigma
        # in the closed forms must show at every sigma != 0
        raw = np.array([[0.2, 0.5 - 0.1j], [0.5 + 0.1j, 1.3]])
        e = validate_coupling(raw, 1, 1)
        monkeypatch.setattr(slh, "kappas",
                            lambda sigma: (complex(0.5, 2 * sigma),
                                           complex(0.5, -2 * sigma)))
        residuals = gauge_reduction_check(e)["scalar_residuals"]
        for sigma, values in residuals.items():
            assert (max(values.values()) > 1e-3) == (sigma != 0.0)

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
            residuals = identity_residuals(slh_triple(e, random_gauge(rng, m, n)))
            assert residuals["ito_isometry"] <= 1e-10
            assert residuals["s_unitarity"] <= 1e-10
            assert residuals["h_hermiticity"] <= 1e-10

    def test_scalar_gauge_equals_matrix_gauge(self):
        rng = np.random.default_rng(14)
        e = random_coupling(rng, 2, 1)
        sigma = 0.45
        res_scalar = slh_triple(e, ScalarGauge(sigma))
        res_matrix = slh_triple(e, GaugeMatrix(sigma * np.eye(2)))
        assert np.abs(res_scalar.ito - res_matrix.ito).max() <= 1e-14
