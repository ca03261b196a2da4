import numpy as np
import pytest

from slhkit import punctured_line
from slhkit.ensembles import random_bump, random_grid_function
from slhkit.errors import DomainTooSmall, InvalidMollifier, SpecMismatch, TooLarge
from slhkit.punctured_line import (
    GridFunction,
    GridSpec,
    _trapezoid_half,
    apply_iD,
    boundary_form,
    boundary_phase,
    decompose_sobolev,
    defect_vectors,
    derivative,
    extension_domain_defect,
    id_symmetry_defect,
    jay_form,
    jump_splitting_defect,
    sample,
    scatter_regularized,
    sobolev_inner,
    sobolev_norm,
    zeta_eval,
)

SPEC = GridSpec(40.0, 1e-3)


def gaussian(amp, width, center):
    return lambda t: amp * np.exp(-width * (t - center) ** 2)


class TestGrid:
    def test_spec_requires_integer_ratio(self):
        with pytest.raises(SpecMismatch):
            GridSpec(40.0, 0.00031)

    def test_spec_requires_enough_nodes(self):
        with pytest.raises(SpecMismatch):
            GridSpec(0.005, 1e-3)

    def test_no_node_at_origin(self):
        assert SPEC.left_nodes()[-1] == -SPEC.spacing
        assert SPEC.right_nodes()[0] == SPEC.spacing

    @pytest.mark.parametrize("half_width,spacing", [
        (float("nan"), 1e-3), (float("inf"), 1e-3),
        (40.0, float("nan")), (40.0, float("inf")),
    ])
    def test_spec_rejects_non_finite(self, half_width, spacing):
        with pytest.raises(SpecMismatch, match="finite"):
            GridSpec(half_width, spacing)

    @pytest.mark.parametrize("half_width,spacing", [
        (40.0, 1e-9),        # 4e10 nodes per half-line
        (1e308, 1e-300),     # the node count overflows to inf
    ])
    def test_size_guard_refuses_huge_grid(self, half_width, spacing):
        # Only the refusal is tested: the spec allocates nothing.
        with pytest.raises(TooLarge):
            GridSpec(half_width, spacing)

    def test_size_guard_admits_far_larger_than_benchmark_grid(self):
        # 50x the 80k nodes per half-line of a T = 40, h = 5e-4 grid.
        assert GridSpec(40.0, 1e-5).n_nodes == 4_000_000

    def test_function_must_decay(self):
        with pytest.raises(SpecMismatch):
            sample(SPEC, right=lambda t: np.ones_like(t))

    def test_equality_is_identity(self):
        # equal values in two distinct functions: no array truth-value error
        f = sample(SPEC, right=gaussian(1.0, 1.0, 1.0))
        g = sample(SPEC, right=gaussian(1.0, 1.0, 1.0))
        assert f == f
        assert f != g
        assert np.array_equal(f.right, g.right)
        assert len({f, g}) == 2

    def test_inner_product_requires_same_spec(self):
        other = GridSpec(40.0, 2e-3)
        f = sample(SPEC, right=gaussian(1.0, 1.0, 1.0))
        g = sample(other, right=gaussian(1.0, 1.0, 1.0))
        with pytest.raises(SpecMismatch):
            sobolev_inner(f, g)


class TestDefectVectors:
    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall):
            defect_vectors(GridSpec(20.0, 1e-3))

    def test_boundary_traces(self):
        pp, pm = defect_vectors(SPEC)
        assert pp.right_limit == -1j and pp.left_limit == 0
        assert pm.left_limit == 1j and pm.right_limit == 0

    def test_jump_functional_exact(self):
        pp, pm = defect_vectors(SPEC)
        assert pp.jump == -1j
        assert pm.jump == -1j

    def test_unit_sobolev_norm(self):
        pp, pm = defect_vectors(SPEC)
        assert abs(sobolev_norm(pp) - 1.0) <= 1e-5
        assert abs(sobolev_norm(pm) - 1.0) <= 1e-5

    def test_disjoint_supports_orthogonal(self):
        pp, pm = defect_vectors(SPEC)
        assert sobolev_inner(pp, pm) == 0.0

    def test_derivative_relation(self):
        pp, pm = defect_vectors(SPEC)
        dp = derivative(pp)
        dm = derivative(pm)
        assert np.abs(dp.right + pp.right).max() <= 1e-5
        assert np.abs(dm.left - pm.left).max() <= 1e-5


class TestSobolevInner:
    def test_self_norm_of_defect(self):
        pp, _ = defect_vectors(SPEC)
        assert abs(sobolev_inner(pp, pp) - 1.0) <= 2e-5

    def test_reproducing_property(self):
        pp, pm = defect_vectors(SPEC)
        psi = sample(SPEC, right=gaussian(1.0, 1.0, 1.0))
        val = sobolev_inner(1j * pp, psi)
        assert abs(val - np.exp(-1.0)) <= 1e-5
        psi_l = sample(SPEC, left=gaussian(0.8, 1.2, -0.9))
        val_l = sobolev_inner(-1j * pm, psi_l)
        assert abs(val_l - psi_l.left_limit) <= 1e-5

    def test_conjugate_linearity_first_slot(self):
        rng = np.random.default_rng(1)
        f = random_grid_function(rng, SPEC)
        g = random_grid_function(rng, SPEC)
        z = 0.7 - 1.3j
        lhs = sobolev_inner(z * f, g)
        rhs = np.conj(z) * sobolev_inner(f, g)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_norm_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = random_grid_function(rng, SPEC)
            assert sobolev_inner(f, f).real >= 0.0


class TestBoundaryFunctionals:
    def test_continuous_has_no_jump(self):
        psi = sample(SPEC, left=gaussian(1.0, 1.0, 0.0),
                     right=gaussian(1.0, 1.0, 0.0))
        assert psi.jump == 0.0

    def test_one_sided_step(self):
        psi = sample(SPEC, right=lambda t: np.exp(-t))
        assert psi.jump == 1.0
        assert psi.delta_star == 0.5

    def test_zeta_on_continuous_unit_trace(self):
        # both traces are e * exp(0) = e
        psi = sample(SPEC, left=gaussian(np.e, 1.0, 0.0),
                     right=gaussian(np.e, 1.0, 0.0))
        for sigma in (0.0, 0.3, -2.0):
            zeta = zeta_eval(psi, sigma)
            assert abs(zeta - psi.right_limit) <= 1e-14 * abs(psi.right_limit)

    def test_one_sided_deltas_split(self):
        rng = np.random.default_rng(3)
        f = random_grid_function(rng, SPEC)
        assert f.right_limit == f.delta_star + 0.5 * f.jump
        assert abs(f.left_limit - (f.delta_star - 0.5 * f.jump)) <= 1e-16


class TestRandomBump:
    def test_bumps_sit_on_their_half_lines(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = random_grid_function(rng, SPEC)
            left_peak = SPEC.left_nodes()[np.argmax(np.abs(f.left))]
            right_peak = SPEC.right_nodes()[np.argmax(np.abs(f.right))]
            assert -2.2 <= left_peak <= -0.7 and 0.7 <= right_peak <= 2.2
            assert f.left_limit != 0.0 and f.right_limit != 0.0
            assert f.jump != 0.0

    def test_draw_order(self):
        # amplitude (re, im), width, centre: four uniforms per bump, in the
        # order the CLI's defect suite has always drawn them
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        bump = random_bump(rng, "left")
        re, im, width, center = ref.uniform(size=4)
        amp = complex(0.3 + 1.2 * re, -1.0 + 2.0 * im)
        center = -(0.7 + 1.5 * center)
        t = np.array([-3.0, -1.0, 0.0])
        expected = amp * np.exp(-(0.5 + 1.5 * width) * (t - center) ** 2)
        assert np.allclose(bump(t), expected, rtol=1e-14, atol=0.0)
        assert rng.uniform() == ref.uniform()


class TestApplyiD:
    def test_smooth_function_has_no_singular_part(self):
        psi = sample(SPEC, left=gaussian(1.0, 1.0, 0.0),
                     right=gaussian(1.0, 1.0, 0.0))
        out = apply_iD(psi)
        assert out.coefficient == 0.0
        # regular part approximates i * derivative
        t = SPEC.right_nodes()
        exact = 1j * (-2.0 * t * np.exp(-t ** 2))
        assert np.abs(out.regular.right - exact).max() <= 1e-5

    def test_eigenrelation_on_defect_vectors(self):
        pp, pm = defect_vectors(SPEC)
        out_p = apply_iD(pp)
        assert out_p.coefficient == 1.0
        resid = out_p.regular + 1j * pp
        assert max(np.abs(resid.left).max(), np.abs(resid.right).max()) <= 1e-5
        out_m = apply_iD(pm)
        assert out_m.coefficient == 1.0
        resid = out_m.regular - 1j * pm
        assert max(np.abs(resid.left).max(), np.abs(resid.right).max()) <= 1e-5

    def test_symmetry_defect_second_order(self):
        fl, fr = gaussian(0.4 - 0.3j, 0.7, -1.1), gaussian(1.2 + 0.5j, 1.3, 0.8)
        gl, gr = gaussian(0.9 + 0.2j, 0.5, -1.7), gaussian(0.3 - 0.8j, 0.9, 1.4)
        defects = {}
        for h in (1e-3, 5e-4):
            spec = GridSpec(40.0, h)
            f = sample(spec, left=fl, right=fr)
            g = sample(spec, left=gl, right=gr)
            defects[h] = abs(id_symmetry_defect(f, g))
        ratio = defects[1e-3] / defects[5e-4]
        assert 3.5 <= ratio <= 4.5

    def test_symmetry_defect_damped(self):
        rng = np.random.default_rng(4)
        f = random_grid_function(rng, SPEC)
        g = random_grid_function(rng, SPEC)
        for sigma in (0.0, 0.3, -1.0):
            assert abs(id_symmetry_defect(f, g, sigma)) <= 1e-4

    def test_boundary_form_matches_trace_form(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = random_grid_function(rng, SPEC)
            g = random_grid_function(rng, SPEC)
            assert abs(boundary_form(f, g) + 1j * jay_form(f, g)) <= 1e-4


class TestJumpSplitting:
    def test_identity_exact_boundary_arithmetic(self):
        rng = np.random.default_rng(6)
        for sigma in (0.0, 0.3, -1.0):
            for _ in range(100):
                values = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(4))
                assert jump_splitting_defect(*values, sigma) <= 1e-13

    def test_wrong_kappas_break_the_identity(self, monkeypatch):
        # kappa_+ must be conj(kappa_-) with real part 1/2
        monkeypatch.setattr(punctured_line, "kappas",
                            lambda sigma: (complex(0.5, 1.1 * sigma),
                                           complex(0.5, -sigma)))
        values = (0.3 - 0.2j, -0.7 + 0.1j, 0.4 + 0.9j, 0.8 - 0.5j)
        assert jump_splitting_defect(*values, 0.0) <= 1e-13
        assert jump_splitting_defect(*values, 0.3) > 1e-3


class TestDecomposition:
    def test_continuous_vanishing_function_untouched(self):
        psi = sample(SPEC, left=lambda t: t * np.exp(-(t + 1.0) ** 2),
                     right=lambda t: t * np.exp(-(t - 1.0) ** 2))
        dec = decompose_sobolev(psi)
        assert dec.c_plus == 0.0 and dec.c_minus == 0.0
        assert np.abs(dec.psi0.right - psi.right).max() == 0.0

    def test_defect_vector_components(self):
        pp, pm = defect_vectors(SPEC)
        dec = decompose_sobolev(pp)
        assert dec.c_plus == 1.0 and dec.c_minus == 0.0
        assert np.abs(dec.psi0.right).max() <= 1e-16
        dec_m = decompose_sobolev(pm)
        assert dec_m.c_plus == 0.0 and dec_m.c_minus == 1.0

    def test_linear_ramp_example(self):
        psi = sample(SPEC, right=lambda t: np.where(t < 1.0, 1.0 - t, 0.0),
                     right_limit=1.0)
        dec = decompose_sobolev(psi)
        assert dec.c_plus == 1j
        assert dec.psi0.right_limit == 0.0

    def test_boundary_values_vanish_and_orthogonal(self):
        rng = np.random.default_rng(7)
        pp, pm = defect_vectors(SPEC)
        for _ in range(5):
            psi = random_grid_function(rng, SPEC)
            dec = decompose_sobolev(psi)
            assert dec.psi0.left_limit == 0.0
            assert dec.psi0.right_limit == 0.0
            scale = sobolev_norm(dec.psi0)
            assert abs(sobolev_inner(pp, dec.psi0)) <= 1e-5 * scale
            assert abs(sobolev_inner(pm, dec.psi0)) <= 1e-5 * scale
            recon = dec.psi0 + dec.c_plus * pp + dec.c_minus * pm
            diff = recon - psi
            assert max(np.abs(diff.left).max(), np.abs(diff.right).max()) <= 1e-13


class TestBoundaryPhase:
    def test_zero_coupling(self):
        ph = boundary_phase(0.0)
        assert ph.s == 1.0 and ph.s_sigma == 1.0 and ph.s_chebotarev == 1.0

    def test_pi_values(self):
        ph = boundary_phase(float(np.pi))
        assert abs(ph.s_chebotarev - (-1.0)) <= 1e-15
        assert abs(np.angle(ph.s) - (-2 * np.arctan(np.pi / 2))) <= 1e-12

    def test_cayley_is_exponential_to_third_order(self):
        ph = boundary_phase(0.1, 0.0)
        assert abs(ph.s - np.exp(-0.1j)) <= 1e-4
        assert ph.s_sigma == ph.s

    def test_unimodular_family(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            e = rng.uniform(-6, 6)
            sigma = rng.uniform(-2, 2)
            ph = boundary_phase(e, sigma)
            assert abs(abs(ph.s) - 1) <= 1e-14
            assert abs(abs(ph.s_sigma) - 1) <= 1e-14
            assert abs(abs(ph.s_chebotarev) - 1) <= 1e-14

    def test_extension_domain_annihilates_singular_part(self):
        for e in (0.5, 2.0, float(np.pi)):
            for sigma in (0.0, 0.3, -1.0):
                assert extension_domain_defect(e, sigma, complex(0.7, -0.4)) \
                    <= 1e-13

    def test_wrong_damped_phase_leaves_the_extension_domain(self, monkeypatch):
        # still unimodular, but not the phase of the kappa boundary condition
        monkeypatch.setattr(punctured_line, "_damped_phase",
                            lambda e, sigma: (1.0 - 0.6j * e) / (1.0 + 0.6j * e))
        for e in (0.5, 2.0, float(np.pi)):
            assert extension_domain_defect(e, 0.0, complex(0.7, -0.4)) > 1e-3


class TestScatter:
    def test_zero_coupling_phase_one(self):
        r = scatter_regularized(0.0, 0.1)
        assert r.transmitted_phase == 1.0

    def test_pi_transmission_and_contrast(self):
        for eps in (0.1, 0.05):
            r = scatter_regularized(float(np.pi), eps)
            assert abs(r.transmitted_phase - (-1.0)) <= 1e-6
            assert r.contrast > 0.5
        # frozen contrast oracle |exp(-i pi) - s(pi)| computed independently
        assert abs(scatter_regularized(float(np.pi), 0.1).contrast
                   - 1.07405854429263) <= 1e-10

    def test_epsilon_independence(self):
        r1 = scatter_regularized(1.3, 0.1)
        r2 = scatter_regularized(1.3, 0.05)
        assert abs(r1.transmitted_phase - r2.transmitted_phase) <= 1e-8

    def test_mollifier_integral_normalized(self):
        for name in ("bump", "cos2"):
            r = scatter_regularized(2.0, 0.1, name)
            assert abs(r.mollifier_integral - 1.0) <= 1e-8

    def test_unknown_mollifier_rejected(self):
        with pytest.raises(InvalidMollifier):
            scatter_regularized(1.0, 0.1, "sawtooth")

    def test_nonpositive_width_rejected(self):
        with pytest.raises(InvalidMollifier):
            scatter_regularized(1.0, -0.1)


def old_derivative_half(values, h):
    """The stencil as first written (complex division), kept as the oracle."""
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


def random_noise_function(rng, spec):
    """Unstructured complex values, zero only on the three nodes at each
    truncation boundary (so the derivative vanishes there too)."""
    n = spec.n_nodes
    left = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    right = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    left[:3] = right[-3:] = 0.0
    return GridFunction(spec, left, right, complex(*rng.standard_normal(2)),
                        complex(*rng.standard_normal(2)))


class TestKernelOracles:
    """The copy-free kernels and the caches against the plain formulas,
    compared with ==, not a tolerance."""

    @pytest.mark.parametrize("n,h", [(11, 1e-3), (1000, 5e-4), (80_000, 5e-4),
                                     (4097, 0.3)])
    def test_trapezoid_matches_concatenated_trapezoid(self, n, h):
        rng = np.random.default_rng(n)
        for _ in range(3):
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = complex(*rng.standard_normal(2))
            left = complex(np.trapezoid(np.concatenate([values, [b]]), dx=h))
            right = complex(np.trapezoid(np.concatenate([[b], values]), dx=h))
            assert _trapezoid_half(values, b, h, True) == left
            assert _trapezoid_half(values, b, h, False) == right

    @pytest.mark.parametrize("spec", [SPEC, GridSpec(40.0, 5e-4),
                                      GridSpec(30.0, 3e-3)])
    def test_derivative_matches_stencils_and_is_cached(self, spec):
        rng = np.random.default_rng(3)
        for f in (random_noise_function(rng, spec), random_grid_function(rng, spec)):
            d = derivative(f)
            assert derivative(f) is d
            h = spec.spacing
            assert np.array_equal(d.left, old_derivative_half(f.left, h))
            assert np.array_equal(d.right, old_derivative_half(f.right, h))
            assert d.left_limit == complex(
                (3.0 * f.left_limit - 4.0 * f.left[-1] + f.left[-2]) / (2.0 * h))
            assert d.right_limit == complex(
                (-3.0 * f.right_limit + 4.0 * f.right[0] - f.right[1]) / (2.0 * h))

    def test_derivative_is_validated(self):
        # A steep rise next to -T gives a derivative that does not vanish at
        # the truncation boundary; the derivative is a checked GridFunction.
        left = np.zeros(SPEC.n_nodes, dtype=complex)
        left[1] = 1.0
        f = GridFunction(SPEC, left, np.zeros(SPEC.n_nodes, dtype=complex),
                         0.0, 0.0)
        with pytest.raises(SpecMismatch, match="vanish"):
            derivative(f)

    def test_values_are_read_only_views(self):
        left = np.zeros(SPEC.n_nodes, dtype=complex)
        right = np.zeros(SPEC.n_nodes, dtype=complex)
        right[5] = 1.0
        f = GridFunction(SPEC, left, right, 0.0, 0.0)
        assert not f.left.flags.writeable and not f.right.flags.writeable
        with pytest.raises(ValueError):
            f.right[5] = 2.0
        assert left.flags.writeable and right.flags.writeable
        left[3] = 1.0
        assert np.shares_memory(f.left, left)

    def test_defect_vectors_shared_for_equal_specs(self):
        pp, pm = defect_vectors(GridSpec(40.0, 1e-3))
        again = defect_vectors(GridSpec(40, 0.001))
        assert again[0] is pp and again[1] is pm
