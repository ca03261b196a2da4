import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from slhkit import phases, punctured_line
from slhkit.cli import command_defect
from slhkit.config import config_from_dict
from slhkit.ensembles import EXP_ZERO_BELOW, random_bump, random_grid_function
from slhkit.report import Report
from slhkit.errors import DomainTooSmall, InvalidMollifier, SpecMismatch, TooLarge
from slhkit.phases import boundary_phase, scatter_regularized
from slhkit.punctured_line import (
    SIDES,
    GridFunction,
    GridSpec,
    PANEL_CHUNK,
    Half,
    _is_zero_half,
    _panel_nodes,
    _panel_sum,
    _pass,
    _tree_sum,
    apply_iD,
    decompose_sobolev,
    decomposition_defects,
    decomposition_half,
    decomposition_values,
    defect_coefficients,
    defect_halves,
    defect_vectors,
    derivative,
    eigenrelation_defects,
    extension_domain_defect,
    jump_splitting_defect,
    l2_inner,
    reproducing_defects,
    sample,
    sample_half,
    sobolev_inner,
    sobolev_norm,
    symmetry_defects,
    zero_half,
    zeta_eval,
)

SPEC = GridSpec(40.0, 1e-3)


def gaussian(amp, width, center):
    return lambda t: amp * np.exp(-width * (t - center) ** 2)


def defect_suite_peak(half_width, spacing):
    """The tracemalloc peak, in bytes, of one CLI defect suite."""
    config = config_from_dict({"m": 1, "n": 1,
                               "E": [[[0.3, 0.0], [0.5, -0.2]],
                                     [[0.5, 0.2], [1.0, 0.0]]],
                               "grid": {"T": half_width, "h": spacing}})
    np.random.default_rng(0)  # numpy.random imports lazily, once
    defect_vectors.cache_clear()
    tracemalloc.start()
    try:
        command_defect(config, 0, 0, Report("defect", ""))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGrid:
    def test_spec_requires_integer_ratio(self):
        with pytest.raises(SpecMismatch):
            GridSpec(40.0, 0.00031)

    def test_spec_requires_enough_nodes(self):
        with pytest.raises(SpecMismatch):
            GridSpec(0.005, 1e-3)

    def test_no_node_at_origin(self):
        assert SPEC.nodes(True)[-1] == -SPEC.spacing
        assert SPEC.nodes(False)[0] == SPEC.spacing

    @pytest.mark.parametrize("half_width,spacing", [
        (40.0, 5e-4), (30.0, 3e-3), (40.0, 1e-4), (0.011, 1e-3)])
    def test_node_windows_match_linspace(self, half_width, spacing):
        # The defect suite forms each leaf's nodes by themselves; they are
        # np.linspace's nodes bit for bit, the last one included.
        spec = GridSpec(half_width, spacing)
        n = spec.n_nodes
        for left in SIDES:
            whole = (np.linspace(-half_width, -spacing, n) if left
                     else np.linspace(spacing, half_width, n))
            assert np.array_equal(spec.nodes(left).view(np.int64),
                                  whole.view(np.int64))
            for lo in (*range(0, n, 2531), n - 3):
                hi = min(lo + 2600, n)
                assert np.array_equal(spec.nodes(left, lo, hi).view(np.int64),
                                      whole[lo:hi].view(np.int64))

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

    def test_size_guard_edge(self):
        # 2 GiB over DEFECT_LIVE_ARRAYS = 3 two-sided arrays of 32 B per
        # node admits 22,369,621 nodes per half-line.
        assert GridSpec(40.0, 4e-6).n_nodes == 10_000_000
        assert GridSpec(13.5, 1e-6).n_nodes == 13_500_000
        assert GridSpec(22.3, 1e-6).n_nodes == 22_300_000
        with pytest.raises(TooLarge):
            GridSpec(22.4, 1e-6)       # 22.4M nodes

    @pytest.mark.parametrize("half_width,spacing", [(30.0, 3e-3), (40.0, 2e-3)])
    def test_defect_suite_peak_within_guard(self, half_width, spacing):
        # The guard's premise: the CLI defect suite never holds more than
        # DEFECT_LIVE_ARRAYS two-sided complex arrays. Reading every half
        # leaf by leaf it holds one leaf's buffers and no node array:
        # measured 1.05 and 0.51 arrays at these sizes. One half-line
        # buffer would add 0.5.
        n = GridSpec(half_width, spacing).n_nodes
        peak = defect_suite_peak(half_width, spacing)
        assert peak <= punctured_line.DEFECT_LIVE_ARRAYS * 32 * n
        measured = {(30.0, 3e-3): 1.05, (40.0, 2e-3): 0.51}
        assert peak <= (measured[half_width, spacing] + 0.1) * 32 * n

    def test_defect_suite_releases_the_defect_pair(self):
        # The groups read each defect-vector half in closed form: the
        # two-sided cached pair is never asked for.
        config = config_from_dict({"m": 1, "n": 1,
                                   "E": [[[0.3, 0.0], [0.5, -0.2]],
                                         [[0.5, 0.2], [1.0, 0.0]]],
                                   "grid": {"T": 30.0, "h": 3e-3}})
        defect_vectors.cache_clear()
        command_defect(config, 0, 0, Report("defect", ""))
        info = defect_vectors.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_defect_suite_peak_is_flat_in_n(self):
        # The peak is one leaf's buffers, under nine complex arrays of at
        # most PANEL_CHUNK values, whatever n: measured 327.2 and 326.8 KiB
        # at 10k and 80k nodes, whose leaves both hold 2,500 values. One
        # half-line buffer at 80k nodes is 1.25 MB.
        leaf = 16 * PANEL_CHUNK
        small, large = (defect_suite_peak(*size)
                        for size in ((30.0, 3e-3), (40.0, 5e-4)))
        assert max(small, large) <= 9 * leaf
        assert abs(large - small) <= leaf

    def test_defect_suite_matches_the_two_sided_functions(self):
        # The suite's half-line passes and the two-sided functions run the
        # same per-half code: on the same draws every value is equal bit
        # for bit.
        spec = GridSpec(30.0, 3e-3)
        config = config_from_dict({"m": 1, "n": 1,
                                   "E": [[[0.3, 0.0], [0.5, -0.2]],
                                         [[0.5, 0.2], [1.0, 0.0]]],
                                   "grid": {"T": 30.0, "h": 3e-3}, "seed": 5})
        report = Report("defect", "")
        command_defect(config, 5, 0, report)
        got = {c.name: c.value for c in report.checks}

        rng = np.random.default_rng(5)
        pp, pm = defect_vectors(spec)
        expected = {"jump_on_defect_plus": abs(pp.jump - (-1j)),
                    "jump_on_defect_minus": abs(pm.jump - (-1j)),
                    "defect_norm_plus": abs(sobolev_norm(pp) - 1.0),
                    "defect_norm_minus": abs(sobolev_norm(pm) - 1.0),
                    "defect_overlap": abs(sobolev_inner(pp, pm))}
        expected["reproducing_plus"], expected["reproducing_minus"] = \
            reproducing_defects(spec, (
                (sample(spec, right=random_bump(rng, "right")),
                 sample(spec, left=random_bump(rng, "left")))
                for _ in range(10)))
        for _ in range(10):
            f = random_grid_function(rng, spec)
            for key, value in decomposition_defects(f).items():
                name = f"decomposition_{key}"
                expected[name] = max(expected.get(name, 0.0), value)
        for name, phi, sign in (("plus", pp, 1.0), ("minus", pm, -1.0)):
            for key, value in eigenrelation_defects(phi, sign).items():
                expected[f"eigenrelation_{name}_{key}"] = value
        rng.uniform(-1, 1, size=(3, 100, 4, 2))  # the jump-splitting draw
        f = random_grid_function(rng, spec)
        expected.update(symmetry_defects(f, random_grid_function(rng, spec),
                                         0.3))
        assert len(expected) == 17
        for name, value in expected.items():
            assert got[name] == value, name

    def test_reproducing_defects_releases_each_pair(self):
        # The pairs come from a generator. While the next pair is drawn, the
        # previous one must already be free, the pairing with phi_pm is
        # rotated rather than formed on scaled copies of phi_pm, and every
        # derivative is formed leaf by leaf: the peak stays near 2.4
        # two-sided arrays (defect vectors, one pair, one draw's node grid
        # and temporaries, leaf buffers), not 2.9 (a half-line buffer, a
        # scaled copy or a derivative formed whole) or more.
        spec = GridSpec(40.0, 2e-3)
        rng = np.random.default_rng(0)
        defect_vectors.cache_clear()
        tracemalloc.start()
        try:
            reproducing_defects(spec, (
                (sample(spec, right=random_bump(rng, "right")),
                 sample(spec, left=random_bump(rng, "left")))
                for _ in range(4)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 32 * spec.n_nodes

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

    @pytest.mark.parametrize("spec", [GridSpec(30.0, 3e-3), SPEC])
    def test_rotated_pairing_is_bit_exact(self, spec):
        # reproducing_defects pairs with phi_pm and rotates by -+i instead of
        # pairing with i phi_+ and -i phi_-: a factor of +-i only swaps and
        # negates components, so every rounding of the pairing commutes with
        # it and the two agree bit for bit. (A pairing of disjoint supports
        # is exactly zero, and there the two may differ in the sign of a
        # zero, so each psi meets phi_pm's half-line.)
        def bits(z):
            return np.array([z]).view(np.int64)

        pp, pm = defect_vectors(spec)
        rng = np.random.default_rng(5)
        for _ in range(3):
            both = random_grid_function(rng, spec)
            for psi in (both, sample(spec, right=random_bump(rng, "right"))):
                np.testing.assert_array_equal(
                    bits(-1j * sobolev_inner(pp, psi)),
                    bits(sobolev_inner(1j * pp, psi)))
            for psi in (both, sample(spec, left=random_bump(rng, "left"))):
                np.testing.assert_array_equal(
                    bits(1j * sobolev_inner(pm, psi)),
                    bits(sobolev_inner(-1j * pm, psi)))

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
            left_peak = SPEC.nodes(True)[np.argmax(np.abs(f.left))]
            right_peak = SPEC.nodes(False)[np.argmax(np.abs(f.right))]
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

    def test_in_place_evaluation_matches_formula(self):
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        bump = random_bump(rng, "right")
        amp = complex(ref.uniform(0.3, 1.5), ref.uniform(-1.0, 1.0))
        width, center = ref.uniform(0.5, 2.0), ref.uniform(0.7, 2.2)
        # T = 40 reaches arguments far below exp's underflow, and the
        # subnormal results just above it
        t = SPEC.nodes(False)
        values = bump(t)
        expected = amp * np.exp(-width * (t - center) ** 2)
        assert np.array_equal(values.view(np.int64), expected.view(np.int64))
        assert np.array_equal(t, SPEC.nodes(False))

    @pytest.mark.parametrize("n", [10, 4095, 4096, 4097, 12295])
    def test_chunked_bump_matches_one_temporary_expression(self, n):
        # PANEL_CHUNK = 4096 nodes per chunk: one short chunk, one exact
        # chunk, a one-node last chunk and three chunks with a partial one.
        assert PANEL_CHUNK == 4096
        for side, t in (("right", np.linspace(1e-3, 60.0, n)),
                        ("left", np.linspace(-60.0, -1e-3, n))):
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            bump = random_bump(rng, side)
            amp = complex(ref.uniform(0.3, 1.5), ref.uniform(-1.0, 1.0))
            width = ref.uniform(0.5, 2.0)
            center = ref.uniform(0.7, 2.2) * (1.0 if side == "right" else -1.0)
            # the whole-array evaluation in one float temporary
            x = t - center
            np.square(x, out=x)
            x *= -width
            np.exp(x, out=x, where=x >= EXP_ZERO_BELOW)
            x[x < EXP_ZERO_BELOW] = 0.0
            expected = amp * x
            assert (x == 0.0).any() and (x > 0.0).any()
            assert np.array_equal(bump(t).view(np.int64),
                                  expected.view(np.int64))

    def test_bump_on_node_chunks_matches_whole_evaluation(self):
        # The CLI evaluates each draw on one leaf's nodes at a time, padded
        # windows that overlap, and again on the leaf's own nodes for the
        # reconstruction residual; each must be the whole draw's values bit
        # for bit, partial last window included.
        spec = GridSpec(30.0, 3e-3)
        rng = np.random.default_rng(21)
        n = spec.n_nodes
        for side in ("left", "right"):
            bump = random_bump(rng, side)
            whole = bump(spec.nodes(side == "left"))
            half = sample_half(spec, side == "left", bump)
            for lo, hi in ((0, 2502), (2498, 5002), (4998, n), (n - 3, n)):
                got = half.values(lo, hi)
                assert np.array_equal(got.view(np.int64),
                                      whole[lo:hi].view(np.int64))


class TestApplyiD:
    def test_smooth_function_has_no_singular_part(self):
        psi = sample(SPEC, left=gaussian(1.0, 1.0, 0.0),
                     right=gaussian(1.0, 1.0, 0.0))
        out = apply_iD(psi)
        assert out.coefficient == 0.0
        # regular part approximates i * derivative
        t = SPEC.nodes(False)
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

    @pytest.mark.parametrize("spec", [GridSpec(30.0, 3e-3), GridSpec(40.0, 5e-4)])
    def test_eigenrelation_defects_equal_the_grid_function_expression(self, spec):
        # the chunked reduction rounds every node as the whole-array form
        pp, pm = defect_vectors(spec)
        for phi, sign in ((pp, 1.0), (pm, -1.0)):
            action = apply_iD(phi)
            resid = action.regular + (sign * 1j) * phi
            assert eigenrelation_defects(phi, sign) == {
                "coefficient": abs(action.coefficient - 1.0),
                "regular": max(float(np.abs(resid.left).max()),
                               float(np.abs(resid.right).max()))}

    def test_symmetry_defect_second_order(self):
        fl, fr = gaussian(0.4 - 0.3j, 0.7, -1.1), gaussian(1.2 + 0.5j, 1.3, 0.8)
        gl, gr = gaussian(0.9 + 0.2j, 0.5, -1.7), gaussian(0.3 - 0.8j, 0.9, 1.4)
        defects = {}
        for h in (1e-3, 5e-4):
            spec = GridSpec(40.0, h)
            f = sample(spec, left=fl, right=fr)
            g = sample(spec, left=gl, right=gr)
            defects[h] = symmetry_defects(f, g, 0.3)["id_symmetry_defect"]
        ratio = defects[1e-3] / defects[5e-4]
        assert 3.5 <= ratio <= 4.5

    def test_symmetry_defect_damped(self):
        rng = np.random.default_rng(4)
        f = random_grid_function(rng, SPEC)
        g = random_grid_function(rng, SPEC)
        for sigma in (0.0, 0.3, -1.0):
            assert symmetry_defects(f, g, sigma)["id_symmetry_defect_damped"] <= 1e-4

    def test_symmetry_defects_match_separate_pairings(self):
        # the three checks as first written, each forming its own pairings
        rng = np.random.default_rng(7)
        f = random_grid_function(rng, SPEC)
        g = random_grid_function(rng, SPEC)

        def pair(u, s, sigma):
            return (l2_inner(u, s.regular)
                    + s.coefficient * np.conj(zeta_eval(u, sigma)))

        def id_defect(sigma):
            return abs(pair(f, apply_iD(g), sigma)
                       - np.conj(pair(g, apply_iD(f), sigma)))

        boundary = (l2_inner(f, apply_iD(g).regular)
                    - np.conj(l2_inner(g, apply_iD(f).regular)))
        jay = (np.conj(f.right_limit) * g.right_limit
               - np.conj(f.left_limit) * g.left_limit)
        assert symmetry_defects(f, g, 0.3) == {
            "boundary_form_vs_traces": abs(boundary + 1j * jay),
            "id_symmetry_defect": id_defect(None),
            "id_symmetry_defect_damped": id_defect(0.3)}

    def test_boundary_form_matches_trace_form(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = random_grid_function(rng, SPEC)
            g = random_grid_function(rng, SPEC)
            assert symmetry_defects(f, g, 0.3)["boundary_form_vs_traces"] <= 1e-4


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
        psi = sample(SPEC, right=lambda t: np.where(t < 1.0, 1.0 - t, 0.0))
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

    @pytest.mark.parametrize("spec", [GridSpec(30.0, 3e-3), GridSpec(40.0, 5e-4)])
    def test_reconstruction_equals_grid_function_expression(self, spec):
        # the leaf windows add in the order of the GridFunction sum
        rng = np.random.default_rng(11)
        pp, pm = defect_vectors(spec)
        for f in (random_grid_function(rng, spec),
                  random_noise_function(rng, spec),
                  sample(spec, right=random_bump(rng, "right"))):
            dec = decompose_sobolev(f)
            diff = dec.psi0 + dec.c_plus * pp + dec.c_minus * pm - f
            assert decomposition_defects(f)["reconstruction"] == max(
                float(np.abs(diff.left).max()), float(np.abs(diff.right).max()))

    @pytest.mark.parametrize("spec", [GridSpec(30.0, 3e-3), GridSpec(40.0, 5e-4)])
    def test_psi0_equals_grid_function_expression(self, spec):
        # c phi formed, then subtracted from f; a shared zero half of f is
        # negated, as GridFunction subtraction does
        rng = np.random.default_rng(13)
        pp, pm = defect_vectors(spec)
        for f in (random_grid_function(rng, spec),
                  sample(spec, right=random_bump(rng, "right")),
                  sample(spec, left=random_bump(rng, "left")), pp, pm):
            dec = decompose_sobolev(f)
            expected = f - dec.c_plus * pp - dec.c_minus * pm
            for got, want in ((dec.psi0.left, expected.left),
                              (dec.psi0.right, expected.right)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            traces = np.array([dec.psi0.left_limit, dec.psi0.right_limit,
                               expected.left_limit, expected.right_limit])
            assert np.array_equal(traces[:2].view(np.int64),
                                  traces[2:].view(np.int64))

    @pytest.mark.parametrize("spec", [GridSpec(30.0, 3e-3), GridSpec(40.0, 5e-4)])
    def test_psi0_from_sources_matches_fresh_psi0(self, spec):
        # As the CLI suite does: f's halves and phi_pm read from their
        # sources, psi0 formed leaf by leaf by decomposition_half and the
        # residual reduced against f read again. psi0 and every residual
        # equal those of a fresh psi0 of the stored f, bit for bit, the
        # reconstruction residual included.
        rng = np.random.default_rng(17)
        pp, pm = defect_vectors(spec)
        for sides in (("left", "right"), ("right",), ("left",)):
            bumps = {side: random_bump(rng, side) for side in sides}
            halves = [sample_half(spec, left,
                                  bumps.get("left" if left else "right"))
                      for left in SIDES]
            f = sample(spec, bumps.get("left"), bumps.get("right"))
            fresh = decompose_sobolev(f)
            diff = fresh.psi0 + fresh.c_plus * pp + fresh.c_minus * pm - f
            c_plus, c_minus = defect_coefficients(f.left_limit, f.right_limit)
            terms = [decomposition_half(spec, left, [(half, c_plus, c_minus)],
                                        *defect_halves(spec, left))[0]
                     for left, half in zip(SIDES, halves)]
            defects = decomposition_values(*terms)
            assert defects == decomposition_defects(f)
            assert defects["reconstruction"] == max(
                float(np.abs(diff.left).max()),
                float(np.abs(diff.right).max()))
            for left, half, want in zip(SIDES, halves,
                                        (fresh.psi0.left, fresh.psi0.right)):
                psi0 = punctured_line._psi0_half(
                    spec, left, half, c_plus, c_minus,
                    *defect_halves(spec, left)).values(0, spec.n_nodes)
                assert np.array_equal(psi0.view(np.int64),
                                      want.view(np.int64))

    def test_cli_reconstruction_check_sees_a_wrong_psi0(self, monkeypatch):
        # The residual reads psi0 as the pairings see it and f from the
        # draw itself, so the CLI check fails when psi0 is wrong: when c phi
        # is subtracted twice, or not at all.
        config = config_from_dict({"m": 1, "n": 1,
                                   "E": [[[0.3, 0.0], [0.5, -0.2]],
                                         [[0.5, 0.2], [1.0, 0.0]]],
                                   "grid": {"T": 30.0, "h": 3e-3}})

        def reconstruction():
            report = Report("defect", "")
            command_defect(config, 0, 0, report)
            return next(c for c in report.checks
                        if c.name == "decomposition_reconstruction")

        assert reconstruction().passed
        original = punctured_line._psi0_window
        for scale in (2.0, 0.0):
            with monkeypatch.context() as patch:
                patch.setattr(punctured_line, "_psi0_window",
                              lambda c, phi, f, zero, scale=scale:
                              original(scale * c, phi, f, zero))
                check = reconstruction()
            assert not check.passed and check.value > 1e-13

    @pytest.mark.parametrize("spec", [GridSpec(40.0, 1e-3), GridSpec(40.0, 5e-4)])
    def test_decomposition_peak(self, spec):
        # Above f and the cached defect vectors: psi0 is formed leaf by
        # leaf, so only leaf buffers, 0.16 and 0.08 two-sided arrays
        # (209 KB); psi0 held on one half, a residual buffer or a
        # derivative formed whole would add 0.5 or more.
        rng = np.random.default_rng(12)
        f = random_grid_function(rng, spec)
        defect_vectors(spec)
        tracemalloc.start()
        try:
            decomposition_defects(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.2 * 32 * spec.n_nodes


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
        monkeypatch.setattr(phases, "_damped_phase",
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

    @pytest.mark.parametrize("name", ["bump", "cos2"])
    def test_subnormal_width_rejected(self, name):
        # 5e-324 x the profile integral underflows to 0, and the inverse of
        # 1e-310 x it overflows; a width of 1e-300 still integrates to one
        for eps in (5e-324, 1e-310):
            with pytest.raises(InvalidMollifier, match="too small"):
                scatter_regularized(1.0, eps, name)
        r = scatter_regularized(1.0, 1e-300, name)
        assert abs(r.mollifier_integral - 1.0) <= 1e-8


def old_derivative_half(values, h):
    """The stencil as first written (complex division), kept as the oracle."""
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


def tree_trapezoid(values, boundary, h, left):
    """The trapezoid of one half-line's values closed by ``boundary``, as
    the pairing passes form it: leaf sums joined in pairwise-tree order."""
    n = values.size
    return complex(_tree_sum(n, lambda a, b: [_panel_sum(
        values[slice(*_panel_nodes(a, b, n, left))], a, b, n, boundary, h,
        left)])[0])


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
            assert tree_trapezoid(values, b, h, True) == left
            assert tree_trapezoid(values, b, h, False) == right

    @pytest.mark.parametrize("n", [10, 4095, 4096, 4097, 8193, 80_000])
    def test_l2_half_matches_trapezoid_and_keeps_its_factors(self, n):
        # one half-line's L2 pass: leaves on both sides of PANEL_CHUNK =
        # 4096, contiguous and strided factors (every other node of a
        # wider array)
        rng = np.random.default_rng(n)
        h = 2.0 ** -11
        spec = GridSpec(n * h, h)
        wide = rng.standard_normal((2, 2 * n)) + 1j * rng.standard_normal((2, 2 * n))
        for f, g in ((wide[0, :n], wide[1, :n]), (wide[0, ::2], wide[1, ::2])):
            f_before, g_before = f.copy(), g.copy()
            fb, gb = (complex(*rng.standard_normal(2)) for _ in range(2))
            b = np.conj(fb) * gb
            product = np.conj(f) * g
            left = complex(np.trapezoid(np.concatenate([product, [b]]), dx=h))
            right = complex(np.trapezoid(np.concatenate([[b], product]), dx=h))
            for side, want in ((True, left), (False, right)):
                pair = (Half(f, fb), Half(g, gb), False, False)
                assert _pass(spec, side, [([pair], None)]) == [[want]]
            assert np.array_equal(f, f_before) and np.array_equal(g, g_before)

    def test_l2_inner_holds_one_buffer_per_half(self):
        # no n-node buffer: a leaf's product and panels, each at most
        # PANEL_CHUNK values, and a few small objects
        spec = GridSpec(40.0, 5e-4)
        rng = np.random.default_rng(9)
        f = random_noise_function(rng, spec)
        g = random_noise_function(rng, spec)
        tracemalloc.start()
        try:
            l2_inner(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 * PANEL_CHUNK + 4096

    @pytest.mark.parametrize("spec", [SPEC, GridSpec(40.0, 5e-4),
                                      GridSpec(30.0, 3e-3)])
    def test_derivative_matches_stencils(self, spec):
        rng = np.random.default_rng(3)
        for f in (random_noise_function(rng, spec), random_grid_function(rng, spec)):
            d = derivative(f)
            h = spec.spacing
            assert np.array_equal(d.left, old_derivative_half(f.left, h))
            assert np.array_equal(d.right, old_derivative_half(f.right, h))
            assert d.left_limit == complex(
                (3.0 * f.left_limit - 4.0 * f.left[-1] + f.left[-2]) / (2.0 * h))
            assert d.right_limit == complex(
                (-3.0 * f.right_limit + 4.0 * f.right[0] - f.right[1]) / (2.0 * h))

    def test_derivative_is_validated(self):
        # A steep rise next to -T gives a derivative that does not vanish at
        # the truncation boundary; the derivative is a checked GridFunction,
        # and the pairings that stream it refuse f by the same check.
        left = np.zeros(SPEC.n_nodes, dtype=complex)
        left[1] = 1.0
        f = GridFunction(SPEC, left, np.zeros(SPEC.n_nodes, dtype=complex),
                         0.0, 0.0)
        message = "grid derivative at spacing h = 0.001 must vanish"
        for check in (derivative, lambda f: sobolev_inner(f, f),
                      lambda f: symmetry_defects(f, f, 0.3)):
            with pytest.raises(SpecMismatch, match=message):
                check(f)

    def test_non_finite_derivative_is_refused(self):
        # Finite values whose differences overflow: the streamed pairing
        # turns non-finite, and the derivative is then formed and refused.
        right = np.zeros(SPEC.n_nodes, dtype=complex)
        right[10], right[12] = 1e308, -1e308
        f = GridFunction(SPEC, np.zeros(SPEC.n_nodes, dtype=complex), right,
                         0.0, 0.0)
        message = "grid derivative at spacing h = 0.001 is not finite"
        for check in (derivative, lambda f: sobolev_inner(f, f)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(SpecMismatch, match=message):
                check(f)

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

    def test_strided_values_are_copied_and_checked(self):
        # validation reads the float view, which needs contiguous values
        wide = np.zeros(2 * SPEC.n_nodes, dtype=complex)
        wide[10] = 1.0 + 2.0j
        f = GridFunction(SPEC, wide[::2], wide[::2], 0.0, 0.0)
        assert f.left.flags.c_contiguous and f.left[5] == 1.0 + 2.0j
        assert not np.shares_memory(f.left, wide)
        for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
            wide[10] = bad
            with pytest.raises(SpecMismatch, match="finite"):
                GridFunction(SPEC, wide[::2], wide[::2], 0.0, 0.0)

    def test_defect_vectors_shared_for_equal_specs(self):
        pp, pm = defect_vectors(GridSpec(40.0, 1e-3))
        again = defect_vectors(GridSpec(40, 0.001))
        assert again[0] is pp and again[1] is pm


def plain(f):
    """f with every half, shared zero halves included, as a writable copy."""
    return GridFunction(f.spec, np.array(f.left), np.array(f.right),
                        f.left_limit, f.right_limit)


def values(f):
    return np.array(f.left), np.array(f.right), f.left_limit, f.right_limit


def same(f, expected):
    left, right, left_limit, right_limit = expected
    return (np.array_equal(f.left, left) and np.array_equal(f.right, right)
            and f.left_limit == left_limit and f.right_limit == right_limit)


def derivative_values(f):
    """The derivative by the plain stencils on writable copies."""
    left, right, left_limit, right_limit = values(f)
    h = f.spec.spacing
    return (old_derivative_half(left, h), old_derivative_half(right, h),
            (3.0 * left_limit - 4.0 * left[-1] + left[-2]) / (2.0 * h),
            (-3.0 * right_limit + 4.0 * right[0] - right[1]) / (2.0 * h))


def l2_values(f, g, h):
    """The L2 pairing by np.trapezoid over trace-extended copies."""
    fl, fr, fll, frl = f
    gl, gr, gll, grl = g
    return (complex(np.trapezoid(np.concatenate(
                [np.conj(fl) * gl, [np.conj(fll) * gll]]), dx=h))
            + complex(np.trapezoid(np.concatenate(
                [[np.conj(frl) * grl], np.conj(fr) * gr]), dx=h)))


class TestZeroHalves:
    """Every operation that skips a shared zero half, on the function and on
    a copy whose zero halves are ordinary writable arrays, against the plain
    numpy formulas, compared with ==."""

    SPEC = GridSpec(30.0, 3e-3)

    def functions(self):
        rng = np.random.default_rng(8)
        pp, pm = defect_vectors(self.SPEC)
        return {
            "phi_plus": pp,
            "phi_minus": pm,
            "right": sample(self.SPEC, right=random_bump(rng, "right")),
            "left": sample(self.SPEC, left=random_bump(rng, "left")),
            # a zero half with a nonzero trace
            "right_jump": replace(
                sample(self.SPEC, right=random_bump(rng, "right")),
                left_limit=0.3),
            "two_sided": random_grid_function(rng, self.SPEC),
            # nonzero, but below 1e-40 at both ends of its half-line
            "interior": sample(self.SPEC, right=gaussian(1.0 - 0.5j, 1.0, 10.0)),
        }

    def test_one_sided_functions_share_the_zero_half(self):
        fs = self.functions()
        zeros = zero_half(self.SPEC.n_nodes)
        assert not zeros.flags.writeable and not np.any(zeros)
        assert zeros.strides == (0,) and _is_zero_half(zeros)
        for name in ("phi_plus", "right", "right_jump", "interior"):
            assert _is_zero_half(fs[name].left)
        for name in ("phi_minus", "left"):
            assert _is_zero_half(fs[name].right)
        assert fs["right_jump"].left_limit == 0.3
        with pytest.raises(ValueError):
            zeros[0] = 1.0

    def test_products_match_full_computation(self):
        h = self.SPEC.spacing
        fs = self.functions()
        for f in fs.values():
            for g in fs.values():
                l2 = l2_values(values(f), values(g), h)
                sobolev = l2 + l2_values(derivative_values(f),
                                         derivative_values(g), h)
                assert l2_inner(f, g) == l2_inner(plain(f), plain(g)) == l2
                assert (sobolev_inner(f, g)
                        == sobolev_inner(plain(f), plain(g)) == sobolev)
        assert sobolev_inner(fs["phi_plus"], fs["phi_minus"]) == 0.0

    def test_derivative_matches_full_computation(self):
        for f in self.functions().values():
            d = derivative(f)
            assert same(d, derivative_values(f))
            assert same(derivative(plain(f)), derivative_values(f))
            assert _is_zero_half(d.left) == _is_zero_half(f.left)
            assert _is_zero_half(d.right) == _is_zero_half(f.right)

    def test_arithmetic_matches_full_computation(self):
        fs = self.functions()
        assert _is_zero_half((2.0 * fs["phi_plus"]).left)
        assert _is_zero_half((fs["phi_plus"] - fs["right"]).left)
        for f in fs.values():
            fv = values(f)
            for scalar in (0.7 - 1.3j, -1.0, 2.0):
                scaled = tuple(scalar * x for x in fv)
                assert same(scalar * f, scaled)
                assert same(scalar * plain(f), scaled)
            for g in fs.values():
                gv = values(g)
                total = tuple(x + y for x, y in zip(fv, gv))
                assert same(f + g, total) and same(plain(f) + plain(g), total)
                diff = tuple(x - y for x, y in zip(fv, gv))
                assert same(f - g, diff) and same(plain(f) - plain(g), diff)

    def test_zero_half_is_recognised_whatever_grid_made_it(self):
        # Two specs in turn: each function's zero half still takes every
        # shortcut, so scaling, adding and subtracting store no node array.
        other = GridSpec(40.0, 2e-3)
        rng = np.random.default_rng(9)
        f = sample(self.SPEC, right=random_bump(rng, "right"))
        g = sample(other, right=random_bump(rng, "right"))
        for u in (f, g, f, g):
            for op in (lambda u: u * 2.0, lambda u: u + u, lambda u: u - u):
                tracemalloc.start()
                try:
                    result = op(u)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # the right half's new array, and none for the left
                assert _is_zero_half(result.left)
                assert peak < 1.5 * 16 * u.spec.n_nodes
        assert not _is_zero_half(np.zeros(self.SPEC.n_nodes, dtype=complex))
        assert not _is_zero_half(np.broadcast_to(1j, (self.SPEC.n_nodes,)))
