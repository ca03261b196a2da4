import tracemalloc

import warnings

import numpy as np
import pytest

from conftest import TwoSided, bump_function, half_pairing
from slhkit import phases, punctured_line
from slhkit.cli import command_defect
from slhkit.config import config_from_dict
from slhkit.ensembles import EXP_ZERO_BELOW, random_bump
from slhkit.report import Report
from slhkit.errors import DomainTooSmall, InvalidMollifier, SpecMismatch, TooLarge
from slhkit.phases import boundary_phase, scatter_regularized
from slhkit.punctured_line import (
    SIDES,
    GridFunction,
    GridSpec,
    NODE_CHUNK,
    Half,
    decompose_sobolev,
    decomposition_defects,
    defect_coefficients,
    defect_half,
    defect_vector_defects,
    derivative,
    eigenrelation_defects,
    extension_domain_defect,
    jump_splitting_defect,
    norm_from_inner,
    reproducing_defects,
    reproducing_half,
    sample,
    sample_half,
    sobolev,
    sobolev_half,
    sobolev_inner,
    symmetry_defects,
    trace_at_origin,
    zeta_value,
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
    tracemalloc.start()
    try:
        command_defect(config, 0, 0, Report("defect", ""))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Values from the half-line core, by the same two-sided group functions
# the CLI defect suite calls. A function is a pair of Halves, the left one
# first; a defect vector, or a function that lives on one half-line, is the
# Half of that half-line.

def zero_side(spec):
    """An identically zero half: an ordinary array, and the trace 0."""
    return Half(np.zeros(spec.n_nodes, dtype=complex), 0j)


def halves(spec, left=None, right=None):
    """Callables as the CLI reads a draw: a checked source on each
    half-line, an ordinary zero half where the callable is None."""
    return [zero_side(spec) if fn is None else sample_half(spec, side, fn)
            for side, fn in zip(SIDES, (left, right))]


def defect_pair(spec):
    """(phi_+, phi_-) from ``defect_half``: phi_+ on the right half-line,
    phi_- on the left."""
    return defect_half(spec, False), defect_half(spec, True)


def traces(f):
    """(psi(0+), psi(0-)) of a function given as (left, right) halves."""
    return f[1].limit, f[0].limit


def one_sided_sobolev(spec, left, f, g):
    """<f|g>_S of halves of functions that vanish off that half-line."""
    return sum(sobolev_half(spec, left, f, g))


def grid_function(spec, f: TwoSided):
    """The oracle's arrays and traces as a GridFunction."""
    return GridFunction(spec, f.left, f.right, f.left_limit, f.right_limit)


def stored(spec, left=None, right=None):
    """Callables evaluated whole, as a GridFunction."""
    return grid_function(spec, TwoSided.sample(spec.half_width, spec.spacing,
                                               left, right))


# Residuals of the identities on the oracle, each as its definition reads.

def oracle_symmetry(f, g, sigma):
    i_df, i_dg = 1j * f.derivative(), 1j * g.derivative()

    def id_defect(sig):
        # <u|iD s> = <u|i s'> + i jump(s) conj(<singular|u>)
        return abs((f.l2(i_dg) + 1j * g.jump * np.conj(f.zeta(sig)))
                   - np.conj(g.l2(i_df) + 1j * f.jump * np.conj(g.zeta(sig))))

    jay = (np.conj(f.right_limit) * g.right_limit
           - np.conj(f.left_limit) * g.left_limit)
    return {"boundary_form_vs_traces": abs(f.l2(i_dg) - np.conj(g.l2(i_df))
                                           + 1j * jay),
            "id_symmetry_defect": id_defect(None),
            "id_symmetry_defect_damped": id_defect(sigma)}


def symmetry_bound(f, g):
    """The rounding bound of each ``oracle_symmetry`` residual: the bounds
    of its two regular pairings, added."""
    return (f.l2_bound(1j * g.derivative())
            + g.l2_bound(1j * f.derivative()))


def oracle_psi0(f, pp, pm):
    """(psi0, c_plus, c_minus) of f on the oracle."""
    c_plus, c_minus = 1j * f.right_limit, -1j * f.left_limit
    return f - c_plus * pp - c_minus * pm, c_plus, c_minus


def oracle_decomposition(f, pp, pm):
    psi0, c_plus, c_minus = oracle_psi0(f, pp, pm)
    recon = psi0 + c_plus * pp + c_minus * pm - f
    scale = psi0.norm()
    return {"boundary_zero": max(abs(psi0.left_limit), abs(psi0.right_limit)),
            "orthogonality": max(abs(pp.sobolev(psi0)) / scale,
                                 abs(pm.sobolev(psi0)) / scale),
            "reconstruction": max(float(np.abs(recon.left).max()),
                                  float(np.abs(recon.right).max()))}


def orthogonality_bound(f, pp, pm):
    """The rounding bound of the oracle's orthogonality residual
    |<phi|psi0>_S| / ||psi0||_S: the larger pairing's bound plus that of
    ||psi0||_S^2, over ||psi0||_S (the residual is far below 1)."""
    psi0 = oracle_psi0(f, pp, pm)[0]
    return ((max(pp.sobolev_bound(psi0), pm.sobolev_bound(psi0))
             + psi0.sobolev_bound(psi0)) / psi0.norm())


# Records made of node maxima or of trace arithmetic alone: these equal the
# oracle's bit for bit; every other record is made of pairings.
EXACT_RECORDS = {"jump_on_defect_plus", "jump_on_defect_minus",
                 "defect_overlap", "decomposition_boundary_zero",
                 "decomposition_reconstruction",
                 "eigenrelation_plus_coefficient",
                 "eigenrelation_minus_coefficient",
                 "eigenrelation_plus_regular", "eigenrelation_minus_regular"}


def oracle_eigenrelation(phi, sign):
    resid = 1j * phi.derivative() + (sign * 1j) * phi
    return {"coefficient": abs(1j * phi.jump - 1.0),
            "regular": max(float(np.abs(resid.left).max()),
                           float(np.abs(resid.right).max()))}


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
        # chunk by chunk it holds one chunk's windows and no node array:
        # measured 0.73 and 0.35 arrays at these sizes. One half-line
        # buffer would add 0.5.
        n = GridSpec(half_width, spacing).n_nodes
        peak = defect_suite_peak(half_width, spacing)
        assert peak <= punctured_line.DEFECT_LIVE_ARRAYS * 32 * n
        measured = {(30.0, 3e-3): 0.73, (40.0, 2e-3): 0.35}
        assert peak <= (measured[half_width, spacing] + 0.1) * 32 * n

    def test_defect_suite_peak_is_flat_in_n(self):
        # The peak is one chunk's windows, under nine complex arrays of
        # NODE_CHUNK values, whatever n: measured 228.3 and 220.7 KiB at 10k
        # and 80k nodes. One half-line buffer at 80k nodes is 1.25 MB.
        chunk = 16 * NODE_CHUNK
        small, large = (defect_suite_peak(*size)
                        for size in ((30.0, 3e-3), (40.0, 5e-4)))
        assert max(small, large) <= 9 * chunk
        assert abs(large - small) <= chunk

    def test_defect_suite_matches_the_two_sided_functions(self):
        # The suite's half-line passes against the plain two-sided oracle,
        # the defining formula of each check on whole arrays, on the same
        # draws. Node maxima and trace arithmetic are equal bit for bit. A
        # record made of pairings is within the oracle's rounding bound of
        # those pairings (TwoSided.l2_bound), carried through the record's
        # formula; a record that is a max over draws takes the largest.
        half_width, spacing = 30.0, 3e-3
        config = config_from_dict({"m": 1, "n": 1,
                                   "E": [[[0.3, 0.0], [0.5, -0.2]],
                                         [[0.5, 0.2], [1.0, 0.0]]],
                                   "grid": {"T": half_width, "h": spacing},
                                   "seed": 5})
        report = Report("defect", "")
        command_defect(config, 5, 0, report)
        got = {c.name: c.value for c in report.checks}

        def sample(left=None, right=None):
            return TwoSided.sample(half_width, spacing, left, right)

        expected, bound = {}, {}

        def worst(name, value, tol=0.0):
            expected[name] = max(expected.get(name, 0.0), value)
            bound[name] = max(bound.get(name, 0.0), tol)

        rng = np.random.default_rng(5)
        pp, pm = TwoSided.defect_pair(half_width, spacing)
        for name, phi in (("plus", pp), ("minus", pm)):
            worst(f"jump_on_defect_{name}", abs(phi.jump - (-1j)))
            # |sqrt(S) - 1| moves by at most |dS| for S near 1
            worst(f"defect_norm_{name}", abs(phi.norm() - 1.0),
                  phi.sobolev_bound(phi))
        worst("defect_overlap", abs(pp.sobolev(pm)))
        for name in ("plus", "minus"):
            worst(f"reproducing_{name}", 0.0)
        for _ in range(10):
            psi_r = sample(right=random_bump(rng, "right"))
            psi_l = sample(left=random_bump(rng, "left"))
            for name, phi, psi, trace in (
                    ("plus", 1j * pp, psi_r, psi_r.right_limit),
                    ("minus", -1j * pm, psi_l, psi_l.left_limit)):
                worst(f"reproducing_{name}", abs(phi.sobolev(psi) - trace),
                      phi.sobolev_bound(psi))
        for _ in range(10):
            f = sample(random_bump(rng, "left"), random_bump(rng, "right"))
            for key, value in oracle_decomposition(f, pp, pm).items():
                worst(f"decomposition_{key}", value,
                      orthogonality_bound(f, pp, pm)
                      if key == "orthogonality" else 0.0)
        for name, phi, sign in (("plus", pp, 1.0), ("minus", pm, -1.0)):
            for key, value in oracle_eigenrelation(phi, sign).items():
                worst(f"eigenrelation_{name}_{key}", value)
        rng.uniform(-1, 1, size=(3, 100, 4, 2))  # the jump-splitting draw
        f = sample(random_bump(rng, "left"), random_bump(rng, "right"))
        g = sample(random_bump(rng, "left"), random_bump(rng, "right"))
        for name, value in oracle_symmetry(f, g, 0.3).items():
            worst(name, value, symmetry_bound(f, g))
        assert len(expected) == 17
        for name, value in expected.items():
            if name in EXACT_RECORDS:
                assert got[name] == value, name
            else:
                assert 0.0 < bound[name] <= 1e-10, name
                assert abs(got[name] - value) <= bound[name], name

    def test_defect_suite_traces_each_half_once(self, monkeypatch):
        # A pass takes the derivative trace of each differentiated half
        # once, however many pairings it is a factor of. On each half-line:
        # phi for its norm, phi and the ten reproducing draws, phi and the
        # ten psi0 of the decomposition, phi for the eigenrelation, and f
        # and g for the symmetry: 26, 52 in all.
        config = config_from_dict({"m": 1, "n": 1,
                                   "E": [[[0.3, 0.0], [0.5, -0.2]],
                                         [[0.5, 0.2], [1.0, 0.0]]],
                                   "grid": {"T": 30.0, "h": 3e-3}})
        calls = []
        original = punctured_line._derivative_trace

        def spy(spec, left, half, finite=True):
            calls.append((left, half))  # keeps each half, and its id, alive
            return original(spec, left, half, finite)
        monkeypatch.setattr(punctured_line, "_derivative_trace", spy)
        command_defect(config, 5, 0, Report("defect", ""))
        traced = {(left, id(half)) for left, half in calls}
        assert len(calls) == len(traced) == 52
        assert sum(left for left, _ in traced) == 26

    def test_decomposition_pairings_match_the_oracle_draw_by_draw(
            self, monkeypatch):
        # decomposition_orthogonality is the largest of |<phi_+|psi0>_S|
        # and |<phi_-|psi0>_S| over ten draws, so a wrong term below the
        # others would show in no record. Here each draw's pairings, half
        # by half (phi_+ lives on the right half-line, phi_- on the left),
        # and the residual decomposition_values makes of them are checked
        # against the oracle. The draws include both orders of the two
        # terms, each by more than the bound, so a decomposition_values
        # that reads one side twice fails.
        half_width, spacing = 30.0, 3e-3
        config = config_from_dict({"m": 1, "n": 1,
                                   "E": [[[0.3, 0.0], [0.5, -0.2]],
                                         [[0.5, 0.2], [1.0, 0.0]]],
                                   "grid": {"T": half_width, "h": spacing},
                                   "seed": 5})
        calls = []
        values_of = punctured_line.decomposition_values

        def spy(left, right):
            values = values_of(left, right)
            calls.append((left, right, values))
            return values
        monkeypatch.setattr(punctured_line, "decomposition_values", spy)
        command_defect(config, 5, 0, Report("defect", ""))
        assert len(calls) == 10
        rng = np.random.default_rng(5)
        for _ in range(10):  # the reproducing group's draws
            random_bump(rng, "right"), random_bump(rng, "left")
        pp, pm = TwoSided.defect_pair(half_width, spacing)
        orders = set()
        for left, right, values in calls:
            f = TwoSided.sample(half_width, spacing, random_bump(rng, "left"),
                                random_bump(rng, "right"))
            psi0 = oracle_psi0(f, pp, pm)[0]
            plus, minus = pp.sobolev(psi0), pm.sobolev(psi0)
            for terms, want, tol in (
                    (right[2][1], plus, pp.sobolev_bound(psi0)),
                    (left[2][1], minus, pm.sobolev_bound(psi0))):
                assert abs(sum(terms) - want) <= tol
            tol = orthogonality_bound(f, pp, pm)
            scale = psi0.norm()
            assert abs(values["orthogonality"]
                       - max(abs(plus), abs(minus)) / scale) <= tol
            if abs(abs(plus) - abs(minus)) / scale > 2 * tol:
                orders.add(abs(plus) > abs(minus))
        assert orders == {True, False}

    def test_node_array_peak_within_guard(self):
        # The guard's premise: decompose_sobolev and derivative, the only
        # code that forms node arrays, hold at most DEFECT_LIVE_ARRAYS
        # two-sided complex arrays with their argument. Measured 2.50 and
        # 2.07 arrays at 20k and 40k nodes: f, its result and one half's
        # temporaries. phi_pm read twice or a psi0 half formed twice would
        # add 0.5.
        measured = {decompose_sobolev: 2.50, derivative: 2.07}
        for spec in (GridSpec(40.0, 2e-3), GridSpec(40.0, 1e-3)):
            for call, arrays in measured.items():
                rng = np.random.default_rng(0)
                tracemalloc.start()
                try:
                    call(bump_function(rng, spec))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                unit = 32 * spec.n_nodes
                assert peak <= punctured_line.DEFECT_LIVE_ARRAYS * unit
                assert peak <= (arrays + 0.1) * unit

    def test_function_must_decay(self):
        with pytest.raises(SpecMismatch):
            sample_half(SPEC, False, lambda t: np.ones_like(t))
        ones = np.ones(SPEC.n_nodes, dtype=complex)
        with pytest.raises(SpecMismatch):
            GridFunction(SPEC, np.zeros_like(ones), ones, 0.0, 0.0)

    def test_equality_is_identity(self):
        # equal values in two distinct functions: no array truth-value error
        f = stored(SPEC, right=gaussian(1.0, 1.0, 1.0))
        g = stored(SPEC, right=gaussian(1.0, 1.0, 1.0))
        assert f == f
        assert f != g
        assert np.array_equal(f.right, g.right)
        assert len({f, g}) == 2

    def test_inner_product_requires_same_spec(self):
        f = stored(SPEC, right=gaussian(1.0, 1.0, 1.0))
        g = stored(GridSpec(40.0, 2e-3), right=gaussian(1.0, 1.0, 1.0))
        with pytest.raises(SpecMismatch):
            sobolev_inner(f, g)


class TestDefectVectors:
    def test_domain_too_small(self):
        for side in SIDES:
            with pytest.raises(DomainTooSmall):
                defect_half(GridSpec(20.0, 1e-3), side)

    def test_boundary_traces(self):
        # phi_+(0+) = -i and phi_-(0-) = i; each is 0 on the other side
        pp, pm = defect_pair(SPEC)
        assert (pp.limit, pm.limit) == (-1j, 1j)

    def test_jump_functional_exact(self):
        # jump = psi(0+) - psi(0-), the other side's trace 0
        pp, pm = defect_pair(SPEC)
        assert pp.limit - 0j == -1j
        assert 0j - pm.limit == -1j
        assert defect_vector_defects(SPEC)["jump_on_defect"] == {
            "plus": 0.0, "minus": 0.0}

    def test_unit_sobolev_norm(self):
        for left, phi, want in zip((False, True), defect_pair(SPEC),
                                   TwoSided.defect_pair(40.0, 1e-3)):
            norm = norm_from_inner(one_sided_sobolev(SPEC, left, phi, phi))
            assert abs(norm - 1.0) <= 1e-5
            # |sqrt(S) - 1| moves by at most |dS| for S near 1
            assert abs(norm - want.norm()) <= want.sobolev_bound(want)

    def test_disjoint_supports_orthogonal(self):
        # On each half-line the other defect vector is an identically zero
        # half with trace 0; the pairing the CLI drops is exactly zero.
        pp, pm = defect_pair(SPEC)
        zero = zero_side(SPEC)
        assert sobolev(SPEC, [zero, pp], [pm, zero]) == 0.0

    def test_derivative_relation(self):
        pp, pm = (grid_function(SPEC, phi)
                  for phi in TwoSided.defect_pair(40.0, 1e-3))
        dp = derivative(pp)
        dm = derivative(pm)
        assert np.abs(dp.right + pp.right).max() <= 1e-5
        assert np.abs(dm.left - pm.left).max() <= 1e-5


class TestSobolevInner:
    def test_self_norm_of_defect(self):
        pp, _ = defect_pair(SPEC)
        assert abs(one_sided_sobolev(SPEC, False, pp, pp) - 1.0) <= 2e-5

    def test_reproducing_property(self):
        # <i phi_+|psi>_S = psi(0+) = e^-1 and <-i phi_-|psi>_S = psi(0-)
        psi_r = sample_half(SPEC, False, gaussian(1.0, 1.0, 1.0))
        psi_l = sample_half(SPEC, True, gaussian(0.8, 1.2, -0.9))
        assert psi_r.limit == np.exp(-1.0)
        defects = reproducing_defects(SPEC, [(psi_l, psi_r)])
        assert defects["plus"][0] <= 1e-5 and defects["minus"][0] <= 1e-5

    @pytest.mark.parametrize("spec", [GridSpec(30.0, 3e-3), SPEC])
    def test_rotated_pairing_is_bit_exact(self, spec):
        # reproducing_defects pairs with phi_pm and rotates by -+i instead
        # of pairing with i phi_+ and -i phi_-. A factor of +-i only swaps
        # and negates components, and the rotated core pairing, on the
        # half-line phi_pm lives on, equals the core pairing of the scaled
        # defect vector bit for bit, np.vdot included; both are within the
        # rounding bound of the oracle's pairing of the scaled vector.
        def bits(z):
            return np.array([z]).view(np.int64)

        width = (spec.half_width, spec.spacing)
        rng = np.random.default_rng(5)
        for left, scale, ophi in zip((False, True), (1j, -1j),
                                     TwoSided.defect_pair(*width)):
            phi = defect_half(spec, left)
            scaled = Half(lambda lo, hi, phi=phi, scale=scale:
                          scale * phi.values(lo, hi), scale * phi.limit)
            for _ in range(3):
                fn = random_bump(rng, "left" if left else "right")
                psi = sample_half(spec, left, fn)
                terms = reproducing_half(spec, left, phi, [psi])[0]
                rotated = (1j if left else -1j) * sum(terms)
                direct = one_sided_sobolev(spec, left, scaled, psi)
                np.testing.assert_array_equal(bits(rotated), bits(direct))
                opsi = TwoSided.sample(*width, *((fn, None) if left
                                                 else (None, fn)))
                want = (scale * ophi).sobolev(opsi)
                assert abs(rotated - want) <= ophi.sobolev_bound(opsi)

    def test_conjugate_linearity_first_slot(self):
        rng = np.random.default_rng(1)
        f = bump_function(rng, SPEC)
        g = bump_function(rng, SPEC)
        z = 0.7 - 1.3j
        lhs = sobolev_inner(grid_function(SPEC, z * TwoSided.of(f)), g)
        rhs = np.conj(z) * sobolev_inner(f, g)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_norm_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = bump_function(rng, SPEC)
            assert sobolev_inner(f, f).real >= 0.0


class TestBoundaryFunctionals:
    def test_continuous_has_no_jump(self):
        plus, minus = traces(halves(SPEC, gaussian(1.0, 1.0, 0.0),
                                    gaussian(1.0, 1.0, 0.0)))
        assert plus - minus == 0.0

    def test_one_sided_step(self):
        # the jump and the symmetric delta of psi = e^-t on t > 0
        plus, minus = traces(halves(SPEC, right=lambda t: np.exp(-t)))
        assert plus - minus == 1.0
        assert 0.5 * (plus + minus) == 0.5

    def test_zeta_on_continuous_unit_trace(self):
        # both traces are e * exp(0) = e
        plus, minus = traces(halves(SPEC, gaussian(np.e, 1.0, 0.0),
                                    gaussian(np.e, 1.0, 0.0)))
        for sigma in (0.0, 0.3, -2.0):
            zeta = zeta_value(plus, minus, sigma)
            assert abs(zeta - plus) <= 1e-14 * abs(plus)

    def test_one_sided_deltas_split(self):
        # psi(0+-) = delta* +- jump / 2
        rng = np.random.default_rng(3)
        plus, minus = traces(halves(SPEC, random_bump(rng, "left"),
                                    random_bump(rng, "right")))
        jump, delta_star = plus - minus, 0.5 * (plus + minus)
        assert plus == delta_star + 0.5 * jump
        assert abs(minus - (delta_star - 0.5 * jump)) <= 1e-16


class TestRandomBump:
    def test_bumps_sit_on_their_half_lines(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = bump_function(rng, SPEC)
            left_peak = SPEC.nodes(True)[np.argmax(np.abs(f.left))]
            right_peak = SPEC.nodes(False)[np.argmax(np.abs(f.right))]
            assert -2.2 <= left_peak <= -0.7 and 0.7 <= right_peak <= 2.2
            assert f.left_limit != 0.0 and f.right_limit != 0.0
            assert f.right_limit - f.left_limit != 0.0

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

    @pytest.mark.parametrize("n", [10, 2049, 2050, 2051, 4095, 4096, 4097,
                                   12295])
    def test_chunked_bump_matches_one_temporary_expression(self, n):
        # Sizes about the window of NODE_CHUNK + 2 = 2050 nodes a pass
        # reads: shorter, equal, one node over, about two and about six.
        assert NODE_CHUNK + 2 == 2050
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
        # The CLI evaluates each draw on one chunk's window at a time,
        # windows that overlap by two nodes; each must be the whole draw's
        # values bit for bit, partial last window and the three end nodes
        # of a one-node last chunk included.
        spec = GridSpec(30.0, 3e-3)
        rng = np.random.default_rng(21)
        n = spec.n_nodes
        for side in ("left", "right"):
            bump = random_bump(rng, side)
            whole = bump(spec.nodes(side == "left"))
            half = sample_half(spec, side == "left", bump)
            for lo, hi in ((0, 2049), (2047, 4097), (8191, n), (n - 3, n)):
                got = half.values(lo, hi)
                assert np.array_equal(got.view(np.int64),
                                      whole[lo:hi].view(np.int64))


class TestApplyiD:
    def test_smooth_function_has_no_singular_part(self):
        fn = gaussian(1.0, 1.0, 0.0)
        # the singular coefficient i jump(psi)
        plus, minus = traces(halves(SPEC, fn, fn))
        assert 1j * (plus - minus) == 0.0
        # the regular part i psi' approximates i times the derivative
        f = stored(SPEC, fn, fn)
        t = SPEC.nodes(False)
        exact = 1j * (-2.0 * t * np.exp(-t ** 2))
        assert np.abs(1j * derivative(f).right - exact).max() <= 1e-5

    def test_eigenrelation_on_defect_vectors(self):
        for defects in eigenrelation_defects(SPEC).values():
            assert defects["coefficient"] == 0.0
            assert defects["regular"] <= 1e-5

    @pytest.mark.parametrize("spec", [GridSpec(30.0, 3e-3), GridSpec(40.0, 5e-4)])
    def test_eigenrelation_defects_equal_the_grid_function_expression(self, spec):
        # the leaf-by-leaf reduction rounds every node as the whole-array
        # expression i phi' + (sign i) phi on the oracle
        pp, pm = TwoSided.defect_pair(spec.half_width, spec.spacing)
        assert eigenrelation_defects(spec) == {
            "plus": oracle_eigenrelation(pp, 1.0),
            "minus": oracle_eigenrelation(pm, -1.0)}

    def test_symmetry_defect_second_order(self):
        fl, fr = gaussian(0.4 - 0.3j, 0.7, -1.1), gaussian(1.2 + 0.5j, 1.3, 0.8)
        gl, gr = gaussian(0.9 + 0.2j, 0.5, -1.7), gaussian(0.3 - 0.8j, 0.9, 1.4)
        defects = {}
        for h in (1e-3, 5e-4):
            spec = GridSpec(40.0, h)
            defects[h] = symmetry_defects(spec, halves(spec, fl, fr),
                                          halves(spec, gl, gr),
                                          0.3)["id_symmetry_defect"]
        ratio = defects[1e-3] / defects[5e-4]
        assert 3.5 <= ratio <= 4.5

    def test_symmetry_defect_damped(self):
        rng = np.random.default_rng(4)
        f = halves(SPEC, random_bump(rng, "left"), random_bump(rng, "right"))
        g = halves(SPEC, random_bump(rng, "left"), random_bump(rng, "right"))
        for sigma in (0.0, 0.3, -1.0):
            defects = symmetry_defects(SPEC, f, g, sigma)
            assert defects["id_symmetry_defect_damped"] <= 1e-4

    def test_symmetry_defects_match_separate_pairings(self):
        # the three checks as first written on the oracle, each forming its
        # own pairings with the regular part i f' formed whole
        rng = np.random.default_rng(7)
        fns = [(random_bump(rng, "left"), random_bump(rng, "right"))
               for _ in range(2)]
        f, g = (halves(SPEC, *pair) for pair in fns)
        of, og = (TwoSided.sample(40.0, 1e-3, *pair) for pair in fns)
        got, tol = symmetry_defects(SPEC, f, g, 0.3), symmetry_bound(of, og)
        for name, want in oracle_symmetry(of, og, 0.3).items():
            assert abs(got[name] - want) <= tol, name

    def test_boundary_form_matches_trace_form(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = halves(SPEC, random_bump(rng, "left"), random_bump(rng, "right"))
            g = halves(SPEC, random_bump(rng, "left"), random_bump(rng, "right"))
            defects = symmetry_defects(SPEC, f, g, 0.3)
            assert defects["boundary_form_vs_traces"] <= 1e-4


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
        psi = stored(SPEC, lambda t: t * np.exp(-(t + 1.0) ** 2),
                     lambda t: t * np.exp(-(t - 1.0) ** 2))
        dec = decompose_sobolev(psi)
        assert dec.c_plus == 0.0 and dec.c_minus == 0.0
        assert np.abs(dec.psi0.right - psi.right).max() == 0.0

    def test_defect_vector_components(self):
        pp, pm = (grid_function(SPEC, phi)
                  for phi in TwoSided.defect_pair(40.0, 1e-3))
        dec = decompose_sobolev(pp)
        assert dec.c_plus == 1.0 and dec.c_minus == 0.0
        assert np.abs(dec.psi0.right).max() <= 1e-16
        dec_m = decompose_sobolev(pm)
        assert dec_m.c_plus == 0.0 and dec_m.c_minus == 1.0

    def test_linear_ramp_example(self):
        psi = stored(SPEC, right=lambda t: np.where(t < 1.0, 1.0 - t, 0.0))
        dec = decompose_sobolev(psi)
        assert dec.c_plus == 1j
        assert dec.psi0.right_limit == 0.0

    def test_boundary_values_vanish_and_orthogonal(self):
        rng = np.random.default_rng(7)
        opp, opm = TwoSided.defect_pair(40.0, 1e-3)
        pp, pm = (grid_function(SPEC, phi) for phi in (opp, opm))
        for _ in range(5):
            psi = bump_function(rng, SPEC)
            dec = decompose_sobolev(psi)
            assert dec.psi0.left_limit == 0.0
            assert dec.psi0.right_limit == 0.0
            scale = norm_from_inner(sobolev_inner(dec.psi0, dec.psi0))
            assert abs(sobolev_inner(pp, dec.psi0)) <= 1e-5 * scale
            assert abs(sobolev_inner(pm, dec.psi0)) <= 1e-5 * scale
            diff = (TwoSided.of(dec.psi0) + dec.c_plus * opp
                    + dec.c_minus * opm - TwoSided.of(psi))
            assert max(np.abs(diff.left).max(), np.abs(diff.right).max()) <= 1e-13

    @pytest.mark.parametrize("spec", [GridSpec(30.0, 3e-3), GridSpec(40.0, 5e-4)])
    def test_reconstruction_equals_grid_function_expression(self, spec):
        # the chunk windows add in the order of the whole-array expression
        # psi0 + c_plus phi_+ + c_minus phi_- - f on the oracle, and the
        # boundary residual equals the oracle's too; the orthogonality
        # residual is within the oracle's rounding bound
        rng = np.random.default_rng(11)
        pair = TwoSided.defect_pair(spec.half_width, spec.spacing)
        right = random_bump(rng, "right")
        for f in (bump_function(rng, spec), random_noise_function(rng, spec),
                  GridFunction(spec, np.zeros(spec.n_nodes, dtype=complex),
                               right(spec.nodes(False)), 0j,
                               trace_at_origin(right))):
            got = decomposition_defects(spec, [[f.half(side)
                                                for side in SIDES]])
            want = oracle_decomposition(TwoSided.of(f), *pair)
            for key in ("boundary_zero", "reconstruction"):
                assert got[key] == [want[key]], key
            assert (abs(got["orthogonality"][0] - want["orthogonality"])
                    <= orthogonality_bound(TwoSided.of(f), *pair))

    @pytest.mark.parametrize("spec", [GridSpec(30.0, 3e-3), GridSpec(40.0, 5e-4)])
    def test_psi0_equals_grid_function_expression(self, spec):
        # c phi formed, then subtracted from f, as the whole-array
        # expression f - c_plus phi_+ - c_minus phi_- on the oracle
        rng = np.random.default_rng(13)
        opp, opm = TwoSided.defect_pair(spec.half_width, spec.spacing)
        zeros = np.zeros(spec.n_nodes, dtype=complex)
        right, left = random_bump(rng, "right"), random_bump(rng, "left")
        for f in (bump_function(rng, spec),
                  GridFunction(spec, zeros, right(spec.nodes(False)),
                               0j, trace_at_origin(right)),
                  GridFunction(spec, left(spec.nodes(True)), zeros,
                               trace_at_origin(left), 0j),
                  grid_function(spec, opp), grid_function(spec, opm)):
            dec = decompose_sobolev(f)
            expected = TwoSided.of(f) - dec.c_plus * opp - dec.c_minus * opm
            for got, want in ((dec.psi0.left, expected.left),
                              (dec.psi0.right, expected.right)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            limits = np.array([dec.psi0.left_limit, dec.psi0.right_limit,
                               expected.left_limit, expected.right_limit])
            assert np.array_equal(limits[:2].view(np.int64),
                                  limits[2:].view(np.int64))

    @pytest.mark.parametrize("spec", [GridSpec(30.0, 3e-3), GridSpec(40.0, 5e-4)])
    def test_psi0_from_sources_matches_fresh_psi0(self, spec):
        # As the CLI suite does: f's halves and phi_pm read from their
        # sources (a missing bump an ordinary zero half), psi0 formed chunk
        # by chunk by decomposition_half and the residual reduced against f
        # read again. psi0 and every residual equal those of the stored f
        # and its fresh psi0 (decompose_sobolev), bit for bit, the
        # reconstruction residual included: np.vdot gives the same bits on
        # a fresh window and on a view of a stored array.
        rng = np.random.default_rng(17)
        n = spec.n_nodes
        opp, opm = TwoSided.defect_pair(spec.half_width, spec.spacing)
        for sides in (("left", "right"), ("right",), ("left",)):
            bumps = {side: random_bump(rng, side) for side in sides}
            sources = halves(spec, bumps.get("left"), bumps.get("right"))
            f = GridFunction(spec, *(u.values(0, n) if callable(u.values)
                                     else u.values for u in sources),
                             sources[0].limit, sources[1].limit)
            fresh = decompose_sobolev(f)
            diff = (TwoSided.of(fresh.psi0) + fresh.c_plus * opp
                    + fresh.c_minus * opm - TwoSided.of(f))
            defects = decomposition_defects(spec, [sources])
            assert defects == decomposition_defects(
                spec, [[f.half(side) for side in SIDES]])
            assert defects["reconstruction"] == [max(
                float(np.abs(diff.left).max()),
                float(np.abs(diff.right).max()))]
            c_plus, c_minus = defect_coefficients(f.left_limit, f.right_limit)
            for left, half, c, want in zip(SIDES, sources, (c_minus, c_plus),
                                           (fresh.psi0.left,
                                            fresh.psi0.right)):
                psi0 = punctured_line._psi0_half(
                    half, c, defect_half(spec, left)).values(0, n)
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
                              lambda c, phi, f, scale=scale:
                              original(scale * c, phi, f))
                check = reconstruction()
            assert not check.passed and check.value > 1e-13

    @pytest.mark.parametrize("spec", [GridSpec(40.0, 1e-3), GridSpec(40.0, 5e-4)])
    def test_decomposition_peak(self, spec):
        # Above a stored f: psi0 and phi_pm are formed chunk by chunk, so
        # only one chunk's windows, 0.13 and 0.07 two-sided arrays (165
        # KiB); psi0 or phi_pm held on one half, a residual buffer or a
        # derivative formed whole would add 0.5 or more.
        rng = np.random.default_rng(12)
        f = bump_function(rng, spec)
        tracemalloc.start()
        try:
            decomposition_defects(spec, [[f.half(side) for side in SIDES]])
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

    @pytest.mark.parametrize("name", ["bump", "cos2"])
    def test_overflowing_width_rejected(self, name):
        # 2e308 overflows np.linspace(-eps, eps, 5), so the integral is NaN:
        # refused, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMollifier, match="integrates to nan"):
                scatter_regularized(1.0, 1e308, name)


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
    """The copy-free kernels against the plain formulas: values formed node
    by node compared with ==, pairings within the oracle's rounding
    bound."""

    @pytest.mark.parametrize("n,h", [(11, 1e-3), (1000, 5e-4), (80_000, 5e-4),
                                     (4097, 0.3)])
    def test_trapezoid_matches_concatenated_trapezoid(self, n, h):
        # the chunked rule of conj(1) values, closed by 1 b at the origin
        spec = GridSpec(n * h, h)
        assert spec.n_nodes == n
        ones = Half(np.ones(n, dtype=complex), 1.0)
        rng = np.random.default_rng(n)
        for _ in range(3):
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = complex(*rng.standard_normal(2))
            left = complex(np.trapezoid(np.concatenate([values, [b]]), dx=h))
            right = complex(np.trapezoid(np.concatenate([[b], values]), dx=h))
            for side, want in ((True, left), (False, right)):
                got = half_pairing(spec, side, ones, Half(values, b))
                tol = TwoSided.one_half(h, side, *ones).l2_bound(
                    TwoSided.one_half(h, side, values, b))
                assert abs(got - want) <= tol

    @pytest.mark.parametrize("n", [10, 4095, 4096, 4097, 8193, 80_000])
    def test_l2_half_matches_trapezoid_and_keeps_its_factors(self, n):
        # one half-line's L2 pass: chunks on both sides of NODE_CHUNK =
        # 2048 and of twice it, contiguous and strided factors (every other
        # node of a wider array)
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
                got = half_pairing(spec, side, Half(f, fb), Half(g, gb))
                tol = TwoSided.one_half(h, side, f, fb).l2_bound(
                    TwoSided.one_half(h, side, g, gb))
                assert abs(got - want) <= tol
            assert np.array_equal(f, f_before) and np.array_equal(g, g_before)

    def test_pairing_bits_do_not_depend_on_alignment(self):
        # The same values 16, 32 or 48 bytes past a 64-byte boundary, each
        # factor placed apart, pair to the same bits: a source read into a
        # fresh window and a view of a stored array pair alike.
        spec = GridSpec(30.0, 3e-3)
        f, g = (bump_function(np.random.default_rng(seed), spec)
                for seed in (19, 23))

        def placed(values, offset):
            raw = np.empty(values.nbytes + 128, dtype=np.uint8)
            start = -raw.ctypes.data % 64 + offset
            out = raw[start:start + values.nbytes].view(complex)
            out[:] = values
            return out

        for side in SIDES:
            (fv, fl), (gv, gl) = f.half(side), g.half(side)
            found = {np.array(sobolev_half(
                spec, side, Half(placed(fv, a), fl),
                Half(placed(gv, b), gl))).tobytes()
                for a in (16, 32, 48) for b in (16, 32, 48)}
            assert len(found) == 1

    def test_l2_inner_holds_one_buffer_per_half(self):
        # the L2 pairing of two stored functions, one pass per half-line:
        # no n-node buffer, at most two chunk buffers of NODE_CHUNK values
        # (the windows of stored values are views), and a few small objects
        spec = GridSpec(40.0, 5e-4)
        rng = np.random.default_rng(9)
        f = random_noise_function(rng, spec)
        g = random_noise_function(rng, spec)
        tracemalloc.start()
        try:
            l2_pairing(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 * NODE_CHUNK + 4096

    @pytest.mark.parametrize("spec", [SPEC, GridSpec(40.0, 5e-4),
                                      GridSpec(30.0, 3e-3)])
    def test_derivative_matches_stencils(self, spec):
        rng = np.random.default_rng(3)
        for f in (random_noise_function(rng, spec), bump_function(rng, spec)):
            assert same(derivative(f), TwoSided.of(f).derivative())

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
                      lambda f: symmetry_defects(
                          SPEC, *[[f.half(side) for side in SIDES]] * 2,
                          0.3)):
            with pytest.raises(SpecMismatch, match=message):
                check(f)

    def test_non_finite_derivative_is_refused(self):
        # Finite values whose differences overflow: derivative forms the
        # non-finite derivative and refuses it; the streamed pairing turns
        # non-finite, and _refuse forms the derivative again, chunk by
        # chunk, and refuses it.
        right = np.zeros(SPEC.n_nodes, dtype=complex)
        right[10], right[12] = 1e308, -1e308
        f = GridFunction(SPEC, np.zeros(SPEC.n_nodes, dtype=complex), right,
                         0.0, 0.0)
        message = "grid derivative at spacing h = 0.001 is not finite"
        for check in (derivative, lambda f: sobolev_inner(f, f)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(SpecMismatch, match=message):
                check(f)

    def test_refusal_holds_no_node_array(self):
        # The refusal above on a source pair at 80k nodes: the derivative is
        # formed again chunk by chunk, under the defect suite's bound of
        # nine chunk arrays (test_defect_suite_peak_is_flat_in_n), not
        # whole (a half-line array is 1.25 MB).
        spec = GridSpec(40.0, 5e-4)
        at10, at12 = spec.nodes(False, 10, 13)[::2]
        f = sample(spec, np.zeros_like, lambda t: np.where(
            t == at10, 1e308, np.where(t == at12, -1e308, 0.0)))
        message = "grid derivative at spacing h = 0.0005 is not finite"
        tracemalloc.start()
        try:
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(SpecMismatch, match=message):
                sobolev(spec, f, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 16 * NODE_CHUNK

    def test_overflowing_products_give_a_non_finite_pairing(self):
        # Finite values whose products overflow while the grid derivative
        # stays finite (5e162 at h = 1e-3): the pairing is not finite, and
        # the derivative, checked when the pairing is read, is not refused.
        right = np.zeros(SPEC.n_nodes, dtype=complex)
        right[10] = 1e160
        f = GridFunction(SPEC, np.zeros(SPEC.n_nodes, dtype=complex), right,
                         0.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            value = sobolev_inner(f, f)
        assert not np.isfinite(value)
        assert np.isfinite(derivative(f).right.view(np.float64)).all()

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


def same(f, expected):
    """Whether a GridFunction has the oracle's values and traces."""
    return (np.array_equal(f.left, expected.left)
            and np.array_equal(f.right, expected.right)
            and f.left_limit == expected.left_limit
            and f.right_limit == expected.right_limit)


def l2_pairing(f, g):
    """The L2 pairing of two GridFunctions, one chunk pass on each
    half-line, joined left + right."""
    left, right = (half_pairing(f.spec, side, f.half(side), g.half(side))
                   for side in SIDES)
    return left + right


class TestZeroHalves:
    """Functions that vanish on one half-line, each zero half an ordinary
    array, against the two-sided oracle: derivatives compared with ==,
    pairings within the oracle's rounding bound."""

    SPEC = GridSpec(30.0, 3e-3)

    def functions(self):
        rng = np.random.default_rng(8)
        n = self.SPEC.n_nodes
        zeros = np.zeros(n, dtype=complex)

        def one_sided(fn, left, trace=0j):
            # fn on one half-line and zeros, with ``trace`` as its trace,
            # on the other
            values, limit = fn(self.SPEC.nodes(left)), trace_at_origin(fn)
            return (GridFunction(self.SPEC, values, zeros, limit, trace)
                    if left else
                    GridFunction(self.SPEC, zeros, values, trace, limit))

        plus, minus = defect_pair(self.SPEC)
        return {
            "phi_plus": GridFunction(self.SPEC, zeros, plus.values(0, n), 0j,
                                     plus.limit),
            "phi_minus": GridFunction(self.SPEC, minus.values(0, n), zeros,
                                      minus.limit, 0j),
            "right": one_sided(random_bump(rng, "right"), False),
            "left": one_sided(random_bump(rng, "left"), True),
            # a zero half with a nonzero trace
            "right_jump": one_sided(random_bump(rng, "right"), False, 0.3),
            "two_sided": bump_function(rng, self.SPEC),
            # nonzero, but below 1e-40 at both ends of its half-line
            "interior": one_sided(gaussian(1.0 - 0.5j, 1.0, 10.0), False),
        }

    def test_products_match_full_computation(self):
        fs = self.functions()
        assert fs["right_jump"].left_limit == 0.3
        for f in fs.values():
            for g in fs.values():
                of, og = TwoSided.of(f), TwoSided.of(g)
                assert abs(l2_pairing(f, g) - of.l2(og)) <= of.l2_bound(og)
                assert (abs(sobolev_inner(f, g) - of.sobolev(og))
                        <= of.sobolev_bound(og))
        assert sobolev_inner(fs["phi_plus"], fs["phi_minus"]) == 0.0

    def test_derivative_matches_full_computation(self):
        for f in self.functions().values():
            assert same(derivative(f), TwoSided.of(f).derivative())
