import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from slhkit.cli import run_command
from slhkit.config import config_from_dict
from slhkit.ensembles import random_coupling, random_gauge, random_hermitian
from slhkit import fock
from slhkit.errors import MAX_SOLVE_BYTES, NotInDomain, TooLarge
from slhkit.fock import (
    TruncatedFockSpace,
    action_residuals,
    boundary_kernel,
    build_mode_operators,
    commutator_defect,
    fock_battery,
    number_defect_residual,
    number_spectrum_defect,
    sample_domain_vectors,
    scattering_rows,
    singular_generator,
    stacked_boundary_rows,
    subspace_equivalence,
)
from slhkit.linalg import adjoint, principal_angles
from slhkit.slh import GaugeMatrix, ScalarGauge, slh_triple, validate_coupling


def row_matrix(ops, coef):
    """Matrix of the boundary row with graded coefficients ``coef``, as the
    form applies it to every basis vector."""
    return ops.space.apply(coef, np.eye(ops.space.dim))


def route_c_rows(e, ops):
    return scattering_rows(slh_triple(e, ops.gauge), ops)


def route_b(e, ops):
    return boundary_kernel(ops.space, stacked_boundary_rows(e, ops))


def route_c(e, ops):
    return boundary_kernel(ops.space, route_c_rows(e, ops))


def equivalence(e, ops):
    return subspace_equivalence(ops.space, stacked_boundary_rows(e, ops),
                                route_c_rows(e, ops))


def action(e, ops, vectors, rows):
    """``action_residuals`` of ``vectors``, scaled by route B's sigma_max."""
    return action_residuals(slh_triple(e, ops.gauge), ops, rows, vectors,
                            scale=boundary_kernel(ops.space, rows).sigma_max)


def coupling_from_blocks(m, n, e00=None, el0=None, ell=None):
    size = (1 + n) * m
    raw = np.zeros((size, size), dtype=complex)
    if e00 is not None:
        raw[:m, :m] = e00
    if el0 is not None:
        raw[m:, :m] = el0
        raw[:m, m:] = adjoint(np.asarray(el0, dtype=complex))
    if ell is not None:
        raw[m:, m:] = ell
    return validate_coupling(raw, m, n)


# Rank-deficient channel-system block: the only way a photon-truncated space
# carries exact domain vectors with L != 0.  The amplitude is large so the
# nearest truncated-coherent near-kernel direction stays separated from the
# exact kernel.
SINGULAR_EL0 = coupling_from_blocks(
    2, 1,
    e00=np.array([[0.4, 0.1 + 0.2j], [0.1 - 0.2j, -0.3]]),
    el0=np.array([[0.0, 0.0], [8.0 * (0.9 - 0.3j), 0.0]]),
    ell=np.array([[0.5, 0.1j], [-0.1j, -0.2]]),
)


class TestTruncatedSpace:
    def test_cutoff_guard(self):
        with pytest.raises(TooLarge):
            TruncatedFockSpace(m=1, n=1, d=2)

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            TruncatedFockSpace(m=2, n=3, d=8)

    def test_size_guard_rejects_huge_cutoff_promptly(self):
        # the lower bound fires before any sector of size ~d is counted
        start = time.monotonic()
        with pytest.raises(TooLarge):
            TruncatedFockSpace(m=1, n=1, d=10 ** 6)
        assert time.monotonic() - start <= 1.0

    def test_size_guard_admits_three_channels(self):
        # dim 4096: dense operators would take about 3.3 GiB, a graded
        # kernel solve about 60 MiB
        space = TruncatedFockSpace(m=1, n=3, d=4)
        assert space.dim == 4096
        assert space.solve_bytes() < 64 * 2 ** 20

    def test_size_guard_admission(self):
        # (1,3,6) is admitted (largest sector block with its SVD factors 1.91
        # GiB); (1,3,7) is refused on construction, before any array of a
        # solve exists ((2,3,8): test_size_guard)
        assert TruncatedFockSpace(m=1, n=3, d=6).solve_bytes() <= MAX_SOLVE_BYTES
        with pytest.raises(TooLarge):
            TruncatedFockSpace(m=1, n=3, d=7)

    @pytest.mark.parametrize("size", [(2, 1, 8), (1, 1, 30), (1, 3, 4)])
    def test_solve_bytes_covers_the_solve(self, size):
        # everything a route-B solve allocates, the index tables it builds
        # and the kernel columns it returns included, stays within the
        # estimate the guard admits
        m, n, d = size
        ops = build_mode_operators(m, n, d, ScalarGauge(0.3))
        e = random_coupling(np.random.default_rng(1), m, n,
                            zero_channel_system=True)
        rows = stacked_boundary_rows(e, ops)
        tracemalloc.start()
        try:
            sub = boundary_kernel(ops.space, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sub.dim > 0
        assert peak <= ops.space.solve_bytes()

    def test_sector_sizes_partition_the_space(self):
        space = TruncatedFockSpace(m=1, n=2, d=4)
        sectors = space.sectors()
        assert [s.size for s in sectors] == list(space.sector_sizes())
        assert np.array_equal(np.sort(np.concatenate(sectors)),
                              np.arange(space.fock_dim))

    def test_ladder_matrix_entries(self):
        space = TruncatedFockSpace(m=1, n=1, d=3)
        # mode (1,+) is digit 0: its first d states have the other mode empty
        target, weight = (x[:space.d] for x in space.slot_maps()[1])
        a = np.zeros((space.d, space.d), dtype=complex)
        src = np.flatnonzero(target >= 0)
        a[target[src], src] = weight[src]
        expected = np.array([[0, 1, 0],
                             [0, 0, math.sqrt(2)],
                             [0, 0, 0]], dtype=complex)
        assert np.abs(a - expected).max() == 0.0

    def test_basis_ordering_little_endian(self):
        # mode (1,+) is the fastest digit, system index the slowest
        space = TruncatedFockSpace(m=2, n=1, d=3)
        assert space.dim == 18
        occ = []                             # (system, k_+, k_-) per index
        for index in range(space.dim):
            rest, plus = divmod(index, 3)
            system, minus = divmod(rest, 3)
            occ.append((system, plus, minus))
        assert occ[0] == (0, 0, 0)
        assert occ[1] == (0, 1, 0)           # +-mode increments first
        assert occ[3] == (0, 0, 1)           # then the --mode digit
        assert occ[9] == (1, 0, 0)           # system digit rolls over last
        # the library's grading, guard and ladder maps read the same digits
        for total, sector in enumerate(space.sectors()):
            assert all(sum(occ[x][1:]) == total for x in sector)
        assert list(space.photon_guard_mask()) == [max(o[1:]) <= 1 for o in occ]
        for p, step in ((0, 1), (space.n, 3)):  # modes (1,+) and (1,-)
            target, weight = space.slot_maps()[1 + p]
            for x in range(space.fock_dim):
                k = occ[x][1 + p]
                assert target[x] == (x - step if k else -1)
                assert weight[x] == math.sqrt(k)

    @pytest.mark.parametrize("size", [(1, 1, 3), (2, 1, 5), (1, 2, 4),
                                      (3, 2, 3), (1, 3, 3)])
    def test_creators_are_transposed_annihilators(self, size):
        # the creators' closed form against the transpose of the annihilators,
        # the -1 targets and 0 weights at k = 0 and k = d - 1 included
        space = TruncatedFockSpace(*size)
        lowering, raising = space.slot_maps(), space.slot_maps(dagger=True)
        assert space.slot_maps() is lowering
        assert len(lowering) == len(raising) == 1 + space.n_modes
        assert all(map(np.array_equal, raising[0], lowering[0]))
        edge = space.fock_dim // space.d
        for a, a_dag in zip(lowering[1:], raising[1:]):
            target, weight = transposed(a)
            assert np.array_equal(a_dag[0], target)
            assert np.array_equal(a_dag[1], weight)
            for ladder in (a, a_dag):
                annihilated = ladder[0] == -1
                assert annihilated.sum() == edge
                assert not np.any(ladder[1][annihilated])

    def test_commutators_on_guard(self):
        ops = build_mode_operators(2, 2, 3)
        assert commutator_defect(ops) <= 1e-12

    def test_number_spectra(self):
        ops = build_mode_operators(1, 2, 4)
        assert number_spectrum_defect(ops) <= 1e-12

    def test_identity_mode_is_exact(self):
        ops = build_mode_operators(2, 1, 3)
        eye = np.eye(ops.space.dim)
        assert np.abs(ops.space.apply(ops.a0, eye) - eye).max() == 0.0


def transposed(ladder):
    """Reference adjoint of an injective ladder map, by transposition: image
    x -> target[x] with weight w becomes target[x] -> x with weight w."""
    target, weight = ladder
    src = np.flatnonzero(target >= 0)
    back = np.full(target.size, -1)
    back[target[src]] = src
    back_weight = np.zeros(target.size)
    back_weight[target[src]] = weight[src]
    return back, back_weight


def coherent_vector(space, j, sign, alpha):
    """Normalized truncated coherent state in mode (j, sign), vacuum elsewhere,
    system component e_0."""
    amps = np.array([alpha ** k / math.sqrt(math.factorial(k))
                     for k in range(space.d)], dtype=complex)
    amps /= np.linalg.norm(amps)
    vec = np.zeros(space.dim, dtype=complex)
    digit = j - 1 if sign == "+" else space.n + j - 1
    vec[np.arange(space.d) * space.d ** digit] = amps
    return vec


class TestCoherentEigenrelation:
    def test_truncated_coherent_state(self):
        alpha = 0.5
        ops = build_mode_operators(1, 1, 12)
        vec = coherent_vector(ops.space, 1, "+", alpha)
        resid = np.linalg.norm(ops.space.apply(ops.a_plus[0], vec) - alpha * vec)
        assert resid <= 1e-6
        # tail bound |alpha|^d / sqrt((d-1)!) is the whole error
        bound = alpha ** 12 / math.sqrt(math.factorial(11))
        assert resid <= bound * (1 + 1e-10)


class TestGaugeReduction:
    def test_zero_gauge_reproduces_star_modes(self):
        # an explicit zero gauge is built by the kappa formula, so the match
        # checks that formula rather than one build against itself
        ops_plain = build_mode_operators(2, 1, 4)
        for gauge in (ScalarGauge(0.0), GaugeMatrix(np.zeros((2, 2)))):
            ops_zero = build_mode_operators(2, 1, 4, gauge)
            assert not np.shares_memory(ops_zero.frak_a, ops_zero.a_star)
            assert np.abs(ops_plain.frak_a - ops_zero.frak_a).max() == 0.0

    def test_zero_gauge_boundary_rows_identical(self):
        rng = np.random.default_rng(0)
        e = random_coupling(rng, 2, 1, zero_channel_system=True)
        ops_plain = build_mode_operators(2, 1, 4)
        ops_zero = build_mode_operators(2, 1, 4, GaugeMatrix(np.zeros((2, 2))))
        diff = np.abs(stacked_boundary_rows(e, ops_plain)
                      - stacked_boundary_rows(e, ops_zero)).max()
        assert diff == 0.0


class TestBoundarySubspaces:
    def test_zero_coupling_dimensions(self):
        # kernel of a_+ - a_- : one rotated-vacuum tower per channel, cut to
        # the box; scalar instances give exactly d independent vectors
        for d in (3, 5):
            e = coupling_from_blocks(1, 1)
            ops = build_mode_operators(1, 1, d)
            sub_b = route_b(e, ops)
            sub_c = route_c(e, ops)
            assert sub_b.dim == d and sub_c.dim == d
            angles = principal_angles(sub_b.columns, sub_c.columns)
            assert angles.max() <= 1e-10

    def test_zero_coupling_two_channels(self):
        e = coupling_from_blocks(1, 2)
        ops = build_mode_operators(1, 2, 4)
        assert route_b(e, ops).dim == 16

    def test_pure_drive_row_proportionality(self):
        # with Ell = 0 and El0 = eps: C = i * B as exact matrices
        eps = 0.37
        e = coupling_from_blocks(1, 1, el0=np.array([[eps]]))
        ops = build_mode_operators(1, 1, 4)
        b = row_matrix(ops, stacked_boundary_rows(e, ops)[0])
        c = row_matrix(ops, route_c_rows(e, ops)[0])
        assert np.abs(c - 1j * b).max() <= 1e-15

    def test_scalar_scattering_row(self):
        # Ell = 2 gives S = -i, so the C-row is a_- + i a_+
        e = coupling_from_blocks(1, 1, ell=np.array([[2.0]]))
        ops = build_mode_operators(1, 1, 5)
        c = row_matrix(ops, route_c_rows(e, ops)[0])
        manual = row_matrix(ops, ops.a_minus[0] + 1j * ops.a_plus[0])
        assert np.abs(c - manual).max() <= 1e-14

    def test_equivalence_random_sweep(self):
        rng = np.random.default_rng(1)
        for m, n, d in ((1, 1, 5), (2, 1, 5), (1, 2, 4)):
            for _ in range(5):
                e = random_coupling(rng, m, n, zero_channel_system=True)
                ops = build_mode_operators(m, n, d)
                eq = equivalence(e, ops)
                assert eq["dim_b"] == eq["dim_c"] > 0
                assert eq["max_angle"] <= 1e-8

    def test_generic_coupling_has_empty_kernel(self):
        # invertible El0 displaces every candidate into a coherent tower,
        # which a photon-truncated box cannot contain
        cases = [(coupling_from_blocks(1, 1, el0=np.array([[1.0]])), 5)]
        # however small El0 is, the level-0 decision sees an injective X_0
        # (sigma_min 3e6 to 1e7 x the cut here) and stops with dim 0
        for (m, n, d), eps in (((1, 1, 5), 0.01), ((1, 2, 4), 0.01),
                               ((2, 1, 6), 0.1)):
            raw = random_hermitian(np.random.default_rng(0), (1 + n) * m)
            raw[m:, :m] *= eps
            raw[:m, m:] *= eps
            cases.append((validate_coupling(raw, m, n), d))
        for e, d in cases:
            ops = build_mode_operators(e.m, e.n, d)
            assert route_b(e, ops).dim == 0
            assert route_c(e, ops).dim == 0

    def test_injective_x0_is_decided_at_level_zero(self, monkeypatch):
        # level 0 is X_0 on the vacuum sector; an injective X_0 leaves F_0 =
        # 0, and the stop rule ends each solve after that one decision
        e = random_coupling(np.random.default_rng(1), 1, 2)
        ops = build_mode_operators(1, 2, 6)
        shapes = []
        solve = fock.null_space

        def recording(block, scale):
            shapes.append(block.shape)
            return solve(block, scale)

        monkeypatch.setattr(fock, "null_space", recording)
        eq = equivalence(e, ops)
        assert eq["dim_b"] == eq["dim_c"] == 0
        assert shapes == [(2, 1), (2, 1)]

    def test_battery_solves_each_kernel_once(self, monkeypatch):
        # one battery solves route B and route C once each; the guarded
        # domain is read off route B's kernel, with no third solve
        rng = np.random.default_rng(9)
        e = random_coupling(rng, 1, 2, zero_channel_system=True)
        ops = build_mode_operators(1, 2, 4, ScalarGauge(0.3))
        kernel, calls = fock.boundary_kernel, []

        def counting(space, coef):
            calls.append(coef)
            return kernel(space, coef)

        monkeypatch.setattr(fock, "boundary_kernel", counting)
        report = fock_battery(e, ops, 3, rng, 1e-8)
        assert len(calls) == 2
        assert report["dim_b"] > 0 and len(report["action_residuals"]) == 3

    def test_empty_kernel_samples_no_domain_vectors(self, monkeypatch):
        # a generic E_l0 leaves both kernels empty: the battery samples no
        # domain vector and hands no (r, 0) array to the intersection solve
        e = random_coupling(np.random.default_rng(1), 1, 2)
        ops = build_mode_operators(1, 2, 4)
        solve, shapes = fock.null_space, []

        def recording(block, scale):
            shapes.append(block.shape)
            return solve(block, scale)

        monkeypatch.setattr(fock, "null_space", recording)
        kernel = route_b(e, ops)
        assert kernel.dim == 0 and shapes
        shapes.clear()
        assert sample_domain_vectors(ops.space, kernel, 5,
                                     np.random.default_rng(0)) == []
        assert shapes == []
        report = fock_battery(e, ops, 5, np.random.default_rng(0), 1e-8)
        assert report["dim_b"] == report["dim_c"] == 0
        assert report["action_residuals"] == []
        assert shapes and all(cols > 0 for _, cols in shapes)

    def test_coupled_prefix_guard_refuses_before_assembly(self, monkeypatch):
        # with E_l0 != 0 level N is the block of the sectors <= N; one above
        # the guard raises TooLarge before it is assembled
        ops = build_mode_operators(2, 1, 6)
        rows = stacked_boundary_rows(SINGULAR_EL0, ops)
        widths = []
        assemble = fock._sector_block

        def recording(space, coef, cols, rows):
            widths.append(cols.size)
            return assemble(space, coef, cols, rows)

        monkeypatch.setattr(fock, "_sector_block", recording)
        # prefixes hold 1, 3, 6, 10, 15, ... Fock states; admit 10
        monkeypatch.setattr(fock, "MAX_SOLVE_BYTES",
                            fock._svd_block_bytes(2 * 10, 2 * 10))
        with pytest.raises(TooLarge, match="sectors <= 4"):
            boundary_kernel(ops.space, rows)
        assert widths == [1, 3, 6, 10]

    def test_singular_el0_instance(self):
        ops = build_mode_operators(2, 1, 6)
        sub_b = route_b(SINGULAR_EL0, ops)
        sub_c = route_c(SINGULAR_EL0, ops)
        assert sub_b.dim == sub_c.dim == 6
        assert principal_angles(sub_b.columns, sub_c.columns).max() <= 1e-8

    @pytest.mark.parametrize("size,sigma", [
        ((2, 1, 6), None), ((2, 2, 4), 0.3), ((2, 2, 5), None),
        ((3, 1, 5), -1.0), ((1, 2, 6), -1.0), ((1, 3, 3), 0.3)])
    def test_kernel_support_is_monotone_in_photon_number(self, size, sigma,
                                                         sector_reference,
                                                         dense_fock):
        # with E_l0 = 0 the every-sector reference finds kernel in exactly
        # the sectors N = 0..N*, for both routes; that is the stop rule's
        # premise, and above N* boundary_kernel solves no sector, so its
        # columns must equal the reference's bit for bit.  The guarded
        # domain read off route B's kernel matches the dense oracle's.
        m, n, d = size
        gauge = None if sigma is None else ScalarGauge(sigma)
        ops = build_mode_operators(m, n, d, gauge)
        dense = dense_fock(m, n, d, gauge)
        rng = np.random.default_rng(list(size))
        for _ in range(2):
            e = random_coupling(rng, m, n, zero_channel_system=True)
            dims, subs = [], []
            for rows in (stacked_boundary_rows(e, ops), route_c_rows(e, ops)):
                columns, dim, _ = sector_reference(ops.space, rows)
                subs.append(boundary_kernel(ops.space, rows))
                assert np.array_equal(subs[-1].columns, columns)
                top = int(np.flatnonzero(dim).max())
                assert all(dim[:top + 1]) and not any(dim[top + 1:])
                dims.append(dim)
            assert dims[0] == dims[1]
            guarded = fock.guarded_basis(ops.space, subs[0])
            ref = dense.guarded_kernel(e)
            assert guarded.shape[1] == ref.shape[1] > 0
            assert principal_angles(guarded, ref).max() <= 1e-9


class TestSingularAction:
    def test_zero_coupling_action_vanishes(self):
        e = coupling_from_blocks(1, 1)
        ops = build_mode_operators(1, 1, 5)
        basis = fock.guarded_basis(ops.space, route_b(e, ops))
        assert basis.shape[1] > 0
        assert np.abs(singular_generator(e, ops, basis)).max() <= 1e-13

    def test_system_energy_only(self):
        h0 = np.array([[0.8, 0.1 - 0.4j], [0.1 + 0.4j, -0.2]])
        e = coupling_from_blocks(2, 1, e00=h0)
        ops = build_mode_operators(2, 1, 4)
        rows = stacked_boundary_rows(e, ops)
        vecs = sample_domain_vectors(ops.space, route_b(e, ops), 4,
                                     np.random.default_rng(2))
        assert max(action(e, ops, vecs, rows)) <= 1e-12

    def test_random_scattering_instances(self):
        rng = np.random.default_rng(3)
        e = random_coupling(rng, 2, 1, zero_channel_system=True)
        ops = build_mode_operators(2, 1, 6)
        rows = stacked_boundary_rows(e, ops)
        vecs = sample_domain_vectors(ops.space, route_b(e, ops), 10, rng)
        assert len(vecs) == 10
        assert max(action(e, ops, vecs, rows)) <= 1e-8

    def test_singular_el0_action_exercises_coupling_terms(self):
        ops = build_mode_operators(2, 1, 6)
        rows = stacked_boundary_rows(SINGULAR_EL0, ops)
        vecs = sample_domain_vectors(ops.space, route_b(SINGULAR_EL0, ops), 5,
                                     np.random.default_rng(4))
        assert len(vecs) == 5
        assert max(action(SINGULAR_EL0, ops, vecs, rows)) <= 1e-8

    def test_not_in_domain_rejected(self):
        e = coupling_from_blocks(1, 1, ell=np.array([[1.0]]))
        ops = build_mode_operators(1, 1, 5)
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(ops.space.dim) + 0j
        with pytest.raises(NotInDomain):
            action(e, ops, [phi], stacked_boundary_rows(e, ops))

    def test_adjoint_defect_identity(self):
        # sharp truncated statement: K_sing - K_sing^dag = i(N_+ - N_-)
        for m, n, d in ((1, 1, 5), (2, 1, 4), (1, 2, 3)):
            ops = build_mode_operators(m, n, d)
            assert number_defect_residual(ops) <= 1e-12

    def test_adjoint_defect_reads_the_applied_forms(self):
        # a wrong a_star must show in the defect, not only in the oracle tests
        ops = build_mode_operators(2, 1, 4)
        skewed = [0.6 * ap + 0.4 * am
                  for ap, am in zip(ops.a_plus, ops.a_minus)]
        assert number_defect_residual(replace(ops, a_star=skewed)) > 0.1


class TestGaugedChecks:
    def test_scalar_gauge_subspace_matches_closed_form(self, dense_fock):
        # frak-a boundary operator vs a_- = S(sigma) a_+ with the kappa
        # closed form evaluated independently
        e_val, sigma = 1.0, 0.3
        e = coupling_from_blocks(1, 1, ell=np.array([[e_val]]))
        ops = build_mode_operators(1, 1, 6, ScalarGauge(sigma))
        sub_b = route_b(e, ops)
        kp, km = complex(0.5, sigma), complex(0.5, -sigma)
        s_sigma = (1 - 1j * km * e_val) / (1 + 1j * kp * e_val)
        dense = dense_fock(1, 1, 6)
        manual = dense.a_minus[0] - s_sigma * dense.a_plus[0]
        from slhkit.linalg import null_space
        manual_kernel = null_space(manual)
        assert sub_b.dim == manual_kernel.shape[1] > 0
        angles = principal_angles(sub_b.columns, manual_kernel)
        assert angles.max() <= 1e-8

    def test_gauged_equivalence_and_action(self):
        rng = np.random.default_rng(6)
        for gauge in (ScalarGauge(0.3),
                      GaugeMatrix(np.diag([0.4, -0.7])),
                      random_gauge(rng, 1, 2)):
            e = random_coupling(rng, 1, 2, zero_channel_system=True)
            ops = build_mode_operators(1, 2, 4, gauge)
            eq = equivalence(e, ops)
            assert eq["dim_b"] == eq["dim_c"] > 0
            assert eq["max_angle"] <= 1e-8
            rows = stacked_boundary_rows(e, ops)
            kernel = eq["kernel_b"]
            vecs = sample_domain_vectors(ops.space, kernel, 5, rng)
            assert max(action_residuals(slh_triple(e, gauge), ops, rows, vecs,
                                        scale=kernel.sigma_max)) <= 1e-8

    def test_kernel_vectors_satisfy_both_conditions(self, dense_fock):
        rng = np.random.default_rng(8)
        e = random_coupling(rng, 2, 1, zero_channel_system=True)
        ops = build_mode_operators(2, 1, 5)
        sub_b = route_b(e, ops)
        rows_c = dense_fock(2, 1, 5).stacked_rows(e, "C")
        scale = np.linalg.norm(rows_c, 2)
        assert np.abs(rows_c @ sub_b.columns).max() <= 1e-8 * scale

    def test_gauged_fock_check_report(self):
        rng = np.random.default_rng(9)
        e = random_coupling(rng, 1, 1, zero_channel_system=True)
        ops = build_mode_operators(1, 1, 6, ScalarGauge(0.3))
        report = fock_battery(e, ops, 10, rng, 1e-8)
        assert report["dim_b"] == report["dim_c"] > 0
        assert report["max_angle"] <= 1e-8
        assert len(report["action_residuals"]) == 10
        assert max(report["action_residuals"]) <= 1e-8
        assert number_defect_residual(ops) <= 1e-12

    def test_equivalence_sees_a_wrong_route(self, monkeypatch):
        # route C tilted off its kernel: the angle check must fail
        rng = np.random.default_rng(9)
        e = random_coupling(rng, 1, 2, zero_channel_system=True)
        ops = build_mode_operators(1, 2, 4)
        rows_b, rows_c = stacked_boundary_rows(e, ops), route_c_rows(e, ops)
        kernel = fock.boundary_kernel

        def tilted(space, coef):
            sub = kernel(space, coef)
            if coef is not rows_c:
                return sub
            noise = rng.standard_normal(sub.columns.shape)
            return replace(sub, columns=np.linalg.qr(sub.columns + 0.1 * noise)[0])

        space = ops.space
        assert subspace_equivalence(space, rows_b, rows_c)["max_angle"] <= 1e-8
        monkeypatch.setattr(fock, "boundary_kernel", tilted)
        assert subspace_equivalence(space, rows_b, rows_c)["max_angle"] > 1e-3

    def test_battery_sees_a_wrong_action(self, monkeypatch):
        # the generator off by 0.1 %: every action residual must fail
        rng = np.random.default_rng(9)
        e = random_coupling(rng, 1, 1, zero_channel_system=True)
        ops = build_mode_operators(1, 1, 6, ScalarGauge(0.3))
        generator = fock.singular_generator
        monkeypatch.setattr(fock, "singular_generator",
                            lambda e, ops, v: 1.001 * generator(e, ops, v))
        residuals = fock_battery(e, ops, 10, rng, 1e-8)["action_residuals"]
        assert len(residuals) == 10 and min(residuals) > 1e-6

    def test_sigma_zero_report_matches_ungauged(self):
        rng = np.random.default_rng(7)
        e = random_coupling(rng, 1, 1, zero_channel_system=True)
        ops = build_mode_operators(1, 1, 5)
        ops0 = build_mode_operators(1, 1, 5, ScalarGauge(0.0))
        eq = equivalence(e, ops)
        eq0 = equivalence(e, ops0)
        assert eq["dim_b"] == eq0["dim_b"]
        assert abs(eq["max_angle"] - eq0["max_angle"]) <= 1e-12


class TestThreeChannels:
    def test_plain_and_gauged_battery(self):
        # (1,3,4) with E_l0 = 0 through the CLI's Fock suite: ladder checks,
        # then the plain and the sigma-gauged battery
        rng = np.random.default_rng(13)
        e = random_coupling(rng, 1, 3, zero_channel_system=True)
        cfg = config_from_dict({
            "m": 1, "n": 3, "sigma": 0.3, "fock": {"d": 4},
            "E": [[[v.real, v.imag] for v in row] for row in e.full],
        })
        report = run_command("fock", cfg)
        assert report.all_passed, report.first_failure()
        checks = {c.name: c.value for c in report.checks}
        for prefix in ("", "gauged."):
            dim_b, dim_c = checks[prefix + "kernel_dims"]
            assert dim_b == dim_c > 0
            assert report.results[prefix + "domain_vectors"] == 10
            assert prefix + "max_action_residual" in checks
