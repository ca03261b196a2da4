import math
import time
from dataclasses import replace

import numpy as np
import pytest

from slhkit.cli import run_command
from slhkit.config import config_from_dict
from slhkit.ensembles import random_coupling, random_gauge
from slhkit import fock
from slhkit.errors import NotInDomain, TooLarge
from slhkit.fock import (
    ModeForm,
    TruncatedFockSpace,
    action_residuals,
    boundary_subspace_b,
    boundary_subspace_c,
    build_mode_operators,
    commutator_defect,
    fock_battery,
    guarded_domain_basis,
    number_defect_residual,
    number_spectrum_defect,
    sample_domain_vectors,
    singular_generator,
    stacked_boundary_rows,
    subspace_equivalence,
)
from slhkit.linalg import adjoint, principal_angles
from slhkit.slh import GaugeMatrix, ScalarGauge, validate_coupling


def row_matrix(ops, coef):
    """Matrix of the boundary row with graded coefficients ``coef``, as the
    form applies it to every basis vector."""
    return ModeForm(ops.space, coef) @ np.eye(ops.space.dim)


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

    def test_sector_sizes_partition_the_space(self):
        space = TruncatedFockSpace(m=1, n=2, d=4)
        sectors = space.sectors()
        assert [s.size for s in sectors] == list(space.sector_sizes())
        assert np.array_equal(np.sort(np.concatenate(sectors)),
                              np.arange(space.fock_dim))
        guarded = space.sectors(space.d - 2)
        assert sum(s.size for s in guarded) == int(space.photon_guard_mask().sum())

    def test_ladder_matrix_entries(self):
        space = TruncatedFockSpace(m=1, n=1, d=3)
        # mode (1,+) is digit 0: its first d states have the other mode empty
        target, weight = (x[:space.d] for x in space.ladder_map(0))
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
        occ = space.occupations()
        assert space.dim == 18
        assert list(occ[0]) == [0, 0]
        assert list(occ[1]) == [1, 0]        # +-mode increments first
        assert list(occ[3]) == [0, 1]        # then the --mode digit
        assert list(occ[9]) == [0, 0]        # system digit rolls over last

    def test_commutators_on_guard(self):
        ops = build_mode_operators(2, 2, 3)
        assert commutator_defect(ops) <= 1e-12

    def test_number_spectra(self):
        ops = build_mode_operators(1, 2, 4)
        assert number_spectrum_defect(ops) <= 1e-12

    def test_identity_mode_is_exact(self):
        ops = build_mode_operators(2, 1, 3)
        eye = np.eye(ops.space.dim)
        assert np.abs(ops.a0 @ eye - eye).max() == 0.0

    @pytest.mark.parametrize("size", [(1, 1, 3), (2, 1, 4), (1, 2, 4), (1, 3, 3)])
    def test_check_blocks_fit_beside_the_kernel_solve(self, size, monkeypatch):
        # no block the ladder checks assemble is larger than the largest
        # sector block of a kernel solve with its SVD factors
        ops = build_mode_operators(*size)
        space = ops.space
        c = space.m * space.sector_sizes()
        largest = max(fock._svd_block_bytes(space.n * int(c[k - 1]), int(c[k]))
                      for k in range(1, len(c)))
        sizes = []
        assemble = fock._assemble

        def recording(*args):
            block = assemble(*args)
            sizes.append(block.nbytes)
            return block

        monkeypatch.setattr(fock, "_assemble", recording)
        commutator_defect(ops)
        number_defect_residual(ops)
        assert sizes and max(sizes) <= largest


def coherent_vector(space, j, sign, alpha):
    """Normalized truncated coherent state in mode (j, sign), vacuum elsewhere,
    system component e_0."""
    amps = np.array([alpha ** k / math.sqrt(math.factorial(k))
                     for k in range(space.d)], dtype=complex)
    amps /= np.linalg.norm(amps)
    vec = np.zeros(space.dim, dtype=complex)
    vec[np.arange(space.d) * space.d ** space.digit(j, sign)] = amps
    return vec


class TestCoherentEigenrelation:
    def test_truncated_coherent_state(self):
        alpha = 0.5
        ops = build_mode_operators(1, 1, 12)
        vec = coherent_vector(ops.space, 1, "+", alpha)
        resid = np.linalg.norm(ops.a_plus[0] @ vec - alpha * vec)
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
            for a, b, star in zip(ops_plain.frak_a, ops_zero.frak_a,
                                  ops_zero.a_star):
                assert b is not star
                assert np.abs(a.coef - b.coef).max() == 0.0

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
            sub_b = boundary_subspace_b(e, ops)
            sub_c = boundary_subspace_c(e, ops)
            assert sub_b.dim == d and sub_c.dim == d
            angles = principal_angles(sub_b.columns, sub_c.columns)
            assert angles.max() <= 1e-10

    def test_zero_coupling_two_channels(self):
        e = coupling_from_blocks(1, 2)
        ops = build_mode_operators(1, 2, 4)
        assert boundary_subspace_b(e, ops).dim == 16

    def test_pure_drive_row_proportionality(self):
        # with Ell = 0 and El0 = eps: C = i * B as exact matrices
        eps = 0.37
        e = coupling_from_blocks(1, 1, el0=np.array([[eps]]))
        ops = build_mode_operators(1, 1, 4)
        b = row_matrix(ops, stacked_boundary_rows(e, ops, "B")[0])
        c = row_matrix(ops, stacked_boundary_rows(e, ops, "C")[0])
        assert np.abs(c - 1j * b).max() <= 1e-15

    def test_scalar_scattering_row(self):
        # Ell = 2 gives S = -i, so the C-row is a_- + i a_+
        e = coupling_from_blocks(1, 1, ell=np.array([[2.0]]))
        ops = build_mode_operators(1, 1, 5)
        c = row_matrix(ops, stacked_boundary_rows(e, ops, "C")[0])
        manual = row_matrix(ops, (ops.a_minus[0] + 1j * ops.a_plus[0]).coef)
        assert np.abs(c - manual).max() <= 1e-14

    def test_equivalence_random_sweep(self):
        rng = np.random.default_rng(1)
        for m, n, d in ((1, 1, 5), (2, 1, 5), (1, 2, 4)):
            for _ in range(5):
                e = random_coupling(rng, m, n, zero_channel_system=True)
                ops = build_mode_operators(m, n, d)
                eq = subspace_equivalence(e, ops)
                assert eq["dim_b"] == eq["dim_c"] > 0
                assert eq["max_angle"] <= 1e-8

    def test_generic_coupling_has_empty_kernel(self):
        # invertible El0 displaces every candidate into a coherent tower,
        # which a photon-truncated box cannot contain
        e = coupling_from_blocks(1, 1, el0=np.array([[1.0]]))
        ops = build_mode_operators(1, 1, 5)
        assert boundary_subspace_b(e, ops).dim == 0
        assert boundary_subspace_c(e, ops).dim == 0

    def test_singular_el0_instance(self):
        ops = build_mode_operators(2, 1, 6)
        sub_b = boundary_subspace_b(SINGULAR_EL0, ops)
        sub_c = boundary_subspace_c(SINGULAR_EL0, ops)
        assert sub_b.dim == sub_c.dim == 6
        assert principal_angles(sub_b.columns, sub_c.columns).max() <= 1e-8


class TestSingularAction:
    def test_zero_coupling_action_vanishes(self):
        e = coupling_from_blocks(1, 1)
        ops = build_mode_operators(1, 1, 5)
        basis = guarded_domain_basis(e, ops)
        assert basis.shape[1] > 0
        assert np.abs(singular_generator(e, ops, basis)).max() <= 1e-13

    def test_system_energy_only(self):
        h0 = np.array([[0.8, 0.1 - 0.4j], [0.1 + 0.4j, -0.2]])
        e = coupling_from_blocks(2, 1, e00=h0)
        ops = build_mode_operators(2, 1, 4)
        vecs = sample_domain_vectors(e, ops, 4, np.random.default_rng(2))
        scale = boundary_subspace_b(e, ops).sigma_max
        assert max(action_residuals(e, ops, vecs, scale=scale)) <= 1e-12

    def test_random_scattering_instances(self):
        rng = np.random.default_rng(3)
        e = random_coupling(rng, 2, 1, zero_channel_system=True)
        ops = build_mode_operators(2, 1, 6)
        vecs = sample_domain_vectors(e, ops, 10, rng)
        assert len(vecs) == 10
        scale = boundary_subspace_b(e, ops).sigma_max
        assert max(action_residuals(e, ops, vecs, scale=scale)) <= 1e-8

    def test_singular_el0_action_exercises_coupling_terms(self):
        ops = build_mode_operators(2, 1, 6)
        vecs = sample_domain_vectors(SINGULAR_EL0, ops, 5,
                                     np.random.default_rng(4))
        assert len(vecs) == 5
        scale = boundary_subspace_b(SINGULAR_EL0, ops).sigma_max
        assert max(action_residuals(SINGULAR_EL0, ops, vecs,
                                    scale=scale)) <= 1e-8

    def test_not_in_domain_rejected(self):
        e = coupling_from_blocks(1, 1, ell=np.array([[1.0]]))
        ops = build_mode_operators(1, 1, 5)
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(ops.space.dim) + 0j
        with pytest.raises(NotInDomain):
            action_residuals(e, ops, [phi],
                             scale=boundary_subspace_b(e, ops).sigma_max)

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
        sub_b = boundary_subspace_b(e, ops)
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
            eq = subspace_equivalence(e, ops)
            assert eq["dim_b"] == eq["dim_c"] > 0
            assert eq["max_angle"] <= 1e-8
            vecs = sample_domain_vectors(e, ops, 5, rng)
            assert max(action_residuals(e, ops, vecs,
                                        scale=eq["sigma_max_b"])) <= 1e-8

    def test_kernel_vectors_satisfy_both_conditions(self, dense_fock):
        rng = np.random.default_rng(8)
        e = random_coupling(rng, 2, 1, zero_channel_system=True)
        ops = build_mode_operators(2, 1, 5)
        sub_b = boundary_subspace_b(e, ops)
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
        route_c = fock.boundary_subspace_c

        def tilted(e, ops):
            sub = route_c(e, ops)
            noise = rng.standard_normal(sub.columns.shape)
            return replace(sub, columns=np.linalg.qr(sub.columns + 0.1 * noise)[0])

        assert subspace_equivalence(e, ops)["max_angle"] <= 1e-8
        monkeypatch.setattr(fock, "boundary_subspace_c", tilted)
        assert subspace_equivalence(e, ops)["max_angle"] > 1e-3

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
        eq = subspace_equivalence(e, ops)
        eq0 = subspace_equivalence(e, ops0)
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
