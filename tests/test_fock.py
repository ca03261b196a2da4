import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DenseFock, every_sector_kernel
from slhkit.cli import run_command
from slhkit.config import Tolerances, config_from_dict
from slhkit.ensembles import random_coupling, random_hermitian
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
from slhkit.linalg import adjoint, channel_blocks, principal_angles
from slhkit.slh import (GaugeMatrix, ScalarGauge, gauge_zll, slh_triple,
                        validate_coupling)


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


def digit_embedding(small, big):
    """Flat indices in ``big``'s space of the flat states of ``small``'s,
    a space of the same (m, n) at a lower cutoff, matched by their
    occupation digits."""
    digits = (np.arange(small.fock_dim)[:, None]
              // small.d ** np.arange(small.n_modes) % small.d)
    fock_index = digits @ big.d ** np.arange(big.n_modes)
    return (np.arange(small.m)[:, None] * big.fock_dim + fock_index).ravel()


def nesting_coupling(rng, m, n, rank_el0):
    """A random coupling with E_l0 zero or, if ``rank_el0``, of rank 1 and
    norm 8."""
    e = random_coupling(rng, m, n, zero_channel_system=True)
    if not rank_el0:
        return e
    u, v = (rng.standard_normal(k) + 1j * rng.standard_normal(k)
            for k in (n * m, m))
    raw = np.array(e.full)
    raw[m:, :m] = 8 * np.outer(u, v.conj()) / np.linalg.norm(
        u) / np.linalg.norm(v)
    raw[:m, m:] = adjoint(raw[m:, :m])
    return validate_coupling(raw, m, n)


def assert_truncation_nesting(e, d, gauge):
    """Boundary forms hold no creators, so a vector on occupations <= d - 2
    has the same image at cutoffs d - 1 and d: on both routes K_{d-1},
    embedded by its occupation digits, lies in K_d and is all of K_d inside
    the (d - 1)-box, the guarded domain at d.  Both routes read the same
    slot maps and sector blocks, so the two-route angle cannot see a defect
    there; this can."""
    small, big = (build_mode_operators(e.m, e.n, c, gauge)
                  for c in (d - 1, d))
    for rows in (stacked_boundary_rows, route_c_rows):
        lower = boundary_kernel(small.space, rows(e, small))
        upper = boundary_kernel(big.space, rows(e, big))
        assert lower.dim > 0
        embedded = np.zeros((big.space.dim, lower.dim), complex)
        embedded[digit_embedding(small.space, big.space)] = lower.columns
        k = upper.columns
        residual = np.linalg.norm(embedded - k @ (adjoint(k) @ embedded), 2)
        assert residual <= Tolerances().kernel
        assert fock.guarded_basis(big.space, upper).shape[1] == lower.dim


def equivalence(e, ops):
    return subspace_equivalence(ops.space, stacked_boundary_rows(e, ops),
                                route_c_rows(e, ops))


def action(e, ops, vectors, rows):
    """``action_residuals`` of ``vectors``, scaled by route B's sigma_max."""
    return action_residuals(slh_triple(e, ops.gauge), ops, rows, vectors,
                            Tolerances().action,
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


# Prints the peak-RSS growth, in bytes, of linalg.null_space on a random
# complex block of the shape given on the command line, the block built as
# a temporary of the call after a warm-up SVD and QR. The peak is the
# child's own VmHWM: its ru_maxrss starts at the peak of the process that
# started it, which Linux carries across fork and exec.
RSS_CHILD = """
import sys
import numpy as np
from slhkit.linalg import null_space

def block(rows, cols):
    out = np.empty((rows, cols), dtype=complex)
    np.random.default_rng(1).standard_normal(out=out.view(float))
    return out

def peak():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

null_space(block(60, 40))
null_space(block(40, 60))
before = peak()
null_space(block(int(sys.argv[1]), int(sys.argv[2])), 1.0)
print(peak() - before)
"""


def traced_charge(space, sub):
    """The part of an E_l0 = 0 solve's level charges that tracemalloc sees,
    sized from each ``Level.shape``: the index tables (``table_bytes``),
    the kernels held from earlier levels, and the level's complex block
    with numpy's outputs, for a tall block its QR's copy, tau, R and the
    boolean mask that cuts R out, then U, the singular values and V^H of R
    or of the block, and the kernel read off V^H; after the last level the
    kernels held and the returned columns.  Each level's part is at most
    its ``_level_bytes`` charge, so this is at most the largest level
    charge plus the columns."""
    held = need = 0
    for level in sub.levels:
        rows, cols = level.shape
        mn = min(rows, cols)
        qr = (16 * (2 * rows * cols + cols * cols + cols) + cols * cols
              if rows > cols else 0)
        svd = (16 * (mn * cols + mn * mn + cols * cols + cols * level.added)
               + 8 * mn)
        need = max(need, held + max(qr, svd))
        held += 16 * cols * level.added
    return space.table_bytes() + max(need, held + sub.columns.nbytes)


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
        # dim 4096: dense operators would take about 3.3 GiB; the levels of
        # a graded route-B solve are charged under 20 MiB
        ops = build_mode_operators(1, 3, 4, ScalarGauge(0.3))
        assert ops.space.dim == 4096
        e = random_coupling(np.random.default_rng(1), 1, 3,
                            zero_channel_system=True)
        sub = boundary_kernel(ops.space, stacked_boundary_rows(e, ops))
        assert sub.dim
        assert 0 < max(level.charge for level in sub.levels) < 20 * 2 ** 20

    def test_size_guard_admission(self):
        # (1,3,6) and (1,3,7) are admitted on construction (the columns and
        # index tables fit); an E_l0 = 0 solve at (1,3,7) stops after level
        # 11, whose charge fits, while a level-12 block would be refused
        # ((2,3,8): test_size_guard)
        TruncatedFockSpace(m=1, n=3, d=6)
        space = TruncatedFockSpace(m=1, n=3, d=7)
        sizes = [s.size for s in space.sectors()]

        def charge(level):
            return fock._level_bytes(space, 3 * sizes[level - 1],
                                     sizes[level], [])

        assert charge(11) <= MAX_SOLVE_BYTES < charge(12)

    @pytest.mark.parametrize("size", [(2, 1, 8), (1, 1, 30), (1, 3, 4),
                                      (1, 2, 8)])
    def test_level_charges_cover_the_solve(self, size):
        # everything a route-B solve allocates that tracemalloc sees, the
        # index tables it builds and the kernel columns it returns
        # included, stays within the traced part of its charges
        # (traced_charge); the peak reads 0.052, 0.347, 0.878 and 0.793 of
        # it at the four sizes.  A solve that keeps each level's block
        # until it returns reads 1.022 of it at (1, 3, 4) and 1.185 at
        # (1, 2, 8); one that takes the full SVD of a tall block instead of
        # its QR reads 1.151 at (1, 3, 4) (0.948 at (1, 2, 8)).  Both stay
        # within the largest level charge plus the columns, but not within
        # this bound.
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
        assert peak <= traced_charge(ops.space, sub)

    @pytest.mark.parametrize("shape", [(3000, 1100), (1770, 1770),
                                       (1100, 3000)])
    def test_level_charge_bounds_null_space_rss(self, shape):
        # tall, square and wide blocks of 50-55 MB, each in a fresh child
        # with one BLAS thread after a warm-up SVD and QR: the growth of
        # the child's peak RSS over null_space on the block, built as a
        # temporary of the call as boundary_kernel builds it, stays within
        # the charge.
        # tracemalloc cannot see this: zgesdd's buffers are malloc'd
        # outside it.
        rows, cols = shape
        space = TruncatedFockSpace(m=1, n=1, d=3)
        charge = fock._level_bytes(space, rows, cols, []) - space.table_bytes()
        src = str(Path(fock.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, str(rows), str(cols)],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                     OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"),
            capture_output=True, text=True, check=True)
        assert 16 * rows * cols < int(proc.stdout) <= charge

    def test_sector_sizes_partition_the_space(self):
        space = TruncatedFockSpace(m=1, n=2, d=4)
        sectors = space.sectors()
        assert [s.size for s in sectors] == [1, 4, 10, 20, 31, 40, 44, 40,
                                             31, 20, 10, 4, 1]
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
        assert list(space.photon_guard_mask()) == [
            max(o[1:]) <= 1 for o in occ[:space.fock_dim]]
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
        assert commutator_defect(ops.space) <= 1e-12

    def test_number_spectra(self):
        ops = build_mode_operators(1, 2, 4)
        assert number_spectrum_defect(ops.space) <= 1e-12

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

    def test_zero_gauge_record_sees_a_wrong_gauge_block(self, monkeypatch):
        # E_l0 = 0 and E_ll = 0: no route-B row reads frak_a, so only the
        # modes themselves show a wrong sigma = 0 gauge block
        cfg = config_from_dict({
            "m": 1, "n": 1, "fock": {"d": 4},
            "E": [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]})

        def run():
            rep = run_command("fock", cfg)
            record = next(c for c in rep.checks
                          if c.name == "gauge_zero_reduction")
            return rep, record

        rep, record = run()
        assert record.value == 0.0 and all(c.passed for c in rep.checks)
        zll = fock.gauge_zll

        def shifted(gauge, m, n):
            z = zll(gauge, m, n)
            return z + 1e-3 * np.eye(n * m) if gauge == ScalarGauge(0.0) else z

        monkeypatch.setattr(fock, "gauge_zll", shifted)
        _, record = run()
        assert record.value == 1e-3 and record.tolerance == 1e-12
        assert not record.passed


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

    def test_injective_x0_is_decided_at_level_zero(self):
        # level 0 is X_0 on the vacuum sector; an injective X_0 leaves F_0 =
        # 0, and the stop rule ends each solve after that one decision
        e = random_coupling(np.random.default_rng(1), 1, 2)
        ops = build_mode_operators(1, 2, 6)
        for sub in (route_b(e, ops), route_c(e, ops)):
            assert sub.dim == 0
            assert [(level.sectors, level.shape, level.added)
                    for level in sub.levels] == [(range(1), (2, 1), 0)]

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
        # prefixes hold 1, 3, 6, 10, 15, ... Fock states; admit the charge
        # of level 3 (10 states), read off an unguarded solve
        levels = boundary_kernel(ops.space, rows).levels
        monkeypatch.setattr(fock, "MAX_SOLVE_BYTES", levels[3].charge)
        widths.clear()
        with pytest.raises(TooLarge, match="level 4 of"):
            boundary_kernel(ops.space, rows)
        assert widths == [1, 3, 6, 10]

    def test_singular_el0_instance(self):
        ops = build_mode_operators(2, 1, 6)
        sub_b = route_b(SINGULAR_EL0, ops)
        sub_c = route_c(SINGULAR_EL0, ops)
        assert sub_b.dim == sub_c.dim == 6
        # coupled: level N is the block of the sectors 0..N
        for sub in (sub_b, sub_c):
            assert [level.sectors for level in sub.levels] == [
                range(level + 1) for level in range(len(sub.levels))]
            assert sum(level.added for level in sub.levels) == 6
        assert principal_angles(sub_b.columns, sub_c.columns).max() <= 1e-8

    @pytest.mark.parametrize("size,sigma", [
        ((2, 1, 6), None), ((2, 2, 4), 0.3), ((2, 2, 5), None),
        ((3, 1, 5), -1.0), ((1, 2, 6), -1.0), ((1, 3, 3), 0.3),
        ((1, 2, 4), 0.3), ((2, 2, 5), 0.3)])
    def test_kernel_support_is_monotone_in_photon_number(self, size, sigma):
        # with E_l0 = 0 the every-sector reference finds kernel in exactly
        # the sectors N = 0..N*, for both routes; that is the stop rule's
        # premise, and above N* boundary_kernel solves no sector, so its
        # columns must equal the reference's bit for bit, and its level
        # record the reference's dims through N* + 1, which adds nothing.
        # The cut's scale sigma~ lies within a factor 1 + 2n below the
        # reference's sigma_max.  The guarded domain read off route B's
        # kernel matches the dense oracle's.
        m, n, d = size
        gauge = None if sigma is None else ScalarGauge(sigma)
        ops = build_mode_operators(m, n, d, gauge)
        dense = DenseFock(m, n, d, gauge)
        rng = np.random.default_rng(list(size))
        for _ in range(2):
            e = random_coupling(rng, m, n, zero_channel_system=True)
            dims, subs = [], []
            for rows in (stacked_boundary_rows(e, ops), route_c_rows(e, ops)):
                columns, dim, smax = every_sector_kernel(ops.space, rows)
                subs.append(boundary_kernel(ops.space, rows))
                assert np.array_equal(subs[-1].columns, columns)
                assert subs[-1].sigma_max <= smax * (1 + 1e-12)
                assert smax <= (1 + 2 * n) * subs[-1].sigma_max * (1 + 1e-12)
                top = int(np.flatnonzero(dim).max())
                assert all(dim[:top + 1]) and not any(dim[top + 1:])
                dims.append(dim)
                levels = subs[-1].levels
                assert [level.sectors for level in levels] == [
                    range(level, level + 1) for level in range(len(levels))]
                assert [level.added for level in levels] == dim[:len(levels)]
                assert levels[-1].added == 0
                assert sum(level.added for level in levels) == subs[-1].dim
            assert dims[0] == dims[1]
            guarded = fock.guarded_basis(ops.space, subs[0])
            ref = dense.guarded_kernel(e)
            assert guarded.shape[1] == ref.shape[1] > 0
            assert principal_angles(guarded, ref).max() <= 1e-9

    @pytest.mark.parametrize("size,rank_el0", [
        ((1, 1, 5), 0), ((1, 2, 4), 0), ((2, 1, 6), 0), ((2, 1, 6), 1),
        ((2, 2, 4), 0), ((2, 2, 4), 1)])
    def test_truncation_nesting(self, size, rank_el0):
        # Clean cases read <= 5.4e-15 against the kernel tolerance;
        # _sector_block scaling the columns of states with an occupation
        # d - 1 by 1.01 reads 3.3e-3 to 5.0e-3 in every case, on both
        # routes.
        m, n, d = size
        e = nesting_coupling(np.random.default_rng(1), m, n, rank_el0)
        for gauge in (None, ScalarGauge(0.3)):
            assert_truncation_nesting(e, d, gauge)

    def test_route_b_rows_are_a_times_route_c_rows(self):
        # The dressing 1 + iEW is block upper triangular, so G's channel
        # rows are -i(1 + i E_ll kappa_+)^-1 E_l. and, on the channel index
        # of the forms, B = A C with A = -i(1 + i E_ll kappa_+), kappa_+ =
        # 1/2 + iZ: ker B = ker C whatever stands in for a_+ and a_-.  A is
        # formed from E and the gauge, not read off B.  The 240 instances
        # with E_l0 zero or generic read <= 6.0e-16, 17x under the bound,
        # and the 72 with E_l0 of rank 1 and norm 8 (m >= 2) <= 3.0e-15.
        # Each mutant reads above 1e-3: route C from the pipeline at -sigma
        # or -Z (0.027 to 9.13), S transposed at nm > 1 (0.042 to 1.79) and
        # kappa_+- swapped in route B's frak_a when gauged (0.11 to 1.48).
        rng = np.random.default_rng(0)
        cases = [(m, n, kind)
                 for m, n in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 3))
                 for kind in ("zero", "generic") * 8]
        cases += [(m, n, "rank1") for m, n in ((2, 1), (3, 1), (2, 2))
                  for _ in range(8)]
        for m, n, kind in cases:
            eye = np.eye(n * m)
            e = (nesting_coupling(rng, m, n, True) if kind == "rank1" else
                 random_coupling(rng, m, n, zero_channel_system=kind == "zero"))
            z = 0.4 * random_hermitian(rng, n * m)
            for gauge, flipped in ((None, None),
                                   (ScalarGauge(0.3), ScalarGauge(-0.3)),
                                   (GaugeMatrix(z), GaugeMatrix(-z))):
                ops = build_mode_operators(m, n, 3, gauge)
                kappa_plus = 0.5 * eye + 1j * gauge_zll(gauge, m, n)
                a = channel_blocks(
                    -1j * (eye + 1j * e.full[m:, m:] @ kappa_plus), m)
                res = slh_triple(e, gauge)

                def residual(res, rows_b=stacked_boundary_rows(e, ops)):
                    rows = np.einsum("jkab,ksbc->jsac", a,
                                     scattering_rows(res, ops))
                    return np.abs(rows_b - rows).max()
                assert residual(res) <= 1e-14
                if n * m > 1:
                    assert residual(res._replace(s=res.s.T)) > 1e-3
                if flipped is not None:
                    assert residual(slh_triple(e, flipped)) > 1e-3
                    assert residual(res, stacked_boundary_rows(
                        e, fock.with_gauge(ops, flipped))) > 1e-3


# the largest cutoff d at which dim m d^(2n) <= 512, by (m, n)
NESTING_TOP = {(1, 1): 22, (2, 1): 16, (3, 1): 13, (1, 2): 4, (2, 2): 4}


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_truncation_nesting_property(data):
    """Seeded couplings at random sizes with d >= 4, E_l0 zero or (m >= 2)
    of rank 1, ungauged or at sigma = 0.3: K_{d-1} nests in K_d on both
    routes."""
    (m, n), top = data.draw(st.sampled_from(sorted(NESTING_TOP.items())))
    d = data.draw(st.integers(4, top))
    rank_el0 = data.draw(st.integers(0, min(m, 2) - 1))
    gauge = data.draw(st.sampled_from([None, ScalarGauge(0.3)]))
    e = nesting_coupling(np.random.default_rng(
        data.draw(st.integers(0, 2 ** 32 - 1))), m, n, rank_el0)
    assert_truncation_nesting(e, d, gauge)


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
        assert number_defect_residual(ops._replace(a_star=skewed)) > 0.1


class TestGaugedChecks:
    def test_scalar_gauge_subspace_matches_closed_form(self):
        # frak-a boundary operator vs a_- = S(sigma) a_+ with the kappa
        # closed form evaluated independently
        e_val, sigma = 1.0, 0.3
        e = coupling_from_blocks(1, 1, ell=np.array([[e_val]]))
        ops = build_mode_operators(1, 1, 6, ScalarGauge(sigma))
        sub_b = route_b(e, ops)
        kp, km = complex(0.5, sigma), complex(0.5, -sigma)
        s_sigma = (1 - 1j * km * e_val) / (1 + 1j * kp * e_val)
        dense = DenseFock(1, 1, 6)
        manual = dense.a_minus[0] - s_sigma * dense.a_plus[0]
        from slhkit.linalg import null_space
        manual_kernel = null_space(manual)
        assert sub_b.dim == manual_kernel.shape[1] > 0
        angles = principal_angles(sub_b.columns, manual_kernel)
        assert angles.max() <= 1e-8

    def test_kernel_vectors_satisfy_both_conditions(self):
        rng = np.random.default_rng(8)
        e = random_coupling(rng, 2, 1, zero_channel_system=True)
        ops = build_mode_operators(2, 1, 5)
        sub_b = route_b(e, ops)
        rows_c = DenseFock(2, 1, 5).stacked_rows(e, "C")
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
            return sub._replace(
                columns=np.linalg.qr(sub.columns + 0.1 * noise)[0])

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
