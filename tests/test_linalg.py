import numpy as np
import pytest
import scipy.linalg

from slhkit import fock, punctured_line
from slhkit.errors import DimensionMismatch, NonHermitianInput, SizeMismatch
from slhkit.linalg import (
    NULLSPACE_TOL,
    adjoint,
    cayley,
    channel_blocks,
    channel_projector,
    null_space,
    principal_angles,
)
from slhkit.slh import CouplingMatrix, GaugeMatrix


def orthonormality_defect(basis):
    gram = adjoint(basis) @ basis
    return float(np.abs(gram - np.eye(basis.shape[1])).max())


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + adjoint(a))


class TestCayley:
    def test_zero_matrix_gives_identity(self):
        for dim in (1, 2, 5):
            out = cayley(np.zeros((dim, dim)), 0.5)
            assert np.abs(out - np.eye(dim)).max() == 0.0

    def test_scalar_two(self):
        # (1 - i)/(1 + i) = -i by direct complex arithmetic
        expected = (1 - 1j) / (1 + 1j)
        assert expected == -1j
        out = cayley(np.array([[2.0]]), 0.5)
        assert abs(out[0, 0] - expected) < 1e-15

    def test_scalar_pi_argument(self):
        out = cayley(np.array([[np.pi]]), 0.5)[0, 0]
        assert abs(abs(out) - 1.0) < 1e-14
        assert abs(np.angle(out) - (-2.0 * np.arctan(np.pi / 2))) < 1e-12

    def test_unitarity_sweep(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2, 3, 8, 16, 64):
            a = random_hermitian(rng, dim)
            for scale in (0.5, 1.0, -0.7):
                u = cayley(a, scale)
                defect = np.abs(adjoint(u) @ u - np.eye(dim)).max()
                assert defect <= 1e-10

    def test_adjoint_is_inverse_and_sign_flip(self):
        rng = np.random.default_rng(12)
        a = random_hermitian(rng, 6)
        u = cayley(a, 0.5)
        v = cayley(a, -0.5)
        assert np.abs(adjoint(u) - v).max() <= 1e-10
        assert np.abs(u @ v - np.eye(6)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            cayley(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)


class TestNullSpace:
    def test_identity_has_empty_kernel(self):
        basis = null_space(np.eye(4))
        assert basis.shape == (4, 0)

    def test_zero_matrix_has_full_kernel(self):
        basis = null_space(np.zeros((3, 3)))
        assert basis.shape[1] == 3
        assert orthonormality_defect(basis) <= 1e-14

    def test_zero_scale_keeps_the_full_space(self):
        # a cut of 0 (a zero matrix, or a zero operator's scale) keeps every
        # direction, as the identity
        for block, scale in ((np.zeros((6, 4)), None), (np.zeros((2, 3)), 0.0),
                             (np.zeros((0, 2)), None)):
            basis = null_space(block, scale)
            assert np.array_equal(basis, np.eye(block.shape[1]))

    def test_diagonal_kernel(self):
        basis = null_space(np.diag([1.0, 0.0, 2.0]))
        assert basis.shape[1] == 1
        v = basis[:, 0]
        assert abs(abs(v[1]) - 1.0) < 1e-14
        assert abs(v[0]) < 1e-14 and abs(v[2]) < 1e-14

    def test_kernel_annihilated_and_orthonormal(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        basis = null_space(m)
        assert basis.shape[1] == 3
        smax = np.linalg.svd(m, compute_uv=False)[0]
        assert np.abs(m @ basis).max() <= NULLSPACE_TOL * smax
        # orthonormality within 10 * eps * dimension
        assert orthonormality_defect(basis) <= 10 * np.finfo(float).eps * 7
        # kernel is orthogonal to the row space
        row_basis = scipy.linalg.orth(adjoint(m))
        assert np.abs(adjoint(row_basis) @ basis).max() <= 1e-12


    @pytest.mark.parametrize("shape,rank", [((12, 5), 3), ((4, 9), 2), ((6, 6), 4)])
    def test_tall_and_wide_match_full_svd(self, shape, rank):
        # the kernel equals the one read off a full_matrices=True SVD
        rng = np.random.default_rng(sum(shape) + rank)
        rows, cols = shape
        left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
        m = left @ right
        _, sing, vh = np.linalg.svd(m, full_matrices=True)
        reference = adjoint(vh[int(np.sum(sing > 1e-9 * sing[0])):])
        basis = null_space(m)
        assert basis.shape[1] == reference.shape[1] == cols - rank
        assert principal_angles(basis, reference).max() <= 1e-12
        assert np.abs(m @ basis).max() <= 1e-12 * sing[0]

    def test_blocks_share_the_global_threshold(self):
        # a block whose largest singular value sits below tol x the scale of
        # the operator it is a block of is all kernel, though alone it would
        # have full rank
        small = np.diag([1e-11, 2e-11])
        assert null_space(small, scale=1.0).shape[1] == 2
        assert null_space(np.diag([1.0, 0.0]), scale=1.0).shape[1] == 1
        assert null_space(small).shape[1] == 0


class TestPrincipalAngles:
    def test_equal_spans(self):
        u = np.eye(3, 1, dtype=complex)
        assert principal_angles(u, u)[0] <= 1e-10

    def test_orthogonal_spans(self):
        u = np.eye(3, dtype=complex)[:, :1]
        w = np.eye(3, dtype=complex)[:, 1:2]
        assert abs(principal_angles(u, w)[0] - np.pi / 2) < 1e-12

    def test_forty_five_degrees(self):
        u = np.eye(3, dtype=complex)[:, :1]
        w = np.array([[1.0], [1.0], [0.0]], dtype=complex) / np.sqrt(2)
        assert abs(principal_angles(u, w)[0] - np.pi / 4) < 1e-12

    def test_matches_scipy_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            a = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
            b = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
            u = np.linalg.qr(a)[0]
            w = np.linalg.qr(b)[0]
            ours = np.sort(principal_angles(u, w))
            ref = np.sort(scipy.linalg.subspace_angles(u, w))
            assert np.abs(ours - ref).max() < 1e-10

    def test_rotated_copy_has_tiny_angles(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        q = np.linalg.qr(a)[0]
        mix = np.linalg.qr(rng.standard_normal((4, 4))
                           + 1j * rng.standard_normal((4, 4)))[0]
        assert principal_angles(q, q @ mix).max() <= 1e-10

    def test_dimension_mismatch(self):
        u = np.eye(3, dtype=complex)[:, :1]
        w = np.eye(4, dtype=complex)[:, :1]
        with pytest.raises(DimensionMismatch):
            principal_angles(u, w)


class TestBlockPartition:
    def test_projector_blocks(self):
        # block (alpha, beta) is I exactly when alpha == beta >= 1, else 0
        for m, n in ((1, 2), (2, 3)):
            blocks = channel_blocks(channel_projector(m, n), m)
            assert blocks.shape == (1 + n, 1 + n, m, m)
            for alpha in range(1 + n):
                for beta in range(1 + n):
                    ref = np.eye(m) if alpha == beta >= 1 else np.zeros((m, m))
                    assert np.array_equal(blocks[alpha, beta], ref)

    def test_size_mismatch(self):
        # sides that are not multiples of m, m = 0 and a 3-d array
        for raw, m in ((np.eye(5), 2), (np.zeros((4, 3)), 2),
                       (np.eye(2), 0), (np.zeros((2, 2, 2)), 1)):
            with pytest.raises(SizeMismatch):
                channel_blocks(raw, m)

    def test_projector_is_hermitian_idempotent(self):
        for m, n in ((1, 1), (2, 3)):
            pi = channel_projector(m, n)
            assert np.abs(pi @ pi - pi).max() == 0.0
            assert np.abs(adjoint(pi) - pi).max() == 0.0

    def test_adjoint_involution_exact(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.abs(adjoint(adjoint(a)) - a).max() == 0.0

    def test_channel_blocks_view_matches_slices(self):
        rng = np.random.default_rng(43)
        full = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        blocks = channel_blocks(full, 2)
        assert blocks.shape == (3, 3, 2, 2)
        assert np.abs(blocks[0, 0] - full[:2, :2]).max() == 0
        assert np.abs(blocks[2, 1] - full[4:6, 2:4]).max() == 0
        assert np.shares_memory(blocks, full)
        # a non-square nm x m input, the shape of L
        column = channel_blocks(full[2:, :2], 2)
        assert column.shape == (2, 1, 2, 2)
        assert np.abs(column[1, 0] - full[4:6, :2]).max() == 0
        assert np.shares_memory(column, full)


class TestReadOnlyRecords:
    RECORDS = {
        "spec": lambda: punctured_line.GridSpec(1.0, 0.1),
        "space": lambda: fock.TruncatedFockSpace(1, 1, 3),
        "coupling": lambda: CouplingMatrix(1, 1, np.eye(2)),
        "gauge": lambda: GaugeMatrix(np.eye(1)),
        "function": lambda: punctured_line.GridFunction(
            punctured_line.GridSpec(1.0, 0.1), np.zeros(10), np.zeros(10),
            0.0, 0.0),
    }

    @pytest.mark.parametrize("key", RECORDS)
    def test_attributes_are_set_once(self, key):
        record = self.RECORDS[key]()
        for name in getattr(record, "__slots__", ("m", "n", "d")):
            with pytest.raises(AttributeError, match="is read-only"):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError, match="is read-only"):
                delattr(record, name)

    def test_value_records_hash_by_value(self):
        a, b = self.RECORDS["spec"](), self.RECORDS["spec"]()
        assert a == b and len({a, b}) == 1
        # every build_mode_operators call makes its own space
        for key in ("space", "coupling"):
            a, b = self.RECORDS[key](), self.RECORDS[key]()
            assert a != b and a == a
