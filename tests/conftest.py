"""Shared test fixtures: the dense Kronecker-product oracle for the graded
Fock layer, and the every-sector reference for its kernel solve.

Every mode operator, boundary row and action operator is built here as a full
dim x dim matrix with ``np.kron``, independently of ``slhkit.fock``'s graded
representation, and kernels come from one SVD of the whole stacked operator.
Only for small truncations: memory grows as dim^2 and time as dim^3.
"""

import numpy as np
import pytest

from slhkit import fock
from slhkit.linalg import NULLSPACE_TOL, adjoint, null_space
from slhkit.slh import gauge_zll, slh_triple


class DenseFock:
    """Full-space matrices on C^m (x) 2n modes cut at d, in the flat basis
    ordering of ``slhkit.fock`` (system slowest, mode (1,+) fastest)."""

    def __init__(self, m, n, d, gauge=None):
        self.m, self.n, self.d, self.gauge = m, n, d, gauge
        self.fock_dim = d ** (2 * n)
        self.dim = m * self.fock_dim
        a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
        self.a_plus = [self.embed_mode(a, j) for j in range(n)]
        self.a_minus = [self.embed_mode(a, n + j) for j in range(n)]
        self.a_star = [0.5 * (ap + am) for ap, am in zip(self.a_plus, self.a_minus)]
        zll = gauge_zll(gauge, m, n)
        kp = 0.5 * np.eye(n * m) + 1j * zll
        km = 0.5 * np.eye(n * m) - 1j * zll
        self.frak_a = []
        for j in range(n):
            acc = np.zeros((self.dim, self.dim), dtype=complex)
            for k in range(n):
                acc += self.system_times(self._blk(km, j, k), self.a_plus[k])
                acc += self.system_times(self._blk(kp, j, k), self.a_minus[k])
            self.frak_a.append(acc)
        self.eye = np.eye(self.dim, dtype=complex)

    def _blk(self, mat, j, k):
        m = self.m
        return mat[j * m:(j + 1) * m, k * m:(k + 1) * m]

    def embed_mode(self, op, pos):
        """Lift a d x d single-mode operator acting on digit ``pos``."""
        before = np.eye(self.d ** (2 * self.n - 1 - pos))
        after = np.eye(self.d ** pos)
        return np.kron(np.eye(self.m), np.kron(np.kron(before, op), after))

    def lift_system(self, mat):
        """Lift an m x m system operator to the full space."""
        return np.kron(np.asarray(mat, dtype=complex), np.eye(self.fock_dim))

    def system_times(self, mat, op):
        """lift_system(mat) @ op, contracted over the system index of op's
        rows instead of multiplied out: m dim^2 operations, not dim^3."""
        rows = op.reshape(self.m, self.fock_dim * self.dim)
        return (np.asarray(mat, dtype=complex) @ rows).reshape(op.shape)

    def stacked_rows(self, e, route):
        """Stacked B (coupling form) or C (scattering form) rows."""
        rows = []
        if route == "B":
            for j in range(1, self.n + 1):
                row = 1j * (self.a_plus[j - 1] - self.a_minus[j - 1])
                row = row + self.lift_system(self._blk(e.full, j, 0))
                for k in range(1, self.n + 1):
                    blk = self._blk(e.full, j, k)
                    row = row + self.system_times(blk, self.frak_a[k - 1])
                rows.append(row)
        else:
            res = slh_triple(e, self.gauge)
            for j in range(self.n):
                row = self.a_minus[j].copy()
                for k in range(self.n):
                    row = row - self.system_times(self._blk(res.s, j, k), self.a_plus[k])
                rows.append(row - self.lift_system(res.l[j * self.m:(j + 1) * self.m, :]))
        return np.vstack(rows)

    def guard_mask(self):
        """Basis states with every mode occupation <= d - 2."""
        idx = np.arange(self.fock_dim)
        ok = np.ones(self.fock_dim, dtype=bool)
        for p in range(2 * self.n):
            ok &= (idx // self.d ** p) % self.d <= self.d - 2
        return np.tile(ok, self.m)

    def kernel(self, e, route):
        return null_space(self.stacked_rows(e, route))

    def guarded_kernel(self, e):
        """Coupling-form kernel among the vectors supported on the guard: the
        kernel of the rows' guard columns, embedded in the full space."""
        guard = self.guard_mask()
        kernel = null_space(self.stacked_rows(e, "B")[:, guard])
        columns = np.zeros((self.dim, kernel.shape[1]), dtype=complex)
        columns[guard] = kernel
        return columns

    def generator(self, e):
        """K_sing + Upsilon."""
        modes = [self.eye] + self.frak_a
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for j in range(self.n):
            total += 1j * adjoint(self.frak_a[j]) @ (self.a_plus[j] - self.a_minus[j])
        for alpha in range(self.n + 1):
            for beta in range(self.n + 1):
                blk = self._blk(e.full, alpha, beta)
                total += adjoint(modes[alpha]) @ self.lift_system(blk) @ modes[beta]
        return total

    def action_operator(self, e):
        """iG_00 + sum_k iG_0k a_{k,+}."""
        g = slh_triple(e, self.gauge).ito
        total = self.lift_system(1j * self._blk(g, 0, 0))
        for k in range(1, self.n + 1):
            total += self.lift_system(1j * self._blk(g, 0, k)) @ self.a_plus[k - 1]
        return total


def every_sector_kernel(space, coef):
    """Reference kernel of stacked forms without constant term (E_l0 = 0):
    every photon-number sector block N -> N-1 by QR + SVD, cut at
    NULLSPACE_TOL x the exact sigma_max over all blocks, with no stop rule.
    Returns the flat columns in ``fock.boundary_kernel``'s layout, the
    per-sector kernel dims and sigma_max."""
    assert not np.any(coef[:, 0]), "the sector blocks need E_l0 = 0"
    sectors = space.sectors()
    factors = []
    for level, cols in enumerate(sectors):
        block = fock._sector_block(space, coef, cols,
                                   sectors[level - 1] if level else cols[:0])
        rows, width = block.shape
        if rows > width:
            block = np.linalg.qr(block, mode="r")
        _, sing, vh = np.linalg.svd(block, full_matrices=rows < width)
        factors.append((sing, vh))
    smax = max(float(sing[0]) for sing, _ in factors if sing.size)
    kernels = [adjoint(vh[int(np.sum(sing > NULLSPACE_TOL * smax)):])
               for sing, vh in factors]
    dims = [k.shape[1] for k in kernels]
    columns = np.zeros((space.dim, sum(dims)), dtype=complex)
    start = 0
    for cols, kernel in zip(sectors, kernels):
        flat = (np.arange(space.m)[:, None] * space.fock_dim + cols).ravel()
        columns[flat, start:start + kernel.shape[1]] = kernel
        start += kernel.shape[1]
    return columns, dims, smax


@pytest.fixture
def sector_reference():
    """``every_sector_kernel``; call it as sector_reference(space, coef)."""
    return every_sector_kernel


@pytest.fixture
def dense_fock():
    """The oracle class; call it as dense_fock(m, n, d, gauge)."""
    return DenseFock
