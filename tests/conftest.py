"""Shared test oracles: the dense Kronecker-product oracle for the graded
Fock layer, the every-sector reference for its kernel solve, and the
two-sided oracle for the punctured-line grid.

Every mode operator, boundary row and action operator is built here as a full
dim x dim matrix with ``np.kron``, independently of ``slhkit.fock``'s graded
representation, and kernels come from one SVD of the whole stacked operator.
Only for small truncations: memory grows as dim^2 and time as dim^3.

``TwoSided`` holds a grid function as two plain n-node arrays and its two
stored traces, and forms the derivative, the trapezoid pairings and the
boundary functionals from the formulas written out on whole arrays, with
none of ``slhkit.punctured_line``'s chunk passes. It also bounds the
rounding gap between its pairings and the chunked ones. ``half_pairing``
is one pairing of the chunk pass itself, for tests of that pass.
"""

import numpy as np
import pytest

from slhkit import fock
from slhkit.ensembles import random_bump
from slhkit.linalg import NULLSPACE_TOL, adjoint, null_space
from slhkit.punctured_line import (GridFunction, _chunks, _Trapezoids,
                                   trace_at_origin)
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


EPS = float(np.finfo(float).eps)


class TwoSided:
    """A grid function on [-T, 0) and (0, T]: ``left`` and ``right``, n
    complex node values each (writable copies), and the stored traces
    ``left_limit`` = psi(0-) and ``right_limit`` = psi(0+)."""

    def __init__(self, h, left, right, left_limit, right_limit):
        self.h = h
        self.left = np.array(left, dtype=complex)
        self.right = np.array(right, dtype=complex)
        self.left_limit = complex(left_limit)
        self.right_limit = complex(right_limit)

    @staticmethod
    def nodes(half_width, spacing, left):
        n = int(round(half_width / spacing))
        return (np.linspace(-half_width, -spacing, n) if left
                else np.linspace(spacing, half_width, n))

    @classmethod
    def sample(cls, half_width, spacing, left=None, right=None):
        """Callables on the ``np.linspace`` nodes of each half-line, the
        trace their value at 0; a missing half is zero, trace and all."""
        halves = []
        for side, fn in ((True, left), (False, right)):
            t = cls.nodes(half_width, spacing, side)
            halves.append((np.zeros(t.size), 0j) if fn is None
                          else (fn(t), complex(fn(np.array([0.0]))[0])))
        (lv, ll), (rv, rl) = halves
        return cls(spacing, lv, rv, ll, rl)

    @classmethod
    def one_half(cls, h, left, values, limit):
        """A function that lives on one half-line: ``values`` and the trace
        ``limit`` there, zero and 0 on the other."""
        zero = np.zeros(len(values), dtype=complex)
        return (cls(h, values, zero, limit, 0j) if left
                else cls(h, zero, values, 0j, limit))

    @classmethod
    def of(cls, f):
        """A ``punctured_line.GridFunction``'s arrays and traces."""
        return cls(f.spec.spacing, f.left, f.right, f.left_limit,
                   f.right_limit)

    @classmethod
    def defect_pair(cls, half_width, spacing):
        """phi_+ = -i e^-t on (0, T] and phi_- = i e^t on [-T, 0), each
        zero on the other half-line."""
        t_left = cls.nodes(half_width, spacing, True)
        t_right = cls.nodes(half_width, spacing, False)
        zero = np.zeros(t_left.size)
        return (cls(spacing, zero, -1j * np.exp(-t_right), 0j, -1j),
                cls(spacing, 1j * np.exp(t_left), zero, 1j, 0j))

    def __add__(self, other):
        return TwoSided(self.h, self.left + other.left,
                        self.right + other.right,
                        self.left_limit + other.left_limit,
                        self.right_limit + other.right_limit)

    def __sub__(self, other):
        return TwoSided(self.h, self.left - other.left,
                        self.right - other.right,
                        self.left_limit - other.left_limit,
                        self.right_limit - other.right_limit)

    def __rmul__(self, scalar):
        return TwoSided(self.h, scalar * self.left, scalar * self.right,
                        scalar * self.left_limit, scalar * self.right_limit)

    @property
    def jump(self):
        return self.right_limit - self.left_limit

    @property
    def delta_star(self):
        return 0.5 * (self.right_limit + self.left_limit)

    def zeta(self, sigma):
        """<zeta_sigma|psi> = (1/2 - i sigma) psi(0+) + (1/2 + i sigma)
        psi(0-); the symmetric delta when sigma is None."""
        if sigma is None:
            return self.delta_star
        return (complex(0.5, -sigma) * self.right_limit
                + complex(0.5, sigma) * self.left_limit)

    def derivative(self):
        """Central differences inside each half-line, one-sided three-point
        stencils at its two end nodes; the traces are the one-sided
        three-point stencils on the stored traces."""
        h = self.h

        def stencil(v):
            d = np.empty_like(v)
            d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
            d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
            d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
            return d

        left, right = self.left, self.right
        return TwoSided(
            h, stencil(left), stencil(right),
            (3.0 * self.left_limit - 4.0 * left[-1] + left[-2]) / (2.0 * h),
            (-3.0 * self.right_limit + 4.0 * right[0] - right[1]) / (2.0 * h))

    def l2(self, other):
        """int conj(self) other: ``np.trapezoid`` over [-T, 0] and over
        [0, T], each half-line closed at 0 by the product of the traces."""
        h = self.h
        left = np.append(np.conj(self.left) * other.left,
                         np.conj(self.left_limit) * other.left_limit)
        right = np.insert(np.conj(self.right) * other.right, 0,
                          np.conj(self.right_limit) * other.right_limit)
        return (complex(np.trapezoid(left, dx=h))
                + complex(np.trapezoid(right, dx=h)))

    def sobolev(self, other):
        """<self|other>_S, the L2 pairing plus that of the derivatives."""
        return self.l2(other) + self.derivative().l2(other.derivative())

    def l2_bound(self, other):
        """The largest gap rounding allows between ``l2`` and the same
        trapezoid rule with each half-line's terms summed in any other
        order: 2 (n + 8) eps h M, where M is the sum over both half-lines
        of |conj(self) other| at the nodes plus the traces' |product|.
        Each side is within sqrt(2) gamma_{n+5} h M of the exact rule
        (n additions per component, the product, the halving and h;
        Higham, Accuracy and Stability of Numerical Algorithms, 3.6 and
        4.2), and gamma_k < k eps / 2 (1 + k eps) here."""
        terms = sum(float(np.abs(np.conj(u) * v).sum())
                    for u, v in ((self.left, other.left),
                                 (self.right, other.right)))
        traces = (abs(np.conj(self.left_limit) * other.left_limit)
                  + abs(np.conj(self.right_limit) * other.right_limit))
        return 2 * (self.left.size + 8) * EPS * self.h * (terms + traces)

    def sobolev_bound(self, other):
        """``l2_bound`` of the L2 and of the derivative pairing, added."""
        return (self.l2_bound(other)
                + self.derivative().l2_bound(other.derivative()))

    def norm(self):
        return float(np.sqrt(max(self.sobolev(self).real, 0.0)))


def bump_function(rng, spec):
    """A ``punctured_line.GridFunction`` of a random bump on each half-line,
    the left one drawn first, so it has a random jump at 0."""
    left, right = random_bump(rng, "left"), random_bump(rng, "right")
    return GridFunction(spec, left(spec.nodes(True)), right(spec.nodes(False)),
                        trace_at_origin(left), trace_at_origin(right))


def half_pairing(spec, left, f, g, diff_f=False, diff_g=False):
    """One pairing of ``punctured_line``'s chunk pass on one half-line: the
    trapezoid of conj(f) g, or of f' or g' where asked, closed by the
    traces, each factor read on a chunk's window as the per-half functions
    read it."""
    rule = _Trapezoids(spec, left, [(f, g, diff_f, diff_g)])
    for chunk in _chunks(spec):
        factors = []
        for half, diff in ((f, diff_f), (g, diff_g)):
            window = chunk.read(half)
            factors.append(chunk.slope(window) if diff else chunk.own(window))
        rule.add(0, chunk, *factors)
    return rule.values()[0]
