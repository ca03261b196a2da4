"""Truncated boundary-mode spaces graded by photon number: boundary subspaces
and the singular action.

The space is C^m tensor 2n boson modes, each truncated at photon cutoff d.
Flattened basis ordering (fixed for reproducibility): the system index is the
slowest (most significant) digit; the mode occupations follow in the order
(1,+), ..., (n,+), (1,-), ..., (n,-) stored little-endian, i.e. mode (1,+) is
the fastest-varying digit.  With k_p the occupation of the mode at digit p,

    index = s * d^(2n) + sum_p k_p * d^p.

States stay flat, (dim,) or (dim, k); with the system index slowest, a system
matrix acts on the (m, fock_dim) split and a ladder map on the Fock index.

No operator is stored as a dim x dim matrix.  Every boundary operator is a
linear form X_0 + sum_p X_p a_p in the annihilators, stored as its array of
m x m system coefficients, shape (1 + 2n, m, m): slot 0 holds X_0, slot 1 + p
the coefficient of the annihilator at digit p, so 0-based channel j has its
a_+ mode in slot 1 + j and its a_- mode in slot 1 + n + j.  Forms add,
subtract and scale as arrays, and x @ form is the form followed by the system
matrix x.  A mode family (``ModeOperators.a_plus``, ``a_minus``, ``a_star``,
``frak_a``) and the stacked boundary rows hold one form per channel, shape
(n, 1 + 2n, m, m), and their coefficients are the m x m blocks of E, G, S, L
and kappa_pm as ``linalg.channel_blocks`` views them.  The singular
generator is a sum of products of such forms and their adjoints.

One table, ``TruncatedFockSpace.slot_maps(dagger)``, built once per space
from the occupation digits, holds the ``LadderMap`` of every slot: [0] the
identity, [1 + p] the annihilator a|k> = sqrt(k)|k-1> of digit p, or with
``dagger`` the creator a^dag|k> = sqrt(k+1)|k+1> by its own closed form
(annihilating at k = 0 and k = d-1 respectively).  ``apply`` runs a form
matrix-free on flat states through that table, ``_sector_block`` builds a
kernel solve's blocks from it, and the CCR and adjoint-defect checks reduce
composed maps entry by entry (``_worst_entry``), with no block.

Photon-number grading.  An annihilator lowers the total photon number N by
one and a system coefficient keeps it.  Every boundary operator B = X_0 (x) 1
+ sum_p X_p (x) a_p commutes with each 1 (x) a_q, so a_q maps ker B into
itself, and ``boundary_kernel`` decides the kernel level by level in N.  Let
F_N be the kernel vectors supported on the sectors <= N.  Without constant
term (E_l0 = 0, hence L = 0) B maps sector N into N-1: level N is that
sector block, and F_N adds its kernel to F_{N-1}.  With one, level N is the
block of all sectors <= N, whose kernel is F_N.  The solve stops at the
first level with F_N = F_{N-1}, and this is exact: for v in F_{N+1} every
a_q v lies in F_N = F_{N-1}, so v's sector-(N+1) part is annihilated by
every a_q, which only the vacuum is; it is 0, and F_{N+1} = F_N.  An
injective X_0 thus stops at level 0 with an empty kernel.

Every rank decision is ``linalg.null_space(block, sigma~)``, cut at
NULLSPACE_TOL x sigma~, where sigma~^2 = lambda_max(X_0^H X_0 + (d-1)
sum_{p >= 1} X_p^H X_p), X_p the slot-p coefficients stacked over the n rows
(nm x m).  That is ||B (s (x) |d-1, ..., d-1>)||^2 at its best unit s, the
images under the 1 + 2n slots being orthogonal, so sigma~ <= sigma_max; and
sigma_max <= ||X_0|| + sqrt(d-1) sum_p ||X_p|| <= (1 + 2n) sigma~.  A cut
below NULLSPACE_TOL x sigma_max drops no more than that one would, and the
boundary residual of ``action_residuals``, relative to sigma~, is the
stricter for it.  The config's ``tolerances.kernel`` is not this cutoff: it
bounds the largest principal angle between the two routes' kernels.

Gauge.  A gauge enters only through kappa_pm in frak_a: the space, its
tables and every other form are the same under every gauge, so
``with_gauge`` rebuilds frak_a alone, on the same space.  Ungauged, frak_a
is a_star itself; any explicit gauge, a zero sigma or Z included, builds it
by the kappa formula, which the sigma = 0 reduction therefore checks
against a_star.

Boundary operators contain no creators, so kernels computed on the truncated
space coincide with the finitely-supported solutions of the untruncated
problem.  Operators containing creators (the singular generator and the
coupling term) are only truncation-exact on vectors with per-mode occupation
at most d-2: the photon guard, a mask on the Fock states that reads the
Fock index of the (m, fock_dim) split, as a ladder map does.  Boundary
operators only keep or lower occupations, so the guarded domain is the
kernel's part on the guard, K null(K outside the guard) for the kernel
columns K, and all action checks project onto the guard first.

Two routes, one kernel function.  ``stacked_boundary_rows`` builds the
coupling-form rows (route B) from E and the gauged modes;
``scattering_rows`` builds the scattering-form rows a_- - S a_+ - L (route
C) from an ``SLHResult``.  ``fock_battery`` builds the route-B rows and the
triple once and hands them down: ``subspace_equivalence`` solves both
kernels, ``sample_domain_vectors`` draws from route B's guarded part, and
``action_residuals`` applies the rows and the action read off ``res.ito``.

Size guard: ``boundary_kernel`` charges each level before its block is
assembled (``_level_bytes``: the block and what ``null_space`` allocates
for it, LAPACK's SVD workspace included, plus the kernels held from earlier
levels and the index tables) and raises TooLarge, naming the level, above
``MAX_SOLVE_BYTES``.  A solve that completes records every level it
decided, the last one included, in ``BoundarySubspace.levels``: the
sectors the block spans, its shape, its charge and the kernel columns it
added (``Level``).  A space is refused on construction only by closed
forms, the returned columns (at most m d^n, ``kernel_rank``) and the index
tables, so a huge cutoff is refused at once.  With E_l0 = 0, (1,3,7) stops
after level 11, charged 1.7 GiB; (2,3,8) is refused on construction.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import MAX_SOLVE_BYTES, NotInDomain, TooLarge
from .linalg import (
    ReadOnly,
    adjoint,
    channel_blocks,
    null_space,
    principal_angles,
)
from .slh import CouplingMatrix, Gauge, SLHResult, gauge_zll, slh_triple


# A ladder operator as applied: a|x> = weight[x] |target[x]> on Fock indices x,
# with target -1 (and weight 0) where the state is annihilated.
LadderMap = Tuple[np.ndarray, np.ndarray]


def _compose(outer: LadderMap, inner: LadderMap) -> LadderMap:
    """The map ``outer`` after ``inner``."""
    hit = inner[0] >= 0
    mid = np.where(hit, inner[0], 0)
    return (np.where(hit, outer[0][mid], -1),
            np.where(hit, outer[1][mid], 0.0) * inner[1])


def _on_system(x: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply an m x m system matrix to the system index of flat states."""
    return (x @ psi.reshape(len(x), -1)).reshape(psi.shape)


class TruncatedFockSpace(ReadOnly):
    """System space C^m with 2n boson modes truncated at photon cutoff d."""

    def __init__(self, m: int, n: int, d: int):
        self.m, self.n, self.d = m, n, d
        if d < 3 or m < 1 or n < 1:
            raise TooLarge(f"need d >= 3, m >= 1, n >= 1, got "
                           f"(m, n, d) = ({self.m}, {self.n}, {self.d})")
        # Closed forms only, so a huge cutoff is refused before anything is
        # counted; boundary_kernel charges each level of a solve.
        columns = 16 * self.dim * self.kernel_rank()
        if columns + self.table_bytes() > MAX_SOLVE_BYTES:
            raise TooLarge(
                f"a boundary kernel solve at (m, n, d) = ({self.m}, "
                f"{self.n}, {self.d}) needs more than the desk-scale guard "
                f"of {MAX_SOLVE_BYTES / 2 ** 30:.0f} GiB")

    @property
    def n_modes(self) -> int:
        return 2 * self.n

    @property
    def fock_dim(self) -> int:
        return self.d ** self.n_modes

    @property
    def dim(self) -> int:
        return self.m * self.fock_dim

    def kernel_rank(self) -> int:
        """Bound m d^n on the dimension of any boundary kernel.  A kernel
        vector v is fixed by its component on the a_- vacuum: the stacked
        forms read A_- a_- + R, with R free of a_- modes and A_- their a_-
        coefficient, which is invertible: the identity for the scattering
        form, and for the coupling form -i(1 + iE_ll kappa_+), invertible
        with the dressing 1 + iEW (W vanishes on the system slot, so the
        dressing is block upper triangular with this channel block).  So
        B v = 0 reads a_- v = -A_-^{-1} R v: sqrt(k_j + 1) times v's
        component at a_- occupations k + e_j is that of -A_-^{-1} R v at k,
        and every component follows from one with fewer a_- photons.  The
        a_- vacuum holds m d^n states."""
        return self.m * self.d ** self.n

    def table_bytes(self) -> int:
        """Bytes of the index tables a solve holds, all cached on the space,
        and 1 MiB, one pymalloc arena, for the Python objects and array
        headers.  Per Fock state the occupation digits take 2n words, the
        slot maps 8n + 4 (a target and a weight per slot, for annihilators
        and creators) and the sector lists 1: 10n + 5 words held, and
        12n + 8 leave room for the few words of temporaries each table's
        build adds."""
        return 8 * self.fock_dim * (12 * self.n + 8) + 2 ** 20

    @cached_property
    def _digits(self) -> np.ndarray:
        """Array (fock_dim, 2n): occupation digit p of Fock index x at [x, p]."""
        return (np.arange(self.fock_dim)[:, None]
                // self.d ** np.arange(self.n_modes) % self.d)

    def photon_guard_mask(self) -> np.ndarray:
        """Boolean mask, shape (fock_dim,), of the Fock states with every
        mode occupation <= d - 2, on which creators act truncation-exactly;
        it reads the Fock index of the (m, fock_dim) split of flat states."""
        return (self._digits <= self.d - 2).all(axis=1)

    def sectors(self) -> Tuple[np.ndarray, ...]:
        """Fock indices (increasing, read-only) of each photon-number sector
        N = 0, 1, ..., 2n (d - 1), built once per space."""
        return self._sector_table

    @cached_property
    def _sector_table(self) -> Tuple[np.ndarray, ...]:
        total = self._digits.sum(axis=1)
        table = tuple(np.flatnonzero(total == k)
                      for k in range(self.n_modes * (self.d - 1) + 1))
        for sector in table:
            sector.flags.writeable = False
        return table

    @cached_property
    def _slot_table(self) -> Tuple[Tuple[LadderMap, ...], ...]:
        # (annihilators, creators), by the closed forms of the module docstring
        idx = np.arange(self.fock_dim)
        lowering = [(idx, np.ones(self.fock_dim))]
        raising = list(lowering)
        for p, k in enumerate(self._digits.T):
            step, top = self.d ** p, k < self.d - 1
            lowering.append((np.where(k > 0, idx - step, -1), np.sqrt(k)))
            raising.append((np.where(top, idx + step, -1),
                            np.where(top, np.sqrt(k + 1), 0.0)))
        return tuple(lowering), tuple(raising)

    def slot_maps(self, dagger: bool = False) -> Tuple[LadderMap, ...]:
        """The ``LadderMap`` of each form slot: [0] the identity, [1 + p] the
        annihilator of the mode at digit p, or its creator when ``dagger``."""
        return self._slot_table[dagger]

    def _apply_map(self, psi: np.ndarray, ladder: LadderMap) -> np.ndarray:
        """A ladder map on the Fock index of flat states."""
        target, weight = ladder
        src = np.flatnonzero(target >= 0)
        flat = psi.reshape((self.m, self.fock_dim, -1))
        out = np.zeros_like(flat)
        out[:, target[src]] = weight[src, None] * flat[:, src]
        return out.reshape(psi.shape)

    def apply(self, form: np.ndarray, vectors: np.ndarray,
              dagger: bool = False) -> np.ndarray:
        """The form X_0 + sum_p X_p a_p with coefficients ``form`` on flat
        states (dim,) or (dim, k); with ``dagger`` its adjoint
        sum_q (X_q^dag (x) a_q^dag)."""
        psi = np.asarray(vectors, dtype=complex)
        out = None
        for x, ladder in zip(form, self.slot_maps(dagger)):
            if not np.any(x):
                continue
            if dagger:
                term = self._apply_map(_on_system(adjoint(x), psi), ladder)
            else:
                term = _on_system(x, self._apply_map(psi, ladder))
            if out is None:
                out = term
            else:
                out += term
        return np.zeros_like(psi) if out is None else out


class ModeOperators(NamedTuple):
    """Graded mode operators of one truncated space.  Each family holds one
    form per channel, shape (n, 1 + 2n, m, m): [j] is the form of channel
    j + 1, whose a_+ slot is 1 + j and a_- slot 1 + n + j.

    ``a_star`` is the symmetric combination (a_+ + a_-)/2 per channel and
    ``frak_a`` its gauge deformation (``a_star`` itself when ungauged).  The
    zeroth slot of the mode vector is the identity, kept explicitly as the
    form ``a0``.
    """

    space: TruncatedFockSpace
    gauge: Optional[Gauge]
    a_plus: np.ndarray
    a_minus: np.ndarray
    a_star: np.ndarray
    frak_a: np.ndarray
    a0: np.ndarray


def build_mode_operators(m: int, n: int, d: int,
                         gauge: Optional[Gauge] = None) -> ModeOperators:
    """Construct the truncated space, the annihilator forms of all 2n modes
    and their symmetric combination; a ``gauge`` then rebuilds frak_a on
    them (``with_gauge``)."""
    space = TruncatedFockSpace(m=m, n=n, d=d)
    eye, j = np.eye(m), np.arange(n)
    a_plus = np.zeros((n, 1 + 2 * n, m, m), dtype=complex)
    a_minus = np.zeros_like(a_plus)
    a_plus[j, 1 + j] = a_minus[j, 1 + n + j] = eye
    a_star = 0.5 * (a_plus + a_minus)
    a0 = np.zeros_like(a_plus[0])
    a0[0] = eye
    ops = ModeOperators(space=space, gauge=None, a_plus=a_plus,
                        a_minus=a_minus, a_star=a_star, frak_a=a_star, a0=a0)
    return ops if gauge is None else with_gauge(ops, gauge)


def with_gauge(ops: ModeOperators, gauge: Gauge) -> ModeOperators:
    """``ops`` under ``gauge``: frak_a rebuilt by the kappa formula, every
    other field, the space and its cached tables included, shared with
    ``ops``."""
    m, n = ops.space.m, ops.space.n
    # frak_a_j = sum_k (kappa_-)_{jk} a_{k,+} + (kappa_+)_{jk} a_{k,-}
    # with kappa_pm = 1/2 +- iZ on the channel block; the kappa_- weight
    # sits on the + modes so that the scalar case reduces to
    # kappa_- a_+ + kappa_+ a_-.
    zll = gauge_zll(gauge, m, n)
    frak_a = np.zeros_like(ops.a_plus)
    frak_a[:, 1:1 + n] = channel_blocks(
        0.5 * np.eye(n * m, dtype=complex) - 1j * zll, m)
    frak_a[:, 1 + n:] = channel_blocks(
        0.5 * np.eye(n * m, dtype=complex) + 1j * zll, m)
    return ops._replace(gauge=gauge, frak_a=frak_a)


# --- boundary conditions -----------------------------------------------------


class Level(NamedTuple):
    """One photon-number level of a kernel solve: the sectors its block's
    columns span, the block's (rows, cols), the bytes ``_level_bytes``
    charged for it and the kernel columns it added."""

    sectors: range
    shape: Tuple[int, int]
    charge: int
    added: int


class BoundarySubspace(NamedTuple):
    """Kernel of one family of boundary operators, as orthonormal columns,
    the scale sigma~ <= sigma_max its rank threshold was relative to, and
    the ``Level`` record of each photon-number level the solve decided, in
    order; the last one added no column unless the sectors ran out."""

    columns: np.ndarray
    sigma_max: float
    levels: Tuple[Level, ...]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]


def stacked_boundary_rows(e: CouplingMatrix, ops: ModeOperators) -> np.ndarray:
    """Graded coefficients, shape (n, 1 + 2n, m, m), of the stacked
    coupling-form boundary operators (route B), row j the form [j]:
    B_j = i(a_{j,+} - a_{j,-}) + E_{j0} + sum_k E_{jk} frak_a_k."""
    blocks = channel_blocks(e.full, e.m)
    rows = 1j * (ops.a_plus - ops.a_minus)
    rows = rows + blocks[1:, 0, None] @ ops.a0
    for k in range(e.n):
        rows = rows + blocks[1:, 1 + k, None] @ ops.frak_a[k]
    return rows


def scattering_rows(res: SLHResult, ops: ModeOperators) -> np.ndarray:
    """The stacked scattering-form boundary operators (route C),
    C_j = a_{j,-} - sum_k S_{jk} a_{k,+} - L_j, from the pipeline result
    ``res`` of ``ops``'s gauge."""
    m, n = res.coupling.m, res.coupling.n
    rows = np.array(ops.a_minus)
    rows[:, 0] -= channel_blocks(res.l, m)[:, 0]
    rows[:, 1:1 + n] -= channel_blocks(res.s, m)
    return rows


def _sector_block(space: TruncatedFockSpace, coef: np.ndarray,
                  cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Matrix of the stacked forms ``coef`` from the span of the Fock states
    ``cols`` into that of ``rows`` (Fock indices; system index slowest on both
    sides, boundary row slowest of all).  Images outside ``rows`` are
    dropped; each entry sums its slots from zero in slot order."""
    slots = np.moveaxis(coef, 1, 0).reshape(coef.shape[1], -1, space.m)
    pos = np.full(space.fock_dim + 1, -1)  # pos[-1]: annihilated, dropped
    pos[rows] = np.arange(rows.size)
    block = np.zeros((slots.shape[1], rows.size, space.m, cols.size), complex)
    for x, (target, weight) in zip(slots, space.slot_maps()):
        at = pos[target[cols]]
        col = np.flatnonzero(at >= 0)
        block[:, at[col], :, col] += weight[cols[col], None, None] * x
    return block.reshape(-1, space.m * cols.size)


def _scale(space: TruncatedFockSpace, coef: np.ndarray) -> float:
    """sigma~, the scale of the rank cut: the largest ||B (s (x) |d-1, ...,
    d-1>)|| over unit s, for the stacked forms B with coefficients ``coef``
    (module docstring)."""
    stacks = np.moveaxis(coef, 1, 0).reshape(coef.shape[1], -1, coef.shape[-1])
    weights = np.full(len(stacks), float(space.d - 1))
    weights[0] = 1.0
    gram = np.einsum("p,pri,prj->ij", weights, stacks.conj(), stacks)
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def _level_bytes(space: TruncatedFockSpace, rows: int, cols: int,
                 held: Sequence[Tuple[np.ndarray, np.ndarray]]) -> int:
    """Bytes charged for one level of a kernel solve: the index tables, the
    arrays ``held`` from earlier levels, and the peak of ``null_space`` on
    the complex rows x cols block, the block included.  The block is a
    temporary of that call, so a tall one lives only through its QR, beside
    numpy's copy and LAPACK's, and R (cols x cols) replaces it.  The SVD of
    the square or wide matrix then holds numpy's copy of it, U (rows x rows)
    and V^H (cols x cols) in zgesdd's buffers and again in numpy's outputs,
    zgesdd's WORK, at most mn^2 (when mx >= 17 mn / 9) + 2 mn + 64 (mn + mx)
    entries, and its RWORK, mn max(5 mn + 7, 2 mx + 2 mn + 1) doubles, for
    mn and mx the shorter and longer side."""
    qr = 0
    if rows > cols:
        qr, rows = 3 * rows * cols + 64 * cols, cols
    mn, mx = min(rows, cols), max(rows, cols)
    work = (mn * mn if mx >= 17 * mn // 9 else 0) + 2 * mn + 64 * (mn + mx)
    svd = 2 * rows * cols + 2 * (rows * rows + cols * cols) + work
    rwork = mn * max(5 * mn + 7, 2 * mx + 2 * mn + 1)
    return (space.table_bytes() + sum(c.nbytes + k.nbytes for c, k in held)
            + max(16 * qr, 16 * svd + 8 * rwork))


def boundary_kernel(space: TruncatedFockSpace,
                    coef: np.ndarray) -> BoundarySubspace:
    """Kernel of the stacked forms ``coef`` as flat columns, decided one
    photon-number level N = 0, 1, ... at a time and stopped at the first
    level that adds no kernel dimension (module docstring).  Without a
    constant term level N is the sector-N block and the kernels add up; with
    one it is the block of the sectors <= N, whose kernel replaces the last.
    Each level is charged (``_level_bytes``) before its block is assembled,
    and TooLarge is raised when the charge passes ``MAX_SOLVE_BYTES``.
    Every rank cut is NULLSPACE_TOL x sigma~ (``_scale``).  The result's
    ``levels`` holds one ``Level`` per decided level."""
    scale = _scale(space, coef)
    sectors = space.sectors()
    coupled = bool(np.any(coef[:, 0]))
    found, dim, levels = [], 0, []
    for level, sector in enumerate(sectors):
        spans = range(0 if coupled else level, level + 1)
        if coupled:
            cols = rows = np.concatenate(sectors[:level + 1])
        else:
            cols, rows = sector, sectors[level - 1] if level else sector[:0]
        shape = (coef.shape[0] * space.m * rows.size, space.m * cols.size)
        need = _level_bytes(space, *shape, found)
        if need > MAX_SOLVE_BYTES:
            raise TooLarge(
                f"photon-number level {level} of a boundary kernel solve at "
                f"(m, n, d) = ({space.m}, {space.n}, {space.d}) needs about "
                f"{need / 2 ** 30:.2f} GiB, above the desk-scale guard of "
                f"{MAX_SOLVE_BYTES / 2 ** 30:.0f} GiB")
        kernel = null_space(_sector_block(space, coef, cols, rows), scale)
        added = kernel.shape[1] - (dim if coupled else 0)
        levels.append(Level(spans, shape, need, added))
        if added == 0:
            break
        found = [(cols, kernel)] if coupled else found + [(cols, kernel)]
        dim += added
    columns = np.zeros((space.dim, dim), dtype=complex)
    start = 0
    for cols, kernel in found:
        flat = (np.arange(space.m)[:, None] * space.fock_dim + cols).ravel()
        columns[flat, start:start + kernel.shape[1]] = kernel
        start += kernel.shape[1]
    return BoundarySubspace(columns, scale, tuple(levels))


# --- singular generator and its action --------------------------------------


def singular_generator(e: CouplingMatrix, ops: ModeOperators,
                       vectors: np.ndarray) -> np.ndarray:
    """K_sing + Upsilon applied to flat vectors (dim,) or (dim, k):
    i sum_j frak_a_j^dag (a_{j,+} - a_{j,-}) plus the normally-ordered
    coupling term sum_ab frak_a_a^dag E_ab frak_a_b (zeroth mode = identity)."""
    space = ops.space
    psi = np.asarray(vectors, dtype=complex)
    total = np.zeros_like(psi)
    for mode, jump in zip(ops.frak_a, ops.a_plus - ops.a_minus):
        total += 1j * space.apply(mode, space.apply(jump, psi), dagger=True)
    modes = [ops.a0, *ops.frak_a]
    images = [space.apply(mode, psi) for mode in modes]
    blocks = channel_blocks(e.full, e.m)
    for mode, row in zip(modes, blocks):
        coupled = np.zeros_like(psi)
        for blk, image in zip(row, images):
            if np.any(blk):
                coupled += _on_system(blk, image)
        total += space.apply(mode, coupled, dagger=True)
    return total


def singular_action_operator(res: SLHResult) -> np.ndarray:
    """The form, shape (1 + 2n, m, m), of the boundary-reduced action
    iG_00 + sum_k iG_0k a_{k,+}, G the triple's Ito matrix ``res.ito``:
    iG_0k sits in slot k, which is a_{k,+}'s for k >= 1."""
    e = res.coupling
    total = np.zeros((1 + 2 * e.n, e.m, e.m), dtype=complex)
    total[:1 + e.n] = 1j * channel_blocks(res.ito, e.m)[0]
    return total


def _worst_entry(terms: Sequence[Tuple[np.ndarray, LadderMap]],
                 keep: np.ndarray) -> float:
    """Largest entry of sum_t X_t (x) M_t, X_t m x m and M_t composed ladder
    maps, between the Fock states of the mask ``keep`` (images outside it
    dropped).  Each M_t moves every state it keeps by one fixed index shift,
    so the terms of one shift are those that reach an entry; each entry
    sums them from zero in term order."""
    sums = {}
    for x, (target, weight) in terms:
        hit = keep & (target >= 0) & keep[target]
        if hit.any():
            src = int(np.argmax(hit))
            shift = int(target[src]) - src
            value = np.where(hit, weight, 0.0)[:, None, None] * x
            sums[shift] = sums.get(shift, 0.0) + value
    return max([0.0, *(float(np.abs(total).max()) for total in sums.values())])


def number_defect_residual(ops: ModeOperators) -> float:
    """Exact adjoint defect of the leading singular term: the ungauged
    K = i sum_j a_star_j^dag (a_{j,+} - a_{j,-}) minus its adjoint equals
    i sum_j (N_{j,+} - N_{j,-}), entrywise on the truncated space.  K is
    expanded from the coefficients of the forms ``a_star``, ``a_plus`` and
    ``a_minus`` over the ladder maps they apply; none of them depends on the
    gauge."""
    space = ops.space
    lowering, raising = space.slot_maps(), space.slot_maps(dagger=True)
    eye = np.eye(space.m)
    terms = []
    for j in range(space.n):
        star = ops.a_star[j]
        jump = ops.a_plus[j] - ops.a_minus[j]
        for p, s_p in enumerate(star):
            for q, t_q in enumerate(jump):
                x = 1j * adjoint(s_p) @ t_q
                if np.any(x):
                    terms += [(x, _compose(raising[p], lowering[q])),
                              (-adjoint(x), _compose(raising[q], lowering[p]))]
        for sign, slot in ((-1j, 1 + j), (1j, 1 + space.n + j)):
            terms.append((sign * eye, _compose(raising[slot], lowering[slot])))
    return _worst_entry(terms, np.ones(space.fock_dim, dtype=bool))


def commutator_defect(space: TruncatedFockSpace) -> float:
    """Truncation-aware CCR check on the ladder maps of ``space.slot_maps``:
    on the photon guard, [a_{j,s}, a_{k,s'}^dag] equals delta_jk delta_ss';
    returns the worst guarded entry of the difference, one pair at a time."""
    lowering, raising = space.slot_maps(), space.slot_maps(dagger=True)
    guard = space.photon_guard_mask()
    one = np.ones((1, 1))
    worst = 0.0
    for i, a in enumerate(lowering[1:]):
        for k, b_dag in enumerate(raising[1:]):
            terms = [(one, _compose(a, b_dag)), (-one, _compose(b_dag, a))]
            if i == k:
                terms.append((-one, lowering[0]))
            worst = max(worst, _worst_entry(terms, guard))
    return worst


def number_spectrum_defect(space: TruncatedFockSpace) -> float:
    """Per-mode number operators, built from the ladder maps of
    ``space.slot_maps``, are diagonal with spectrum {0, ..., d-1}; returns
    the worst off-diagonal entry or deviation of the sorted unique diagonal."""
    expected = np.arange(space.d, dtype=float)
    idx = np.arange(space.fock_dim)
    worst = 0.0
    lowering, raising = space.slot_maps(), space.slot_maps(dagger=True)
    for a, a_dag in zip(lowering[1:], raising[1:]):
        target, weight = _compose(a_dag, a)
        on_diag = target == idx
        off = np.abs(weight[~on_diag & (target >= 0)])
        # sorted distinct values; np.unique would import numpy.ma
        values = np.sort(np.round(np.where(on_diag, weight, 0.0), 12))
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        if values.shape != expected.shape:
            return float("inf")
        worst = max(worst, float(off.max(initial=0.0)),
                    float(np.abs(values - expected).max()))
    return worst


def action_residuals(res: SLHResult, ops: ModeOperators, rows: np.ndarray,
                     vectors, tol: float, *, scale: float) -> List[float]:
    """Singular-action residuals of the coupling ``res.coupling`` for a batch
    of domain vectors, applied matrix-free to the whole batch at once.

    Each vector is projected onto the photon guard and normalized; its
    boundary residual under the coupling-form ``rows`` relative to ``scale``
    must stay within ``tol``, or NotInDomain is raised.  ``scale`` is the
    rank-cut scale sigma~ <= sigma_max of the coupling-form kernel solve,
    the ``sigma_max`` field of ``boundary_kernel(space, rows)``.
    """
    if len(vectors) == 0:
        return []
    space = ops.space
    guard = space.photon_guard_mask()
    states = np.array([np.asarray(v, dtype=complex) for v in vectors])
    states.reshape(len(states), space.m, -1)[..., ~guard] = 0.0
    phi = states.T
    norms = np.linalg.norm(phi, axis=0)
    phi /= np.where(norms == 0.0, 1.0, norms)
    squares = sum(np.abs(space.apply(row, phi)) ** 2 for row in rows)
    boundary = np.sqrt(squares.sum(axis=0)) / scale
    for norm, residual in zip(norms, boundary):
        if norm == 0.0:
            raise NotInDomain("vector vanishes after the photon guard projection")
        if residual > tol:
            raise NotInDomain(
                f"boundary-condition residual {residual:.3e} exceeds tolerance "
                f"{tol:.1e}")
    diff = (singular_generator(res.coupling, ops, phi)
            - space.apply(singular_action_operator(res), phi))
    return [float(x) for x in np.linalg.norm(diff, axis=0)]


def guarded_basis(space: TruncatedFockSpace,
                  kernel: BoundarySubspace) -> np.ndarray:
    """The guarded domain's orthonormal columns: K null(K outside the photon
    guard) for the columns K of ``kernel``; K itself when it is empty."""
    k = kernel.columns
    if not k.size:
        return k
    guard = space.photon_guard_mask()
    outside = k.reshape(space.m, space.fock_dim, -1)[:, ~guard]
    return k @ null_space(outside.reshape(-1, k.shape[1]), 1.0)


def sample_domain_vectors(space: TruncatedFockSpace, kernel: BoundarySubspace,
                          count: int, rng: np.random.Generator
                          ) -> List[np.ndarray]:
    """Random unit vectors in the guarded domain of the coupling-form
    ``kernel`` (empty list when it is trivial)."""
    basis = guarded_basis(space, kernel)
    k = basis.shape[1]
    if k == 0:
        return []
    vecs = [basis @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            for _ in range(count)]
    return [v / np.linalg.norm(v) for v in vecs]


def subspace_equivalence(space: TruncatedFockSpace, rows_b: np.ndarray,
                         rows_c: np.ndarray) -> dict:
    """Compare the kernels of the coupling-form ``rows_b`` and the
    scattering-form ``rows_c``.

    Returns both kernel dimensions, the largest principal angle (None when
    either kernel is empty; both are for a generic invertible
    system-channel coupling block), and as ``kernel_b`` route B's
    ``BoundarySubspace``, the domain's source and the action's scale.
    """
    sub_b = boundary_kernel(space, rows_b)
    sub_c = boundary_kernel(space, rows_c)
    report = {"dim_b": sub_b.dim, "dim_c": sub_c.dim, "max_angle": None,
              "kernel_b": sub_b}
    if sub_b.dim and sub_c.dim:
        report["max_angle"] = float(
            principal_angles(sub_b.columns, sub_c.columns).max())
    return report


def fock_battery(e: CouplingMatrix, ops: ModeOperators, count: int,
                 rng: np.random.Generator, action_tol: float) -> dict:
    """The boundary-domain battery for one coupling: ``subspace_equivalence``
    of the two routes plus ``action_residuals``, the singular-action
    residuals of ``count`` vectors sampled from the guarded domain (empty
    when it is trivial).  The route-B rows, its kernel and the SLH triple of
    ``ops``'s gauge are built once and shared by every stage."""
    rows = stacked_boundary_rows(e, ops)
    res = slh_triple(e, ops.gauge)
    report = subspace_equivalence(ops.space, rows, scattering_rows(res, ops))
    kernel = report["kernel_b"]
    vectors = sample_domain_vectors(ops.space, kernel, count, rng)
    report["action_residuals"] = action_residuals(
        res, ops, rows, vectors, action_tol, scale=kernel.sigma_max)
    return report
