"""Dense complex linear algebra with the block conventions used downstream.

Everything here operates on plain ``numpy`` arrays of ``complex128``; each
matrix handed in is small enough for a dense factorization (large operators
arrive as the independent diagonal blocks of ``null_spaces``).

A matrix on (C + K) tensor h is a plain (1+n)m square array: the first m
rows/columns are the system slot, the rest the n channel slots.  That split
at m and ``channel_blocks``, the view of a matrix as its m x m blocks, are the
whole block layout.

A kernel is a plain ``(dim, k)`` array of orthonormal columns (k = 0 when
trivial), cut at one rank threshold: NULLSPACE_TOL x the largest singular
value.  A tall block whose shifted Gram matrix has a Cholesky factorization
is certified kernel-free without an SVD; no rank is read off a Gram matrix.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, SizeMismatch

DEFAULT_HERMITICITY_TOL = 1e-10
NULLSPACE_TOL = 1e-9
# Shift of the Cholesky certificate, relative to the bound on sigma_max^2: a
# certified block has sigma_min > 1e-5 sigma_max, four decades above the cut.
CERTIFY_SHIFT = 1e-10


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array (copying only when needed)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise SizeMismatch(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-entry norm of A - A^dagger."""
    a = as_complex_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a - adjoint(a)).max())


def require_hermitian(a: np.ndarray, tol: float = DEFAULT_HERMITICITY_TOL,
                      what: str = "matrix") -> np.ndarray:
    """Return ``a`` unchanged if Hermitian within ``tol`` relative to its largest entry."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise SizeMismatch(f"{what} must be square, got shape {a.shape}")
    scale = max(float(np.abs(a).max()) if a.size else 0.0, 1.0)
    defect = hermiticity_defect(a)
    if defect > tol * scale:
        raise NonHermitianInput(
            f"{what} is not Hermitian: max asymmetry {defect:.3e} "
            f"exceeds {tol:.1e} * {scale:.3e}")
    return a


def cayley(a: np.ndarray, scale: float = 0.5) -> np.ndarray:
    """Cayley transform (1 - i*scale*A)(1 + i*scale*A)^{-1} of Hermitian A.

    Unitary for every Hermitian A and real scale; raises NonHermitianInput
    otherwise.
    """
    a = require_hermitian(a, what="cayley input")
    eye = np.eye(a.shape[0], dtype=complex)
    num = eye - 1j * scale * a
    den = eye + 1j * scale * a
    # X = num @ den^{-1}, computed as a solve from the right.
    return np.linalg.solve(den.T, num.T).T


def _has_cholesky(a: np.ndarray) -> bool:
    """Whether the Hermitian ``a`` (lower triangle read) has a Cholesky
    factorization, i.e. is numerically positive definite."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def null_spaces(blocks: Iterable[np.ndarray], bound: float = 0.0
                ) -> Tuple[List[np.ndarray], float, List[bool]]:
    """Kernels of the diagonal blocks of one block-diagonal matrix, cut at
    ``NULLSPACE_TOL`` times the global sigma_max (the largest singular value
    over all blocks), the decision an SVD of the whole matrix would make.

    With ``bound`` >= sigma_max^2 (0 for none), a block B with rows >= cols
    whose G - tau I (G = B^H B, tau = CERTIFY_SHIFT x bound) has a Cholesky
    factorization has sigma_min^2 > tau: its kernel is empty and no SVD runs.
    Every other block is factored by SVD, a tall one after QR.  Blocks are
    consumed one at a time, each leaving one c x c array (its right factor or
    certified G) until the cut is known.  sigma_max is exact: a certified G's
    top eigenvalue is computed unless its row sums, or a Cholesky factor of
    s^2 I - G with s the largest value so far, show it is at most s^2.

    Returns the kernels in block order, sigma_max and, per block, whether it
    was certified; with every block zero each kernel is its full space.
    Raises ValueError if a certificate relied on a bound below sigma_max^2.
    """
    tau = CERTIFY_SHIFT * bound
    factors = []
    for block in blocks:
        block = as_complex_matrix(block)
        rows, cols = block.shape
        if tau > 0.0 and rows >= cols > 0:
            gram = adjoint(block) @ block
            gram[np.diag_indices(cols)] -= tau
            if _has_cholesky(gram):
                factors.append((None, gram))
                continue
            del gram
        if rows > cols:
            block = np.linalg.qr(block, mode="r")
        _, sing, vh = np.linalg.svd(block, full_matrices=rows < cols)
        factors.append((sing, vh))
    smax = max((float(sing[0]) for sing, _ in factors
                if sing is not None and sing.size), default=0.0)
    # lambda_max(G) <= the largest absolute row sum of G - tau I, plus tau
    grams = sorted(((float(np.abs(g).sum(axis=1).max()) + tau, g)
                    for sing, g in factors if sing is None),
                   key=lambda pair: pair[0], reverse=True)
    for top, gram in grams:
        if top <= smax ** 2:
            break
        if smax > 0.0:
            # lambda_max(G) <= sigma_max^2 when sigma_max^2 I - G factors
            room = -gram
            room[np.diag_indices(len(room))] += smax ** 2 - tau
            below = _has_cholesky(room)
            del room
            if below:
                continue
        smax = max(smax, float(np.sqrt(np.linalg.eigvalsh(gram)[-1] + tau)))
    if grams and smax ** 2 > bound * (1.0 + 1e-8):
        raise ValueError(f"sigma_max^2 = {smax ** 2:.6e} exceeds the bound "
                         f"{bound:.6e} the certificate relied on")
    kernels = []
    for sing, vh in factors:
        if sing is None:
            kernels.append(np.zeros((vh.shape[1], 0), dtype=complex))
        elif smax == 0.0:
            kernels.append(np.eye(vh.shape[1], dtype=complex))
        else:
            rank = int(np.sum(sing > NULLSPACE_TOL * smax))
            kernels.append(adjoint(vh[rank:]))
    return kernels, smax, [sing is None for sing, _ in factors]


def null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the kernel of m at the NULLSPACE_TOL
    cutoff, by SVD; (dim, 0) when it is trivial, the full space when m = 0."""
    return null_spaces([m])[0][0]


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians, nondecreasing) between the spans of two
    arrays of orthonormal columns.

    Small angles come from the sine-based projection residual (arccos of an
    overlap singular value loses half the digits near zero angle), large ones
    from the cosine overlap.
    """
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[1] == 0 or b.shape[1] == 0:
        raise DimensionMismatch("principal angles need two nonempty subspaces")
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    overlap = adjoint(a) @ b
    cosines = np.clip(np.linalg.svd(overlap, compute_uv=False), 0.0, 1.0)
    residual = b - a @ overlap
    sines = np.clip(np.linalg.svd(residual, compute_uv=False), 0.0, 1.0)
    from_cos = np.sort(np.arccos(cosines))
    from_sin = np.sort(np.arcsin(sines))
    return np.where(from_cos > np.pi / 4, from_cos, from_sin)


def channel_blocks(x: np.ndarray, m: int) -> np.ndarray:
    """The (rows/m, cols/m, m, m) view of a matrix whose sides are multiples
    of m: [alpha, beta] is its m x m block in block row alpha and block
    column beta (0 = system slot on a (1+n)m side).  No copy is made."""
    if x.ndim != 2 or m < 1 or x.shape[0] % m or x.shape[1] % m:
        raise SizeMismatch(f"cannot cut shape {x.shape} into {m} x {m} blocks")
    rows, cols = x.shape
    return x.reshape(rows // m, m, cols // m, m).swapaxes(1, 2)


def channel_projector(m: int, n: int) -> np.ndarray:
    """Projector onto the channel block: zero on the first m slots, identity after.

    Its coefficients are 1 exactly when both block indices are equal and >= 1.
    """
    size = (1 + n) * m
    pi = np.zeros((size, size), dtype=complex)
    pi[m:, m:] = np.eye(n * m)
    return pi
