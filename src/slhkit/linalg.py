"""Dense complex linear algebra with the block conventions used downstream.

Everything here operates on plain ``numpy`` arrays of ``complex128``; each
matrix handed in is small enough for a dense factorization (large operators
arrive as the photon-number blocks of ``fock.boundary_kernel``).

A matrix on (C + K) tensor h is a plain (1+n)m square array: the first m
rows/columns are the system slot, the rest the n channel slots.  That split
at m and ``channel_blocks``, the view of a matrix as its m x m blocks, are the
whole block layout.

A kernel is a plain ``(dim, k)`` array of orthonormal columns (k = 0 when
trivial), read off an SVD at one rank threshold: NULLSPACE_TOL x a scale,
the matrix's own largest singular value unless the caller passes the scale
of a larger operator the matrix is a block of.  No rank is read off a Gram
matrix.

``kappas``, the gauge split kappa_pm = 1/2 +- i sigma, is here because both
``slh`` and ``punctured_line`` read it and neither imports the other.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, SizeMismatch

DEFAULT_HERMITICITY_TOL = 1e-10
NULLSPACE_TOL = 1e-9


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


def kappas(sigma: float):
    """(kappa_plus, kappa_minus) = (1/2 + i sigma, 1/2 - i sigma)."""
    return complex(0.5, sigma), complex(0.5, -sigma)


def null_space(m: np.ndarray, scale: Optional[float] = None) -> np.ndarray:
    """Orthonormal columns spanning the kernel of m: the right singular
    vectors whose singular value is at most NULLSPACE_TOL x ``scale``
    (default m's own sigma_max); (cols, 0) when it is trivial, the identity
    when the cut is 0.  A tall m is reduced by QR before its SVD."""
    m = as_complex_matrix(m)
    rows, cols = m.shape
    if rows > cols:
        m = np.linalg.qr(m, mode="r")
    _, sing, vh = np.linalg.svd(m, full_matrices=rows < cols)
    if scale is None:
        scale = float(sing[0]) if sing.size else 0.0
    if scale == 0.0:
        return np.eye(cols, dtype=complex)
    return adjoint(vh[int(np.sum(sing > NULLSPACE_TOL * scale)):])


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
