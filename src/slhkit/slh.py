"""From a Hermitian coupling matrix E to the model matrices and the SLH triple.

The pipeline builds the Ito matrix G = -i(1 + iEW)^{-1}E, where the weight W is
half the channel projector (plus an optional Hermitian gauge term iZ), derives
the model/Galilean/dressing matrices V, M, F, and reads the scattering matrix
S, coupling vector L and effective Hamiltonian H off G's blocks:

    G = [[-L^dag L/2 - iH,  -L^dag S],
         [L,                S - 1   ]]

The closed resolvent forms for (S, L, H) are deliberately *not* used here;
they serve as an independent oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import SingularDressing, SizeMismatch
from .linalg import (
    BlockOperatorMatrix,
    DEFAULT_HERMITICITY_TOL,
    adjoint,
    channel_projector,
    hermiticity_defect,
    partition,
    require_hermitian,
)

# 1 + iEW counts as singular when sigma_min <= DRESSING_TOL * sigma_max.
DRESSING_TOL = 1e-12
GAUGE_CHECK_SIGMAS = (-1.0, 0.0, 0.3, 1.0)


@dataclass(frozen=True)
class ScalarGauge:
    """Scalar gauge sigma, entering through kappa_pm = 1/2 +- i*sigma."""

    sigma: float

    @property
    def kappa_plus(self) -> complex:
        return complex(0.5, self.sigma)

    @property
    def kappa_minus(self) -> complex:
        return complex(0.5, -self.sigma)


@dataclass(frozen=True)
class GaugeMatrix:
    """Hermitian gauge block Z_ll of size nm (implicitly zero on the system slot)."""

    zll: np.ndarray
    hermiticity_tol: float = DEFAULT_HERMITICITY_TOL

    def __post_init__(self):
        z = require_hermitian(self.zll, self.hermiticity_tol, "gauge matrix")
        object.__setattr__(self, "zll", z)


Gauge = Union[ScalarGauge, GaugeMatrix]


@dataclass(frozen=True)
class CouplingMatrix:
    """Validated Hermitian coupling matrix with its block structure."""

    block: BlockOperatorMatrix

    @property
    def m(self) -> int:
        return self.block.m

    @property
    def n(self) -> int:
        return self.block.n

    @property
    def full(self) -> np.ndarray:
        return self.block.full


def validate_coupling(raw: np.ndarray, m: int, n: int,
                      tol: float = DEFAULT_HERMITICITY_TOL) -> CouplingMatrix:
    """Check size and hermiticity (E_ab^dag = E_ba) and wrap the result."""
    block = partition(raw, m, n)
    require_hermitian(block.full, tol, "coupling matrix")
    return CouplingMatrix(block=block)


def gauge_zll(gauge: Optional[Gauge], m: int, n: int) -> np.ndarray:
    """Materialize the nm x nm channel-block gauge matrix (zero when ungauged)."""
    nm = n * m
    if gauge is None:
        return np.zeros((nm, nm), dtype=complex)
    if isinstance(gauge, ScalarGauge):
        return gauge.sigma * np.eye(nm, dtype=complex)
    if isinstance(gauge, GaugeMatrix):
        if gauge.zll.shape != (nm, nm):
            raise SizeMismatch(
                f"gauge block must be {nm}x{nm} for m={m}, n={n}, "
                f"got {gauge.zll.shape}")
        return gauge.zll
    raise TypeError(f"unsupported gauge type: {gauge!r}")


def _weight(e: CouplingMatrix, gauge: Optional[Gauge]) -> np.ndarray:
    """Weight W = Pi/2 + iZ appearing in the dressing factor 1 + iEW."""
    w = 0.5 * channel_projector(e.m, e.n)
    z = gauge_zll(gauge, e.m, e.n)
    w[e.m:, e.m:] += 1j * z
    return w


def ito_matrix(e: CouplingMatrix,
               gauge: Optional[Gauge] = None) -> BlockOperatorMatrix:
    """Ito matrix G = -i(1 + iEW)^{-1}E; raises SingularDressing when 1 + iEW is singular."""
    size = e.block.size
    dressing = np.eye(size, dtype=complex) + 1j * (e.full @ _weight(e, gauge))
    sing = np.linalg.svd(dressing, compute_uv=False)
    if sing[-1] <= DRESSING_TOL * sing[0]:
        raise SingularDressing(
            f"dressing factor is singular at tolerance {DRESSING_TOL:.1e} "
            f"(sigma_min/sigma_max = {sing[-1] / sing[0]:.3e})")
    g = -1j * np.linalg.solve(dressing, e.full)
    return partition(g, e.m, e.n)


def derived_matrices(g: BlockOperatorMatrix):
    """Model, Galilean and dressing matrices (V, M, F) = (G + Pi, 1 + Pi G, 1 + Pi G / 2)."""
    pi = channel_projector(g.m, g.n)
    eye = np.eye(g.size, dtype=complex)
    v = partition(g.full + pi, g.m, g.n)
    mm = partition(eye + pi @ g.full, g.m, g.n)
    f = partition(eye + 0.5 * (pi @ g.full), g.m, g.n)
    return v, mm, f


@dataclass(frozen=True)
class SLHResult:
    """Derived matrices and the extracted triple for a coupling E and gauge."""

    coupling: CouplingMatrix
    gauge: Optional[Gauge]
    ito: BlockOperatorMatrix
    model: BlockOperatorMatrix
    galilean: BlockOperatorMatrix
    dressing: BlockOperatorMatrix
    s: np.ndarray
    l: np.ndarray
    h: np.ndarray

    def ito_isometry_defect(self) -> float:
        """Max-entry residual of G + G^dag + G^dag Pi G = 0."""
        g = self.ito.full
        pi = channel_projector(self.ito.m, self.ito.n)
        return float(np.abs(g + adjoint(g) + adjoint(g) @ pi @ g).max())

    def s_unitarity_defect(self) -> float:
        nm = self.s.shape[0]
        eye = np.eye(nm)
        return float(max(np.abs(adjoint(self.s) @ self.s - eye).max(),
                         np.abs(self.s @ adjoint(self.s) - eye).max()))

    def h_hermiticity_defect(self) -> float:
        return hermiticity_defect(self.h)

    def recomposition_defect(self) -> float:
        """Max-entry distance between G and its (S, L, H) block recomposition."""
        nm = self.coupling.n * self.coupling.m
        top = np.hstack([-0.5 * (adjoint(self.l) @ self.l) - 1j * self.h,
                         -adjoint(self.l) @ self.s])
        bottom = np.hstack([self.l, self.s - np.eye(nm)])
        return float(np.abs(np.vstack([top, bottom]) - self.ito.full).max())


def slh_triple(e: CouplingMatrix, gauge: Optional[Gauge] = None) -> SLHResult:
    """Run the full pipeline and extract (S, L, H) from the Ito matrix blocks.

    S = 1 + G_ll, L = G_l0 and H = i(G_00 + L^dag L / 2); hermiticity of H and
    unitarity of S are checked downstream, never enforced here.
    """
    g = ito_matrix(e, gauge)
    v, mm, f = derived_matrices(g)
    nm = e.n * e.m
    s = np.eye(nm, dtype=complex) + g.xll
    l = g.xl0.copy()
    h = 1j * (g.x00 + 0.5 * (adjoint(l) @ l))
    return SLHResult(coupling=e, gauge=gauge, ito=g, model=v, galilean=mm,
                     dressing=f, s=s, l=l, h=h)


def gauge_reduction_check(e: CouplingMatrix) -> dict:
    """Consistency of the gauge family with the ungauged pipeline.

    Returns residuals for (a) Z = 0 reproducing the ungauged Ito matrix and,
    when m = n = 1, (b) the scalar sigma-gauge matching the kappa_pm closed
    forms evaluated with plain complex arithmetic.
    """
    zero = GaugeMatrix(np.zeros((e.n * e.m, e.n * e.m)))
    g_plain = ito_matrix(e).full
    g_zero = ito_matrix(e, zero).full
    report = {
        "z_zero_residual": float(np.abs(g_plain - g_zero).max()),
        "scalar_residuals": {},
    }
    if e.m == 1 and e.n == 1:
        e00 = complex(e.block.x00[0, 0])
        e10 = complex(e.block.xl0[0, 0])
        e01 = complex(e.block.x0l[0, 0])
        e11 = complex(e.block.xll[0, 0])
        for sigma in GAUGE_CHECK_SIGMAS:
            gauge = ScalarGauge(float(sigma))
            kp, km = gauge.kappa_plus, gauge.kappa_minus
            den = 1.0 + 1j * kp * e11
            s_ref = (1.0 - 1j * km * e11) / den
            l_ref = -1j * e10 / den
            w_ref = e01 * kp * e10 / den
            h_ref = e00 + (w_ref - w_ref.conjugate()) / 2j
            res = slh_triple(e, gauge)
            report["scalar_residuals"][float(sigma)] = {
                "s": abs(complex(res.s[0, 0]) - s_ref),
                "l": abs(complex(res.l[0, 0]) - l_ref),
                "h": abs(complex(res.h[0, 0]) - h_ref),
            }
    return report
