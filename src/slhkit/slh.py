"""From a Hermitian coupling matrix E to the model matrices and the SLH triple.

The pipeline builds the Ito matrix G = -i(1 + iEW)^{-1}E, where the weight W is
half the channel projector (plus an optional Hermitian gauge term iZ), derives
the model/Galilean/dressing matrices V, M, F, and reads the scattering matrix
S, coupling vector L and effective Hamiltonian H off G's blocks.  E, G, V, M
and F are plain (1+n)m square arrays with the system in the first m slots, so
the triple is three slices of G:

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
    DEFAULT_HERMITICITY_TOL,
    adjoint,
    as_complex_matrix,
    channel_projector,
    hermiticity_defect,
    kappas,
    require_hermitian,
)

# 1 + iEW counts as singular when sigma_min <= DRESSING_TOL * sigma_max.
DRESSING_TOL = 1e-12
GAUGE_CHECK_SIGMAS = (-1.0, 0.0, 0.3, 1.0)


@dataclass(frozen=True)
class ScalarGauge:
    """Scalar gauge sigma, entering through kappa_pm = 1/2 +- i*sigma
    (``linalg.kappas``)."""

    sigma: float


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
    """Coupling matrix E on (C + K) tensor h: ``m`` is the system dimension,
    ``n`` the channel count and ``full`` the plain (1+n)m square complex
    array, the first m rows/columns forming the system block.

    Construction checks only the sizes; ``validate_coupling`` adds
    hermiticity."""

    m: int
    n: int
    full: np.ndarray

    def __post_init__(self):
        full = as_complex_matrix(self.full)
        size = (1 + self.n) * self.m
        if self.m < 1 or self.n < 1:
            raise SizeMismatch(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        if full.shape != (size, size):
            raise SizeMismatch(
                f"full matrix must be {size}x{size} for m={self.m}, n={self.n}, "
                f"got {full.shape}")
        object.__setattr__(self, "full", full)


def validate_coupling(raw: np.ndarray, m: int, n: int,
                      tol: float = DEFAULT_HERMITICITY_TOL) -> CouplingMatrix:
    """Check size and hermiticity (E_ab^dag = E_ba) and wrap the result."""
    e = CouplingMatrix(m=m, n=n, full=raw)
    require_hermitian(e.full, tol, "coupling matrix")
    return e


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


def ito_matrix(e: CouplingMatrix, gauge: Optional[Gauge] = None) -> np.ndarray:
    """Ito matrix G = -i(1 + iEW)^{-1}E; raises SingularDressing when 1 + iEW is singular."""
    size = len(e.full)
    dressing = np.eye(size, dtype=complex) + 1j * (e.full @ _weight(e, gauge))
    sing = np.linalg.svd(dressing, compute_uv=False)
    if sing[-1] <= DRESSING_TOL * sing[0]:
        raise SingularDressing(
            f"dressing factor is singular at tolerance {DRESSING_TOL:.1e} "
            f"(sigma_min/sigma_max = {sing[-1] / sing[0]:.3e})")
    return -1j * np.linalg.solve(dressing, e.full)


def derived_matrices(g: np.ndarray, m: int, n: int):
    """Model, Galilean and dressing matrices (V, M, F) = (G + Pi, 1 + Pi G, 1 + Pi G / 2)
    of the (1+n)m Ito matrix G."""
    pi = channel_projector(m, n)
    eye = np.eye(len(g), dtype=complex)
    return g + pi, eye + pi @ g, eye + 0.5 * (pi @ g)


@dataclass(frozen=True)
class SLHResult:
    """Derived matrices and the extracted triple for a coupling E and gauge.

    ``ito``, ``model``, ``galilean`` and ``dressing`` (G, V, M, F) are plain
    (1+n)m square arrays with the system in the first m slots; S is nm x nm,
    L is nm x m and H is m x m."""

    coupling: CouplingMatrix
    gauge: Optional[Gauge]
    ito: np.ndarray
    model: np.ndarray
    galilean: np.ndarray
    dressing: np.ndarray
    s: np.ndarray
    l: np.ndarray
    h: np.ndarray


def slh_triple(e: CouplingMatrix, gauge: Optional[Gauge] = None) -> SLHResult:
    """Run the full pipeline and extract (S, L, H) from the Ito matrix blocks.

    S = 1 + G_ll, L = G_l0 and H = i(G_00 + L^dag L / 2); hermiticity of H and
    unitarity of S are checked downstream, never enforced here.
    """
    m = e.m
    g = ito_matrix(e, gauge)
    v, mm, f = derived_matrices(g, m, e.n)
    s = np.eye(e.n * m, dtype=complex) + g[m:, m:]
    l = g[m:, :m].copy()
    h = 1j * (g[:m, :m] + 0.5 * (adjoint(l) @ l))
    return SLHResult(coupling=e, gauge=gauge, ito=g, model=v, galilean=mm,
                     dressing=f, s=s, l=l, h=h)


def identity_residuals(res: SLHResult) -> dict:
    """Max-entry residuals of one pipeline result's matrix identities, by
    check name in report order: ``ito_isometry`` (G + G^dag + G^dag Pi G = 0),
    ``s_unitarity``, ``h_hermiticity``, ``recomposition`` (G against its
    (S, L, H) blocks) and ``first_row`` (V = G + Pi keeps G's system rows);
    ungauged also ``g_equals_minus_ief`` (G = -iEF), ``dressing_inverse``
    (F(1 + i Pi E / 2) = 1) and ``half_e_galilean`` (E(1 + M)/2 = iG)."""
    e = res.coupling
    g = res.ito
    pi = channel_projector(e.m, e.n)
    eye = np.eye(len(g))
    s, l, h = res.s, res.l, res.h
    eye_nm = np.eye(e.n * e.m)
    top = np.hstack([-0.5 * (adjoint(l) @ l) - 1j * h, -adjoint(l) @ s])
    bottom = np.hstack([l, s - eye_nm])
    out = {
        "ito_isometry": float(
            np.abs(g + adjoint(g) + adjoint(g) @ pi @ g).max()),
        "s_unitarity": float(max(np.abs(adjoint(s) @ s - eye_nm).max(),
                                 np.abs(s @ adjoint(s) - eye_nm).max())),
        "h_hermiticity": hermiticity_defect(h),
        "recomposition": float(np.abs(np.vstack([top, bottom]) - g).max()),
        "first_row": float(np.abs(res.model[:e.m] - g[:e.m]).max()),
    }
    if res.gauge is None:
        f = res.dressing
        out["g_equals_minus_ief"] = float(np.abs(g + 1j * (e.full @ f)).max())
        out["dressing_inverse"] = float(
            np.abs(f @ (eye + 0.5j * (pi @ e.full)) - eye).max())
        out["half_e_galilean"] = float(
            np.abs(0.5 * (e.full @ (eye + res.galilean)) - 1j * g).max())
    return out


def gauge_reduction_check(e: CouplingMatrix) -> dict:
    """Consistency of the gauge family with the ungauged pipeline.

    Returns residuals for (a) Z = 0 reproducing the ungauged Ito matrix and,
    when m = n = 1, (b) the scalar sigma-gauge matching the kappa_pm closed
    forms evaluated with plain complex arithmetic.
    """
    zero = GaugeMatrix(np.zeros((e.n * e.m, e.n * e.m)))
    g_plain = ito_matrix(e)
    g_zero = ito_matrix(e, zero)
    report = {
        "z_zero_residual": float(np.abs(g_plain - g_zero).max()),
        "scalar_residuals": {},
    }
    if e.m == 1 and e.n == 1:
        (e00, e01), (e10, e11) = e.full.tolist()
        for sigma in GAUGE_CHECK_SIGMAS:
            kp, km = kappas(float(sigma))
            den = 1.0 + 1j * kp * e11
            s_ref = (1.0 - 1j * km * e11) / den
            l_ref = -1j * e10 / den
            w_ref = e01 * kp * e10 / den
            h_ref = e00 + (w_ref - w_ref.conjugate()) / 2j
            res = slh_triple(e, ScalarGauge(float(sigma)))
            report["scalar_residuals"][float(sigma)] = {
                "s": abs(complex(res.s[0, 0]) - s_ref),
                "l": abs(complex(res.l[0, 0]) - l_ref),
                "h": abs(complex(res.h[0, 0]) - h_ref),
            }
    return report
