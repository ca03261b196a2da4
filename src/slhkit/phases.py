"""Boundary phases of the point coupling and the mollified scattering that
reproduces one of them.

A real coupling strength E on the punctured line has three boundary phases
(``boundary_phase``): the Cayley phase s = (1 - iE/2)/(1 + iE/2) of the
Albeverio-Kurasov extension, the damped phase
s_sigma = (1 - i kappa_minus E)/(1 + i kappa_plus E) of the kappa boundary
condition (``linalg.kappas``), which is s at sigma = 0, and exp(-iE).
``scatter_regularized`` transports a characteristic through a coupling
mollified on (-eps, eps) and finds exp(-iE), not s, whatever eps.

Every value here is a closed form or a fixed quadrature of scalars: nothing
reads a grid, so the ``phase`` and ``scatter`` subcommands, and the config's
check of ``scatter.mollifier`` against ``MOLLIFIER_SHAPES``, load neither
``punctured_line`` nor ``fock``. This module imports only numpy, ``errors``
and ``linalg``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidMollifier
from .linalg import kappas


@dataclass(frozen=True)
class BoundaryPhases:
    """The three boundary phases attached to a real coupling strength."""

    s: complex             # Cayley phase (1 - iE/2)/(1 + iE/2)
    s_sigma: complex       # damped phase (1 - i kappa_minus E)/(1 + i kappa_plus E)
    s_chebotarev: complex  # exp(-iE)


def boundary_phase(e: float, sigma: Optional[float] = None) -> BoundaryPhases:
    """Boundary phases for coupling strength e and gauge sigma (0 when None).
    s is the Cayley closed form and s_sigma the kappa formula, which at
    sigma = 0 rounds to the same value: the CLI checks them for equality."""
    e = float(e)
    sig = 0.0 if sigma is None else float(sigma)
    return BoundaryPhases(s=(1.0 - 0.5j * e) / (1.0 + 0.5j * e),
                          s_sigma=_damped_phase(e, sig),
                          s_chebotarev=complex(np.exp(-1j * e)))


def _damped_phase(e: float, sigma: float) -> complex:
    kp, km = kappas(sigma)
    return (1.0 - 1j * km * e) / (1.0 + 1j * kp * e)


# --- regularized scattering ------------------------------------------------

# Gauss-Legendre nodes per panel of the mollifier quadratures.
SCATTER_QUAD_NODES = 64

MOLLIFIER_SHAPES = {
    # smooth bump with all derivatives vanishing at the support edges
    "bump": lambda u: np.where(np.abs(u) < 1.0,
                               np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)),
                               0.0),
    # cosine-squared hump, C^1 at the edges
    "cos2": lambda u: np.where(np.abs(u) < 1.0,
                               np.cos(0.5 * np.pi * np.clip(u, -1, 1)) ** 2,
                               0.0),
}


@dataclass(frozen=True)
class ScatterResult:
    """Transmitted phase across a mollified point coupling vs the exact phases."""

    epsilon: float
    mollifier_integral: float
    transmitted_phase: complex
    phase_error: float      # |transmitted - exp(-iE)|
    contrast: float         # |exp(-iE) - s(E)|


def scatter_regularized(e: float, epsilon: float,
                        mollifier: str = "bump") -> ScatterResult:
    """Transport a left-moving characteristic through the mollified coupling.

    The profile g_eps supported on (-eps, eps) is normalized by Gauss-Legendre
    quadrature; the accumulated phase along the characteristic is the line
    integral of g_eps (unit speed), evaluated with an independent composite
    rule, so the transmitted phase is exp(-iE * integral) = exp(-iE) up to
    quadrature disagreement.
    """
    if epsilon <= 0:
        raise InvalidMollifier("mollifier width must be positive")
    try:
        shape = MOLLIFIER_SHAPES[mollifier]
    except KeyError:
        raise InvalidMollifier(
            f"unknown mollifier {mollifier!r}; choose from "
            f"{sorted(MOLLIFIER_SHAPES)}") from None
    nodes, weights = np.polynomial.legendre.leggauss(SCATTER_QUAD_NODES)
    raw = float(np.sum(weights * shape(nodes)))
    if raw <= 0:
        raise InvalidMollifier("mollifier has nonpositive integral")
    if np.any(shape(nodes) < 0):
        raise InvalidMollifier("mollifier must be nonnegative")
    # a subnormal product is 0 or has an infinite inverse
    if epsilon * raw < sys.float_info.min:
        raise InvalidMollifier(
            f"mollifier width {epsilon!r} is too small to normalize")
    norm = 1.0 / (epsilon * raw)

    # Characteristic enters at x = eps and exits at x = -eps at unit speed;
    # accumulate the line integral panel by panel (4 composite GL panels).
    accumulated = 0.0
    edges = np.linspace(-epsilon, epsilon, 5)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * nodes
        accumulated += half * float(np.sum(weights * norm * shape(x / epsilon)))
    if abs(accumulated - 1.0) > 1e-8:
        raise InvalidMollifier(
            f"normalized mollifier integrates to {accumulated!r} along the "
            f"characteristic (must be 1 within 1e-8)")

    transmitted = complex(np.exp(-1j * float(e) * accumulated))
    phases = boundary_phase(e)
    return ScatterResult(
        epsilon=float(epsilon), mollifier_integral=accumulated,
        transmitted_phase=transmitted,
        phase_error=abs(transmitted - phases.s_chebotarev),
        contrast=abs(phases.s_chebotarev - phases.s))
