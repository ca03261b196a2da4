"""Seeded random ensembles used by property sweeps and the CLI.

The grid draw (``random_bump``) is a plain callable on nodes, so this
module imports no grid code."""

from __future__ import annotations

import numpy as np

from .linalg import adjoint
from .slh import CouplingMatrix, GaugeMatrix, validate_coupling


# exp(x) is +0 in double precision for every x below this (it is below
# half the smallest subnormal, 2**-1075, from x = -745.14 on).
EXP_ZERO_BELOW = -750.0


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Symmetrized complex Ginibre draw rescaled to max entry 1."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    e = 0.5 * (a + adjoint(a))
    top = float(np.abs(e).max())
    return e / top if top > 0 else e


def random_coupling(rng: np.random.Generator, m: int, n: int,
                    zero_channel_system: bool = False) -> CouplingMatrix:
    """Random Hermitian coupling matrix.

    With ``zero_channel_system`` the E_l0/E_0l blocks are removed; that is the
    ensemble used for truncated-Fock domain checks, where a generically
    invertible system-channel block leaves no finitely-supported domain
    vectors at all.
    """
    e = random_hermitian(rng, (1 + n) * m)
    if zero_channel_system:
        e[:m, m:] = 0.0
        e[m:, :m] = 0.0
        top = float(np.abs(e).max())
        if top > 0:
            e = e / top
    return validate_coupling(e, m, n)


def random_gauge(rng: np.random.Generator, m: int, n: int) -> GaugeMatrix:
    return GaugeMatrix(random_hermitian(rng, n * m))


def random_bump(rng: np.random.Generator, side: str):
    """Gaussian bump amp * exp(-width (t - center)^2) centred on the "left"
    or "right" half-line; its value at 0 is a random boundary trace.

    The closure ``bump(t)`` returns its values on the nodes ``t``, formed
    in one float temporary. Every step is elementwise, so a draw evaluated
    on any run of nodes (a pass reads one window of at most
    ``punctured_line.NODE_CHUNK + 2`` nodes at a time) gives the whole
    draw's values there."""
    amp = complex(rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0))
    width = rng.uniform(0.5, 2.0)
    center = rng.uniform(0.7, 2.2) * (1.0 if side == "right" else -1.0)

    def bump(t):
        x = np.subtract(t, center)
        np.square(x, out=x)
        x *= -width
        # exp is several times slower where its result underflows; there it
        # is +0, so those nodes keep their argument, below -750, and are
        # then set to +0 with every exp result, itself >= +0, kept.
        np.exp(x, out=x, where=x >= EXP_ZERO_BELOW)
        np.maximum(x, 0.0, out=x)
        return np.multiply(amp, x)
    return bump
