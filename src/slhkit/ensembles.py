"""Seeded random ensembles used by property sweeps and the CLI."""

from __future__ import annotations

import numpy as np

from .linalg import adjoint
from .punctured_line import GridFunction, GridSpec, sample
from .slh import CouplingMatrix, GaugeMatrix, validate_coupling


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
    or "right" half-line; its value at 0 is a random boundary trace."""
    amp = complex(rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0))
    width = rng.uniform(0.5, 2.0)
    center = rng.uniform(0.7, 2.2) * (1.0 if side == "right" else -1.0)
    return lambda t: amp * np.exp(-width * (t - center) ** 2)


def random_grid_function(rng: np.random.Generator, spec: GridSpec) -> GridFunction:
    """Independent random bumps on the two half-lines (left drawn first), so
    the function has a random jump at 0."""
    return sample(spec, left=random_bump(rng, "left"),
                  right=random_bump(rng, "right"))
