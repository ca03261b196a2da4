"""Seeded random ensembles used by property sweeps and the CLI.

The grid draws import ``punctured_line`` when they are called, so drawing a
coupling loads no grid code."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .linalg import adjoint
from .slh import CouplingMatrix, GaugeMatrix, validate_coupling

if TYPE_CHECKING:
    from .punctured_line import GridFunction, GridSpec


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

    The closure ``bump(t)`` returns its values on the nodes ``t``. It
    works ``PANEL_CHUNK`` nodes at a time in one chunk-size float scratch,
    and every node takes the same steps whatever its chunk, so a draw
    evaluated on any run of nodes gives the whole draw's values there."""
    from .punctured_line import PANEL_CHUNK, node_chunks

    amp = complex(rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0))
    width = rng.uniform(0.5, 2.0)
    center = rng.uniform(0.7, 2.2) * (1.0 if side == "right" else -1.0)

    def bump(t):
        out = np.empty(t.shape, dtype=complex)
        scratch = np.empty(min(PANEL_CHUNK, t.size))
        for start, stop in node_chunks(t.size):
            x = scratch[:stop - start]
            np.subtract(t[start:stop], center, out=x)
            np.square(x, out=x)
            x *= -width
            # exp is several times slower where its result underflows; there
            # it is +0, so those nodes, which keep their argument, are set
            # to 0.
            np.exp(x, out=x, where=x >= EXP_ZERO_BELOW)
            x[x < EXP_ZERO_BELOW] = 0.0
            np.multiply(amp, x, out=out[start:stop])
        return out
    return bump


def random_grid_function(rng: np.random.Generator,
                         spec: GridSpec) -> GridFunction:
    """Independent random bumps on the two half-lines (left drawn first), so
    the function has a random jump at 0."""
    from .punctured_line import sample

    return sample(spec, left=random_bump(rng, "left"),
                  right=random_bump(rng, "right"))
