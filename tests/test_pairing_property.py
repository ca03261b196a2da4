"""Property of the streamed pairings: forming each derivative chunk by chunk
inside the pairing gives the same bits as pairing the whole derivative.

Grids of n = 10, PANEL_CHUNK - 1, PANEL_CHUNK, PANEL_CHUNK + 1 and
3 PANEL_CHUNK + 7 nodes per half-line, each half of f and g the shared zero
half, a plain zero array or random values, and g sometimes f itself. The
values vanish on the three nodes next to each truncation boundary, so the
derivative is a grid function too."""

import numpy as np
from hypothesis import given, settings, strategies as st

from slhkit.punctured_line import (
    PANEL_CHUNK,
    GridFunction,
    GridSpec,
    _pairing,
    derivative,
    l2_inner,
    sobolev_inner,
    zero_half,
)

SIZES = (10, PANEL_CHUNK - 1, PANEL_CHUNK, PANEL_CHUNK + 1, 3 * PANEL_CHUNK + 7)
HALVES = ("shared_zero", "plain_zero", "values")


def bits(value: complex) -> np.ndarray:
    return np.array([value]).view(np.int64)


def half(kind: str, rng: np.random.Generator, n: int, scale: float,
         left: bool) -> np.ndarray:
    if kind == "shared_zero":
        return zero_half(n)
    values = np.zeros(n, dtype=complex)
    if kind == "values":
        values[:] = scale * (rng.standard_normal(n)
                             + 1j * rng.standard_normal(n))
        if left:
            values[:3] = 0.0
        else:
            values[-3:] = 0.0
    return values


@st.composite
def grid_function(draw, spec: GridSpec, rng: np.random.Generator):
    n = spec.n_nodes
    scale = draw(st.sampled_from((1e-3, 1.0, 1e5)))
    left = half(draw(st.sampled_from(HALVES)), rng, n, scale, True)
    right = half(draw(st.sampled_from(HALVES)), rng, n, scale, False)
    traces = rng.standard_normal(4)
    return GridFunction(spec, left, right, complex(*traces[:2]),
                        complex(*traces[2:]))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(SIZES), st.sampled_from((2.0 ** -4, 2.0 ** -9)),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.data())
def test_streamed_pairings_equal_materialized(n, h, seed, same, data):
    # h is a power of two, so T = n h is exact and the grid has n nodes
    spec = GridSpec(n * h, h)
    assert spec.n_nodes == n
    rng = np.random.default_rng(seed)
    f = data.draw(grid_function(spec, rng))
    g = f if same else data.draw(grid_function(spec, rng))
    df, dg = derivative(f), derivative(g)
    assert np.array_equal(bits(_pairing(f, g, True, True)),
                          bits(l2_inner(df, dg)))
    assert np.array_equal(bits(_pairing(f, g, False, True)),
                          bits(l2_inner(f, dg)))
    assert np.array_equal(bits(_pairing(g, f, False, True)),
                          bits(l2_inner(g, df)))
    assert np.array_equal(bits(sobolev_inner(f, g)),
                          bits(l2_inner(f, g) + l2_inner(df, dg)))
