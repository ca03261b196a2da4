"""Properties of the leaf-by-leaf pairings.

Forming each derivative leaf by leaf inside the pairing gives the same bits
as pairing the whole derivative: grids of n = 10, PANEL_CHUNK - 1,
PANEL_CHUNK, PANEL_CHUNK + 1 and 3 PANEL_CHUNK + 7 nodes per half-line,
each half of f and g the shared zero half, a plain zero array or random
values, and g sometimes f itself. The values vanish on the three nodes next
to each truncation boundary, so the derivative is a grid function too.

The trapezoid summed leaf by leaf and joined in pairwise-tree order gives
the same bits as one ``np.sum`` of the whole panel array and as the
in-place trapezoid it replaced. Mutated copies of ``_tree_sum`` that this
property must fail: a split not rounded down to a multiple of 8 floats
(``split = n // 2``), and the leaf sums joined left to right instead of in
tree order."""

import numpy as np
from hypothesis import given, settings, strategies as st

from slhkit.punctured_line import (
    PANEL_CHUNK,
    GridFunction,
    GridSpec,
    _pairing,
    _panel_nodes,
    _panel_sum,
    _tree_sum,
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


def old_trapezoid_half(values, boundary, h, boundary_is_right):
    """The in-place trapezoid the leaf passes replaced, as it was, kept as
    the oracle: panel sums written over a copy of the array, chunk by
    chunk, scaled, then one ``sum``."""
    values = values.copy()
    n = values.size
    if boundary_is_right:
        for start in range(0, n - 1, PANEL_CHUNK):
            stop = min(start + PANEL_CHUNK, n - 1)
            np.add(values[start + 1:stop + 1], values[start:stop],
                   out=values[start:stop])
        values[-1] = boundary + values[-1]
    else:
        for stop in range(n, 1, -PANEL_CHUNK):
            start = max(stop - PANEL_CHUNK, 1)
            np.add(values[start:stop], values[start - 1:stop - 1],
                   out=values[start:stop])
        values[0] = values[0] + boundary
    real = values.view(np.float64)
    real *= h
    real *= 0.5
    return complex(values.sum())


def panels(values, boundary, h, left):
    """The whole scaled panel array, materialized."""
    extended = (np.append(values, boundary) if left
                else np.insert(values, 0, boundary))
    out = extended[1:] + extended[:-1]
    real = out.view(np.float64)
    real *= h
    real *= 0.5
    return out


def tree_trapezoid(values, boundary, h, left):
    """The trapezoid of one half-line's values closed by ``boundary``, as
    the pairing passes form it: leaf sums joined in pairwise-tree order."""
    n = values.size
    return complex(_tree_sum(n, lambda a, b: [_panel_sum(
        values[slice(*_panel_nodes(a, b, n, left))], a, b, n, boundary, h,
        left)])[0])


TREE_SIZES = (10, PANEL_CHUNK - 1, PANEL_CHUNK, PANEL_CHUNK + 1,
              3 * PANEL_CHUNK + 7, 80_000)
KINDS = ("values", "zero", "shared_zero", "subnormal_tail",
         "negative_zero_leaves", "wide_range")


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.sampled_from(TREE_SIZES), st.integers(10, 200_000)),
       st.sampled_from(KINDS), st.sampled_from((2.0 ** -4, 5e-4, 1.0)),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_leaf_tree_trapezoid_equals_one_sum(n, kind, h, left, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    boundary = complex(*rng.standard_normal(2))
    if kind == "zero":
        values[:] = 0.0
    elif kind == "shared_zero":
        values = zero_half(n)
    elif kind == "subnormal_tail":
        tail = rng.integers(1, n)
        values[tail:] = 5e-324 * (rng.integers(-4, 5, n - tail)
                                  + 1j * rng.integers(-4, 5, n - tail))
    elif kind == "negative_zero_leaves":
        # -0.0 throughout but for a few nodes, so whole leaves sum to -0.0
        values[:] = complex(-0.0, -0.0)
        hit = rng.integers(0, n, 3)
        values[hit] = rng.standard_normal(3)
        boundary = complex(-0.0, -0.0)
    elif kind == "wide_range":
        values *= 10.0 ** rng.integers(-300, 300, n)
    got = tree_trapezoid(values, boundary, h, left)
    want = complex(panels(values, boundary, h, left).sum())
    assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(got),
                          bits(old_trapezoid_half(values, boundary, h, left)))
