"""Properties of the leaf-by-leaf pairings.

Forming each derivative leaf by leaf inside a half-line pass gives the same
bits as the two-sided oracle (``conftest.TwoSided``): ``np.trapezoid`` of
the derivative formed whole by the plain stencils, and ``derivative`` forms
that derivative's values bit for bit. Grids of n = 10, PANEL_CHUNK - 1,
PANEL_CHUNK, PANEL_CHUNK + 1 and 3 PANEL_CHUNK + 7 nodes per half-line,
each half of f and g a zero array or random values, and g sometimes f
itself. The values vanish on the three nodes next
to each truncation boundary, so the derivative is a grid function too.

The trapezoid summed leaf by leaf and joined in pairwise-tree order gives
the same bits as one ``np.sum`` of the whole panel array and as the
in-place trapezoid it replaced. Mutated copies of ``_tree_sum`` that this
property must fail: a split not rounded down to a multiple of 8 floats
(``split = n // 2``), and the leaf sums joined left to right instead of in
tree order."""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import TwoSided
from slhkit.punctured_line import (
    PANEL_CHUNK,
    SIDES,
    GridFunction,
    GridSpec,
    _panel_nodes,
    _panel_sum,
    _pass,
    _tree_sum,
    derivative,
    sobolev_inner,
)

SIZES = (10, PANEL_CHUNK - 1, PANEL_CHUNK, PANEL_CHUNK + 1, 3 * PANEL_CHUNK + 7)
HALVES = ("zero", "values")


def bits(value: complex) -> np.ndarray:
    return np.array([value]).view(np.int64)


def pairing(f, g, diff_f, diff_g):
    """The trapezoid of conj(f) g, of f' or g' where asked, as one ``_pass``
    on each half-line, joined left + right."""
    left, right = (_pass(f.spec, side, [([(f.half(side), g.half(side), diff_f,
                                           diff_g)], None)])[0][0]
                   for side in SIDES)
    return left + right


def half(kind: str, rng: np.random.Generator, n: int, scale: float,
         left: bool) -> np.ndarray:
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
    of, og = TwoSided.of(f), TwoSided.of(g)
    df, dg = of.derivative(), og.derivative()
    assert np.array_equal(bits(pairing(f, g, True, True)), bits(df.l2(dg)))
    assert np.array_equal(bits(pairing(f, g, False, True)), bits(of.l2(dg)))
    assert np.array_equal(bits(pairing(g, f, False, True)), bits(og.l2(df)))
    assert np.array_equal(bits(sobolev_inner(f, g)),
                          bits(of.l2(og) + df.l2(dg)))
    whole = derivative(f)
    for got, want in ((whole.left, df.left), (whole.right, df.right),
                      (whole.left_limit, df.left_limit),
                      (whole.right_limit, df.right_limit)):
        assert np.array_equal(np.array(got, ndmin=1).view(np.int64),
                              np.array(want, ndmin=1).view(np.int64))


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
KINDS = ("values", "zero", "subnormal_tail",
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
