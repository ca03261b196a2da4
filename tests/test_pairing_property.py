"""Properties of the chunked pairings.

Forming each derivative chunk by chunk inside a half-line pass gives the
derivative of the two-sided oracle (``conftest.TwoSided``) bit for bit,
and ``derivative`` forms the same values. Each pairing, the rule h (sum of
one ``np.vdot`` per chunk - p(end)/2 + p(0)/2), is within the oracle's
rounding bound (``TwoSided.l2_bound``) of ``np.trapezoid`` on whole
arrays. Grids of n = 10, NODE_CHUNK - 1, NODE_CHUNK, NODE_CHUNK + 1 and
3 NODE_CHUNK + 7 nodes per half-line, each half of f and g a zero array or
random values, and g sometimes f itself. The values vanish on the three
nodes next to each truncation boundary, so the derivative is a grid
function too.

The chunked trapezoid of one half-line is within the same bound of one
``np.trapezoid`` over the whole panel array, for zeros, subnormal tails,
-0.0 chunks and values spread over 1e-300..1e300. Mutated copies of
``punctured_line._Trapezoids`` that this property must fail: the trace
term dropped, the trace term weighted 1 instead of 1/2, and a node at a
chunk boundary counted twice."""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import TwoSided, half_pairing, pairing
from slhkit.punctured_line import (
    NODE_CHUNK,
    GridFunction,
    GridSpec,
    Half,
    derivative,
    sobolev_inner,
)

SIZES = (10, NODE_CHUNK - 1, NODE_CHUNK, NODE_CHUNK + 1, 3 * NODE_CHUNK + 7)
HALVES = ("zero", "values")


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
    for got, want, bound in (
            (pairing(f, g, True, True), df.l2(dg), df.l2_bound(dg)),
            (pairing(f, g, False, True), of.l2(dg), of.l2_bound(dg)),
            (pairing(g, f, False, True), og.l2(df), og.l2_bound(df)),
            (sobolev_inner(f, g), of.sobolev(og), of.sobolev_bound(og))):
        assert abs(got - want) <= bound
    whole = derivative(f)
    for got, want in ((whole.left, df.left), (whole.right, df.right),
                      (whole.left_limit, df.left_limit),
                      (whole.right_limit, df.right_limit)):
        assert np.array_equal(np.array(got, ndmin=1).view(np.int64),
                              np.array(want, ndmin=1).view(np.int64))


CHUNK_SIZES = (10, NODE_CHUNK - 1, NODE_CHUNK, NODE_CHUNK + 1,
               3 * NODE_CHUNK + 7, 80_000)
KINDS = ("values", "zero", "subnormal_tail",
         "negative_zero_chunks", "wide_range")


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.sampled_from(CHUNK_SIZES), st.integers(10, 200_000)),
       st.sampled_from(KINDS), st.sampled_from((2.0 ** -4, 5e-4, 1.0)),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_chunked_trapezoid_within_rounding_of_one_sum(n, kind, h, left,
                                                      seed):
    # One half-line's L2 pairing of f with g, g of the given kind, against
    # np.trapezoid of the whole panel array conj(f) g closed by the traces.
    # T = n h need not be exact: the pairing reads only n and h.
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    traces = rng.standard_normal(4)
    fb, gb = complex(*traces[:2]), complex(*traces[2:])
    if kind == "zero":
        values[:] = 0.0
    elif kind == "subnormal_tail":
        tail = rng.integers(1, n)
        values[tail:] = 5e-324 * (rng.integers(-4, 5, n - tail)
                                  + 1j * rng.integers(-4, 5, n - tail))
    elif kind == "negative_zero_chunks":
        # -0.0 throughout but for a few nodes, so whole chunks hold only
        # signed zeros
        f[:] = 1.0
        values[:] = complex(-0.0, -0.0)
        hit = rng.integers(0, n, 3)
        values[hit] = rng.standard_normal(3)
        gb = complex(-0.0, -0.0)
    elif kind == "wide_range":
        values *= 10.0 ** rng.integers(-300, 300, n)
    spec = GridSpec(n * h, h)
    assert spec.n_nodes == n
    got = half_pairing(spec, left, Half(f, fb), Half(values, gb))
    of, og = (TwoSided.one_half(h, left, u, b)
              for u, b in ((f, fb), (values, gb)))
    assert abs(got - of.l2(og)) <= of.l2_bound(og)
    if kind == "zero":
        # no node term: the rule is exactly h (p(0) / 2)
        assert got == h * (0.5 * (np.conj(fb) * gb))
