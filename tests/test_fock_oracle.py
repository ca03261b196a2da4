"""The graded Fock layer against the dense Kronecker-product oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DenseFock
from slhkit.config import Tolerances
from slhkit.ensembles import random_coupling, random_gauge
from slhkit.fock import (
    _compose,
    _sector_block,
    _worst_entry,
    action_residuals,
    boundary_kernel,
    build_mode_operators,
    commutator_defect,
    guarded_basis,
    number_defect_residual,
    number_spectrum_defect,
    sample_domain_vectors,
    scattering_rows,
    singular_action_operator,
    singular_generator,
    stacked_boundary_rows,
)
from slhkit.linalg import principal_angles
from slhkit.slh import ScalarGauge, gauge_zll, slh_triple, validate_coupling

SIZES = ((1, 1, 5), (2, 1, 5), (1, 2, 4), (2, 1, 6))
GAUGES = ("plain", "sigma", "matrix")
EL0_KINDS = ("zero", "generic", "rank-deficient")
CASES = [(size, gauge, el0)
         for size in SIZES for gauge in GAUGES for el0 in EL0_KINDS
         # with m = 1 the only rank-deficient E_l0 is zero
         if not (el0 == "rank-deficient" and size[0] == 1)]


def make_case(m, n, d, gauge_kind, el0_kind, *seed):
    rng = np.random.default_rng([m, n, d, GAUGES.index(gauge_kind),
                                 EL0_KINDS.index(el0_kind), *seed])
    e = random_coupling(rng, m, n, zero_channel_system=el0_kind != "generic")
    raw = e.full.copy()
    if el0_kind == "generic":
        # A well-conditioned invertible E_l0: the kernel is empty.  A small
        # random E_l0 instead leaves truncated coherent towers with singular
        # values near the 1e-9 threshold, where the kernel direction is only
        # determined to about eps / gap and no method matches another to 1e-9.
        raw[m:2 * m, :m] += 2.0 * np.eye(m)
    if el0_kind == "rank-deficient":
        # one large entry: E_l0 has rank 1 < m, and the kernel stays well
        # separated from the truncated-coherent near-kernel directions
        raw[m + 1, 0] = 8.0 * (0.9 - 0.3j)
    raw[:m, m:] = raw[m:, :m].conj().T
    e = validate_coupling(raw, m, n)
    gauge = {"plain": None, "sigma": ScalarGauge(0.3),
             "matrix": random_gauge(rng, m, n)}[gauge_kind]
    return e, gauge, rng


def max_angle(u, w):
    return float(principal_angles(u, w).max())


def restrict(matrix, space, rows, cols):
    """The (rows, cols) restriction of a dense operator, or of a vertical stack
    of them, in the assembler's order: Fock state fastest, then the system
    index, then the stacked row."""
    r = matrix.shape[0] // space.dim
    flat_rows = (np.arange(r * space.m)[:, None] * space.fock_dim + rows).ravel()
    flat_cols = (np.arange(space.m)[:, None] * space.fock_dim + cols).ravel()
    return matrix[np.ix_(flat_rows, flat_cols)]


@pytest.mark.parametrize("size,gauge_kind,el0_kind", CASES)
def test_graded_matches_dense_oracle(size, gauge_kind, el0_kind):
    m, n, d = size
    e, gauge, rng = make_case(m, n, d, gauge_kind, el0_kind)
    ops = build_mode_operators(m, n, d, gauge)
    dense = DenseFock(m, n, d, gauge)
    res = slh_triple(e, gauge)
    rows_b = stacked_boundary_rows(e, ops)

    sub_b = boundary_kernel(ops.space, rows_b)
    for route, graded in (("B", sub_b),
                          ("C", boundary_kernel(ops.space,
                                                scattering_rows(res, ops)))):
        oracle = dense.kernel(e, route)
        assert graded.dim == oracle.shape[1]
        if oracle.shape[1]:
            assert max_angle(graded.columns, oracle) <= 1e-9
        # sigma~ is ||B (s (x) |d-1, ..., d-1>)|| at its best unit s, and the
        # same of C: within a factor 1 + 2n of the rows' 2-norm, never above
        norm = np.linalg.norm(dense.stacked_rows(e, route), 2)
        assert norm / (1 + 2 * n) <= graded.sigma_max <= norm * (1 + 1e-12)

    # the guarded domain, read off route B's kernel, against the kernel of
    # the dense rows stacked with the identity rows outside the guard
    guarded = guarded_basis(ops.space, sub_b)
    oracle_guarded = dense.guarded_kernel(e)
    assert guarded.shape[1] == oracle_guarded.shape[1]
    if el0_kind == "generic":
        assert graded.dim == guarded.shape[1] == 0
    else:
        assert guarded.shape[1] > 0
        assert max_angle(guarded, oracle_guarded) <= 1e-9
        vectors = sample_domain_vectors(ops.space, sub_b, 5, rng)
        assert max(action_residuals(res, ops, rows_b, vectors,
                                    Tolerances().action,
                                    scale=sub_b.sigma_max)) <= 1e-8
        phi = np.array(vectors).T
        phi[~dense.guard_mask()] = 0.0
        phi /= np.linalg.norm(phi, axis=0)
        oracle_res = np.linalg.norm(
            (dense.generator(e) - dense.action_operator(e)) @ phi, axis=0)
        assert oracle_res.max() <= 1e-8


@pytest.mark.parametrize("size", SIZES)
def test_forms_apply_the_dense_operators(size):
    m, n, d = size
    e, gauge, rng = make_case(m, n, d, "matrix", "generic")
    ops = build_mode_operators(m, n, d, gauge)
    res = slh_triple(e, gauge)
    dense = DenseFock(m, n, d, gauge)
    v = rng.standard_normal((dense.dim, 3)) + 1j * rng.standard_normal((dense.dim, 3))
    pairs = list(zip([*ops.a_plus, *ops.a_minus, *ops.a_star, *ops.frak_a],
                     dense.a_plus + dense.a_minus + dense.a_star + dense.frak_a))
    for form, matrix in pairs:
        assert np.abs(ops.space.apply(form, v) - matrix @ v).max() <= 1e-12
        back = ops.space.apply(form, v, dagger=True)
        assert np.abs(back - matrix.conj().T @ v).max() <= 1e-12
    for route, coef in (("B", stacked_boundary_rows(e, ops)),
                        ("C", scattering_rows(res, ops))):
        rows = dense.stacked_rows(e, route).reshape(n, dense.dim, dense.dim)
        for j in range(n):
            assert np.abs(ops.space.apply(coef[j], v) - rows[j] @ v).max() <= 1e-12
    assert np.abs(singular_generator(e, ops, v) - dense.generator(e) @ v).max() <= 1e-11
    assert np.abs(ops.space.apply(singular_action_operator(res), v)
                  - dense.action_operator(e) @ v).max() <= 1e-12


@pytest.mark.parametrize("size,gauge_kind,el0_kind", CASES)
def test_array_forms_equal_per_channel_sums(size, gauge_kind, el0_kind):
    """The gauged modes, both routes' rows and the action form, built as
    arrays from block views, equal entry for entry the per-channel sums of
    m x m slices in their defining order."""
    m, n, d = size
    e, gauge, _ = make_case(m, n, d, gauge_kind, el0_kind)
    ops = build_mode_operators(m, n, d, gauge)
    res = slh_triple(e, gauge)
    zll = gauge_zll(gauge, m, n)
    kp, km = 0.5 * np.eye(n * m) + 1j * zll, 0.5 * np.eye(n * m) - 1j * zll

    def blk(x, j, k):
        return x[j * m:(j + 1) * m, k * m:(k + 1) * m]

    rows_b = stacked_boundary_rows(e, ops)
    rows_c = scattering_rows(res, ops)
    for j in range(n):
        frak = np.zeros_like(ops.a0)
        row_b = 1j * (ops.a_plus[j] - ops.a_minus[j]) + blk(e.full, 1 + j, 0) @ ops.a0
        row_c = ops.a_minus[j]
        for k in range(n):
            frak = frak + blk(km, j, k) @ ops.a_plus[k] + blk(kp, j, k) @ ops.a_minus[k]
            row_b = row_b + blk(e.full, 1 + j, 1 + k) @ ops.frak_a[k]
            row_c = row_c - blk(res.s, j, k) @ ops.a_plus[k]
        row_c = row_c - blk(res.l, j, 0) @ ops.a0
        if gauge is not None:
            assert np.array_equal(ops.frak_a[j], frak)
        assert np.array_equal(rows_b[j], row_b)
        assert np.array_equal(rows_c[j], row_c)
    action = 1j * blk(res.ito, 0, 0) @ ops.a0
    for k in range(n):
        action = action + 1j * blk(res.ito, 0, 1 + k) @ ops.a_plus[k]
    assert np.array_equal(singular_action_operator(res), action)


@pytest.mark.parametrize("size", SIZES)
def test_ladder_checks_on_applied_forms(size):
    ops = build_mode_operators(*size)
    assert commutator_defect(ops.space) <= 1e-12
    assert number_spectrum_defect(ops.space) <= 1e-12
    assert number_defect_residual(ops) <= 1e-12


@pytest.mark.parametrize("size,gauge_kind,el0_kind", CASES)
def test_sector_blocks_match_dense_rows(size, gauge_kind, el0_kind):
    m, n, d = size
    e, gauge, _ = make_case(m, n, d, gauge_kind, el0_kind)
    ops = build_mode_operators(m, n, d, gauge)
    space = ops.space
    dense = DenseFock(m, n, d, gauge)
    everything = np.arange(space.fock_dim)
    guard = space.photon_guard_mask()
    pairs = [(everything, everything)]
    guarded = [s[guard[s]] for s in space.sectors() if guard[s].any()]
    for sectors in (space.sectors(), guarded):
        pairs += [(cols, rows) for cols, rows in zip(sectors[1:], sectors)]
    for route, coef in (("B", stacked_boundary_rows(e, ops)),
                        ("C", scattering_rows(slh_triple(e, gauge), ops))):
        stacked = dense.stacked_rows(e, route)
        for cols, rows in pairs:
            block = _sector_block(space, coef, cols, rows)
            oracle = restrict(stacked, space, rows, cols)
            assert np.abs(block - oracle).max() <= 1e-13


@pytest.mark.parametrize("size", SIZES)
def test_assembled_commutator_matches_dense(size):
    """x (x) (a a^dag - a^dag a - 1): three terms that hit the same diagonal
    entries, reduced by ``_worst_entry`` with no block.  On the guard it
    vanishes; on the full space the cut at d leaves -d x on the top
    occupation, so the comparison is not vacuous."""
    m, n, d = size
    space = build_mode_operators(m, n, d).space
    dense = DenseFock(m, n, d)
    rng = np.random.default_rng(list(size))
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    guard = space.photon_guard_mask()
    everything = np.ones(space.fock_dim, dtype=bool)
    for p, a_dense in enumerate(dense.a_plus + dense.a_minus):
        a, a_dag = space.slot_maps()[1 + p], space.slot_maps(True)[1 + p]
        terms = [(x, _compose(a, a_dag)), (-x, _compose(a_dag, a)),
                 (-x, space.slot_maps()[0])]
        comm = dense.lift_system(x) @ (a_dense @ a_dense.conj().T
                                       - a_dense.conj().T @ a_dense - dense.eye)
        for keep, expected in ((guard, 0.0), (everything, d * np.abs(x).max())):
            states = np.flatnonzero(keep)
            oracle = np.abs(restrict(comm, space, states, states)).max()
            worst = _worst_entry(terms, keep)
            assert abs(worst - oracle) <= 1e-13 * d
            assert abs(worst - expected) <= 1e-13 * d


# Small truncations, dim <= 512, each with every E_l0 kind it admits.
PROPERTY_CASES = [((m, n, d), el0)
                  for m in (1, 2) for n in (1, 2) for d in range(3, 7)
                  if m * d ** (2 * n) <= 512
                  for el0 in EL0_KINDS if not (el0 == "rank-deficient" and m == 1)]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(case=st.sampled_from(PROPERTY_CASES), gauge_kind=st.sampled_from(GAUGES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernels_and_guarded_domain_match_dense_property(case, gauge_kind,
                                                         seed):
    """Seeded couplings at random small sizes and E_l0 kinds: routes B and C
    have equal dims, route B spans the dense kernel, and the guarded domain
    read off it spans the dense guarded kernel."""
    (m, n, d), el0_kind = case
    e, gauge, _ = make_case(m, n, d, gauge_kind, el0_kind, seed)
    ops = build_mode_operators(m, n, d, gauge)
    dense = DenseFock(m, n, d, gauge)
    sub_b = boundary_kernel(ops.space, stacked_boundary_rows(e, ops))
    sub_c = boundary_kernel(ops.space,
                            scattering_rows(slh_triple(e, gauge), ops))
    assert sub_b.dim == sub_c.dim
    for graded, oracle in ((sub_b.columns, dense.kernel(e, "B")),
                           (guarded_basis(ops.space, sub_b),
                            dense.guarded_kernel(e))):
        assert graded.shape[1] == oracle.shape[1]
        if oracle.shape[1]:
            assert max_angle(graded, oracle) <= 1e-9
