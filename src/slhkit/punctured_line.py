"""Grid-discretized functions on the punctured line and their singular boundary algebra.

Functions live on [-T, 0) and (0, T] with *stored* boundary traces psi(0-) and
psi(0+); every singular functional (one-sided deltas, jump, symmetric delta,
and the damped combination zeta) evaluates those traces exactly, so only the
quadrature and finite-difference pieces carry O(h^2) error.

Conventions

* inner products are conjugate-linear in the first argument;
* the Sobolev product adds the derivative pairing to the L2 one,
  <f|g>_{1,2} = int(conj(f) g + conj(f') g');
* the defect vectors are phi_+(t) = -i e^{-t} on t > 0 and
  phi_-(t) = +i e^{+t} on t < 0, normalized to one in the Sobolev norm, with
  d/dt phi_pm = -(+-) phi_pm and jump functional value -i on both;
* kappa_pm = 1/2 +- i sigma (``linalg.kappas``), and the damped functional
  evaluates as <zeta|psi> = kappa_minus psi(0+) + kappa_plus psi(0-)
  (adjoint convention).

The boundary phases and the mollified scattering need no grid; they live in
``phases``, which ``extension_domain_defect`` reads for s_sigma.

Half-lines

The two half-lines meet only through the traces, so every check is built
from one-half-line passes (a ``Half``: node values and the trace at 0 on
that side). The per-half functions (``reproducing_half``, whose one-psi
case is the Sobolev pairing, ``decomposition_half``, ``symmetry_half`` and
``eigenrelation_half``) return scalars. One two-sided function per check
group (``defect_vector_defects``, ``reproducing_defects``,
``decomposition_defects``, ``eigenrelation_defects`` and
``symmetry_defects``) takes its functions as (left, right) pairs of
halves, runs the passes of both half-lines and joins their scalars in the
order of the two-sided formula, (L2_- + L2_+) + (D_- + D_+). It returns
plain values, per draw or per defect vector; the CLI defect suite names
them. A half's values are a source, a function of node coordinates: a
callable (``sample_half``; ``sample`` makes a pair) or a defect vector in
closed form (``defect_half``). phi_- is zero on the right half-line and
phi_+ on the left, traces included, so a half-line pairs only its own
(``DEFECT_SIDES``). Stored values remain for a GridFunction, the argument
of ``sobolev_inner``, ``derivative`` and ``decompose_sobolev``, which the
benchmark's tracer wraps by name (``perfbench/tracing.py``'s ``TARGETS``).

Chunks

A per-half function makes one pass over the half-line in chunks of
``NODE_CHUNK`` nodes (``_chunks``). A chunk forms the coordinates of its
nodes and one neighbour on each side once; on them it reads each half
once (a stored one as a view), forms each derivative once, and adds each
pairing's ``np.vdot`` to that pairing's sum (``_Trapezoids``, which
checks the derivative trace of each differentiated half once per pass). A
pairing is the trapezoid rule h (S - p(end)/2 + p(0)/2): S the chunk sums
added in node order, p(end) the product at -T or T and p(0) that of the
traces. That is the panel sum of the two-sided formula up to rounding,
within gamma_n sum |conj(f) g| (Higham, Accuracy and Stability of
Numerical Algorithms, 4.2). Node maxima (reconstruction and eigenrelation
residuals) are reduced on the same chunks, each node rounded as on the
whole array. The boundary reads (``_check_half``, ``_derivative_trace``)
form the coordinates of the two or three nodes they read.

Storage

* a GridFunction holds read-only views of its arrays (the caller's stays
  writable, a strided one is copied once); ``_check_half`` checks each
  half, a source's values as read: finite, a finite trace, 0 at -T or T;
* ``derivative`` and ``decompose_sobolev`` form their result whole, the
  only node arrays the module forms;
* a pass, and ``_refuse``, which forms a refused pairing's derivatives
  again, hold one chunk's arrays at a time: its coordinates, each half's
  window of at most NODE_CHUNK + 2 values, its derivative and, in
  ``decomposition_half``, psi0's window and the residual; a pairing keeps
  three scalars (its sum, the product at -T or T and the traces');
* GridSpec refuses a grid whose node arrays would need more than
  ``MAX_SOLVE_BYTES`` (TooLarge), before anything is allocated.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import phases
from .errors import MAX_SOLVE_BYTES, DomainTooSmall, SpecMismatch, TooLarge
from .linalg import ReadOnly, kappas

DECAY_TOL = 1e-12
MIN_HALF_WIDTH = 30.0
# Most two-sided complex node arrays held at once, the bound of the size
# guard. Only decompose_sobolev and derivative form node arrays: 2.50 and
# 2.07 arrays with their argument (tests/test_punctured_line.py). The CLI
# defect suite, and a pairing it refuses, hold a few chunk windows whatever
# n (test_defect_suite_peak_is_flat_in_n). Kept at 3 for the same grids.
DEFECT_LIVE_ARRAYS = 3
# The left half-line [-T, 0), then the right one (0, T]: the order of every
# loop over halves and of the sums that join them.
SIDES = (True, False)


class GridSpec(ReadOnly):
    """Uniform grid on [-T, 0) and (0, T]; no node at the origin. Two specs
    with the same half-width and spacing are equal."""

    __slots__ = ("half_width", "spacing")

    def __init__(self, half_width: float, spacing: float):
        self.half_width, self.spacing = half_width, spacing
        if not (math.isfinite(self.half_width) and math.isfinite(self.spacing)):
            raise SpecMismatch(
                f"grid half-width and spacing must be finite, got "
                f"{self.half_width} and {self.spacing}")
        if self.spacing <= 0:
            raise SpecMismatch("grid spacing must be positive")
        ratio = self.half_width / self.spacing
        # 16 B per complex value, two half-lines per array; a float, so an
        # overflowing ratio is refused here too.
        need = 32.0 * DEFECT_LIVE_ARRAYS * ratio
        if need > MAX_SOLVE_BYTES:
            raise TooLarge(
                f"{ratio:.3g} nodes per half-line need about "
                f"{need / 2 ** 30:.3g} GiB of grid arrays, over the "
                f"desk-scale guard of {MAX_SOLVE_BYTES / 2 ** 30:.0f} GiB")
        if abs(ratio - round(ratio)) > 1e-9 * max(ratio, 1.0):
            raise SpecMismatch(
                f"half-width {self.half_width} must be an integer multiple of "
                f"spacing {self.spacing}")
        if round(ratio) < 10:
            raise SpecMismatch("need at least 10 nodes per half-line")

    def __eq__(self, other):
        return (type(other) is GridSpec and self.half_width == other.half_width
                and self.spacing == other.spacing)

    def __hash__(self):
        return hash((self.half_width, self.spacing))

    def __repr__(self):
        return (f"GridSpec(half_width={self.half_width!r}, "
                f"spacing={self.spacing!r})")

    @property
    def n_nodes(self) -> int:
        return int(round(self.half_width / self.spacing))

    def nodes(self, left: bool, lo: int = 0,
              hi: Optional[int] = None) -> np.ndarray:
        """Nodes lo:hi (all by default) of the left half-line, -T, -T+h,
        ..., -h, or of the right one, h, 2h, ..., T, each formed as
        ``np.linspace`` forms it: k times the step, plus the first node,
        and the last node set to the end."""
        n = self.n_nodes
        hi = n if hi is None else hi
        first, last = ((-self.half_width, -self.spacing) if left
                       else (self.spacing, self.half_width))
        x = np.arange(lo, hi, dtype=float)
        x *= (last - first) / (n - 1)
        x += first
        if hi == n:
            x[-1] = last
        return x


def _read_only(values) -> np.ndarray:
    """A read-only contiguous complex view; the array passed in keeps its
    own flags."""
    view = np.ascontiguousarray(values, dtype=complex).view()
    view.flags.writeable = False
    return view


def _finite(values: np.ndarray) -> np.ndarray:
    # on the float parts, which is faster than on complex values
    if not np.isfinite(values.view(np.float64)).all():
        raise SpecMismatch("grid values must be finite")
    return values


class Half(NamedTuple):
    """One half-line of a grid function: its node values, stored (an n-node
    array) or a source, a function of node coordinates that returns its
    values there, and its trace at the origin, psi(0-) on the left and
    psi(0+) on the right."""

    values: object
    limit: complex


def _check_half(spec: GridSpec, left: bool, values, limit) -> Half:
    """The half, stored values as ``_read_only`` gives them, after the
    checks a GridFunction makes of each of its halves: n finite values (a
    source's as they are read), a finite trace, and a value that vanishes
    at the truncation end, -T on the left half-line and T on the right."""
    n = spec.n_nodes
    if not callable(values):
        values = _read_only(values)
        if values.shape != (n,):
            raise SpecMismatch(
                f"value arrays must have shape ({n},), got {values.shape}")
        _finite(values)
    at = 0 if left else n - 1
    end = abs(_chunk(spec, left, at, at + 1).read(Half(values, limit))[0])
    if not math.isfinite(abs(limit)):
        raise SpecMismatch("boundary values must be finite")
    if end > DECAY_TOL:
        raise SpecMismatch(
            f"function must vanish at the truncation boundary: "
            f"|psi({'-T' if left else 'T'})| = {end:.2e}")
    return Half(values, complex(limit))


class GridFunction(ReadOnly):
    """Complex values on the two half-line grids plus exact boundary traces
    psi(0-) (``left_limit``) and psi(0+) (``right_limit``): the argument of
    the traced two-sided entry points.

    The value arrays are read-only views.  Equality is identity: compare the
    value arrays to compare two functions.
    """

    __slots__ = ("spec", "left", "right", "left_limit", "right_limit")

    def __init__(self, spec: GridSpec, left: np.ndarray, right: np.ndarray,
                 left_limit: complex, right_limit: complex):
        self.spec = spec
        self.left, self.left_limit = _check_half(spec, True, left, left_limit)
        self.right, self.right_limit = _check_half(spec, False, right,
                                                   right_limit)

    def half(self, left: bool) -> Half:
        """The left or the right half, as views."""
        return (Half(self.left, self.left_limit) if left
                else Half(self.right, self.right_limit))


def require_same_spec(f: GridFunction, g: GridFunction) -> None:
    if f.spec != g.spec:
        raise SpecMismatch(f"grid specs differ: {f.spec} vs {g.spec}")


def trace_at_origin(fn: Callable[..., np.ndarray]) -> complex:
    """A callable's value at 0, the boundary trace of its half-line."""
    return complex(fn(np.array([0.0]))[0])


def sample_half(spec: GridSpec, left: bool,
                fn: Callable[..., np.ndarray]) -> Half:
    """A callable on one half-line as a checked source: ``fn`` itself, read
    on the coordinates of the nodes asked for, and ``fn`` at 0 as the trace
    (continuity from that side)."""
    return _check_half(spec, left, fn, trace_at_origin(fn))


def _phi_minus(t: np.ndarray) -> np.ndarray:
    """phi_-(t) = i e^t, the defect vector of the left half-line."""
    z = np.exp(t).astype(complex)
    return np.multiply(1j, z, out=z)


def _phi_plus(t: np.ndarray) -> np.ndarray:
    """phi_+(t) = -i e^-t, the defect vector of the right half-line. Like
    phi_-, made complex before the product, which gives the bits of the
    real array times the scalar without numpy's cast buffer beside the
    result (0.2 two-sided arrays at 20k nodes, in decompose_sobolev)."""
    z = np.exp(np.negative(t)).astype(complex)
    return np.multiply(-1j, z, out=z)


def defect_half(spec: GridSpec, left: bool) -> Half:
    """The defect vector that lives on one half-line, checked: its closed
    form as a source, phi_- = i e^t on the left half-line and
    phi_+ = -i e^-t on the right one, and its trace, i or -i. Needs
    T >= 30 so the tail sits below the decay tolerance."""
    if spec.half_width < MIN_HALF_WIDTH:
        raise DomainTooSmall(
            f"half-width {spec.half_width} < {MIN_HALF_WIDTH}: exponential "
            f"tails would not vanish at the truncation boundary")
    return _check_half(spec, left, _phi_minus if left else _phi_plus,
                       1j if left else -1j)


def _derivative_trace(spec: GridSpec, left: bool, half: Half,
                      finite: bool = True) -> complex:
    """f'(0-) on the left half-line or f'(0+) on the right one, the
    one-sided three-point estimate on the stored trace, after checking that
    the half's grid derivative is finite (``finite`` says whether its node
    values are) and vanishes at -T or T. ``derivative`` and the pairings
    check through here, so they refuse the same functions."""
    h, n, limit = spec.spacing, spec.n_nodes, half.limit
    if left:
        v = _chunk(spec, left, n - 2, n).read(half)
        trace = complex((3.0 * limit - 4.0 * v[-1] + v[-2]) / (2.0 * h))
    else:
        v = _chunk(spec, left, 0, 2).read(half)
        trace = complex((-3.0 * limit + 4.0 * v[0] - v[1]) / (2.0 * h))
    if not (finite and math.isfinite(abs(trace))):
        raise SpecMismatch(
            f"grid derivative at spacing h = {h:g} is not finite")
    start = 0 if left else n - 1
    base = 0 if left else n - 3
    end_chunk = _chunk(spec, left, base, base + 3, start, start + 1)
    end = abs(end_chunk.slope(end_chunk.read(half))[0])
    if end > DECAY_TOL:
        raise SpecMismatch(
            f"grid derivative at spacing h = {h:g} must vanish at the "
            f"truncation boundary: |psi'({'-T' if left else 'T'})| = "
            f"{end:.2e}")
    return trace


def derivative(f: GridFunction) -> GridFunction:
    """Grid derivative; the boundary traces of the result are one-sided
    three-point estimates that use the stored traces of ``f``.

    Formed afresh on every call; the pairings form it chunk by chunk
    instead. Kept as a traced entry point of the benchmark
    (``perfbench/tracing.py``'s ``TARGETS``).
    """
    n, halves = f.spec.n_nodes, []
    for left in SIDES:
        # one chunk of all the nodes, its window stored, so no coordinates
        d = _Chunk(n, f.spec.spacing, 0, n, 0, n, None).slope(
            f.half(left).values)
        halves.append(Half(d, _derivative_trace(
            f.spec, left, f.half(left), np.isfinite(d.view(np.float64)).all())))
    (dl, tl), (dr, tr) = halves
    return GridFunction(f.spec, dl, dr, tl, tr)


# Nodes per chunk of the pairing passes (see "Chunks"). It stays below the
# 10000 elements up to which OpenBLAS computes zdot on one thread, so a
# pairing's bits do not depend on the number of BLAS threads.
NODE_CHUNK = 2048


class _Chunk(NamedTuple):
    """The nodes start:stop of an n-node half-line and the window lo:hi a
    half is read on: one neighbour on each side for the derivative
    stencils, and the three end nodes for a one-node last chunk. ``t``
    holds the window's node coordinates, on which every source is read."""

    n: int
    h: float
    lo: int
    hi: int
    start: int
    stop: int
    t: np.ndarray

    def read(self, half: Half) -> np.ndarray:
        """The half's values on the window: a view of stored values, or
        its source on ``t``, checked finite."""
        if isinstance(half.values, np.ndarray):
            return half.values[self.lo:self.hi]
        return _finite(np.ascontiguousarray(half.values(self.t),
                                            dtype=complex))

    def own(self, window: np.ndarray) -> np.ndarray:
        """A window's values on the chunk's nodes."""
        return window[self.start - self.lo:self.stop - self.lo]

    def slope(self, window: np.ndarray) -> np.ndarray:
        """The second-order grid derivative on the chunk's nodes, from a
        window: central differences in the interior, one-sided three-point
        stencils at the two boundary-adjacent nodes of the half-line. Every
        node is formed by the same operations whatever the chunk, so the
        chunks of a half-line make up its whole derivative bit for bit."""
        n, base, start, stop = self.n, self.lo, self.start, self.stop
        out, step = np.empty(stop - start, dtype=complex), 2.0 * self.h
        lo, hi = max(start, 1), min(stop, n - 1)
        if lo < hi:
            interior = out[lo - start:hi - start]
            np.subtract(window[lo + 1 - base:hi + 1 - base],
                        window[lo - 1 - base:hi - 1 - base], out=interior)
            # numpy divides a complex array by a real scalar as a
            # multiplication by its reciprocal; doing that on the real view
            # gives the same values without the slower complex loop.
            real = interior.view(np.float64)
            real *= 1.0 / step
        if start == 0:
            out[0] = (-3.0 * window[0] + 4.0 * window[1] - window[2]) / step
        if stop == n:
            out[-1] = (3.0 * window[-1] - 4.0 * window[-2] + window[-3]) / step
        return out

    def factor(self, half: Half) -> tuple:
        """The half's window and its derivative on the chunk's nodes."""
        window = self.read(half)
        return window, self.slope(window)


def _chunk(spec: GridSpec, left: bool, lo: int, hi: int, start: int = 0,
           stop: int = 0) -> _Chunk:
    """The ``_Chunk`` of the nodes start:stop on the window lo:hi of the
    left or the right half-line, its coordinates formed once."""
    return _Chunk(spec.n_nodes, spec.spacing, lo, hi, start, stop,
                  spec.nodes(left, lo, hi))


def _chunks(spec: GridSpec, left: bool):
    """The ``_Chunk`` of each run of ``NODE_CHUNK`` nodes of the left or
    the right half-line, in node order."""
    n = spec.n_nodes
    for start in range(0, n, NODE_CHUNK):
        stop = min(start + NODE_CHUNK, n)
        yield _chunk(spec, left, max(min(start - 1, n - 3), 0),
                     min(stop + 1, n), start, stop)


class _Trapezoids:
    """One half-line's trapezoid rules of ``pairs``, each (f, g, diff_f,
    diff_g): the rule for conj(f) g, or f' or g' where asked, closed at the
    origin by the traces, h (S - p(end) / 2 + p(0) / 2). S is the sum of
    ``np.vdot`` over the chunks, p(end) the product at -T or T and p(0)
    that of the traces.

    Each differentiated half is checked by ``_derivative_trace`` once, for
    all the pairings it is a factor of. A non-finite pairing is passed to
    ``_refuse`` when ``values`` is read, which forms its factors'
    derivatives again, chunk by chunk.
    """

    def __init__(self, spec: GridSpec, left: bool, pairs: list):
        self.spec, self.left, self.pairs = spec, left, pairs
        self.end = 0 if left else spec.n_nodes - 1
        traces = {}

        def trace(u: Half, diff: bool) -> complex:
            if not diff:
                return u.limit
            if id(u) not in traces:
                traces[id(u)] = _derivative_trace(spec, left, u)
            return traces[id(u)]
        self.boundaries = [np.conj(trace(f, diff_f)) * trace(g, diff_g)
                           for f, g, diff_f, diff_g in pairs]
        self.sums = [0j] * len(pairs)
        self.ends = [0j] * len(pairs)

    def add(self, k: int, chunk: _Chunk, f: np.ndarray,
            g: np.ndarray) -> None:
        """Pairing k's factors on the chunk's nodes."""
        self.sums[k] += np.vdot(f, g)
        if chunk.start <= self.end < chunk.stop:
            at = self.end - chunk.start
            self.ends[k] = np.conj(f[at]) * g[at]

    def add_sobolev(self, k: int, chunk: _Chunk, f: tuple, g: tuple) -> None:
        """Pairings k and k + 1 (``_sobolev_pairs``) of two ``factor``s."""
        self.add(k, chunk, chunk.own(f[0]), chunk.own(g[0]))
        self.add(k + 1, chunk, f[1], g[1])

    def values(self) -> list:
        h = self.spec.spacing
        values = [complex(h * (total - 0.5 * end + 0.5 * boundary))
                  for total, end, boundary in zip(self.sums, self.ends,
                                                  self.boundaries)]
        for pair, value in zip(self.pairs, values):
            if not cmath.isfinite(value):
                _refuse(self.spec, self.left, pair)
        return values


def _refuse(spec: GridSpec, left: bool, pair: tuple) -> None:
    """Refuse a non-finite derivative of a differentiated factor, formed
    chunk by chunk: each node as ``derivative`` forms it, so this refuses
    what ``derivative`` refuses."""
    f, g, diff_f, diff_g = pair
    for u, diff in ((f, diff_f), (g, diff_g)):
        for chunk in _chunks(spec, left) if diff else ():
            _derivative_trace(spec, left, u, np.isfinite(
                chunk.slope(chunk.read(u)).view(np.float64)).all())


def _sobolev_pairs(f: Half, g: Half) -> list:
    """The L2 and the derivative pairing of <f|g>_S."""
    return [(f, g, diff, diff) for diff in (False, True)]


def reproducing_half(spec: GridSpec, left: bool, phi: Half,
                     psis: list) -> list:
    """This half-line's terms (L2, D) of <phi|psi>_S for each psi in
    ``psis``, all in one pass that reads phi once, and a psi that is phi
    not again."""
    rule = _Trapezoids(spec, left, [pair for psi in psis
                                    for pair in _sobolev_pairs(phi, psi)])
    for chunk in _chunks(spec, left):
        u = chunk.factor(phi)
        for k, psi in enumerate(psis):
            rule.add_sobolev(2 * k, chunk, u, u if psi.values is phi.values
                             else chunk.factor(psi))
        del u
    values = rule.values()
    return list(zip(values[::2], values[1::2]))


def sample(spec: GridSpec, left_fn: Callable[..., np.ndarray],
           right_fn: Callable[..., np.ndarray]) -> tuple:
    """A function given by a callable on each half-line as its (left,
    right) pair of ``sample_half`` sources."""
    return sample_half(spec, True, left_fn), sample_half(spec, False, right_fn)


def sobolev_inner(f: GridFunction, g: GridFunction) -> complex:
    """Sobolev pairing int (conj(f) g + conj(f') g') of two stored functions,
    (L2_- + L2_+) + (D_- + D_+) from one ``reproducing_half`` pass per
    half-line, with no derivative formed whole. Kept as a traced entry point
    of the benchmark (``perfbench/tracing.py``'s ``TARGETS``)."""
    require_same_spec(f, g)
    (l2_l, d_l), (l2_r, d_r) = (
        reproducing_half(f.spec, left, f.half(left), [g.half(left)])[0]
        for left in SIDES)
    return (l2_l + l2_r) + (d_l + d_r)


def norm_from_inner(value: complex) -> float:
    """The norm whose squared value is the real part of ``value``, a
    function's pairing with itself (0 where rounding makes it negative)."""
    return math.sqrt(max(value.real, 0.0))


def zeta_value(plus: complex, minus: complex, sigma: float) -> complex:
    """<zeta_sigma|psi> from the traces psi(0+) = plus and psi(0-) = minus."""
    kp, km = kappas(sigma)
    return km * plus + kp * minus


def jump_splitting_defect(fp: complex, fm: complex, gp: complex, gm: complex,
                          sigma: float) -> float:
    """Residual of the jump splitting behind zeta_sigma, on the boundary
    values f(0+-) = fp, fm and g(0+-) = gp, gm:

        <f|J g> = conj(jump f) <zeta|g> + conj(<zeta|f>) jump g.

    Exact boundary arithmetic, so zero up to rounding; sigma = 0 is the
    symmetric-delta split.
    """
    rhs = (np.conj(fp - fm) * zeta_value(gp, gm, sigma)
           + np.conj(zeta_value(fp, fm, sigma)) * (gp - gm))
    return abs(jay_form(fp, fm, gp, gm) - rhs)


def jay_form(fp: complex, fm: complex, gp: complex, gm: complex) -> complex:
    """<f|J g> = conj(f(0+)) g(0+) - conj(f(0-)) g(0-), exact boundary
    arithmetic on the boundary values f(0+-) = fp, fm and g(0+-) = gp, gm."""
    return np.conj(fp) * gp - np.conj(fm) * gm


def _one_sided_jump(left: bool, limit: complex) -> complex:
    """jump psi = psi(0+) - psi(0-) of a function that lives on one
    half-line, with trace ``limit`` there and 0 on the other side."""
    return 0j - limit if left else limit - 0j


def symmetry_half(spec: GridSpec, left: bool, f: Half, g: Half) -> tuple:
    """One half-line's terms of the regular pairings <f|g'> and <g|f'>, in
    one pass, so neither g' nor f' is formed whole."""
    rule = _Trapezoids(spec, left, [(f, g, False, True), (g, f, False, True)])
    for chunk in _chunks(spec, left):
        (fw, df), (gw, dg) = chunk.factor(f), chunk.factor(g)
        rule.add(0, chunk, chunk.own(fw), dg)
        rule.add(1, chunk, chunk.own(gw), df)
        del fw, df, gw, dg
    return tuple(rule.values())


def eigenrelation_half(spec: GridSpec, left: bool, phi: Half,
                       sign: float) -> float:
    """The largest node value of |i phi' + sign i phi| on one half-line, or
    0 if that is larger (O(h^2)). The half's derivative is checked as
    ``derivative`` checks it.

    Reduced chunk by chunk, each node rounded as i times the grid
    derivative, plus (sign i) times phi.
    """
    _derivative_trace(spec, left, phi)
    worst = 0.0
    for chunk in _chunks(spec, left):
        window, d = chunk.factor(phi)
        np.multiply(1j, d, out=d)
        d += (sign * 1j) * chunk.own(window)
        worst = max(worst, float(np.abs(d).max()))
        del window, d
    return worst


class SobolevDecomposition(NamedTuple):
    """Triple (psi0, c_plus, c_minus) with psi0 vanishing at the origin and
    psi = psi0 + c_plus phi_+ + c_minus phi_-: the result of the traced
    ``decompose_sobolev``."""

    psi0: GridFunction
    c_plus: complex
    c_minus: complex


def defect_coefficients(left_limit: complex, right_limit: complex) -> tuple:
    """(c_plus, c_minus) = (i psi(0+), -i psi(0-)) from the traces."""
    return 1j * right_limit, -1j * left_limit


def _psi0_window(c: complex, phi: np.ndarray, f: np.ndarray) -> np.ndarray:
    """psi0 = f - c phi on some nodes, c phi formed and then subtracted
    from f."""
    cphi = np.multiply(c, phi)
    return np.subtract(f, cphi, out=cphi)


def _psi0_half(f: Half, c: complex, phi: Half) -> Half:
    """One half of psi0 = f - c phi, with phi the defect vector of that
    half-line and c its coefficient, unchecked: the source that forms
    ``_psi0_window`` from f's and phi's sources, and the trace that
    expression on the traces."""
    return Half(lambda t: _psi0_window(c, phi.values(t), f.values(t)),
                f.limit - c * phi.limit)


def decompose_sobolev(f: GridFunction) -> SobolevDecomposition:
    """Split off the defect-vector components: c_pm = +-i psi(0+-).

    psi0 = f - c_plus phi_+ - c_minus phi_-, each half ``_psi0_window`` of
    f's values and the half-line's ``defect_half`` on all its nodes. Kept
    as a traced entry point of the benchmark (``perfbench/tracing.py``'s
    ``TARGETS``).
    """
    c_plus, c_minus = defect_coefficients(f.left_limit, f.right_limit)
    values, limits = [], []
    for left, c in zip(SIDES, (c_minus, c_plus)):
        (half, limit), phi = f.half(left), defect_half(f.spec, left)
        values.append(_psi0_window(c, phi.values(f.spec.nodes(left)), half))
        limits.append(limit - c * phi.limit)
    return SobolevDecomposition(GridFunction(f.spec, *values, *limits),
                                c_plus, c_minus)


def decomposition_half(spec: GridSpec, left: bool, draws: list,
                       phi: Half) -> list:
    """One half-line of the decomposition psi0 = f - c phi for each source
    half f and coefficient c in ``draws``, phi the half-line's defect vector
    (``defect_half``), in one pass that reads phi once: this half's
    (reconstruction, psi0 trace, Sobolev terms of <psi0|psi0> and
    <phi|psi0>).

    psi0's half (``_psi0_half``) is checked, and formed on each chunk from
    f's and phi's windows, so psi0 is never held whole. The reconstruction
    residual, the largest node value of (psi0 + c phi) - f, is reduced from
    that psi0 against f's values, so a wrong psi0 shows in it. It forms
    c phi again: reusing the product psi0 was formed from would cancel a
    wrong product, so a wrong psi0 would pass.
    """
    psi0s = [_check_half(spec, left, *_psi0_half(f, c, phi))
             for f, c in draws]
    rule = _Trapezoids(spec, left, [pair for psi0 in psi0s for u in (psi0, phi)
                                    for pair in _sobolev_pairs(u, psi0)])
    worst = [0.0] * len(draws)
    for chunk in _chunks(spec, left):
        p = chunk.factor(phi)
        for k, (f, c) in enumerate(draws):
            fw = chunk.read(f)
            w = _finite(_psi0_window(c, p[0], fw))
            # c phi + psi0 rounds as psi0 + c phi: addition commutes exactly
            r = np.multiply(c, chunk.own(p[0]))
            r += chunk.own(w)
            r -= chunk.own(fw)
            worst[k] = max(worst[k], float(np.abs(r).max()))
            u = (w, chunk.slope(w))
            rule.add_sobolev(4 * k, chunk, u, u)
            rule.add_sobolev(4 * k + 2, chunk, p, u)
            del fw, w, r, u
        del p
    values = rule.values()
    return [(worst[k], psi0.limit, (tuple(values[4 * k:4 * k + 2]),
                                    tuple(values[4 * k + 2:4 * k + 4])))
            for k, psi0 in enumerate(psi0s)]


def decomposition_values(left: tuple, right: tuple) -> dict:
    """Residuals of the decomposition from both half-lines'
    ``decomposition_half`` results: "boundary_zero" is the larger
    |psi0(0+-)| (exactly zero), "orthogonality" the larger
    |<phi_pm|psi0>_S| / ||psi0||_S (O(h^2)), <phi_+|psi0>_S read from the
    right half-line and <phi_-|psi0>_S from the left, and "reconstruction"
    the largest node value of psi0 + c phi - f (rounding)."""
    (rec_l, trace_l, (self_l, minus)) = left
    (rec_r, trace_r, (self_r, plus)) = right
    scale = norm_from_inner((self_l[0] + self_r[0])
                            + (self_l[1] + self_r[1]))
    return {
        "boundary_zero": max(abs(trace_l), abs(trace_r)),
        "orthogonality": max(abs(sum(plus)) / scale,
                             abs(sum(minus)) / scale),
        "reconstruction": max(max(0.0, rec_l), rec_r),
    }


# Each defect vector's name in the records and the half-line it lives on:
# phi_+ on the right, phi_- on the left, each zero on the other, trace
# included, so a half-line pairs only its own.
DEFECT_SIDES = (("plus", False), ("minus", True))


def defect_vector_defects(spec: GridSpec) -> dict:
    """Residuals of the defect vectors, by check and then by vector:
    "jump_on_defect" is |jump(phi) + i| (exact) and "defect_norm"
    | ||phi||_S - 1 | (O(h^2)), from the half-line phi lives on."""
    phi = {left: defect_half(spec, left) for left in SIDES}
    return {
        "jump_on_defect": {
            name: abs(_one_sided_jump(left, phi[left].limit) - (-1j))
            for name, left in DEFECT_SIDES},
        "defect_norm": {
            name: abs(norm_from_inner(sum(reproducing_half(
                spec, left, phi[left], [phi[left]])[0])) - 1.0)
            for name, left in DEFECT_SIDES},
    }


def reproducing_defects(spec: GridSpec, psis: list) -> dict:
    """The reproducing residuals of each function in ``psis``, given as
    (left, right) halves, by vector, one entry per psi (O(h^2)): "plus" is
    |<i phi_+|psi>_S - psi(0+)|, from psi's right half, and "minus"
    |<-i phi_-|psi>_S - psi(0-)|, from its left half. One
    ``reproducing_half`` pass per half-line pairs its defect vector with
    every psi's half there.

    psi is paired with phi_pm itself and the product rotated,
    <i phi_+|psi>_S = -i <phi_+|psi>_S and <-i phi_-|psi>_S =
    i <phi_-|psi>_S, so no scaled copy of phi_pm, or derivative of one, is
    formed. A factor of +-i only swaps and negates components, so it
    commutes exactly with the stencils and the rule's scalar steps; that it
    commutes with ``np.vdot`` too is tested, bit for bit, not assumed."""
    defects = {}
    for name, left in DEFECT_SIDES:
        halves = [psi[SIDES.index(left)] for psi in psis]
        defects[name] = [
            abs((1j if left else -1j) * sum(terms) - psi.limit)
            for terms, psi in zip(reproducing_half(
                spec, left, defect_half(spec, left), halves), halves)]
    return defects


def decomposition_defects(spec: GridSpec, fs: list) -> dict:
    """The ``decomposition_values`` of each function f in ``fs``, given as
    (left, right) sources, by residual, one entry per f. c_pm come from f's
    traces (``defect_coefficients``); each half-line makes one
    ``decomposition_half`` pass of psi0 = f - c phi for every f, with its
    defect vector and that vector's coefficient."""
    coefficients = [defect_coefficients(f[0].limit, f[1].limit) for f in fs]
    # psi0 = f - c_minus phi_- on the left half-line, f - c_plus phi_+ on
    # the right
    passes = (decomposition_half(spec, left, [
        (f[SIDES.index(left)], c_minus if left else c_plus)
        for f, (c_plus, c_minus) in zip(fs, coefficients)],
        defect_half(spec, left)) for left in SIDES)
    defects = {}
    for halves in zip(*passes):
        for key, value in decomposition_values(*halves).items():
            defects.setdefault(key, []).append(value)
    return defects


def eigenrelation_defects(spec: GridSpec) -> dict:
    """Residuals of the eigenrelation iD phi = -sign i phi of each defect
    vector (sign +1 for phi_+, -1 for phi_-), by vector: "coefficient" is
    |i jump(phi) - 1|, the singular coefficient of iD phi against its value
    1 (exact), and "regular" the ``eigenrelation_half`` residual of the
    half-line phi lives on."""
    defects = {}
    for name, left in DEFECT_SIDES:
        phi = defect_half(spec, left)
        defects[name] = {
            "coefficient": abs(1j * _one_sided_jump(left, phi.limit) - 1.0),
            "regular": eigenrelation_half(spec, left, phi,
                                          -1.0 if left else 1.0)}
    return defects


def symmetry_defects(spec: GridSpec, f: tuple, g: tuple,
                     sigma: float) -> dict:
    """Residuals of the symmetry of iD = i d/dt + i |singular><jump| on
    (f, g), functions given as (left, right) halves, each O(h^2), from both
    half-lines' ``symmetry_half`` terms and the traces of f and g.

    "boundary_form_vs_traces" is |<f|i g'> - <i f'|g> + i <f|J g>|: the
    boundary form of the regular derivative alone equals -i <f|J g>.
    "id_symmetry_defect" is |<f|iD g> - <iD f|g>| with the symmetric delta as
    the singular functional, and "id_symmetry_defect_damped" the same with
    zeta_sigma. The regular pairings <f|i g'> = i <f|g'> and <g|i f'> are
    each joined once from the halves.
    """
    left, right = (symmetry_half(spec, side, u, v)
                   for side, u, v in zip(SIDES, f, g))
    (fm, fp), (gm, gp) = ((u[0].limit, u[1].limit) for u in (f, g))
    f_ig = 1j * (left[0] + right[0])
    g_if = 1j * (left[1] + right[1])

    def functional(plus, minus, sig):
        # zeta_sigma, or the symmetric delta when sig is None
        return (0.5 * (plus + minus) if sig is None
                else zeta_value(plus, minus, sig))

    def id_defect(sig):
        # <f|iD g> - conj(<g|iD f>), each the regular pairing plus the
        # singular coefficient i jump against the conjugated functional
        return abs((f_ig + 1j * (gp - gm) * np.conj(functional(fp, fm, sig)))
                   - np.conj(g_if + 1j * (fp - fm)
                             * np.conj(functional(gp, gm, sig))))

    return {"boundary_form_vs_traces": abs(f_ig - np.conj(g_if)
                                           + 1j * jay_form(fp, fm, gp, gm)),
            "id_symmetry_defect": id_defect(None),
            "id_symmetry_defect_damped": id_defect(sigma)}


def extension_domain_defect(e: float, sigma: float, psi_plus: complex) -> float:
    """|i jump psi + e <zeta_sigma|psi>| for the traces psi(0+) = psi_plus and
    psi(0-) = s_sigma(e) psi(0+): the singular part of the coupled generator
    vanishes on its extension domain, so this is zero up to rounding."""
    psi_minus = phases.boundary_phase(e, sigma).s_sigma * psi_plus
    return abs(1j * (psi_plus - psi_minus)
               + e * zeta_value(psi_plus, psi_minus, sigma))
