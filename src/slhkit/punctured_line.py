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

Half-lines

The two half-lines meet only through the traces, so every check is built
from one-half-line pieces (a ``Half``: node values and the trace at 0 on
that side). The per-half functions (``sobolev_half``, ``reproducing_half``,
``decomposition_half``, ``symmetry_half``, ``eigenrelation_half``) return
scalars, which ``sobolev_total`` and the ``..._values``/``..._residuals``
functions join in the order of the two-sided formula, (L2_- + L2_+) +
(D_- + D_+). The two-sided functions run them on a GridFunction's stored
halves; the CLI defect suite runs them on halves read from a source:
phi_pm in closed form (``defect_halves``) and each draw evaluated on the
nodes asked for (``sample_half``). Either way the values agree bit for bit.

Leaves

numpy's pairwise sum of n complex values is a fixed tree over index
ranges: it halves the 2n floats, rounds the split down to a multiple of 8
and recurses, and any subtree is exactly ``np.sum`` of its range. A
per-half function makes one pass (``_pass``) over the leaves of that tree,
its maximal subtrees of at most ``PANEL_CHUNK`` values (``_tree_sum``). On
a leaf it reads each half once on the leaf's nodes, padded by the two
neighbours the stencils and the origin panel need, forms each derivative
once, and forms each pairing's products and trapezoid panels, scaled by h
and then by 0.5 and summed by ``np.sum``. The leaf sums are joined in tree
order, so a pairing is ``np.sum`` of its whole panel array bit for bit.
Node maxima (reconstruction and eigenrelation residuals) are reduced on
the same leaves. A pass forms no n-node array.

Storage

* a GridFunction holds read-only views of its value arrays (the array a
  caller passes in stays writable; a strided one is copied once); each
  half is checked by ``_check_half``: finite values and trace, vanishing
  at -T or T. A source half is checked alike, its values as they are read;
* an identically zero half-line is ``zero_half(n)``, one read-only complex
  zero broadcast over the n nodes with stride 0, recognised by that
  structure whatever grid made it. Validation, scaling, addition, the
  derivative and the pairings skip its nodes, with results equal to the
  full computation; a zero array from a caller is an ordinary array;
* ``derivative`` and ``decompose_sobolev`` form their result whole, for
  the callers that want the function itself; the pairings keep no
  derivative, and ``decomposition_half`` forms psi0 leaf by leaf;
* ``defect_vectors`` keeps the two-sided pair for the most recent spec;
* GridSpec refuses a grid whose two-sided checks would need more than
  ``MAX_SOLVE_BYTES`` of live arrays (TooLarge), before anything is allocated.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (MAX_SOLVE_BYTES, DomainTooSmall, InvalidMollifier,
                     SpecMismatch, TooLarge)
from .linalg import kappas

DECAY_TOL = 1e-12
MIN_HALF_WIDTH = 30.0
# Most two-sided complex node arrays the two-sided library checks hold at
# once, the bound of the size guard: reproducing_defects over sampled pairs
# holds the cached defect pair, one pair of draws and one draw's node grid
# and temporaries (2.41 arrays at 20k nodes, tests/test_punctured_line.py).
# The CLI defect suite holds no node array: its tracemalloc peak is one
# leaf's buffers of at most PANEL_CHUNK values, whatever n
# (tools/defect_peaks.py). Kept at 3, so the guard admits the same grids.
DEFECT_LIVE_ARRAYS = 3
# The left half-line [-T, 0), then the right one (0, T]: the order of every
# loop over halves and of the sums that join them.
SIDES = (True, False)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-T, 0) and (0, T]; no node at the origin."""

    half_width: float
    spacing: float

    def __post_init__(self):
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


_ZERO = np.zeros(1, dtype=complex)


def zero_half(n: int) -> np.ndarray:
    """A zero half-line of ``n`` nodes: one complex zero broadcast read-only
    over the nodes with stride 0, so it holds no node array."""
    return np.broadcast_to(_ZERO, (n,))


def _is_zero_half(values) -> bool:
    """Whether ``values`` is a zero half as ``zero_half`` makes it, one
    read-only complex zero with stride 0, for whatever node count."""
    return (isinstance(values, np.ndarray) and values.strides == (0,)
            and values.dtype == complex and not values.flags.writeable
            and not values[:1].view(np.int64).any())


def _read_only(values) -> np.ndarray:
    """A zero half itself, else a read-only contiguous complex view; the
    array passed in keeps its own flags."""
    if _is_zero_half(values):
        return values
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
    array) or a source ``read(lo, hi)`` of the values on nodes lo:hi, and
    its trace at the origin, psi(0-) on the left and psi(0+) on the right."""

    values: object
    limit: complex


def _read(values, lo: int, hi: int) -> np.ndarray:
    """Nodes lo:hi of a half's values: a view of stored values, or what its
    source returns, checked finite."""
    if isinstance(values, np.ndarray):
        return values[lo:hi]
    return _finite(values(lo, hi))


class Traces(NamedTuple):
    """The boundary traces of a function, all the singular functionals
    read."""

    left_limit: complex   # psi(0-)
    right_limit: complex  # psi(0+)

    @property
    def jump(self) -> complex:
        return self.right_limit - self.left_limit

    @property
    def delta_star(self) -> complex:
        return 0.5 * (self.right_limit + self.left_limit)


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
        if not _is_zero_half(values):
            _finite(values)
    end = abs(_read(values, *((0, 1) if left else (n - 1, n)))[0])
    if not math.isfinite(abs(limit)):
        raise SpecMismatch("boundary values must be finite")
    if end > DECAY_TOL:
        raise SpecMismatch(
            f"function must vanish at the truncation boundary: "
            f"|psi({'-T' if left else 'T'})| = {end:.2e}")
    return Half(values, complex(limit))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex values on the two half-line grids plus exact boundary traces.

    The value arrays are read-only views.  Equality is identity: compare the
    value arrays to compare two functions.
    """

    spec: GridSpec
    left: np.ndarray
    right: np.ndarray
    left_limit: complex   # psi(0-)
    right_limit: complex  # psi(0+)

    def __post_init__(self):
        left = _check_half(self.spec, True, self.left, self.left_limit)
        right = _check_half(self.spec, False, self.right, self.right_limit)
        object.__setattr__(self, "left", left.values)
        object.__setattr__(self, "right", right.values)
        object.__setattr__(self, "left_limit", left.limit)
        object.__setattr__(self, "right_limit", right.limit)

    def half(self, left: bool) -> Half:
        """The left or the right half, as views."""
        return (Half(self.left, self.left_limit) if left
                else Half(self.right, self.right_limit))

    @property
    def traces(self) -> Traces:
        return Traces(self.left_limit, self.right_limit)

    @property
    def jump(self) -> complex:
        return self.traces.jump

    @property
    def delta_star(self) -> complex:
        return self.traces.delta_star

    def __add__(self, other: "GridFunction") -> "GridFunction":
        require_same_spec(self, other)
        return GridFunction(self.spec, _add_halves(self.left, other.left),
                            _add_halves(self.right, other.right),
                            self.left_limit + other.left_limit,
                            self.right_limit + other.right_limit)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        require_same_spec(self, other)
        return GridFunction(self.spec, _sub_halves(self.left, other.left),
                            _sub_halves(self.right, other.right),
                            self.left_limit - other.left_limit,
                            self.right_limit - other.right_limit)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.spec, _scale_half(scalar, self.left),
                            _scale_half(scalar, self.right),
                            scalar * self.left_limit, scalar * self.right_limit)

    __rmul__ = __mul__


def _add_halves(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if _is_zero_half(a):
        return b
    if _is_zero_half(b):
        return a
    return a + b


def _sub_halves(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if _is_zero_half(b):
        return a
    if _is_zero_half(a):
        return -b
    return a - b


def _scale_half(scalar: complex, values: np.ndarray) -> np.ndarray:
    return values if _is_zero_half(values) else scalar * values


def require_same_spec(f: GridFunction, g: GridFunction) -> None:
    if f.spec != g.spec:
        raise SpecMismatch(f"grid specs differ: {f.spec} vs {g.spec}")


def trace_at_origin(fn: Callable[..., np.ndarray]) -> complex:
    """A callable's value at 0, the boundary trace of its half-line."""
    return complex(fn(np.array([0.0]))[0])


def sample_half(spec: GridSpec, left: bool,
                fn: Optional[Callable[..., np.ndarray]]) -> Half:
    """One half of ``sample(spec, ...)`` as a checked source: ``fn`` on the
    nodes lo:hi asked for, and ``fn`` at 0 as the trace; a zero half when
    ``fn`` is None."""
    if fn is None:
        return Half(zero_half(spec.n_nodes), 0j)
    return _check_half(spec, left, lambda lo, hi: np.ascontiguousarray(
        fn(spec.nodes(left, lo, hi)), dtype=complex), trace_at_origin(fn))


def sample(spec: GridSpec,
           left: Optional[Callable[..., np.ndarray]] = None,
           right: Optional[Callable[..., np.ndarray]] = None) -> GridFunction:
    """Evaluate callables on the half-line grids.

    A missing half is identically zero; each boundary trace is the callable's
    value at 0 (continuity from that side).
    """
    (lv, ll), (rv, rl) = ((zero_half(spec.n_nodes), 0j) if fn is None
                          else (fn(spec.nodes(side)), trace_at_origin(fn))
                          for side, fn in zip(SIDES, (left, right)))
    return GridFunction(spec, lv, rv, ll, rl)


def defect_halves(spec: GridSpec, left: bool) -> tuple:
    """(phi_+, phi_-) on one half-line, checked: phi_- = i e^t on the left
    half-line and phi_+ = -i e^-t on the right one, read in closed form on
    the nodes asked for; the other is the shared zero half. Needs T >= 30
    so the tails sit below the decay tolerance."""
    if spec.half_width < MIN_HALF_WIDTH:
        raise DomainTooSmall(
            f"half-width {spec.half_width} < {MIN_HALF_WIDTH}: exponential "
            f"tails would not vanish at the truncation boundary")

    def phi(lo, hi):
        x = spec.nodes(left, lo, hi)
        np.exp(x if left else np.negative(x, out=x), out=x)
        return np.multiply(1j if left else -1j, x)
    own = _check_half(spec, left, phi, 1j if left else -1j)
    zero = Half(zero_half(spec.n_nodes), 0j)
    return (zero, own) if left else (own, zero)


@functools.lru_cache(maxsize=1)
def defect_vectors(spec: GridSpec):
    """The normalized defect pair (phi_+, phi_-) as two-sided functions,
    from ``defect_halves`` read whole."""
    n = spec.n_nodes
    zero, minus = defect_halves(spec, True)
    plus, _ = defect_halves(spec, False)
    return (GridFunction(spec, zero.values, _read(plus.values, 0, n),
                         zero.limit, plus.limit),
            GridFunction(spec, _read(minus.values, 0, n), zero.values,
                         minus.limit, zero.limit))


def _derivative_chunk(values: np.ndarray, base: int, n: int, h: float,
                      start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """Second-order derivative of an n-node half-line grid on the nodes
    ``start:stop``, from ``values``, its nodes ``base:base + len(values)``,
    written into ``out`` (``stop - start`` nodes) and returned.

    Central differences in the interior, one-sided three-point stencils at the
    two boundary-adjacent nodes of the half-line. Every node is formed by the
    same operations whatever the window, so the windows of a half-line make
    up its whole derivative bit for bit.
    """
    lo, hi = max(start, 1), min(stop, n - 1)
    if lo < hi:
        interior = out[lo - start:hi - start]
        np.subtract(values[lo + 1 - base:hi + 1 - base],
                    values[lo - 1 - base:hi - 1 - base], out=interior)
        # numpy divides a complex array by a real scalar as a multiplication
        # by its reciprocal; doing that on the real view gives the same values
        # without the slower complex loop.
        real = interior.view(np.float64)
        real *= 1.0 / (2.0 * h)
    if start == 0:
        out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    if stop == n:
        out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def _derivative_trace(spec: GridSpec, left: bool, half: Half,
                      finite: bool = True) -> complex:
    """f'(0-) on the left half-line or f'(0+) on the right one, the
    one-sided three-point estimate on the stored trace, after checking that
    the half's grid derivative is finite (``finite`` says whether its node
    values are) and vanishes at -T or T. ``derivative`` and the pairings
    check through here, so they refuse the same functions."""
    h, n = spec.spacing, spec.n_nodes
    values, limit = half
    if left:
        v = _read(values, n - 2, n)
        trace = complex((3.0 * limit - 4.0 * v[-1] + v[-2]) / (2.0 * h))
    else:
        v = _read(values, 0, 2)
        trace = complex((-3.0 * limit + 4.0 * v[0] - v[1]) / (2.0 * h))
    if not (finite and math.isfinite(abs(trace))):
        raise SpecMismatch(
            f"grid derivative at spacing h = {h:g} is not finite")
    start = 0 if left else n - 1
    base = 0 if left else n - 3
    end = abs(_derivative_chunk(_read(values, base, base + 3), base, n, h,
                                start, start + 1,
                                np.empty(1, dtype=complex))[0])
    if end > DECAY_TOL:
        raise SpecMismatch(
            f"grid derivative at spacing h = {h:g} must vanish at the "
            f"truncation boundary: |psi'({'-T' if left else 'T'})| = "
            f"{end:.2e}")
    return trace


def _derivative_half(spec: GridSpec, left: bool, half: Half) -> Half:
    """The half's grid derivative, formed whole, with its trace, checked by
    ``_derivative_trace``; a zero half is its own derivative."""
    n = spec.n_nodes
    if _is_zero_half(half.values):
        return Half(half.values, _derivative_trace(spec, left, half))
    d = _derivative_chunk(_read(half.values, 0, n), 0, n, spec.spacing, 0,
                          n, np.empty(n, dtype=complex))
    return Half(d, _derivative_trace(spec, left, half,
                                     np.isfinite(d.view(np.float64)).all()))


def derivative(f: GridFunction) -> GridFunction:
    """Grid derivative; the boundary traces of the result are one-sided
    three-point estimates that use the stored traces of ``f``.

    Formed afresh on every call; the pairings form it leaf by leaf
    instead. A zero half is its own derivative.
    """
    dl, dr = (_derivative_half(f.spec, left, f.half(left)) for left in SIDES)
    return GridFunction(f.spec, dl.values, dr.values, dl.limit, dr.limit)


# Most values in a leaf of the pairing passes (see "Leaves"), 8192 floats,
# and the nodes per chunk of a bump's evaluation.
PANEL_CHUNK = 4096


def node_chunks(n: int):
    """(start, stop) of each run of ``PANEL_CHUNK`` nodes of a half-line."""
    return ((start, min(start + PANEL_CHUNK, n))
            for start in range(0, n, PANEL_CHUNK))


def _tree_sum(n: int, leaf: Callable, start: int = 0) -> list:
    """``leaf(a, b)``, a list of sums over the panels a:b, on each leaf of
    numpy's pairwise-sum tree over the n complex values start:start + n,
    joined as that tree joins its subtrees: one of more than PANEL_CHUNK
    values splits its 2n floats after n rounded down to a multiple of 8."""
    if n <= PANEL_CHUNK:
        return leaf(start, start + n)
    split = (n - n % 8) // 2
    return [x + y for x, y in zip(_tree_sum(split, leaf, start),
                                  _tree_sum(n - split, leaf, start + split))]


def _panel_nodes(a: int, b: int, n: int, left: bool) -> tuple:
    """The nodes (start, stop) that the trapezoid panels a:b of an n-node
    half-line read: panel k adds nodes k and k + 1 on [-T, 0) and k - 1 and
    k on (0, T]; the trace closes the panel at the origin, n - 1 on the
    left and 0 on the right."""
    return (a, min(b + 1, n)) if left else (max(a - 1, 0), b)


def _panel_sum(p: np.ndarray, a: int, b: int, n: int, boundary: complex,
               h: float, left: bool) -> complex:
    """``np.sum`` of the trapezoid panels a:b, each scaled by h and then by
    0.5, from ``p``, the products on their nodes, and ``boundary``."""
    panels = np.empty(b - a, dtype=complex)
    inner = p.size - 1
    if left:
        np.add(p[1:], p[:-1], out=panels[:inner])
        if b == n:
            panels[-1] = boundary + p[-1]
    else:
        np.add(p[1:], p[:-1], out=panels[b - a - inner:])
        if a == 0:
            panels[0] = p[0] + boundary
    real = panels.view(np.float64)
    real *= h
    real *= 0.5
    return np.add.reduce(panels)


class _Leaf:
    """The panels a:b of a pass: each half read once on the nodes lo:hi,
    the panels' nodes start:stop padded by two, and each derivative formed
    once on start:stop."""

    def __init__(self, spec: GridSpec, left: bool, a: int, b: int):
        self.n, self.h, self.left, self.a, self.b = (
            spec.n_nodes, spec.spacing, left, a, b)
        self.lo, self.hi = max(a - 2, 0), min(b + 2, self.n)
        self.start, self.stop = _panel_nodes(a, b, self.n, left)
        self.cache = {}

    def window(self, half: Half) -> np.ndarray:
        """The half's values on the nodes lo:hi."""
        key = (id(half.values), False)
        if key not in self.cache:
            self.cache[key] = _read(half.values, self.lo, self.hi)
        return self.cache[key]

    def factor(self, half: Half, diff: bool = False) -> np.ndarray:
        """The half's values, or its derivative, on the panels' nodes."""
        if not diff:
            return self.window(half)[self.start - self.lo:
                                     self.stop - self.lo]
        key = (id(half.values), True)
        if key not in self.cache:
            self.cache[key] = _derivative_chunk(
                self.window(half), self.lo, self.n, self.h, self.start,
                self.stop, np.empty(self.stop - self.start, dtype=complex))
        return self.cache[key]

    def own(self, half: Half, diff: bool = False) -> np.ndarray:
        """The half's values, or its derivative, on the nodes a:b."""
        return self.factor(half, diff)[self.a - self.start:
                                       self.b - self.start]

    def pair(self, f: Half, g: Half, diff_f: bool, diff_g: bool,
             boundary: complex) -> complex:
        p = np.conj(self.factor(f, diff_f))
        p *= self.factor(g, diff_g)
        return _panel_sum(p, self.a, self.b, self.n, boundary, self.h,
                          self.left)


def _pass(spec: GridSpec, left: bool, jobs: list) -> list:
    """One pass over the leaves of a half-line for ``jobs``, each a list of
    pairings and an ``each(leaf)`` (or None) run on every leaf before them:
    the values of each job's pairings. A pairing (f, g, diff_f, diff_g) is
    the trapezoid of conj(f) g, or of f' or g' where asked, closed by the
    traces. On a leaf the jobs run in turn, each dropping the windows no
    other job reads.

    Each differentiated factor is checked by ``_derivative_trace`` first,
    pairing by pairing. A pairing with a zero half has only its origin
    panel nonzero, so it is not formed; that panel is scaled in the same
    order. A non-finite derivative value makes its formed pairing
    non-finite, so only then is the derivative formed whole, for
    ``_derivative_half`` to refuse it, in the order of the pairings and
    before a failing trace check of a later pairing.
    """
    h = spec.spacing
    pairs = [pair for job, _ in jobs for pair in job]
    formed = [not (_is_zero_half(f.values) or _is_zero_half(g.values))
              for f, g, _, _ in pairs]
    values = []     # a formed pairing's traces, the value of any other
    for (f, g, diff_f, diff_g), form in zip(pairs, formed):
        try:
            fb = _derivative_trace(spec, left, f) if diff_f else f.limit
            gb = _derivative_trace(spec, left, g) if diff_g else g.limit
        except SpecMismatch:
            for earlier, was_formed, value in zip(pairs, formed, values):
                if was_formed or not cmath.isfinite(value):
                    _refuse(spec, left, earlier)
            raise
        boundary = np.conj(fb) * gb
        values.append(boundary if form else complex(
            (boundary.real * h) * 0.5, (boundary.imag * h) * 0.5))
    readers = collections.Counter(key for job, _ in jobs for key in {
        id(u.values) for pair in job for u in pair[:2]})

    def leaf(a, b):
        window, sums, k = _Leaf(spec, left, a, b), [], 0
        for job, each in jobs:
            if each is not None:
                each(window)
            sums += [window.pair(*pair, values[i])
                     for i, pair in enumerate(job, k) if formed[i]]
            k += len(job)
            window.cache = {key: v for key, v in window.cache.items()
                            if readers[key[0]] > 1}
        return sums
    sums = iter(_tree_sum(spec.n_nodes, leaf)
                if any(formed) or any(each for _, each in jobs) else ())
    values = [complex(next(sums)) if form else value
              for value, form in zip(values, formed)]
    for pair, value in zip(pairs, values):
        if not cmath.isfinite(value):
            _refuse(spec, left, pair)
    values = iter(values)
    return [[next(values) for _ in job] for job, _ in jobs]


def _refuse(spec: GridSpec, left: bool, pair: tuple) -> None:
    """Refuse a non-finite derivative of a differentiated factor."""
    f, g, diff_f, diff_g = pair
    for u, diff in ((f, diff_f), (g, diff_g)):
        if diff:
            _derivative_half(spec, left, u)


def l2_inner(f: GridFunction, g: GridFunction) -> complex:
    """L2 pairing int conj(f) g over both half-lines (trapezoid, O(h^2))."""
    return _pairing(f, g, False, False)


def _pairing(f: GridFunction, g: GridFunction, diff_f: bool,
             diff_g: bool) -> complex:
    """The one-pairing ``_pass`` on the left half-line plus the right."""
    require_same_spec(f, g)
    left, right = (_pass(f.spec, side, [([(f.half(side), g.half(side),
                                           diff_f, diff_g)], None)])[0][0]
                   for side in SIDES)
    return left + right


def _sobolev_job(pairs: list, each: Optional[Callable] = None) -> tuple:
    """A ``_pass`` job of the L2 and derivative pairing of each (f, g) in
    ``pairs``, whose values ``_terms`` reads as ``sobolev_half`` terms."""
    return [(f, g, d, d) for f, g in pairs for d in (False, True)], each


def _terms(values: list) -> tuple:
    return tuple(zip(values[::2], values[1::2]))


def sobolev_half(spec: GridSpec, left: bool, f: Half, g: Half) -> tuple:
    """One half-line's terms (L2, D) of the Sobolev pairing <f|g>_S: the L2
    pairing and the derivative pairing."""
    return _terms(_pass(spec, left, [_sobolev_job([(f, g)])])[0])[0]


def sobolev_total(left: tuple, right: tuple) -> complex:
    """<f|g>_S from the ``sobolev_half`` terms of both half-lines,
    (L2_- + L2_+) + (D_- + D_+)."""
    return (left[0] + right[0]) + (left[1] + right[1])


def sobolev_inner(f: GridFunction, g: GridFunction) -> complex:
    """Sobolev pairing int (conj(f) g + conj(f') g'), formed leaf by leaf
    with no derivative formed whole."""
    require_same_spec(f, g)
    return sobolev_total(*(sobolev_half(f.spec, left, f.half(left),
                                        g.half(left))
                           for left in SIDES))


def norm_from_inner(value: complex) -> float:
    """The norm whose squared value is the real part of ``value``, a
    function's pairing with itself (0 where rounding makes it negative)."""
    return math.sqrt(max(value.real, 0.0))


def sobolev_norm(f: GridFunction) -> float:
    return norm_from_inner(sobolev_inner(f, f))


def zeta_value(plus: complex, minus: complex, sigma: float) -> complex:
    """<zeta_sigma|psi> from the traces psi(0+) = plus and psi(0-) = minus."""
    kp, km = kappas(sigma)
    return km * plus + kp * minus


def zeta_eval(f, sigma: Optional[float]) -> complex:
    """<zeta_sigma|f> of a GridFunction or ``Traces``; the symmetric delta
    when sigma is None."""
    if sigma is None:
        return f.delta_star
    return zeta_value(f.right_limit, f.left_limit, float(sigma))


def jump_splitting_defect(fp: complex, fm: complex, gp: complex, gm: complex,
                          sigma: float) -> float:
    """Residual of the jump splitting behind zeta_sigma, on the boundary
    values f(0+-) = fp, fm and g(0+-) = gp, gm:

        <f|J g> = conj(jump f) <zeta|g> + conj(<zeta|f>) jump g.

    Exact boundary arithmetic, so zero up to rounding; sigma = 0 is the
    symmetric-delta split.
    """
    lhs = np.conj(fp) * gp - np.conj(fm) * gm
    rhs = (np.conj(fp - fm) * zeta_value(gp, gm, sigma)
           + np.conj(zeta_value(fp, fm, sigma)) * (gp - gm))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class SingularSum:
    """Regular grid function plus a coefficient on the singular functional,
    delta_star or zeta_sigma: the pairing that reads it names the one."""

    regular: GridFunction
    coefficient: complex


def apply_iD(f: GridFunction) -> SingularSum:
    """Distributional derivative i*d/dt + i |singular><jump|.

    The regular part is i times the finite-difference derivative; the singular
    coefficient i * jump(f) is exact boundary arithmetic.
    """
    reg = 1j * derivative(f)
    return SingularSum(regular=reg, coefficient=1j * f.jump)


def jay_form(f, g) -> complex:
    """<f|J g> = conj(f(0+)) g(0+) - conj(f(0-)) g(0-), exact boundary
    arithmetic on the traces of GridFunctions or ``Traces``."""
    return (np.conj(f.right_limit) * g.right_limit
            - np.conj(f.left_limit) * g.left_limit)




def symmetry_half(spec: GridSpec, left: bool, f: Half, g: Half) -> tuple:
    """One half-line's terms of the regular pairings <f|g'> and <g|f'>, in
    one pass, so neither g' nor f' is formed whole."""
    return tuple(_pass(spec, left, [([(f, g, False, True),
                                      (g, f, False, True)], None)])[0])


def symmetry_values(left: tuple, right: tuple, f, g, sigma: float) -> dict:
    """The residuals of ``symmetry_defects`` from both half-lines'
    ``symmetry_half`` terms and the traces of f and g (GridFunctions or
    ``Traces``)."""
    f_ig = 1j * (left[0] + right[0])
    g_if = 1j * (left[1] + right[1])

    def id_defect(sig):
        # <f|iD g> - conj(<g|iD f>), each the regular pairing plus the
        # singular coefficient i jump against the conjugated functional
        return abs((f_ig + 1j * g.jump * np.conj(zeta_eval(f, sig)))
                   - np.conj(g_if + 1j * f.jump * np.conj(zeta_eval(g, sig))))

    return {"boundary_form_vs_traces": abs(f_ig - np.conj(g_if)
                                           + 1j * jay_form(f, g)),
            "id_symmetry_defect": id_defect(None),
            "id_symmetry_defect_damped": id_defect(sigma)}


def symmetry_defects(f: GridFunction, g: GridFunction, sigma: float) -> dict:
    """Residuals of the symmetry of iD on (f, g), each O(h^2).

    "boundary_form_vs_traces" is |<f|i g'> - <i f'|g> + i <f|J g>|: the
    boundary form of the regular derivative alone equals -i <f|J g>.
    "id_symmetry_defect" is |<f|iD g> - <iD f|g>| with the symmetric delta as
    the singular functional, and "id_symmetry_defect_damped" the same with
    zeta_sigma. The regular pairings <f|i g'> = i <f|g'> and <g|i f'> are
    computed once each, with the derivative formed leaf by leaf, so neither
    g' nor i g' is formed whole.
    """
    require_same_spec(f, g)
    return symmetry_values(*(symmetry_half(f.spec, left, f.half(left),
                                           g.half(left))
                             for left in SIDES), f, g, sigma)


def eigenrelation_half(spec: GridSpec, left: bool, phi: Half,
                       sign: float) -> float:
    """The largest node value of |i phi' + sign i phi| on one half-line, or
    0 if that is larger (O(h^2)); 0 on a zero half. The half's derivative
    is checked as ``derivative`` checks it.

    Reduced leaf by leaf, each node rounded as in
    ``apply_iD(phi).regular + (sign i) phi``.
    """
    _derivative_trace(spec, left, phi)
    if _is_zero_half(phi.values):
        return 0.0
    maxima = []

    def residual(leaf):
        d = np.multiply(1j, leaf.own(phi, True))
        d += (sign * 1j) * leaf.own(phi)
        maxima.append(np.abs(d).max())
    _pass(spec, left, [([], residual)])
    return max(0.0, float(np.max(maxima)))


def eigenrelation_values(traces, left: float, right: float) -> dict:
    """"coefficient" is |i jump(phi) - 1|, the singular coefficient of
    ``apply_iD`` against its value 1 (exact), from phi's ``traces``, and
    "regular" the larger ``eigenrelation_half`` residual of the halves."""
    return {"coefficient": abs(1j * traces.jump - 1.0),
            "regular": max(left, right)}


def eigenrelation_defects(phi: GridFunction, sign: float) -> dict:
    """Residuals of the eigenrelation iD phi = -sign i phi of a defect
    vector (sign +1 for phi_+, -1 for phi_-): ``eigenrelation_values`` of
    ``eigenrelation_half`` on both halves."""
    return eigenrelation_values(phi.traces, *(
        eigenrelation_half(phi.spec, left, phi.half(left), sign)
        for left in SIDES))


@dataclass(frozen=True)
class SobolevDecomposition:
    """Triple (psi0, c_plus, c_minus) with psi0 vanishing at the origin and
    psi = psi0 + c_plus phi_+ + c_minus phi_-."""

    psi0: GridFunction
    c_plus: complex
    c_minus: complex


def defect_coefficients(left_limit: complex, right_limit: complex) -> tuple:
    """(c_plus, c_minus) = (i psi(0+), -i psi(0-)) from the traces."""
    return 1j * right_limit, -1j * left_limit


def _psi0_window(c: complex, phi: np.ndarray, f: np.ndarray,
                 f_is_zero: bool) -> np.ndarray:
    """psi0 = f - c phi on some nodes, c phi formed and then subtracted
    from f; a zero half of f is negated, as GridFunction subtraction
    does."""
    cphi = np.multiply(c, phi)
    if f_is_zero:
        return np.negative(cphi, out=cphi)
    return np.subtract(f, cphi, out=cphi)


def _psi0_half(spec: GridSpec, left: bool, f: Half, c_plus: complex,
               c_minus: complex, phi_plus: Half, phi_minus: Half) -> Half:
    """One half of psi0 = f - c_plus phi_+ - c_minus phi_-, unchecked, as a
    source, rounded as that GridFunction expression rounds it: phi_- lives
    on the left half-line and phi_+ on the right, so the half is c phi
    subtracted from f's half (``_psi0_window``)."""
    c, phi = (c_minus, phi_minus) if left else (c_plus, phi_plus)
    zero = _is_zero_half(f.values)
    return Half(lambda lo, hi: _psi0_window(c, _read(phi.values, lo, hi),
                                            _read(f.values, lo, hi), zero),
                (f.limit - c_plus * phi_plus.limit)
                - c_minus * phi_minus.limit)


def decompose_sobolev(f: GridFunction) -> SobolevDecomposition:
    """Split off the defect-vector components: c_pm = +-i psi(0+-).

    psi0 = f - c_plus phi_+ - c_minus phi_-, each half ``_psi0_half`` read
    whole.
    """
    phi_plus, phi_minus = defect_vectors(f.spec)
    n = f.spec.n_nodes
    c_plus, c_minus = defect_coefficients(f.left_limit, f.right_limit)
    left, right = (_psi0_half(f.spec, side, f.half(side), c_plus, c_minus,
                              phi_plus.half(side), phi_minus.half(side))
                   for side in SIDES)
    psi0 = GridFunction(f.spec, _read(left.values, 0, n),
                        _read(right.values, 0, n), left.limit, right.limit)
    return SobolevDecomposition(psi0=psi0, c_plus=c_plus, c_minus=c_minus)


def reproducing_half(spec: GridSpec, left: bool, phi_plus: Half,
                     phi_minus: Half, pairs: list) -> list:
    """One half-line's ``sobolev_half`` terms of <phi_+|psi_r>_S and
    <phi_-|psi_l>_S for each (psi_r, psi_l) in ``pairs``, all in one pass
    that reads phi_pm once."""
    return [_terms(values) for values in _pass(spec, left, [
        _sobolev_job([(phi_plus, psi_r), (phi_minus, psi_l)])
        for psi_r, psi_l in pairs])]


def reproducing_residuals(left: tuple, right: tuple, psi_r_trace: complex,
                          psi_l_trace: complex) -> tuple:
    """|<i phi_+|psi_r>_S - psi_r(0+)| and |<-i phi_-|psi_l>_S - psi_l(0-)|
    from both half-lines' ``reproducing_half`` terms. Each psi is paired
    with phi_pm itself and the product rotated, <i phi_+|psi>_S =
    -i <phi_+|psi>_S and <-i phi_-|psi>_S = i <phi_-|psi>_S: a factor of
    +-i only swaps and negates components, so the rotation commutes with
    every rounding of the pairing and no scaled copy of phi_pm, or
    derivative of one, is formed."""
    return (abs(-1j * sobolev_total(left[0], right[0]) - psi_r_trace),
            abs(1j * sobolev_total(left[1], right[1]) - psi_l_trace))


def reproducing_defects(spec: GridSpec, pairs) -> tuple:
    """Largest ``reproducing_residuals`` over (psi_r, psi_l) pairs, each
    O(h^2). The pairs are read one at a time and each is released before
    the next is read, so a generator that draws them holds one pair at
    once."""
    phi_plus, phi_minus = defect_vectors(spec)
    worst_plus = worst_minus = 0.0
    for psi_r, psi_l in pairs:
        require_same_spec(phi_plus, psi_r)
        require_same_spec(phi_plus, psi_l)
        plus, minus = reproducing_residuals(
            *(reproducing_half(spec, left, phi_plus.half(left),
                               phi_minus.half(left),
                               [(psi_r.half(left), psi_l.half(left))])[0]
              for left in SIDES),
            psi_r.right_limit, psi_l.left_limit)
        worst_plus = max(worst_plus, plus)
        worst_minus = max(worst_minus, minus)
        del psi_r, psi_l
    return worst_plus, worst_minus


def decomposition_half(spec: GridSpec, left: bool, draws: list,
                       phi_plus: Half, phi_minus: Half) -> list:
    """One half-line of ``decomposition_defects`` for each (f, c_plus,
    c_minus) in ``draws``, all in one pass that reads phi_pm once: this
    half's (reconstruction, psi0 trace, Sobolev terms of <psi0|psi0>,
    <phi_+|psi0> and <phi_-|psi0>).

    psi0's half (``_psi0_half``) is checked, and formed on each leaf from
    f's and phi's values into a window of its own. The reconstruction
    residual, the largest node value of (psi0 + c phi) - f, is reduced from
    that psi0 against f's values; with psi0 formed right it rounds as the
    GridFunction expression, and a wrong psi0 shows in it.
    """
    jobs, found = [], []
    for f, c_plus, c_minus in draws:
        psi0 = _check_half(spec, left, *_psi0_half(
            spec, left, f, c_plus, c_minus, phi_plus, phi_minus))
        c, phi = (c_minus, phi_minus) if left else (c_plus, phi_plus)
        maxima = []
        jobs.append(_sobolev_job([(u, psi0) for u in (psi0, phi_plus,
                                                      phi_minus)],
                                 functools.partial(_psi0_leaf, f, c, phi,
                                                   psi0, maxima)))
        found.append((maxima, psi0.limit))
    return [(float(np.max(maxima)), limit, _terms(values))
            for (maxima, limit), values in zip(found, _pass(spec, left,
                                                            jobs))]


def _psi0_leaf(f: Half, c: complex, phi: Half, psi0: Half, maxima: list,
               leaf: _Leaf) -> None:
    """On one leaf: psi0's window, kept for the pairings, and the largest
    reconstruction residual on the leaf's nodes, appended to ``maxima``."""
    leaf.cache[id(psi0.values), False] = _finite(_psi0_window(
        c, leaf.window(phi), leaf.window(f), _is_zero_half(f.values)))
    # c phi + psi0 rounds as psi0 + c phi: addition commutes exactly
    r = np.multiply(c, leaf.own(phi))
    r += leaf.own(psi0)
    r -= leaf.own(f)
    maxima.append(np.abs(r).max())


def decomposition_values(left: tuple, right: tuple) -> dict:
    """The residuals of ``decomposition_defects`` from both half-lines'
    ``decomposition_half`` results."""
    (rec_l, trace_l, (self_l, plus_l, minus_l)) = left
    (rec_r, trace_r, (self_r, plus_r, minus_r)) = right
    scale = norm_from_inner(sobolev_total(self_l, self_r))
    return {
        "boundary_zero": max(abs(trace_l), abs(trace_r)),
        "orthogonality": max(abs(sobolev_total(plus_l, plus_r)) / scale,
                             abs(sobolev_total(minus_l, minus_r)) / scale),
        "reconstruction": max(max(0.0, rec_l), rec_r),
    }


def decomposition_defects(f: GridFunction) -> dict:
    """Residuals of ``decompose_sobolev(f)``: "boundary_zero" is the larger
    |psi0(0+-)| (exactly zero), "orthogonality" the larger
    |<phi_pm|psi0>_S| / ||psi0||_S (O(h^2)) and "reconstruction" the largest
    node value of psi0 + c_plus phi_+ + c_minus phi_- - f (rounding).

    ``decomposition_half`` on each half, so psi0 is never held whole; f is
    left as it was.
    """
    phi_plus, phi_minus = defect_vectors(f.spec)
    c_plus, c_minus = defect_coefficients(f.left_limit, f.right_limit)
    return decomposition_values(*(
        decomposition_half(f.spec, left, [(f.half(left), c_plus, c_minus)],
                           phi_plus.half(left), phi_minus.half(left))[0]
        for left in SIDES))


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


def extension_domain_defect(e: float, sigma: float, psi_plus: complex) -> float:
    """|i jump psi + e <zeta_sigma|psi>| for the traces psi(0+) = psi_plus and
    psi(0-) = s_sigma(e) psi(0+): the singular part of the coupled generator
    vanishes on its extension domain, so this is zero up to rounding."""
    psi_minus = boundary_phase(e, sigma).s_sigma * psi_plus
    return abs(1j * (psi_plus - psi_minus)
               + e * zeta_value(psi_plus, psi_minus, sigma))


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
