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
scalars, and the ``..._values``/``..._residuals`` functions and
``sobolev_total`` combine a left and a right half's scalars in the order of
the two-sided formula, (L2_- + L2_+) + (D_- + D_+). The two-sided functions
(``sobolev_inner``, ``reproducing_defects``, ``decomposition_defects``,
``symmetry_defects``, ``eigenrelation_defects``) run the same per-half
functions on a GridFunction's halves; the CLI defect suite runs them one
half-line at a time on halves it evaluates into lent buffers. Either way
the values are equal bit for bit.

Storage

* a GridFunction holds read-only views of its value arrays (the array a
  caller passes in stays writable; a strided one is copied once, so every
  value array but the shared zero half is contiguous); each half is
  checked as ``_check_half`` checks a Half: finite values and trace,
  vanishing at -T or T;
* an identically zero half-line is stored as ``zero_half(n)``, one complex
  zero broadcast read-only over the n nodes, so it holds no node array,
  shared per node count and recognised by identity: ``sample`` and
  ``sample_half`` store it for a missing half and ``defect_halves`` for the
  empty side of phi_pm. Validation, scaling, addition, the derivative and
  the trapezoid skip its nodes, with results equal to the full computation
  (the boundary traces keep their stencils and the origin panel); a zero
  array from a caller is an ordinary array;
* no derivative is kept: every pairing, L2, Sobolev or <f|g'>, forms
  conj(f) g, with either factor replaced by its grid derivative where the
  pairing asks for one, ``PANEL_CHUNK`` nodes at a time into one n-node
  panel per half-line, each derivative chunk formed right where the
  product needs it; the trapezoid then overwrites the panel with its panel
  sums. ``derivative`` forms the whole derivative afresh on each call, for
  the callers that want the function itself;
* a caller may lend node buffers: the pairings and the defect checks take
  a ``panel``, ``sample_half`` and ``defect_halves`` write one half into a
  lent n-node buffer, and ``decomposition_half`` writes psi0's half into
  one, which may be f's own storage. A function allocates what is not lent and
  otherwise takes the same steps, so the values are equal bit for bit; a
  function over lent buffers is spent once they are written again. The
  CLI defect suite lends one panel and two half-line buffers to every
  check group and never fills ``defect_vectors``' cache;
* ``decompose_sobolev`` forms psi0, and the reconstruction and
  eigenrelation residuals are reduced, chunk by chunk with no full-size
  temporary; ``decomposition_half`` reduces its residual from psi0 as
  stored against an independent f (``reference``), so it sees a wrong
  psi0; subtraction subtracts directly, and validation checks the float
  view of the values;
* ``defect_vectors`` keeps the two-sided pair for the most recent spec,
  for the two-sided functions;
* GridSpec refuses a grid whose defect suite would need more than
  ``MAX_SOLVE_BYTES`` of live arrays (TooLarge), before anything is allocated.
"""

from __future__ import annotations

import cmath
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
# Most two-sided complex node arrays the defect suite holds at once
# (tracemalloc peak of the CLI suite, as printed by tools/defect_peaks.py
# at 10k to 80k nodes, T = 30 and 40): 1.85 to 2.56. Each check group works
# one half-line at a time, so it holds the lent pairing panel and two
# half-line buffers (1.5 arrays, live through the whole suite), one pass's
# node grid (0.25) and chunk buffers of PANEL_CHUNK nodes, which weigh most
# at 10k nodes; the shared zero half holds no node array.
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

    def left_nodes(self) -> np.ndarray:
        """Nodes -T, -T+h, ..., -h."""
        return np.linspace(-self.half_width, -self.spacing, self.n_nodes)

    def right_nodes(self) -> np.ndarray:
        """Nodes h, 2h, ..., T."""
        return np.linspace(self.spacing, self.half_width, self.n_nodes)

    def nodes(self, left: bool) -> np.ndarray:
        """The nodes of the left or the right half-line."""
        return self.left_nodes() if left else self.right_nodes()


@functools.lru_cache(maxsize=1)
def zero_half(n: int) -> np.ndarray:
    """The shared read-only zero half-line of ``n`` nodes: one complex zero
    broadcast over the nodes, so it holds no node array."""
    return np.broadcast_to(np.zeros(1, dtype=complex), (n,))


def _is_zero_half(values: np.ndarray, n: int) -> bool:
    return values is zero_half(n)


def _read_only(values, n: int) -> np.ndarray:
    """The shared zero half itself, else a read-only contiguous complex view;
    the array passed in keeps its own flags."""
    if _is_zero_half(values, n):
        return values
    view = np.ascontiguousarray(values, dtype=complex).view()
    view.flags.writeable = False
    return view


class Half(NamedTuple):
    """One half-line of a grid function: its node values (``zero_half(n)``
    when identically zero) and its trace at the origin, psi(0-) on the
    left half-line and psi(0+) on the right one."""

    values: np.ndarray
    limit: complex


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
    """The half with its values as ``_read_only`` gives them, after the
    checks a GridFunction makes of each of its halves: n finite values, a
    finite trace, and a value that vanishes at the truncation end, -T on
    the left half-line and T on the right one."""
    n = spec.n_nodes
    values = _read_only(values, n)
    if values.shape != (n,):
        raise SpecMismatch(
            f"value arrays must have shape ({n},), got {values.shape}")
    # on the float parts, which is faster than on complex values
    if not (_is_zero_half(values, n)
            or np.isfinite(values.view(np.float64)).all()):
        raise SpecMismatch("grid values must be finite")
    if not math.isfinite(abs(limit)):
        raise SpecMismatch("boundary values must be finite")
    end = abs(values[0 if left else -1])
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
        n = self.spec.n_nodes
        return GridFunction(self.spec, _add_halves(self.left, other.left, n),
                            _add_halves(self.right, other.right, n),
                            self.left_limit + other.left_limit,
                            self.right_limit + other.right_limit)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        require_same_spec(self, other)
        n = self.spec.n_nodes
        return GridFunction(self.spec, _sub_halves(self.left, other.left, n),
                            _sub_halves(self.right, other.right, n),
                            self.left_limit - other.left_limit,
                            self.right_limit - other.right_limit)

    def __mul__(self, scalar: complex) -> "GridFunction":
        n = self.spec.n_nodes
        return GridFunction(self.spec, _scale_half(scalar, self.left, n),
                            _scale_half(scalar, self.right, n),
                            scalar * self.left_limit, scalar * self.right_limit)

    __rmul__ = __mul__


def _add_halves(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    if _is_zero_half(a, n):
        return b
    if _is_zero_half(b, n):
        return a
    return a + b


def _sub_halves(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    if _is_zero_half(b, n):
        return a
    if _is_zero_half(a, n):
        return -b
    return a - b


def _scale_half(scalar: complex, values: np.ndarray, n: int) -> np.ndarray:
    return values if _is_zero_half(values, n) else scalar * values


def require_same_spec(f: GridFunction, g: GridFunction) -> None:
    if f.spec != g.spec:
        raise SpecMismatch(f"grid specs differ: {f.spec} vs {g.spec}")


def trace_at_origin(fn: Callable[..., np.ndarray]) -> complex:
    """A callable's value at 0, the boundary trace of its half-line."""
    return complex(fn(np.array([0.0]))[0])


def _evaluate_half(spec: GridSpec, left: bool,
                   fn: Optional[Callable[..., np.ndarray]],
                   nodes: Optional[np.ndarray],
                   out: Optional[np.ndarray]) -> Half:
    """``fn`` on one half-line's ``nodes`` (formed when None) and at 0,
    unchecked; the shared zero half and trace 0 when ``fn`` is None. A
    lent ``out`` buffer is handed to ``fn`` as ``fn(nodes, out=out)``."""
    if fn is None:
        return Half(zero_half(spec.n_nodes), 0j)
    if nodes is None:
        nodes = spec.nodes(left)
    values = np.asarray(fn(nodes) if out is None else fn(nodes, out=out),
                        dtype=complex)
    return Half(values, trace_at_origin(fn))


def sample_half(spec: GridSpec, left: bool,
                fn: Optional[Callable[..., np.ndarray]],
                nodes: Optional[np.ndarray] = None,
                out: Optional[np.ndarray] = None) -> Half:
    """One half of ``sample(spec, ...)``, checked as a GridFunction checks
    it: ``fn`` on the left or right half-line's ``nodes`` (formed when
    None) and its value at 0 as the trace; the shared zero half when
    ``fn`` is None. ``out``, a writable n-node complex array, lends ``fn``
    a buffer: it is called as ``fn(nodes, out=out)`` and returns the buffer
    filled (``ensembles.random_bump`` does)."""
    return _check_half(spec, left, *_evaluate_half(spec, left, fn, nodes, out))


def sample(spec: GridSpec,
           left: Optional[Callable[..., np.ndarray]] = None,
           right: Optional[Callable[..., np.ndarray]] = None) -> GridFunction:
    """Evaluate callables on the half-line grids.

    A missing half is identically zero; each boundary trace is the callable's
    value at 0 (continuity from that side).
    """
    lh = _evaluate_half(spec, True, left, None, None)
    rh = _evaluate_half(spec, False, right, None, None)
    return GridFunction(spec, lh.values, rh.values, lh.limit, rh.limit)


def defect_halves(spec: GridSpec, left: bool,
                  nodes: Optional[np.ndarray] = None,
                  out: Optional[np.ndarray] = None) -> tuple:
    """(phi_+, phi_-) on one half-line, checked: phi_- = i e^t on the left
    half-line and phi_+ = -i e^-t on the right one, formed from ``nodes``
    (formed when None) chunk by chunk into ``out`` (fresh when None), as
    the whole-array expressions round them; the other is the shared zero
    half. Needs T >= 30 so the tails sit below the decay tolerance."""
    if spec.half_width < MIN_HALF_WIDTH:
        raise DomainTooSmall(
            f"half-width {spec.half_width} < {MIN_HALF_WIDTH}: exponential "
            f"tails would not vanish at the truncation boundary")
    n = spec.n_nodes
    if nodes is None:
        nodes = spec.nodes(left)
    if out is None:
        out = np.empty(n, dtype=complex)
    scratch = np.empty(min(PANEL_CHUNK, n))
    for start, stop in node_chunks(n):
        x = scratch[:stop - start]
        if left:
            np.exp(nodes[start:stop], out=x)
        else:
            np.exp(np.negative(nodes[start:stop], out=x), out=x)
        np.multiply(1j if left else -1j, x, out=out[start:stop])
    own = _check_half(spec, left, out, 1j if left else -1j)
    zero = Half(zero_half(n), 0j)
    return (zero, own) if left else (own, zero)


@functools.lru_cache(maxsize=1)
def defect_vectors(spec: GridSpec):
    """The normalized defect pair (phi_+, phi_-) as two-sided functions,
    from ``defect_halves``."""
    zero, minus = defect_halves(spec, True)
    plus, _ = defect_halves(spec, False)
    return (GridFunction(spec, zero.values, plus.values, zero.limit,
                         plus.limit),
            GridFunction(spec, minus.values, zero.values, minus.limit,
                         zero.limit))


def _derivative_chunk(values: np.ndarray, h: float, start: int, stop: int,
                      out: np.ndarray) -> np.ndarray:
    """Second-order derivative of one half-line grid on the nodes
    ``start:stop``, written into ``out`` (``stop - start`` nodes) and
    returned.

    Central differences in the interior, one-sided three-point stencils at the
    two boundary-adjacent nodes of the half-line. Every node is formed by the
    same operations whatever the chunk, so the chunks of a half-line make up
    its whole derivative bit for bit.
    """
    n = values.size
    lo, hi = max(start, 1), min(stop, n - 1)
    if lo < hi:
        interior = out[lo - start:hi - start]
        np.subtract(values[lo + 1:hi + 1], values[lo - 1:hi - 1], out=interior)
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
    the half's grid derivative is a grid function: finite (``finite`` says
    whether its node values are) and vanishing at -T or T. ``derivative``
    and the streamed pairings check through here, so they refuse the same
    functions."""
    h, n = spec.spacing, spec.n_nodes
    values, limit = half
    if left:
        trace = complex((3.0 * limit - 4.0 * values[-1] + values[-2])
                        / (2.0 * h))
    else:
        trace = complex((-3.0 * limit + 4.0 * values[0] - values[1])
                        / (2.0 * h))
    if not (finite and math.isfinite(abs(trace))):
        raise SpecMismatch(
            f"grid derivative at spacing h = {h:g} is not finite")
    start = 0 if left else n - 1
    end = abs(_derivative_chunk(values, h, start, start + 1,
                                np.empty(1, dtype=complex))[0])
    if end > DECAY_TOL:
        raise SpecMismatch(
            f"grid derivative at spacing h = {h:g} must vanish at the "
            f"truncation boundary: |psi'({'-T' if left else 'T'})| = "
            f"{end:.2e}")
    return trace


def _derivative_half(spec: GridSpec, left: bool, half: Half) -> Half:
    """The half's grid derivative, formed whole, with its trace, checked by
    ``_derivative_trace``; the shared zero half is its own derivative."""
    values = half.values
    if _is_zero_half(values, spec.n_nodes):
        return Half(values, _derivative_trace(spec, left, half))
    d = _derivative_chunk(values, spec.spacing, 0, values.size,
                          np.empty_like(values))
    return Half(d, _derivative_trace(spec, left, half,
                                     np.isfinite(d.view(np.float64)).all()))


def derivative(f: GridFunction) -> GridFunction:
    """Grid derivative; the boundary traces of the result are one-sided
    three-point estimates that use the stored traces of ``f``.

    Formed afresh on every call: the pairings stream the derivative instead
    (``_l2_half``), so no caller keeps one. The shared zero half is its own
    derivative.
    """
    dl, dr = (_derivative_half(f.spec, left, f.half(left)) for left in SIDES)
    return GridFunction(f.spec, dl.values, dr.values, dl.limit, dr.limit)


# Nodes per chunk of the pairing products and of the in-place panel steps of
# the trapezoid: numpy copies an input that overlaps its output, and a step
# bounds that copy to one chunk.
PANEL_CHUNK = 4096


def node_chunks(n: int):
    """(start, stop) of each run of ``PANEL_CHUNK`` nodes of a half-line."""
    return ((start, min(start + PANEL_CHUNK, n))
            for start in range(0, n, PANEL_CHUNK))


def _trapezoid_half(values: np.ndarray, boundary: complex, h: float,
                    boundary_is_right: bool) -> complex:
    """Composite trapezoid over one half-line, with the stored trace closing
    the panel that touches the origin.

    Overwrites the contiguous array ``values`` with the panel sums, in the
    order ``np.trapezoid`` would form them on the trace-extended array, so
    the pairwise sum is the same. Panel k reads nodes k and k + 1 on [-T, 0)
    and k - 1 and k on (0, T], so the chunks run forward on the first and
    backward on the second, and every node is read before it is overwritten.
    """
    n = values.size
    if boundary_is_right:           # [-T, 0): nodes ..., -h, then trace at 0-
        for start in range(0, n - 1, PANEL_CHUNK):
            stop = min(start + PANEL_CHUNK, n - 1)
            np.add(values[start + 1:stop + 1], values[start:stop],
                   out=values[start:stop])
        values[-1] = boundary + values[-1]
    else:                           # (0, T]: trace at 0+, then nodes h, ...
        for stop in range(n, 1, -PANEL_CHUNK):
            start = max(stop - PANEL_CHUNK, 1)
            np.add(values[start:stop], values[start - 1:stop - 1],
                   out=values[start:stop])
        values[0] = values[0] + boundary
    real = values.view(np.float64)
    real *= h
    real *= 0.5
    return complex(values.sum())


def l2_inner(f: GridFunction, g: GridFunction) -> complex:
    """L2 pairing int conj(f) g over both half-lines (trapezoid, O(h^2))."""
    return _pairing(f, g, False, False)


def _pair_half(spec: GridSpec, left: bool, f: Half, g: Half, diff_f: bool,
               diff_g: bool, panel: Optional[np.ndarray] = None) -> complex:
    """One half-line's L2 pairing of f, or f' when ``diff_f``, with g, or g'
    when ``diff_g``, the product formed in ``panel`` (one n-node buffer,
    fresh when None); equal bit for bit to the same half of ``l2_inner``
    on the materialized derivatives.

    Any non-finite derivative value that enters the product makes the sum
    non-finite, so only then is the half's derivative formed whole, for
    ``_derivative_half`` to refuse it; a half paired with the shared zero
    half is never differentiated, so its derivative is not checked there.
    """
    fb = _derivative_trace(spec, left, f) if diff_f else f.limit
    gb = _derivative_trace(spec, left, g) if diff_g else g.limit
    value = _l2_half(f.values, g.values, np.conj(fb) * gb, spec.spacing,
                     spec.n_nodes, left, diff_f, diff_g, panel)
    if not cmath.isfinite(value):
        for u, diff in ((f, diff_f), (g, diff_g)):
            if diff:
                _derivative_half(spec, left, u)
    return value


def _pairing(f: GridFunction, g: GridFunction, diff_f: bool, diff_g: bool,
             panel: Optional[np.ndarray] = None) -> complex:
    """``_pair_half`` on the left half-line plus the right, both in one
    panel (fresh when None)."""
    require_same_spec(f, g)
    if panel is None:
        panel = np.empty(f.spec.n_nodes, dtype=complex)
    left, right = (_pair_half(f.spec, side, f.half(side), g.half(side),
                              diff_f, diff_g, panel) for side in SIDES)
    return left + right


def _l2_half(f: np.ndarray, g: np.ndarray, boundary: complex, h: float, n: int,
             boundary_is_right: bool, diff_f: bool = False,
             diff_g: bool = False,
             panel: Optional[np.ndarray] = None) -> complex:
    """Trapezoid of conj(f) g over one half-line closed by ``boundary``, with
    f and g replaced by their grid derivatives when ``diff_f`` and
    ``diff_g`` say so.

    The product is formed in ``panel`` (fresh when None) ``PANEL_CHUNK``
    nodes at a time, each derivative chunk right where the product needs it,
    and the trapezoid then overwrites the panel with its panel sums. If
    either factor is the shared zero half (its own derivative), only the
    origin panel is nonzero; it is scaled in ``_trapezoid_half``'s order, so
    the sum is the same."""
    if _is_zero_half(f, n) or _is_zero_half(g, n):
        return complex((boundary.real * h) * 0.5, (boundary.imag * h) * 0.5)
    product = np.empty(n, dtype=complex) if panel is None else panel
    if diff_f or diff_g:
        scratch = np.empty(min(PANEL_CHUNK, n), dtype=complex)
    for start, stop in node_chunks(n):
        out = product[start:stop]
        if diff_f:
            np.conj(_derivative_chunk(f, h, start, stop,
                                      scratch[:stop - start]), out=out)
        else:
            np.conj(f[start:stop], out=out)
        if diff_g:
            _derivative_chunk(g, h, start, stop, scratch[:stop - start])
        out *= scratch[:stop - start] if diff_g else g[start:stop]
    return _trapezoid_half(product, boundary, h, boundary_is_right)


def sobolev_half(spec: GridSpec, left: bool, f: Half, g: Half,
                 panel: Optional[np.ndarray] = None) -> tuple:
    """One half-line's terms (L2, D) of the Sobolev pairing <f|g>_S: the L2
    pairing and the derivative pairing, both formed in ``panel``."""
    return (_pair_half(spec, left, f, g, False, False, panel),
            _pair_half(spec, left, f, g, True, True, panel))


def sobolev_total(left: tuple, right: tuple) -> complex:
    """<f|g>_S from the ``sobolev_half`` terms of both half-lines,
    (L2_- + L2_+) + (D_- + D_+)."""
    return (left[0] + right[0]) + (left[1] + right[1])


def sobolev_inner(f: GridFunction, g: GridFunction,
                  panel: Optional[np.ndarray] = None) -> complex:
    """Sobolev pairing int (conj(f) g + conj(f') g'), every part formed in
    one n-node panel buffer (``panel`` when lent, else fresh) and no
    derivative formed whole."""
    require_same_spec(f, g)
    if panel is None:
        panel = np.empty(f.spec.n_nodes, dtype=complex)
    return sobolev_total(*(sobolev_half(f.spec, left, f.half(left),
                                        g.half(left), panel)
                           for left in SIDES))


def norm_from_inner(value: complex) -> float:
    """The norm whose squared value is the real part of ``value``, a
    function's pairing with itself (0 where rounding makes it negative)."""
    return math.sqrt(max(value.real, 0.0))


def sobolev_norm(f: GridFunction, panel: Optional[np.ndarray] = None) -> float:
    return norm_from_inner(sobolev_inner(f, f, panel))


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


def symmetry_half(spec: GridSpec, left: bool, f: Half, g: Half,
                  panel: Optional[np.ndarray] = None) -> tuple:
    """One half-line's terms of the regular pairings <f|g'> and <g|f'>,
    each derivative streamed, so neither g' nor f' is formed whole."""
    return (_pair_half(spec, left, f, g, False, True, panel),
            _pair_half(spec, left, g, f, False, True, panel))


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


def symmetry_defects(f: GridFunction, g: GridFunction, sigma: float,
                     panel: Optional[np.ndarray] = None) -> dict:
    """Residuals of the symmetry of iD on (f, g), each O(h^2).

    "boundary_form_vs_traces" is |<f|i g'> - <i f'|g> + i <f|J g>|: the
    boundary form of the regular derivative alone equals -i <f|J g>.
    "id_symmetry_defect" is |<f|iD g> - <iD f|g>| with the symmetric delta as
    the singular functional, and "id_symmetry_defect_damped" the same with
    zeta_sigma. The regular pairings <f|i g'> = i <f|g'> and <g|i f'> are
    computed once each, with the derivative streamed, so neither g' nor i g'
    is formed whole.
    """
    require_same_spec(f, g)
    if panel is None:
        panel = np.empty(f.spec.n_nodes, dtype=complex)
    return symmetry_values(*(symmetry_half(f.spec, left, f.half(left),
                                           g.half(left), panel)
                             for left in SIDES), f, g, sigma)


def eigenrelation_half(spec: GridSpec, left: bool, phi: Half,
                       sign: float) -> float:
    """The largest node value of |i phi' + sign i phi| on one half-line, or
    0 if that is larger (O(h^2)); 0 on the shared zero half. The half's
    derivative is checked as ``derivative`` checks it.

    Reduced chunk by chunk with no full-size temporary, each node rounded
    as in ``apply_iD(phi).regular + (sign i) phi``.
    """
    h, n = spec.spacing, spec.n_nodes
    _derivative_trace(spec, left, phi)
    values = phi.values
    if _is_zero_half(values, n):
        return 0.0

    def residual(start, stop, out):
        d = _derivative_chunk(values, h, start, stop, out)
        np.multiply(1j, d, out=d)
        d += (sign * 1j) * values[start:stop]
        return d
    return max(0.0, _chunked_max_abs(n, residual))


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


def _psi0_chunk(c: complex, phi: np.ndarray, values: np.ndarray, n: int,
                start: int, stop: int, out: np.ndarray,
                cphi: np.ndarray) -> np.ndarray:
    """Nodes ``start:stop`` of one half of psi0 = f - c phi, with c phi
    formed in the chunk buffer ``cphi`` (which keeps it) and psi0 written
    into ``out``, which may be the same nodes of ``values`` itself. A shared
    zero half of f is negated, as GridFunction subtraction does."""
    np.multiply(c, phi[start:stop], out=cphi)
    if _is_zero_half(values, n):
        return np.negative(cphi, out=out)
    return np.subtract(values[start:stop], cphi, out=out)


def _psi0_half(spec: GridSpec, left: bool, f: Half, c_plus: complex,
               c_minus: complex, phi_plus: Half, phi_minus: Half,
               out: np.ndarray) -> Half:
    """One half of psi0 = f - c_plus phi_+ - c_minus phi_-, unchecked,
    rounded as that GridFunction expression rounds it: phi_- lives on the
    left half-line and phi_+ on the right, so the half is c phi subtracted
    from f's half, chunk by chunk, into ``out``, which may be f's own
    storage (each node of f is read just before psi0 overwrites it)."""
    n = spec.n_nodes
    c, phi = (c_minus, phi_minus) if left else (c_plus, phi_plus)
    cphi = np.empty(min(PANEL_CHUNK, n), dtype=complex)
    for start, stop in node_chunks(n):
        _psi0_chunk(c, phi.values, f.values, n, start, stop, out[start:stop],
                    cphi[:stop - start])
    return Half(out, (f.limit - c_plus * phi_plus.limit)
                - c_minus * phi_minus.limit)


def decompose_sobolev(f: GridFunction) -> SobolevDecomposition:
    """Split off the defect-vector components: c_pm = +-i psi(0+-).

    psi0 = f - c_plus phi_+ - c_minus phi_-, each half formed by
    ``_psi0_half``.
    """
    phi_plus, phi_minus = defect_vectors(f.spec)
    n = f.spec.n_nodes
    c_plus, c_minus = defect_coefficients(f.left_limit, f.right_limit)
    left, right = (_psi0_half(f.spec, side, f.half(side), c_plus, c_minus,
                              phi_plus.half(side), phi_minus.half(side),
                              np.empty(n, dtype=complex))
                   for side in SIDES)
    psi0 = GridFunction(f.spec, left.values, right.values, left.limit,
                        right.limit)
    return SobolevDecomposition(psi0=psi0, c_plus=c_plus, c_minus=c_minus)


def _chunked_max_abs(n: int, form: Callable) -> float:
    """Largest |value| over one half-line's nodes, formed chunk by chunk by
    ``form(start, stop, out)`` into one chunk buffer, which it returns; NaN
    propagates as in one ``np.abs(...).max()``."""
    buf = np.empty(min(PANEL_CHUNK, n), dtype=complex)
    return float(np.max([np.abs(form(start, stop, buf[:stop - start])).max()
                         for start, stop in node_chunks(n)]))


def reproducing_half(spec: GridSpec, left: bool, phi_plus: Half,
                     phi_minus: Half, psi_r: Half, psi_l: Half,
                     panel: Optional[np.ndarray] = None) -> tuple:
    """One half-line's ``sobolev_half`` terms of <phi_+|psi_r>_S and
    <phi_-|psi_l>_S."""
    return (sobolev_half(spec, left, phi_plus, psi_r, panel),
            sobolev_half(spec, left, phi_minus, psi_l, panel))


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


def reproducing_defects(spec: GridSpec, pairs,
                        panel: Optional[np.ndarray] = None) -> tuple:
    """Largest ``reproducing_residuals`` over (psi_r, psi_l) pairs, each
    O(h^2). The pairs are read one at a time and each is released before
    the next is read, so a generator that draws them holds one pair at
    once, or may draw each pair into the buffers of the last."""
    phi_plus, phi_minus = defect_vectors(spec)
    if panel is None:
        panel = np.empty(spec.n_nodes, dtype=complex)
    worst_plus = worst_minus = 0.0
    for psi_r, psi_l in pairs:
        require_same_spec(phi_plus, psi_r)
        require_same_spec(phi_plus, psi_l)
        plus, minus = reproducing_residuals(
            *(reproducing_half(spec, left, phi_plus.half(left),
                               phi_minus.half(left), psi_r.half(left),
                               psi_l.half(left), panel) for left in SIDES),
            psi_r.right_limit, psi_l.left_limit)
        worst_plus = max(worst_plus, plus)
        worst_minus = max(worst_minus, minus)
        del psi_r, psi_l
    return worst_plus, worst_minus


def decomposition_half(spec: GridSpec, left: bool, f: Half, c_plus: complex,
                       c_minus: complex, phi_plus: Half, phi_minus: Half,
                       out: np.ndarray, reference: Callable,
                       panel: Optional[np.ndarray] = None) -> tuple:
    """One half-line of ``decomposition_defects``: psi0's half, formed by
    ``_psi0_half`` into ``out`` (which may hold f itself; f is spent then)
    and checked, and this half's (reconstruction, psi0 trace, Sobolev
    terms of <psi0|psi0>, <phi_+|psi0> and <phi_-|psi0>).

    The reconstruction residual is the largest node value of
    (psi0 + c phi) - f, reduced chunk by chunk from psi0 as stored against
    ``reference(start, stop, buf)``, f's nodes start:stop from a source
    that psi0 does not overwrite (a draw re-evaluated from its closure into
    ``buf``, or the values of an f that ``out`` does not hold). With psi0
    formed right it rounds as the GridFunction expression
    psi0 + c_plus phi_+ + c_minus phi_- - f; a wrong psi0 shows in it.
    """
    n = spec.n_nodes
    psi0 = _check_half(spec, left, *_psi0_half(
        spec, left, f, c_plus, c_minus, phi_plus, phi_minus, out))
    c, phi = (c_minus, phi_minus) if left else (c_plus, phi_plus)
    f_chunk = np.empty(min(PANEL_CHUNK, n), dtype=complex)

    def residual(start, stop, buf):
        # c phi + psi0 rounds as psi0 + c phi: addition commutes exactly
        np.multiply(c, phi.values[start:stop], out=buf)
        buf += psi0.values[start:stop]
        buf -= reference(start, stop, f_chunk[:stop - start])
        return buf
    reconstruction = _chunked_max_abs(n, residual)
    return (reconstruction, psi0.limit,
            tuple(sobolev_half(spec, left, u, psi0, panel)
                  for u in (psi0, phi_plus, phi_minus)))


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


def _values_reference(values: np.ndarray) -> Callable:
    """A ``decomposition_half`` reference that reads stored values."""
    return lambda start, stop, buf: values[start:stop]


def decomposition_defects(f: GridFunction,
                          panel: Optional[np.ndarray] = None) -> dict:
    """Residuals of ``decompose_sobolev(f)``: "boundary_zero" is the larger
    |psi0(0+-)| (exactly zero), "orthogonality" the larger
    |<phi_pm|psi0>_S| / ||psi0||_S (O(h^2)) and "reconstruction" the largest
    node value of psi0 + c_plus phi_+ + c_minus phi_- - f (rounding).

    ``decomposition_half`` on each half, psi0 formed into one fresh
    half-line buffer that both halves reuse, the residual reduced against
    f's own values; f is left as it was.
    """
    phi_plus, phi_minus = defect_vectors(f.spec)
    n = f.spec.n_nodes
    c_plus, c_minus = defect_coefficients(f.left_limit, f.right_limit)
    if panel is None:
        panel = np.empty(n, dtype=complex)
    out = np.empty(n, dtype=complex)
    return decomposition_values(*(
        decomposition_half(f.spec, left, f.half(left), c_plus, c_minus,
                           phi_plus.half(left), phi_minus.half(left), out,
                           _values_reference(f.half(left).values), panel)
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
