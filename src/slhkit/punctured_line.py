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

Storage

* a GridFunction holds read-only views of its value arrays (the array a
  caller passes in stays writable; a strided one is copied once, so every
  value array is contiguous);
* an identically zero half-line is stored as ``zero_half(n)``, one shared
  read-only array per node count, recognised by identity: ``sample`` stores
  it for a missing half and ``defect_vectors`` for the empty side of
  phi_pm. Validation, scaling, addition, the derivative and the trapezoid
  skip its nodes, with results equal to the full computation (the boundary
  traces keep their stencils and the origin panel); a zero array from a
  caller is an ordinary array;
* no derivative is kept: every pairing, L2, Sobolev or <f|g'>, forms
  conj(f) g, with either factor replaced by its grid derivative where the
  pairing asks for one, ``PANEL_CHUNK`` nodes at a time into one n-node
  panel per call, each derivative chunk formed right where the product
  needs it; the trapezoid then overwrites the panel with its panel sums.
  ``derivative`` forms the whole derivative afresh on each call, for the
  callers that want the function itself;
* a caller may lend node buffers: the pairings and the defect checks take
  a ``panel``, ``sample`` hands a lent (left, right) pair of half-line
  buffers to its callables, and ``decompose_sobolev`` writes psi0 into
  one, which may be f's own storage. A function allocates what is not lent
  and otherwise takes the same steps, so the values are equal bit for bit;
  a function over lent buffers is spent once they are written again. The
  CLI defect suite lends one panel and one pair to every check group;
* ``decompose_sobolev`` forms psi0, and the reconstruction and
  eigenrelation residuals are reduced, chunk by chunk with no full-size
  temporary (``decomposition_defects`` reduces its residual before psi0
  may overwrite f); subtraction subtracts directly, and validation checks
  the float view of the values;
* ``defect_vectors`` keeps the pair for the most recent spec; the CLI
  defect suite releases it (``defect_vectors.cache_clear``) after its last
  reader, the eigenrelation group, so the later groups run without it;
* GridSpec refuses a grid whose defect suite would need more than
  ``MAX_SOLVE_BYTES`` of live arrays (TooLarge), before anything is allocated.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (MAX_SOLVE_BYTES, DomainTooSmall, InvalidMollifier,
                     SpecMismatch, TooLarge)
from .linalg import kappas

DECAY_TOL = 1e-12
MIN_HALF_WIDTH = 30.0
# Most two-sided complex node arrays the defect suite holds at once
# (tracemalloc peak of the CLI suite, a shared zero half counted once, as
# printed by tools/defect_peaks.py at 10k to 80k nodes, T = 30 and 40):
# 3.30 to 3.67. The lent pairing panel and pair of half-line buffers (1.5
# arrays) live through the whole suite, so the defect-vector, reproducing,
# decomposition and symmetry groups each peak at 3.29 to 3.67: the lent
# buffers, the defect pair or g, the zero half and one draw's node grid.
DEFECT_LIVE_ARRAYS = 5


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


@functools.lru_cache(maxsize=1)
def zero_half(n: int) -> np.ndarray:
    """The shared read-only zero half-line of ``n`` nodes."""
    zeros = np.zeros(n, dtype=complex)
    zeros.flags.writeable = False
    return zeros


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
        n = self.spec.n_nodes
        left = _read_only(self.left, n)
        right = _read_only(self.right, n)
        if left.shape != (n,) or right.shape != (n,):
            raise SpecMismatch(
                f"value arrays must have shape ({n},), got {left.shape} and "
                f"{right.shape}")
        # on the float parts, which is faster than on complex values
        if not all(_is_zero_half(a, n) or np.isfinite(a.view(np.float64)).all()
                   for a in (left, right)):
            raise SpecMismatch("grid values must be finite")
        if not (math.isfinite(abs(self.left_limit))
                and math.isfinite(abs(self.right_limit))):
            raise SpecMismatch("boundary values must be finite")
        if abs(left[0]) > DECAY_TOL or abs(right[-1]) > DECAY_TOL:
            raise SpecMismatch(
                f"function must vanish at the truncation boundary: "
                f"|psi(-T)| = {abs(left[0]):.2e}, |psi(T)| = {abs(right[-1]):.2e}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "left_limit", complex(self.left_limit))
        object.__setattr__(self, "right_limit", complex(self.right_limit))

    @property
    def jump(self) -> complex:
        return self.right_limit - self.left_limit

    @property
    def delta_star(self) -> complex:
        return 0.5 * (self.right_limit + self.left_limit)

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


def sample(spec: GridSpec,
           left: Optional[Callable[..., np.ndarray]] = None,
           right: Optional[Callable[..., np.ndarray]] = None,
           out: Optional[tuple] = None) -> GridFunction:
    """Evaluate callables on the half-line grids.

    A missing half is identically zero; each boundary trace is the callable's
    value at 0 (continuity from that side). ``out``, a (left, right) pair of
    writable n-node complex arrays, lends each callable its half's buffer:
    it is called as ``fn(nodes, out=buffer)`` and returns the buffer filled
    (``ensembles.random_bump`` does).
    """
    n = spec.n_nodes
    lout, rout = (None, None) if out is None else out
    lv = zero_half(n) if left is None else \
        _evaluate(left, spec.left_nodes(), lout)
    rv = zero_half(n) if right is None else \
        _evaluate(right, spec.right_nodes(), rout)
    ll = 0.0 if left is None else complex(left(np.array([0.0]))[0])
    rl = 0.0 if right is None else complex(right(np.array([0.0]))[0])
    return GridFunction(spec, lv, rv, ll, rl)


def _evaluate(fn: Callable[..., np.ndarray], nodes: np.ndarray,
              out: Optional[np.ndarray]) -> np.ndarray:
    """``fn``'s values on ``nodes`` as a complex array, written into ``out``
    when a buffer is lent."""
    return np.asarray(fn(nodes) if out is None else fn(nodes, out=out),
                      dtype=complex)


@functools.lru_cache(maxsize=1)
def defect_vectors(spec: GridSpec):
    """The normalized defect pair (phi_+, phi_-); needs T >= 30 so the tails
    sit below the decay tolerance."""
    if spec.half_width < MIN_HALF_WIDTH:
        raise DomainTooSmall(
            f"half-width {spec.half_width} < {MIN_HALF_WIDTH}: exponential "
            f"tails would not vanish at the truncation boundary")
    zeros = zero_half(spec.n_nodes)
    phi_plus = GridFunction(spec, zeros, -1j * np.exp(-spec.right_nodes()),
                            0.0, -1j)
    phi_minus = GridFunction(spec, 1j * np.exp(spec.left_nodes()), zeros,
                             1j, 0.0)
    return phi_plus, phi_minus


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


def _derivative_traces(f: GridFunction, finite: bool = True) -> tuple:
    """f'(0-) and f'(0+), one-sided three-point estimates on the stored
    traces, after checking that the grid derivative of ``f`` is a grid
    function: finite (``finite`` says whether its node values are) and
    vanishing at -T and T. Both ``derivative`` and the streamed pairings
    check through here, so they refuse the same functions."""
    h = f.spec.spacing
    dl0 = complex((3.0 * f.left_limit - 4.0 * f.left[-1] + f.left[-2])
                  / (2.0 * h))
    dr0 = complex((-3.0 * f.right_limit + 4.0 * f.right[0] - f.right[1])
                  / (2.0 * h))
    if not (finite and math.isfinite(abs(dl0)) and math.isfinite(abs(dr0))):
        raise SpecMismatch(
            f"grid derivative at spacing h = {h:g} is not finite")
    n = f.spec.n_nodes
    end = np.empty(1, dtype=complex)
    first = abs(_derivative_chunk(f.left, h, 0, 1, end)[0])
    last = abs(_derivative_chunk(f.right, h, n - 1, n, end)[0])
    if first > DECAY_TOL or last > DECAY_TOL:
        raise SpecMismatch(
            f"grid derivative at spacing h = {h:g} must vanish at the "
            f"truncation boundary: |psi'(-T)| = {first:.2e}, "
            f"|psi'(T)| = {last:.2e}")
    return dl0, dr0


def derivative(f: GridFunction) -> GridFunction:
    """Grid derivative; the boundary traces of the result are one-sided
    three-point estimates that use the stored traces of ``f``.

    Formed afresh on every call: the pairings stream the derivative instead
    (``_l2_half``), so no caller keeps one. The shared zero half is its own
    derivative.
    """
    h, n = f.spec.spacing, f.spec.n_nodes
    dleft, dright = (
        values if _is_zero_half(values, n)
        else _derivative_chunk(values, h, 0, n, np.empty_like(values))
        for values in (f.left, f.right))
    dl0, dr0 = _derivative_traces(
        f, all(np.isfinite(d.view(np.float64)).all() for d in (dleft, dright)))
    return GridFunction(f.spec, dleft, dright, dl0, dr0)


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


def _pairing(f: GridFunction, g: GridFunction, diff_f: bool, diff_g: bool,
             panel: Optional[np.ndarray] = None) -> complex:
    """L2 pairing of f, or f' when ``diff_f``, with g, or g' when ``diff_g``,
    each product formed in ``panel`` (one n-node buffer, fresh when None);
    equal bit for bit to ``l2_inner`` on the materialized derivatives.

    Any non-finite derivative value that enters a product makes the sum
    non-finite, so only then are the derivatives formed whole, for
    ``derivative`` to refuse them; a half paired with the shared zero half
    is never differentiated, so its derivative is not checked there.
    """
    require_same_spec(f, g)
    h, n = f.spec.spacing, f.spec.n_nodes
    if panel is None:
        panel = np.empty(n, dtype=complex)
    fl, fr = _derivative_traces(f) if diff_f else (f.left_limit, f.right_limit)
    gl, gr = _derivative_traces(g) if diff_g else (g.left_limit, g.right_limit)
    value = (_l2_half(f.left, g.left, np.conj(fl) * gl, h, n, True,
                      diff_f, diff_g, panel)
             + _l2_half(f.right, g.right, np.conj(fr) * gr, h, n, False,
                        diff_f, diff_g, panel))
    if not cmath.isfinite(value):
        for u, diff in ((f, diff_f), (g, diff_g)):
            if diff:
                derivative(u)
    return value


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


def sobolev_inner(f: GridFunction, g: GridFunction,
                  panel: Optional[np.ndarray] = None) -> complex:
    """Sobolev pairing int (conj(f) g + conj(f') g'), both parts formed in
    one n-node panel buffer (``panel`` when lent, else fresh) and no
    derivative formed whole."""
    if panel is None:
        panel = np.empty(f.spec.n_nodes, dtype=complex)
    return _pairing(f, g, False, False, panel) + _pairing(f, g, True, True,
                                                          panel)


def sobolev_norm(f: GridFunction, panel: Optional[np.ndarray] = None) -> float:
    return math.sqrt(max(sobolev_inner(f, f, panel).real, 0.0))


def zeta_value(plus: complex, minus: complex, sigma: float) -> complex:
    """<zeta_sigma|psi> from the traces psi(0+) = plus and psi(0-) = minus."""
    kp, km = kappas(sigma)
    return km * plus + kp * minus


def zeta_eval(f: GridFunction, sigma: Optional[float]) -> complex:
    """<zeta_sigma|f>; the symmetric delta when sigma is None."""
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


def jay_form(f: GridFunction, g: GridFunction) -> complex:
    """<f|J g> = conj(f(0+)) g(0+) - conj(f(0-)) g(0-), exact boundary arithmetic."""
    return (np.conj(f.right_limit) * g.right_limit
            - np.conj(f.left_limit) * g.left_limit)


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
    f_ig = 1j * _pairing(f, g, False, True, panel)
    g_if = 1j * _pairing(g, f, False, True, panel)

    def id_defect(sig):
        # <f|iD g> - conj(<g|iD f>), each the regular pairing plus the
        # singular coefficient i jump against the conjugated functional
        return abs((f_ig + 1j * g.jump * np.conj(zeta_eval(f, sig)))
                   - np.conj(g_if + 1j * f.jump * np.conj(zeta_eval(g, sig))))

    return {"boundary_form_vs_traces": abs(f_ig - np.conj(g_if)
                                           + 1j * jay_form(f, g)),
            "id_symmetry_defect": id_defect(None),
            "id_symmetry_defect_damped": id_defect(sigma)}


def eigenrelation_defects(phi: GridFunction, sign: float) -> dict:
    """Residuals of the eigenrelation iD phi = -sign i phi of a defect
    vector (sign +1 for phi_+, -1 for phi_-): "coefficient" is
    |i jump(phi) - 1|, the singular coefficient of ``apply_iD`` against
    its value 1 (exact), and "regular" the largest node value of
    |i phi' + sign i phi| (O(h^2)).

    The regular residual is reduced chunk by chunk with no full-size
    temporary, each node rounded as in ``apply_iD(phi).regular + (sign i)
    phi``; the shared zero half contributes 0. The derivative is checked
    as ``derivative`` checks it.
    """
    h, n = phi.spec.spacing, phi.spec.n_nodes
    _derivative_traces(phi)
    regular = 0.0
    for values in (phi.left, phi.right):
        if _is_zero_half(values, n):
            continue

        def residual(start, stop, out):
            d = _derivative_chunk(values, h, start, stop, out)
            np.multiply(1j, d, out=d)
            d += (sign * 1j) * values[start:stop]
            return d
        regular = max(regular, _chunked_max_abs(n, residual))
    return {"coefficient": abs(1j * phi.jump - 1.0), "regular": regular}


@dataclass(frozen=True)
class SobolevDecomposition:
    """Triple (psi0, c_plus, c_minus) with psi0 vanishing at the origin and
    psi = psi0 + c_plus phi_+ + c_minus phi_-."""

    psi0: GridFunction
    c_plus: complex
    c_minus: complex


def _defect_coefficients(f: GridFunction) -> tuple:
    """(c_plus, c_minus) = (i psi(0+), -i psi(0-))."""
    return 1j * f.right_limit, -1j * f.left_limit


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


def decompose_sobolev(f: GridFunction,
                      out: Optional[tuple] = None) -> SobolevDecomposition:
    """Split off the defect-vector components: c_pm = +-i psi(0+-).

    psi0 = f - c_plus phi_+ - c_minus phi_-, rounded as that GridFunction
    expression rounds it: phi_- lives on the left half-line and phi_+ on the
    right, so each half of psi0 is c phi subtracted from the half of f,
    chunk by chunk, into ``out``, a (left, right) pair of n-node buffers
    (fresh when None). ``out`` may be f's own storage: each node of f is
    read just before psi0 overwrites it, and f is spent afterwards.
    """
    phi_plus, phi_minus = defect_vectors(f.spec)
    n = f.spec.n_nodes
    c_plus, c_minus = _defect_coefficients(f)
    if out is None:
        out = (np.empty(n, dtype=complex), np.empty(n, dtype=complex))
    cphi = np.empty(min(PANEL_CHUNK, n), dtype=complex)
    for c, phi, values, half in ((c_minus, phi_minus.left, f.left, out[0]),
                                 (c_plus, phi_plus.right, f.right, out[1])):
        for start, stop in node_chunks(n):
            _psi0_chunk(c, phi, values, n, start, stop, half[start:stop],
                        cphi[:stop - start])
    psi0 = GridFunction(
        f.spec, *out,
        (f.left_limit - c_plus * phi_plus.left_limit)
        - c_minus * phi_minus.left_limit,
        (f.right_limit - c_plus * phi_plus.right_limit)
        - c_minus * phi_minus.right_limit)
    return SobolevDecomposition(psi0=psi0, c_plus=c_plus, c_minus=c_minus)


def _chunked_max_abs(n: int, form: Callable) -> float:
    """Largest |value| over one half-line's nodes, formed chunk by chunk by
    ``form(start, stop, out)`` into one chunk buffer, which it returns; NaN
    propagates as in one ``np.abs(...).max()``."""
    buf = np.empty(min(PANEL_CHUNK, n), dtype=complex)
    return float(np.max([np.abs(form(start, stop, buf[:stop - start])).max()
                         for start, stop in node_chunks(n)]))


def reproducing_defects(spec: GridSpec, pairs,
                        panel: Optional[np.ndarray] = None) -> tuple:
    """Largest reproducing residuals over (psi_r, psi_l) pairs:
    |<i phi_+|psi_r>_S - psi_r(0+)| and |<-i phi_-|psi_l>_S - psi_l(0-)|,
    each O(h^2). Each psi is paired with phi_pm itself and the product
    rotated, <i phi_+|psi>_S = -i <phi_+|psi>_S and <-i phi_-|psi>_S =
    i <phi_-|psi>_S: a factor of +-i only swaps and negates components, so
    the rotation commutes with every rounding of the pairing and no scaled
    copy of phi_pm, or derivative of one, is formed. The pairs are read one
    at a time and each is released before the next is read, so a generator
    that draws them holds one pair at once, or may draw each pair into the
    buffers of the last."""
    phi_plus, phi_minus = defect_vectors(spec)
    worst_plus = worst_minus = 0.0
    for psi_r, psi_l in pairs:
        worst_plus = max(worst_plus, abs(
            -1j * sobolev_inner(phi_plus, psi_r, panel) - psi_r.right_limit))
        worst_minus = max(worst_minus, abs(
            1j * sobolev_inner(phi_minus, psi_l, panel) - psi_l.left_limit))
        del psi_r, psi_l
    return worst_plus, worst_minus


def decomposition_defects(f: GridFunction, panel: Optional[np.ndarray] = None,
                          out: Optional[tuple] = None) -> dict:
    """Residuals of ``decompose_sobolev(f, out)``: "boundary_zero" is the
    larger |psi0(0+-)| (exactly zero), "orthogonality" the larger
    |<phi_pm|psi0>_S| / ||psi0||_S (O(h^2)) and "reconstruction" the largest
    node value of psi0 + c_plus phi_+ + c_minus phi_- - f (rounding).

    The reconstruction residual is reduced first, from f and c phi alone,
    chunk by chunk with no full-size temporary: phi_- lives on the left half
    and phi_+ on the right, so each half is (psi0 + c phi) - f, each psi0
    chunk formed as ``decompose_sobolev`` forms it, rounded as in the
    GridFunction sum. Only then is psi0 formed, into ``out``, which may be
    f's own storage. After that this function holds no reference to ``f``,
    so a caller that keeps none either frees it before psi0's pairings.
    """
    phi_plus, phi_minus = defect_vectors(f.spec)
    n = f.spec.n_nodes
    c_plus, c_minus = _defect_coefficients(f)
    cphi = np.empty(min(PANEL_CHUNK, n), dtype=complex)
    reconstruction = 0.0
    for c, phi, values in ((c_minus, phi_minus.left, f.left),
                           (c_plus, phi_plus.right, f.right)):
        def residual(start, stop, buf):
            psi0 = _psi0_chunk(c, phi, values, n, start, stop, buf,
                               cphi[:stop - start])
            psi0 += cphi[:stop - start]
            psi0 -= values[start:stop]
            return psi0
        reconstruction = max(reconstruction, _chunked_max_abs(n, residual))
    del values
    dec = decompose_sobolev(f, out)
    del f
    scale = sobolev_norm(dec.psi0, panel)
    return {
        "boundary_zero": max(abs(dec.psi0.left_limit),
                             abs(dec.psi0.right_limit)),
        "orthogonality": max(
            abs(sobolev_inner(phi_plus, dec.psi0, panel)) / scale,
            abs(sobolev_inner(phi_minus, dec.psi0, panel)) / scale),
        "reconstruction": reconstruction,
    }


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
