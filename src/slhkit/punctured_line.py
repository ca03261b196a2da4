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
* kappa_pm = 1/2 +- i sigma, and the damped functional evaluates as
  <zeta|psi> = kappa_minus psi(0+) + kappa_plus psi(0-) (adjoint convention).

Storage

* a GridFunction holds read-only views of its value arrays (the array a
  caller passes in stays writable), so its grid derivative is computed once,
  on the first ``derivative`` call, and cached on the instance;
* ``defect_vectors`` keeps the pair for the most recent spec;
* GridSpec refuses a grid whose defect suite would need more than
  ``MAX_SOLVE_BYTES`` of live arrays (TooLarge), before anything is allocated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (MAX_SOLVE_BYTES, DomainTooSmall, InvalidMollifier,
                     SpecMismatch, TooLarge)

DECAY_TOL = 1e-12
MIN_HALF_WIDTH = 30.0
# Most two-sided complex node arrays the defect suite holds at once
# (tracemalloc peak of the CLI suite: 13.8 to 14.8 at 20k to 80k nodes).
DEFECT_LIVE_ARRAYS = 15


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


def _read_only(values) -> np.ndarray:
    """A read-only complex view; the array passed in keeps its own flags."""
    view = np.asarray(values, dtype=complex).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex values on the two half-line grids plus exact boundary traces.

    The value arrays are read-only views, which keeps the cached derivative
    (filled in by ``derivative``) valid.  Equality is identity: compare the
    value arrays to compare two functions.
    """

    spec: GridSpec
    left: np.ndarray
    right: np.ndarray
    left_limit: complex   # psi(0-)
    right_limit: complex  # psi(0+)
    _derivative: Optional["GridFunction"] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        left = _read_only(self.left)
        right = _read_only(self.right)
        n = self.spec.n_nodes
        if left.shape != (n,) or right.shape != (n,):
            raise SpecMismatch(
                f"value arrays must have shape ({n},), got {left.shape} and "
                f"{right.shape}")
        if not (np.isfinite(left).all() and np.isfinite(right).all()):
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
        return GridFunction(self.spec, self.left + other.left,
                            self.right + other.right,
                            self.left_limit + other.left_limit,
                            self.right_limit + other.right_limit)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.spec, scalar * self.left, scalar * self.right,
                            scalar * self.left_limit, scalar * self.right_limit)

    __rmul__ = __mul__


def require_same_spec(f: GridFunction, g: GridFunction) -> None:
    if f.spec != g.spec:
        raise SpecMismatch(f"grid specs differ: {f.spec} vs {g.spec}")


def sample(spec: GridSpec,
           left: Optional[Callable[[np.ndarray], np.ndarray]] = None,
           right: Optional[Callable[[np.ndarray], np.ndarray]] = None,
           left_limit: Optional[complex] = None,
           right_limit: Optional[complex] = None) -> GridFunction:
    """Evaluate callables on the half-line grids.

    A missing half is identically zero; a missing limit defaults to evaluating
    the corresponding callable at 0 (continuity from that side).
    """
    n = spec.n_nodes
    lv = np.zeros(n, dtype=complex) if left is None else \
        np.asarray(left(spec.left_nodes()), dtype=complex)
    rv = np.zeros(n, dtype=complex) if right is None else \
        np.asarray(right(spec.right_nodes()), dtype=complex)
    ll = (0.0 if left is None else complex(left(np.array([0.0]))[0])) \
        if left_limit is None else left_limit
    rl = (0.0 if right is None else complex(right(np.array([0.0]))[0])) \
        if right_limit is None else right_limit
    return GridFunction(spec, lv, rv, ll, rl)


@functools.lru_cache(maxsize=1)
def defect_vectors(spec: GridSpec):
    """The normalized defect pair (phi_+, phi_-); needs T >= 30 so the tails
    sit below the decay tolerance."""
    if spec.half_width < MIN_HALF_WIDTH:
        raise DomainTooSmall(
            f"half-width {spec.half_width} < {MIN_HALF_WIDTH}: exponential "
            f"tails would not vanish at the truncation boundary")
    phi_plus = GridFunction(spec,
                            np.zeros(spec.n_nodes, dtype=complex),
                            -1j * np.exp(-spec.right_nodes()),
                            0.0, -1j)
    phi_minus = GridFunction(spec,
                             1j * np.exp(spec.left_nodes()),
                             np.zeros(spec.n_nodes, dtype=complex),
                             1j, 0.0)
    return phi_plus, phi_minus


def _derivative_half(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order derivative on one half-line grid.

    Central differences in the interior, one-sided three-point stencils at the
    two boundary-adjacent nodes of the half-line.
    """
    d = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=d[1:-1])
    # numpy divides a complex array by a real scalar as a multiplication by
    # its reciprocal; doing that on the real view gives the same values
    # without the slower complex loop.
    interior = d[1:-1].view(np.float64)
    interior *= 1.0 / (2.0 * h)
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


def derivative(f: GridFunction) -> GridFunction:
    """Grid derivative; the boundary traces of the result are one-sided
    three-point estimates that use the stored traces of ``f``.

    Computed on the first call for ``f`` and cached on it afterwards.
    """
    if f._derivative is None:
        h = f.spec.spacing
        dleft = _derivative_half(f.left, h)
        dright = _derivative_half(f.right, h)
        dl0 = (3.0 * f.left_limit - 4.0 * f.left[-1] + f.left[-2]) / (2.0 * h)
        dr0 = (-3.0 * f.right_limit + 4.0 * f.right[0] - f.right[1]) / (2.0 * h)
        object.__setattr__(f, "_derivative",
                           GridFunction(f.spec, dleft, dright, dl0, dr0))
    return f._derivative


def _trapezoid_half(values: np.ndarray, boundary: complex, h: float,
                    boundary_is_right: bool) -> complex:
    """Composite trapezoid over one half-line, with the stored trace closing
    the panel that touches the origin.

    The panel sums go into one buffer in the order ``np.trapezoid`` would
    form them on the trace-extended array, so the pairwise sum is the same.
    """
    panels = np.empty_like(values)
    if boundary_is_right:           # [-T, 0): nodes ..., -h, then trace at 0-
        np.add(values[1:], values[:-1], out=panels[:-1])
        panels[-1] = boundary + values[-1]
    else:                           # (0, T]: trace at 0+, then nodes h, ...
        np.add(values[1:], values[:-1], out=panels[1:])
        panels[0] = values[0] + boundary
    real = panels.view(np.float64)
    real *= h
    real *= 0.5
    return complex(panels.sum())


def l2_inner(f: GridFunction, g: GridFunction) -> complex:
    """L2 pairing int conj(f) g over both half-lines (trapezoid, O(h^2))."""
    require_same_spec(f, g)
    h = f.spec.spacing
    left = _trapezoid_half(np.conj(f.left) * g.left,
                           np.conj(f.left_limit) * g.left_limit, h, True)
    right = _trapezoid_half(np.conj(f.right) * g.right,
                            np.conj(f.right_limit) * g.right_limit, h, False)
    return left + right


def sobolev_inner(f: GridFunction, g: GridFunction) -> complex:
    """Sobolev pairing int (conj(f) g + conj(f') g')."""
    return l2_inner(f, g) + l2_inner(derivative(f), derivative(g))


def sobolev_norm(f: GridFunction) -> float:
    return math.sqrt(max(sobolev_inner(f, f).real, 0.0))


def kappas(sigma: float):
    """(kappa_plus, kappa_minus) = (1/2 + i sigma, 1/2 - i sigma)."""
    return complex(0.5, sigma), complex(0.5, -sigma)


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
    """Regular grid function plus a coefficient on the singular functional.

    The singular part is delta_star when ``sigma`` is None and zeta_sigma
    otherwise.
    """

    regular: GridFunction
    coefficient: complex
    sigma: Optional[float]


def apply_iD(f: GridFunction, sigma: Optional[float] = None) -> SingularSum:
    """Distributional derivative i*d/dt + i |singular><jump|.

    The regular part is i times the finite-difference derivative; the singular
    coefficient i * jump(f) is exact boundary arithmetic.
    """
    reg = 1j * derivative(f)
    return SingularSum(regular=reg, coefficient=1j * f.jump, sigma=sigma)


def pair(f: GridFunction, s: SingularSum) -> complex:
    """<f | s> for a singular sum: L2 pairing of the regular part plus the
    singular coefficient against the conjugated functional evaluation."""
    return l2_inner(f, s.regular) + s.coefficient * np.conj(zeta_eval(f, s.sigma))


def id_symmetry_defect(f: GridFunction, g: GridFunction,
                       sigma: Optional[float] = None) -> complex:
    """<f|iD g> - <iD f|g>; zero up to O(h^2) discretization error."""
    return pair(f, apply_iD(g, sigma)) - np.conj(pair(g, apply_iD(f, sigma)))


def jay_form(f: GridFunction, g: GridFunction) -> complex:
    """<f|J g> = conj(f(0+)) g(0+) - conj(f(0-)) g(0-), exact boundary arithmetic."""
    return (np.conj(f.right_limit) * g.right_limit
            - np.conj(f.left_limit) * g.left_limit)


def boundary_form(f: GridFunction, g: GridFunction) -> complex:
    """Boundary form of the regular derivative alone: <f|i g'> - <i f'|g>.

    Equals -i <f|J g> up to O(h^2); adding the singular pairings of
    ``id_symmetry_defect`` cancels it entirely.
    """
    return (l2_inner(f, apply_iD(g).regular)
            - np.conj(l2_inner(g, apply_iD(f).regular)))


@dataclass(frozen=True)
class SobolevDecomposition:
    """Triple (psi0, c_plus, c_minus) with psi0 vanishing at the origin and
    psi = psi0 + c_plus phi_+ + c_minus phi_-."""

    psi0: GridFunction
    c_plus: complex
    c_minus: complex


def decompose_sobolev(f: GridFunction) -> SobolevDecomposition:
    """Split off the defect-vector components: c_pm = +-i psi(0+-)."""
    phi_plus, phi_minus = defect_vectors(f.spec)
    c_plus = 1j * f.right_limit
    c_minus = -1j * f.left_limit
    psi0 = f - c_plus * phi_plus - c_minus * phi_minus
    return SobolevDecomposition(psi0=psi0, c_plus=c_plus, c_minus=c_minus)


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
