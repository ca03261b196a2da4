"""Model configuration: JSON schema, validation, defaults, and hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import NonHermitianInput, ParseError, SizeMismatch, ValidationError
from .linalg import adjoint
from .slh import CouplingMatrix, GaugeMatrix, ScalarGauge, validate_coupling

DEFAULT_PHASE_E = [0.0, 0.1, 1.0, 2.0, float(np.pi)]
DEFAULT_PHASE_SIGMA = [0.0]
DEFAULT_SCATTER_E = float(np.pi)
DEFAULT_SCATTER_EPS = [0.1, 0.01]


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-10
    kernel: float = 1e-8
    action: float = 1e-8


@dataclass(frozen=True)
class GridConfig:
    half_width: float = 40.0
    spacing: float = 1e-3


@dataclass(frozen=True)
class FockConfig:
    d: int = 5


@dataclass(frozen=True)
class PhaseConfig:
    e_values: List[float] = field(default_factory=lambda: list(DEFAULT_PHASE_E))
    sigma_values: List[float] = field(default_factory=lambda: list(DEFAULT_PHASE_SIGMA))


@dataclass(frozen=True)
class ScatterConfig:
    e_value: float = DEFAULT_SCATTER_E
    epsilons: List[float] = field(default_factory=lambda: list(DEFAULT_SCATTER_EPS))
    mollifier: str = "bump"


@dataclass(frozen=True)
class ModelConfig:
    m: int
    n: int
    e_matrix: np.ndarray
    z_matrix: Optional[np.ndarray] = None
    sigma: Optional[float] = None
    tolerances: Tolerances = Tolerances()
    grid: GridConfig = GridConfig()
    fock: FockConfig = FockConfig()
    seed: int = 0
    phase: PhaseConfig = PhaseConfig()
    scatter: ScatterConfig = ScatterConfig()

    def coupling(self) -> CouplingMatrix:
        return validate_coupling(self.e_matrix, self.m, self.n,
                                 self.tolerances.hermiticity)

    def gauge(self):
        """The configured gauge, or None; Z takes a matrix, sigma a scalar."""
        if self.z_matrix is not None:
            return GaugeMatrix(self.z_matrix, self.tolerances.hermiticity)
        if self.sigma is not None:
            return ScalarGauge(self.sigma)
        return None

    def canonical_dict(self) -> dict:
        """Plain JSON-able dict with defaults resolved (complex as [re, im])."""
        out = {
            "m": self.m,
            "n": self.n,
            "E": _complex_matrix_to_json(self.e_matrix),
            "Z": None if self.z_matrix is None
                 else _complex_matrix_to_json(self.z_matrix),
            "sigma": self.sigma,
            "tolerances": {
                "hermiticity": self.tolerances.hermiticity,
                "kernel": self.tolerances.kernel,
                "action": self.tolerances.action,
            },
            "grid": {"T": self.grid.half_width, "h": self.grid.spacing},
            "fock": {"d": self.fock.d},
            "seed": self.seed,
            "phase": {"E": list(self.phase.e_values),
                      "sigma": list(self.phase.sigma_values)},
            "scatter": {"E": self.scatter.e_value,
                        "epsilon": list(self.scatter.epsilons),
                        "mollifier": self.scatter.mollifier},
        }
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True,
                             separators=(",", ":")).encode()
        return hashlib.sha256(payload).hexdigest()


def _complex_matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, complex)]


def _parse_complex_matrix(obj, size: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != size:
        raise ValidationError(f"{what} must be a {size}x{size} nested array")
    out = np.zeros((size, size), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != size:
            raise ValidationError(f"{what} row {i} must have {size} entries")
        for j, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(isinstance(x, (int, float)) for x in cell)):
                raise ValidationError(
                    f"{what}[{i}][{j}] must be a [re, im] pair")
            if not all(math.isfinite(x) for x in cell):
                raise ValidationError(f"{what}[{i}][{j}] is not finite: {cell}")
            out[i, j] = complex(cell[0], cell[1])
    return out


def _check_blockwise_hermiticity(e: np.ndarray, m: int, n: int, tol: float) -> None:
    """Hermiticity with the offending block named in the error message."""
    scale = max(float(np.abs(e).max()), 1.0)
    worst, worst_pair = 0.0, None
    for alpha in range(n + 1):
        for beta in range(n + 1):
            a = e[alpha * m:(alpha + 1) * m, beta * m:(beta + 1) * m]
            b = e[beta * m:(beta + 1) * m, alpha * m:(alpha + 1) * m]
            defect = float(np.abs(a - adjoint(b)).max())
            if defect > worst:
                worst, worst_pair = defect, (alpha, beta)
    if worst > tol * scale:
        raise ValidationError(
            f"E block ({worst_pair[0]},{worst_pair[1]}) is not the adjoint of "
            f"block ({worst_pair[1]},{worst_pair[0]}): max asymmetry {worst:.3e}")


def config_from_dict(data: dict) -> ModelConfig:
    """Validate a parsed JSON object and fill defaults."""
    if not isinstance(data, dict):
        raise ValidationError("top-level config must be a JSON object")
    known = {"m", "n", "E", "Z", "sigma", "tolerances", "grid", "fock",
             "seed", "phase", "scatter"}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    try:
        m = int(data["m"])
        n = int(data["n"])
    except (KeyError, TypeError, ValueError):
        raise ValidationError("config must provide integer fields 'm' and 'n'") from None
    if m < 1 or n < 1:
        raise ValidationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")

    size = (1 + n) * m
    if "E" not in data:
        raise ValidationError("config must provide the coupling matrix 'E'")
    e_matrix = _parse_complex_matrix(data["E"], size, "E")

    tol_in = data.get("tolerances", {}) or {}
    if not isinstance(tol_in, dict):
        raise ValidationError("'tolerances' must be an object")
    tolerances = Tolerances(
        hermiticity=float(tol_in.get("hermiticity", Tolerances.hermiticity)),
        kernel=float(tol_in.get("kernel", Tolerances.kernel)),
        action=float(tol_in.get("action", Tolerances.action)),
    )
    _check_blockwise_hermiticity(e_matrix, m, n, tolerances.hermiticity)

    z_matrix = None
    if data.get("Z") is not None:
        z_matrix = _parse_complex_matrix(data["Z"], n * m, "Z")
        try:
            GaugeMatrix(z_matrix, tolerances.hermiticity)
        except (NonHermitianInput, SizeMismatch) as exc:
            raise ValidationError(f"invalid gauge matrix Z: {exc}") from None
    sigma = None if data.get("sigma") is None else float(data["sigma"])
    if sigma is not None and not math.isfinite(sigma):
        raise ValidationError(f"sigma must be finite, got {sigma}")
    if z_matrix is not None and sigma is not None:
        raise ValidationError("specify at most one of 'Z' and 'sigma'")

    grid_in = data.get("grid", {}) or {}
    grid = GridConfig(half_width=float(grid_in.get("T", GridConfig.half_width)),
                      spacing=float(grid_in.get("h", GridConfig.spacing)))
    if not (math.isfinite(grid.half_width) and math.isfinite(grid.spacing)):
        raise ValidationError(
            f"grid T and h must be finite, got T={grid.half_width}, "
            f"h={grid.spacing}")
    if grid.spacing <= 0 or grid.half_width <= 0:
        raise ValidationError("grid T and h must be positive")

    fock_in = data.get("fock", {}) or {}
    fock = FockConfig(d=int(fock_in.get("d", FockConfig.d)))
    if fock.d < 3:
        raise ValidationError(f"photon cutoff d must be >= 3, got {fock.d}")

    seed = int(data.get("seed", 0))
    if seed < 0:
        raise ValidationError("seed must be nonnegative")

    phase_in = data.get("phase", {}) or {}
    phase = PhaseConfig(
        e_values=[float(x) for x in phase_in.get("E", DEFAULT_PHASE_E)],
        sigma_values=[float(x) for x in phase_in.get("sigma", DEFAULT_PHASE_SIGMA)],
    )
    scatter_in = data.get("scatter", {}) or {}
    scatter = ScatterConfig(
        e_value=float(scatter_in.get("E", DEFAULT_SCATTER_E)),
        epsilons=[float(x) for x in scatter_in.get("epsilon", DEFAULT_SCATTER_EPS)],
        mollifier=str(scatter_in.get("mollifier", "bump")),
    )
    if any(eps <= 0 for eps in scatter.epsilons):
        raise ValidationError("scatter epsilons must be positive")

    return ModelConfig(m=m, n=n, e_matrix=e_matrix, z_matrix=z_matrix,
                       sigma=sigma, tolerances=tolerances, grid=grid,
                       fock=fock, seed=seed, phase=phase, scatter=scatter)


def load_config(path: str) -> ModelConfig:
    """Read and validate a JSON model configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {path!r}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}") from None
    return config_from_dict(data)
