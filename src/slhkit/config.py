"""Model configuration: JSON schema, validation, defaults, and hashing."""

from __future__ import annotations

import copy
import hashlib
import json
import numbers
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import NonHermitianInput, ParseError, SizeMismatch, ValidationError
from .linalg import adjoint, channel_blocks
from .punctured_line import MOLLIFIER_SHAPES
from .slh import CouplingMatrix, Gauge, GaugeMatrix, ScalarGauge


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
    e_values: List[float] = field(
        default_factory=lambda: [0.0, 0.1, 1.0, 2.0, float(np.pi)])
    sigma_values: List[float] = field(default_factory=lambda: [0.0])


@dataclass(frozen=True)
class ScatterConfig:
    e_value: float = float(np.pi)
    epsilons: List[float] = field(default_factory=lambda: [0.1, 0.01])
    mollifier: str = "bump"


@dataclass(frozen=True)
class ModelConfig:
    """A validated config: the coupling E, and the gauge that Z (a matrix)
    or sigma (a scalar) sets, or None."""

    coupling: CouplingMatrix
    gauge: Optional[Gauge] = None
    tolerances: Tolerances = Tolerances()
    grid: GridConfig = GridConfig()
    fock: FockConfig = FockConfig()
    seed: int = 0
    phase: PhaseConfig = PhaseConfig()
    scatter: ScatterConfig = ScatterConfig()

    def canonical_dict(self) -> dict:
        """Plain JSON-able dict with defaults resolved (complex as [re, im])."""
        gauge = self.gauge
        out = {
            "m": self.coupling.m,
            "n": self.coupling.n,
            "E": _complex_matrix_to_json(self.coupling.full),
            "Z": _complex_matrix_to_json(gauge.zll)
                 if isinstance(gauge, GaugeMatrix) else None,
            "sigma": gauge.sigma if isinstance(gauge, ScalarGauge) else None,
            "seed": self.seed,
        }
        for key, (_, fields) in _SECTIONS.items():
            section = getattr(self, key)
            out[key] = {k: copy.copy(getattr(section, attr))
                        for k, (attr, _) in fields.items()}
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True,
                             separators=(",", ":")).encode()
        return hashlib.sha256(payload).hexdigest()


def _complex_matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, complex)]


# JSON key -> (attribute, kind) for each optional section; the defaults of
# absent keys are those of the section's dataclass.
_SECTIONS = {
    "tolerances": (Tolerances, {"hermiticity": ("hermiticity", float),
                                "kernel": ("kernel", float),
                                "action": ("action", float)}),
    "grid": (GridConfig, {"T": ("half_width", float), "h": ("spacing", float)}),
    "fock": (FockConfig, {"d": ("d", int)}),
    "phase": (PhaseConfig, {"E": ("e_values", [float]),
                            "sigma": ("sigma_values", [float])}),
    "scatter": (ScatterConfig, {"E": ("e_value", float),
                                "epsilon": ("epsilons", [float]),
                                "mollifier": ("mollifier", str)}),
}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _read(value, kind, name: str):
    """``value`` as ``kind``, else ValidationError: int takes an integer (not
    a bool), float a finite integer or float (stored as float), str a string,
    and a one-element list [k] a nonempty array of k."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ValidationError(
                f"{name} must be a nonempty array, got {value!r}")
        return [_read(v, kind[0], f"{name}[{i}]") for i, v in enumerate(value)]
    ok = (isinstance(value, str) if kind is str else
          isinstance(value, numbers.Real if kind is float else numbers.Integral)
          and not isinstance(value, bool))
    if not ok:
        raise ValidationError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    # NaN fails every comparison; an integer too large for a float fails this.
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{name} is not finite: {value!r}")
    return kind(value)


def _section(data: dict, key: str):
    """The section ``key`` of the config, its absent keys at their defaults."""
    cls, fields = _SECTIONS[key]
    obj = data.get(key, {})
    if not isinstance(obj, dict):
        raise ValidationError(f"'{key}' must be an object, got {obj!r}")
    unknown = set(obj) - set(fields)
    if unknown:
        raise ValidationError(f"unknown keys in '{key}': {sorted(unknown)}")
    return cls(**{attr: _read(obj[k], kind, f"{key}.{k}")
                  for k, (attr, kind) in fields.items() if k in obj})


def _parse_complex_matrix(obj, size: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != size:
        raise ValidationError(f"{what} must be a {size}x{size} nested array")
    out = np.zeros((size, size), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != size:
            raise ValidationError(f"{what} row {i} must have {size} entries")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise ValidationError(
                    f"{what}[{i}][{j}] must be a [re, im] pair")
            out[i, j] = complex(*(_read(x, float, f"{what}[{i}][{j}]")
                                  for x in cell))
    return out


def _check_blockwise_hermiticity(e: np.ndarray, m: int, tol: float) -> None:
    """Hermiticity with the offending block named in the error message: the
    first block, in row-major order, of largest max-entry E_ab - E_ba^dag."""
    scale = max(float(np.abs(e).max()), 1.0)
    defects = np.abs(channel_blocks(e - adjoint(e), m)).max(axis=(2, 3))
    worst = float(defects.max())
    alpha, beta = np.argwhere(defects == worst)[0]
    if worst > tol * scale:
        raise ValidationError(
            f"E block ({alpha},{beta}) is not the adjoint of "
            f"block ({beta},{alpha}): max asymmetry {worst:.3e}")


def config_from_dict(data: dict) -> ModelConfig:
    """Validate a parsed JSON object and fill defaults."""
    if not isinstance(data, dict):
        raise ValidationError("top-level config must be a JSON object")
    known = {"m", "n", "E", "Z", "sigma", "seed", *_SECTIONS}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    if "m" not in data or "n" not in data:
        raise ValidationError("config must provide integer fields 'm' and 'n'")
    m, n = _read(data["m"], int, "m"), _read(data["n"], int, "n")
    if m < 1 or n < 1:
        raise ValidationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")

    size = (1 + n) * m
    if "E" not in data:
        raise ValidationError("config must provide the coupling matrix 'E'")
    e_matrix = _parse_complex_matrix(data["E"], size, "E")

    sections = {key: _section(data, key) for key in _SECTIONS}
    tolerances = sections["tolerances"]
    if min(vars(tolerances).values()) < 0:
        raise ValidationError(f"tolerances must be >= 0, got {tolerances}")
    _check_blockwise_hermiticity(e_matrix, m, tolerances.hermiticity)
    coupling = CouplingMatrix(m, n, e_matrix)

    gauge = None
    if data.get("Z") is not None:
        z_matrix = _parse_complex_matrix(data["Z"], n * m, "Z")
        try:
            gauge = GaugeMatrix(z_matrix, tolerances.hermiticity)
        except (NonHermitianInput, SizeMismatch) as exc:
            raise ValidationError(f"invalid gauge matrix Z: {exc}") from None
    if data.get("sigma") is not None:
        sigma = _read(data["sigma"], float, "sigma")
        if gauge is not None:
            raise ValidationError("specify at most one of 'Z' and 'sigma'")
        gauge = ScalarGauge(sigma)

    grid = sections["grid"]
    if grid.spacing <= 0 or grid.half_width <= 0:
        raise ValidationError("grid T and h must be positive")
    if sections["fock"].d < 3:
        raise ValidationError(
            f"photon cutoff d must be >= 3, got {sections['fock'].d}")
    seed = _read(data.get("seed", 0), int, "seed")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    if any(eps <= 0 for eps in sections["scatter"].epsilons):
        raise ValidationError("scatter epsilons must be positive")
    if sections["scatter"].mollifier not in MOLLIFIER_SHAPES:
        raise ValidationError(
            f"scatter.mollifier must be one of {sorted(MOLLIFIER_SHAPES)}")

    return ModelConfig(coupling=coupling, gauge=gauge, seed=seed, **sections)


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
