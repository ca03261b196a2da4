"""Seeded workload configs and the answer fingerprint gate.

Each workload is one slhkit CLI invocation on a config generated here from a
workload seed. The generator is pure Python (``random.Random``), so the
benchmark inputs do not change when the program's own random ensembles do.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class Workload:
    command: str
    sweep: int
    m: int
    n: int
    zero_channel_system: bool = False
    sigma: Optional[float] = None
    d: Optional[int] = None
    grid_h: Optional[float] = None


# BENCHMARK.json lists fock-kernel and grid-defect, which between them reach
# every module. fock-coupled and slh-sweep run by name or with --workload all;
# they are not listed there because on a shared 2-core box machine-wide CPU
# speed swings (about 1.5x) can push any workload's wall-time spread over ten
# seeds past its bound, and each listed workload is one more such chance.
WORKLOADS = {
    # Fock hot path with a nonempty boundary kernel. E_l0 = 0 (the
    # zero_channel_system ensemble) and a scalar sigma, so the plain and the
    # gauged battery both find kernel vectors and run principal angles,
    # guarded domain sampling and action residuals. (1,2,4) is dim 256: dense
    # O(dim^3) work in fock and linalg is most of each run, and one run stays
    # near 2 s so a measuring window holds about ten runs.
    "fock-kernel": Workload("fock", sweep=1, m=1, n=2, d=4,
                            zero_channel_system=True, sigma=0.3),
    # Same layer and size, generic invertible E_l0: the boundary kernel is
    # empty, so only rank decisions run (no angles, no action residuals).
    # A Fock change that costs this block-bidiagonal case shows here.
    "fock-coupled": Workload("fock", sweep=0, m=1, n=2, d=4, sigma=0.3),
    # Thousands of tiny dressing solves and thousands of check records to
    # serialize: slh, ensembles and report do the work; fock is bypassed.
    "slh-sweep": Workload("slh", sweep=4000, m=2, n=3),
    # Grid layer only: 80k nodes per half-line at h = 5e-4, T = 40. Bypasses
    # fock and slh.
    "grid-defect": Workload("defect", sweep=0, m=1, n=1, grid_h=5e-4),
}

GRID_HALF_WIDTH = 40.0


def _random_hermitian(rng: random.Random, dim: int) -> List[List[complex]]:
    """Symmetrized complex Gaussian draw rescaled to max entry 1."""
    a = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
         for _ in range(dim)]
    return [[0.5 * (a[i][j] + a[j][i].conjugate()) for j in range(dim)]
            for i in range(dim)]


def coupling_matrix(w: Workload, rng: random.Random) -> List[List[complex]]:
    """Hermitian (1+n)m coupling; with zero_channel_system the E_l0/E_0l
    blocks are zeroed before rescaling to max entry 1."""
    size = (1 + w.n) * w.m
    e = _random_hermitian(rng, size)
    if w.zero_channel_system:
        for i in range(size):
            for j in range(size):
                if (i < w.m) != (j < w.m):
                    e[i][j] = 0j
    top = max(abs(x) for row in e for x in row)
    return [[x / top for x in row] for row in e]


def generate_config(name: str, seed: int) -> bytes:
    """Config JSON bytes for one workload; the same (name, seed) always gives
    the same bytes."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    e = coupling_matrix(w, rng)
    cfg = {
        "m": w.m,
        "n": w.n,
        "E": [[[x.real, x.imag] for x in row] for row in e],
        "seed": seed % 2 ** 32,
    }
    if w.sigma is not None:
        cfg["sigma"] = w.sigma
    if w.d is not None:
        cfg["fock"] = {"d": w.d}
    if w.grid_h is not None:
        cfg["grid"] = {"T": GRID_HALF_WIDTH, "h": w.grid_h}
    return (json.dumps(cfg, indent=1) + "\n").encode()


def fingerprint(report: dict) -> dict:
    """The answers a speed-up must not change, read from a JSON report."""
    checks = {c["name"]: c["value"] for c in report["checks"]}
    fp = {"checks": len(report["checks"])}
    if report["command"] == "fock":
        for prefix in ("", "gauged."):
            fp[prefix + "kernel_dims"] = checks.get(prefix + "kernel_dims")
            fp[prefix + "max_principal_angle"] = checks.get(prefix + "max_principal_angle")
            fp[prefix + "max_action_residual"] = checks.get(prefix + "max_action_residual")
            fp[prefix + "domain_vectors"] = report["results"].get(prefix + "domain_vectors")
    return fp


def _fock_prefixes(w: Workload):
    """Check-name prefixes of the Fock batteries the CLI runs for ``w``."""
    return ("", "gauged.") if w.sigma is not None else ("",)


def gate(name: str, report: dict) -> List[str]:
    """Reasons the report breaks the workload's expectation (empty if none)."""
    w = WORKLOADS[name]
    problems = []
    if report.get("command") != w.command:
        problems.append(f"report is for {report.get('command')!r}, not {w.command!r}")
        return problems
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    if failing:
        problems.append(f"checks failed: {failing[:3]}")
    fp = fingerprint(report)
    if w.command == "fock":
        for prefix in _fock_prefixes(w):
            dims = fp[prefix + "kernel_dims"]
            vectors = fp[prefix + "domain_vectors"]
            if not dims or dims[0] != dims[1]:
                problems.append(f"{prefix}kernel_dims differ between routes: {dims}")
                continue
            if w.zero_channel_system and (dims[0] == 0 or not vectors):
                problems.append(f"{prefix}vacuous: kernel dim {dims[0]}, "
                                f"domain vectors {vectors}")
            if not w.zero_channel_system and dims[0] != 0:
                problems.append(f"{prefix}kernel dim {dims[0]} should be 0 "
                                f"for an invertible E_l0")
    elif w.command == "slh":
        swept = sum(1 for c in report["checks"] if c["name"].startswith("sweep["))
        if swept != w.sweep:
            problems.append(f"{swept} sweep checks, expected {w.sweep}")
    elif fp["checks"] == 0:
        problems.append("report has no checks")
    return problems
