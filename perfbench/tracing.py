"""In-process spans around calls into slhkit's modules, and per-layer metrics.

The program is not edited. ``instrument`` replaces each traced function in
every slhkit module namespace that holds it (``fock`` calls ``null_space``
through its own imported name, ``cli`` calls the ``fock`` stages through its
imports), so every call site is covered. Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    run: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per traced call; ``run`` tags spans of one invocation."""

    def __init__(self):
        self.spans: List[Span] = []
        self.run = 0
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             measure: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.run, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span.counts = measure(args, result)
            return result
        return traced


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, edge = 0.0, s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s.duration - covered)
    return out


# --- computed figures: array sizes and operation counts, not hardware counters

def _svd_flops(args, result) -> dict:
    """Real flops of a complex SVD with full U and V (Golub & Van Loan's
    4r^2c + 8rc^2 + 9c^3 for r >= c, times 4 for complex arithmetic)."""
    r, c = args[0].shape
    r, c = max(r, c), min(r, c)
    return {"linalg.null_space.flops": 4 * (4 * r * r * c + 8 * r * c * c + 9 * c ** 3)}


def _operator_bytes(args, result) -> dict:
    ops = result
    count = (len(ops.a_plus) + len(ops.a_minus) + len(ops.a_star)
             + len(ops.frak_a) + 1)
    return {"fock.dim": ops.space.dim,
            "fock.operator_bytes": 16 * ops.space.dim ** 2 * count}


def _grid_bytes(args, result) -> dict:
    f, g = args[0], args[1]
    return {"punctured_line.nodes": f.spec.n_nodes,
            "punctured_line.bytes": sum(a.nbytes for a in (f.left, f.right, g.left, g.right))}


def _report_bytes(args, result) -> dict:
    return {"report.bytes": len(result), "report.checks": len(args[0].checks)}


# (module, function, computed-figure hook). Span names are "module.function".
TARGETS = [
    ("cli", "run_command", None),
    ("config", "load_config", None),
    ("report", "emit_report", _report_bytes),
    ("slh", "slh_triple", None),
    ("slh", "ito_matrix", None),
    ("fock", "build_mode_operators", _operator_bytes),
    ("fock", "subspace_equivalence", None),
    ("fock", "sample_domain_vectors", None),
    ("fock", "action_residuals", None),
    ("fock", "commutator_defect", None),
    ("fock", "number_defect_residual", None),
    ("fock", "number_spectrum_defect", None),
    ("fock", "stacked_boundary_rows", None),
    ("linalg", "null_space", _svd_flops),
    ("linalg", "principal_angles", None),
    ("punctured_line", "sobolev_inner", _grid_bytes),
    ("punctured_line", "derivative", None),
    ("punctured_line", "decompose_sobolev", None),
]

COMPUTED = ("fock.operator_bytes", "linalg.null_space.flops", "punctured_line.bytes")
# Sizes, not amounts of work: the largest seen in a run, not the sum.
SIZE_COUNTS = ("fock.dim", "punctured_line.nodes")


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target in every loaded slhkit module; returns the undo."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "slhkit" or name.startswith("slhkit."))]
    undo = []
    for mod_name, fn_name, measure in TARGETS:
        original = getattr(sys.modules[f"slhkit.{mod_name}"], fn_name)
        wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original, measure)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, original))

    def restore():
        for mod, attr, original in undo:
            setattr(mod, attr, original)
    return restore


def run_totals(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Per run: total seconds (.s), self seconds (.self_s), calls and summed
    counts for each span name, plus the fock+linalg self-time sum."""
    selfs = self_times(spans)
    runs: Dict[int, Dict[str, float]] = {}
    for s, self_s in zip(spans, selfs):
        tot = runs.setdefault(s.run, {"fock_linalg.self_s": 0.0})
        for key, value in ((".s", s.duration), (".self_s", self_s), (".calls", 1)):
            tot[s.name + key] = tot.get(s.name + key, 0) + value
        for key, value in s.counts.items():
            combine = max if key in SIZE_COUNTS else sum
            tot[key] = combine((tot.get(key, 0), value))
        if s.name.startswith(("fock.", "linalg.")):
            tot["fock_linalg.self_s"] += self_s
    return runs


def layer_metrics(spans: List[Span], names: List[str]) -> Dict[str, float]:
    """Median over runs of each named per-run figure (0 where never recorded,
    i.e. the workload does not reach that layer)."""
    runs = list(run_totals(spans).values())
    return {name: statistics.median(r.get(name, 0) for r in runs) if runs else 0
            for name in names}
