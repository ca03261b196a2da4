"""Batch front end: one binary, five subcommands, deterministic reports.

    slhkit {slh|phase|defect|scatter|fock} --config PATH
           [--out PATH] [--format json|csv] [--seed N] [--sweep N]

Most check values come from a library function that the tests call too
(``slh.identity_residuals``, ``fock.fock_battery``, ...); this module names
the records, holds each to its entry of ``TOLERANCES`` (the Fock angle and
action tolerances are the config's) and fixes the order of the random draws.
The ``defect`` suite is one ordered table, ``DEFECT_GROUPS``: check group
name to a function ``(spec, rng, report)``, walked by ``command_defect``.

Layers: this module imports ``config``, ``ensembles``, ``report``, ``slh``
and ``phases``, which every subcommand or the config needs. It holds the
Fock and grid layers in ``sys.modules`` as lazy modules (``_lazy``) and
calls them through their attributes (``fock.fock_battery``,
``punctured_line.reproducing_defects``, ...), so a process executes only its
subcommand's layer: ``fock`` runs no grid code, ``defect`` no Fock code,
and ``slh``, ``phase`` and ``scatter`` neither. A tool that wraps functions
found in ``sys.modules`` finds both layers there; its first read of one
runs it. The run time printed on stderr includes loading the layer.

Exit code 0 iff every emitted check passes; config problems, a negative
``--seed`` or ``--sweep``, and a nonzero ``--sweep`` for a subcommand other
than ``slh`` and ``fock`` exit 2, and the first failing check (or a
module-level numerical error) exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import sys
import time
from typing import Optional

import numpy as np

from . import phases
from .config import ModelConfig, Tolerances, load_config
from .ensembles import random_bump, random_coupling
from .errors import ParseError, SlhkitError, ValidationError
from .linalg import cayley
from .report import Report, emit_report
from .slh import (ScalarGauge, gauge_reduction_check, identity_residuals,
                  slh_triple)


def _lazy(name: str):
    """``slhkit.<name>``, held in ``sys.modules`` but not yet run: its code
    runs on the first read of any of its attributes (the
    ``importlib.util.LazyLoader`` recipe). A module already imported is
    returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# Each layer runs when the subcommand that needs it first calls into it.
fock = _lazy("fock")
punctured_line = _lazy("punctured_line")


# The tolerance of every check, keyed by check: a record's name without its
# sweep index, parameters or defect-vector side. Each record states its
# tolerance. The Fock angle and action tolerances are ``config.Tolerances``.
TOLERANCES = {
    # slh: identity_residuals by name; a sweep instance's largest residual
    "ito_isometry": 1e-10, "s_unitarity": 1e-10, "h_hermiticity": 1e-10,
    "recomposition": 1e-10, "first_row": 0.0, "g_equals_minus_ief": 1e-12,
    "dressing_inverse": 1e-10, "half_e_galilean": 1e-10,
    "scalar_cayley_match": 1e-12, "gauge_z_zero_reduction": 1e-12,
    "gauge_scalar_closed_form": 1e-12, "sweep.identities": 1e-10,
    # phase
    "phase.unimodular": 1e-14, "phase.sigma_zero_exact": 0.0,
    # defect
    "jump_on_defect": 0.0, "defect_norm": 1e-5, "defect_overlap": 0.0,
    "reproducing": 1e-5, "decomposition_boundary_zero": 0.0,
    "decomposition_orthogonality": 1e-5,
    "decomposition_reconstruction": 1e-13,
    "eigenrelation_coefficient": 0.0, "eigenrelation_regular": 1e-5,
    "jump_splitting_identity": 1e-13, "boundary_form_vs_traces": 1e-4,
    "id_symmetry_defect": 1e-4, "id_symmetry_defect_damped": 1e-4,
    "extension_domain_annihilation": 1e-13,
    # scatter: the contrast at E = pi must exceed its entry, a bound its
    # record does not state
    "scatter.mollifier_norm": 1e-8, "scatter.phase_error": 1e-6,
    "scatter.eps_independence": 1e-8, "scatter.contrast_exceeds_half": 0.5,
    # fock
    "ladder_commutators": 1e-12, "number_spectra": 1e-12,
    "number_defect_identity": 1e-12, "gauge_zero_reduction": 1e-12,
}


# --- slh ---------------------------------------------------------------------

def command_slh(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    coupling, gauge = config.coupling, config.gauge
    res = slh_triple(coupling, gauge)
    report.results["matrices"] = {
        "G": res.ito, "V": res.model, "M": res.galilean,
        "F": res.dressing, "S": res.s, "L": res.l, "H": res.h,
    }
    for name, value in identity_residuals(res).items():
        report.add(name, value, TOLERANCES[name])
    if coupling.n * coupling.m == 1 and gauge is None:
        s_ref = cayley(coupling.full[1:, 1:], 0.5)[0, 0]
        report.add("scalar_cayley_match",
                   abs(complex(res.s[0, 0]) - complex(s_ref)),
                   TOLERANCES["scalar_cayley_match"])
    if gauge is None:
        reduction = gauge_reduction_check(coupling)
        report.add("gauge_z_zero_reduction", reduction["z_zero_residual"],
                   TOLERANCES["gauge_z_zero_reduction"])
        for sigma, residuals in reduction["scalar_residuals"].items():
            report.add(f"gauge_scalar_closed_form[sigma={sigma!r}]",
                       max(residuals.values()),
                       TOLERANCES["gauge_scalar_closed_form"])
    rng = np.random.default_rng(seed)
    for i in range(sweep):
        res_i = slh_triple(random_coupling(rng, coupling.m, coupling.n))
        report.add(f"sweep[{i:03d}].identities",
                   max(identity_residuals(res_i).values()),
                   TOLERANCES["sweep.identities"])


# --- phase ---------------------------------------------------------------

def command_phase(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    rows = []
    for sigma in config.phase.sigma_values:
        for e in config.phase.e_values:
            ph = phases.boundary_phase(e, sigma)
            rows.append([e, sigma, ph.s, ph.s_sigma, ph.s_chebotarev])
            defect = max(abs(abs(s) - 1.0)
                         for s in (ph.s, ph.s_sigma, ph.s_chebotarev))
            report.add(f"phase[e={e!r},sigma={sigma!r}].unimodular", defect,
                       TOLERANCES["phase.unimodular"])
            if sigma == 0.0:
                report.add(f"phase[e={e!r},sigma={sigma!r}].sigma_zero_exact",
                           abs(ph.s_sigma - ph.s),
                           TOLERANCES["phase.sigma_zero_exact"])
    report.results["columns"] = ["e", "sigma", "s", "s_sigma", "s_chebotarev"]
    report.results["rows"] = rows


# --- defect ---------------------------------------------------------------
# The check groups of the defect suite, each (spec, rng, report). A group
# draws its bumps first (a bump draws its parameters when it is made, not
# when it is evaluated), each function a (left, right) pair of sources read
# chunk by chunk; the grid layer's group function then checks both
# half-lines and returns the values the group names.

def _bumps(spec, rng: np.random.Generator):
    # a bump on each half-line, the left one drawn first
    return punctured_line.sample(spec, random_bump(rng, "left"),
                                 random_bump(rng, "right"))


def _defect_vectors(spec, rng: np.random.Generator, report: Report) -> None:
    for check, values in punctured_line.defect_vector_defects(spec).items():
        for name, value in values.items():
            report.add(f"{check}_{name}", value, TOLERANCES[check])
    # <phi_+|phi_->_S: the supports are disjoint, so no half-line holds
    # both and the pairing is 0 by construction. Kept for the report.
    report.add("defect_overlap", 0.0, TOLERANCES["defect_overlap"])


def _reproducing(spec, rng: np.random.Generator, report: Report) -> None:
    # psi_r is a bump on the right half-line, paired with phi_+, and psi_l
    # one on the left, paired with phi_-, drawn in that order.
    draws = ((random_bump(rng, "right"), random_bump(rng, "left"))
             for _ in range(10))
    for name, values in punctured_line.reproducing_defects(spec, [
            punctured_line.sample(spec, psi_l, psi_r)
            for psi_r, psi_l in draws]).items():
        report.add(f"reproducing_{name}", max([0.0] + values),
                   TOLERANCES["reproducing"])


def _decomposition(spec, rng: np.random.Generator, report: Report) -> None:
    for key, values in punctured_line.decomposition_defects(
            spec, [_bumps(spec, rng) for _ in range(10)]).items():
        name = f"decomposition_{key}"
        report.add(name, max([0.0] + values), TOLERANCES[name])


def _eigenrelation(spec, rng: np.random.Generator, report: Report) -> None:
    for name, values in punctured_line.eigenrelation_defects(spec).items():
        for key, value in values.items():
            report.add(f"eigenrelation_{name}_{key}", value,
                       TOLERANCES[f"eigenrelation_{key}"])


def _jump_splitting(spec, rng: np.random.Generator, report: Report) -> None:
    # One draw, indexed (sigma, instance, value, re/im): the same numbers in
    # the same order as one scalar draw per part, so the generator ends in
    # the same state.
    values = rng.uniform(-1, 1, size=(3, 100, 4, 2)).view(complex)[..., 0]
    worst = 0.0
    for sigma, instances in zip((0.0, 0.3, -1.0), values.tolist()):
        for fp, fm, gp, gm in instances:
            worst = max(worst, punctured_line.jump_splitting_defect(
                fp, fm, gp, gm, sigma))
    report.add("jump_splitting_identity", worst,
               TOLERANCES["jump_splitting_identity"])


def _symmetry(spec, rng: np.random.Generator, report: Report) -> None:
    for name, value in punctured_line.symmetry_defects(
            spec, _bumps(spec, rng), _bumps(spec, rng), 0.3).items():
        report.add(name, value, TOLERANCES[name])


def _extension(spec, rng: np.random.Generator, report: Report) -> None:
    worst = max(punctured_line.extension_domain_defect(e, sigma,
                                                       complex(0.7, -0.4))
                for e in (0.5, 2.0, float(np.pi)) for sigma in (0.0, 0.3))
    report.add("extension_domain_annihilation", worst,
               TOLERANCES["extension_domain_annihilation"])


# Run order fixes every random draw. ``command_defect`` reads the table when
# it runs, so a tool may swap in a table of wrapped entries.
DEFECT_GROUPS = {
    "defect_vectors": _defect_vectors,
    "reproducing": _reproducing,
    "decomposition": _decomposition,
    "eigenrelation": _eigenrelation,
    "jump_splitting": _jump_splitting,
    "symmetry": _symmetry,
    "extension": _extension,
}


def command_defect(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    spec = punctured_line.GridSpec(config.grid.half_width, config.grid.spacing)
    rng = np.random.default_rng(seed)
    for group in DEFECT_GROUPS.values():
        group(spec, rng, report)


# --- scatter ---------------------------------------------------------------

def command_scatter(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    e = config.scatter.e_value
    rows = []
    for eps in config.scatter.epsilons:
        r = phases.scatter_regularized(e, eps, config.scatter.mollifier)
        rows.append([r.epsilon, r.transmitted_phase, r.phase_error,
                     r.contrast, r.mollifier_integral - 1.0])
        report.add(f"scatter[eps={eps!r}].mollifier_norm",
                   abs(r.mollifier_integral - 1.0),
                   TOLERANCES["scatter.mollifier_norm"])
        report.add(f"scatter[eps={eps!r}].phase_error", r.phase_error,
                   TOLERANCES["scatter.phase_error"])
    for i in range(1, len(rows)):
        report.add(f"scatter.eps_independence[{i}]",
                   abs(rows[i][1] - rows[0][1]),
                   TOLERANCES["scatter.eps_independence"])
    contrast = rows[0][3]
    report.results["columns"] = ["epsilon", "transmitted_phase", "phase_error",
                                 "contrast_vs_cayley", "mollifier_defect"]
    report.results["rows"] = rows
    if abs(e - np.pi) < 1e-12:
        report.add("scatter.contrast_exceeds_half", contrast, None,
                   passed=contrast > TOLERANCES["scatter.contrast_exceeds_half"])


# --- fock ---------------------------------------------------------------

def _fock_entries(eq: dict, prefix: str, tol: Tolerances) -> list:
    """(name, value, tolerance, passed) of the kernel-dims, principal-angle
    and action records of one ``fock.fock_battery`` result: no angle record
    without a kernel, no action record without domain vectors."""
    dims = [eq["dim_b"], eq["dim_c"]]
    return [(f"{prefix}kernel_dims", dims, None, dims[0] == dims[1])] + [
        (prefix + name, value, bound, abs(value) <= bound)
        for name, value, bound in (
            ("max_principal_angle", eq["max_angle"], tol.kernel),
            ("max_action_residual", max(eq["action_residuals"], default=None),
             tol.action))
        if value is not None]


def _fock_battery(eq: dict, number_defect: float, report: Report,
                  prefix: str, tol: Tolerances) -> None:
    """Report records of one ``fock.fock_battery`` result."""
    report.results[f"{prefix}domain_vectors"] = len(eq["action_residuals"])
    for entry in _fock_entries(eq, prefix, tol):
        report.add(*entry)
    report.add(f"{prefix}number_defect_identity", number_defect,
               TOLERANCES["number_defect_identity"])


def command_fock(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    coupling, gauge, tol = config.coupling, config.gauge, config.tolerances
    m, n, d = coupling.m, coupling.n, config.fock.d
    rng = np.random.default_rng(seed)

    ops = fock.build_mode_operators(m, n, d)
    for name, value in (("ladder_commutators", fock.commutator_defect(ops)),
                        ("number_spectra", fock.number_spectrum_defect(ops))):
        report.add(name, value, TOLERANCES[name])
    # The defect reads a_star, a_plus and a_minus only, which no gauge changes.
    defect = fock.number_defect_residual(ops)
    _fock_battery(fock.fock_battery(coupling, ops, 10, rng, tol.action),
                  defect, report, "", tol)

    # sigma = 0 builds frak_a by the kappa formula; it must match a_star.
    ops_zero = fock.build_mode_operators(m, n, d, ScalarGauge(0.0))
    reduction = float(np.abs(fock.stacked_boundary_rows(coupling, ops_zero)
                             - fock.stacked_boundary_rows(coupling, ops)).max())
    report.add("gauge_zero_reduction", reduction,
               TOLERANCES["gauge_zero_reduction"])

    if gauge is not None:
        ops = fock.build_mode_operators(m, n, d, gauge)
        _fock_battery(fock.fock_battery(coupling, ops, 10, rng, tol.action),
                      defect, report, "gauged.", tol)

    for i in range(sweep):
        e_i = random_coupling(rng, m, n, zero_channel_system=True)
        eq = fock.fock_battery(e_i, ops, 3, rng, tol.action)
        # the battery records' verdict; 0.0 stands for an absent value
        report.add(f"sweep[{i:03d}].fock",
                   [eq["dim_b"], eq["dim_c"], eq["max_angle"] or 0.0,
                    max(eq["action_residuals"], default=0.0)], None,
                   passed=all(ok for *_, ok in _fock_entries(eq, "", tol)))


SWEEP_COMMANDS = ("slh", "fock")
COMMANDS = {
    "slh": command_slh,
    "phase": command_phase,
    "defect": command_defect,
    "scatter": command_scatter,
    "fock": command_fock,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slhkit",
        description="Verification suites for singular coupling models: "
                    "matrix pipeline, boundary phases, grid functionals, "
                    "and truncated-Fock boundary conditions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("slh", "coupling-matrix pipeline and identity residuals"),
            ("phase", "boundary-phase tables (Cayley, damped, exponential)"),
            ("defect", "one-particle grid suite: defect vectors and functionals"),
            ("scatter", "mollified transmission phase vs the exact references"),
            ("fock", "truncated-Fock boundary subspaces and singular action")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON model configuration")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json", choices=("json", "csv"))
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--sweep", type=int, default=0,
                       help="number of random-coupling sweep instances "
                            "(slh and fock only)")
    return parser


def run_command(command: str, config: ModelConfig, seed: Optional[int] = None,
                sweep: int = 0) -> Report:
    """Execute one subcommand and return its report (wall time included).
    A ``seed`` replaces the config's, in the run and in ``config_hash``. A
    LAPACK failure surfaces as SlhkitError, like every other numerical error.
    """
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    report = Report(command=command, config_hash=config.config_hash())
    start = time.monotonic()
    try:
        COMMANDS[command](config, config.seed, sweep, report)
    except np.linalg.LinAlgError as exc:
        raise SlhkitError(f"numerical failure in {command}: {exc}") from exc
    report.wall_time_s = time.monotonic() - start
    return report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
        if args.sweep < 0:
            raise ValidationError(f"--sweep must be nonnegative, got {args.sweep}")
        if args.sweep and args.command not in SWEEP_COMMANDS:
            raise ValidationError(
                f"--sweep applies to {' and '.join(SWEEP_COMMANDS)} only, "
                f"not to {args.command}")
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_command(args.command, config, args.seed, args.sweep)
    except SlhkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        emit_report(report, args.format, args.out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1
    n_pass = sum(1 for c in report.checks if c.passed)
    print(f"# {args.command}: {n_pass}/{len(report.checks)} checks passed "
          f"in {report.wall_time_s:.2f}s", file=sys.stderr)
    if not report.all_passed:
        print(f"FAILED: {report.first_failure()}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
