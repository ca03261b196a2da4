"""Batch front end: one binary, five subcommands, deterministic reports.

    slhkit {slh|phase|defect|scatter|fock} --config PATH
           [--out PATH] [--format json|csv] [--seed N] [--sweep N]

Most check values come from a library function that the tests call too
(``slh.identity_residuals``, ``fock.fock_battery``, ...); this module names
the records, sets their tolerances and fixes the order of the random draws.
It computes these records itself from library values: the defect-vector
jump and norm records (``defect_overlap`` is 0 by construction),
``phase[...]`` and ``scatter`` records, ``scalar_cayley_match``,
``gauge_zero_reduction`` and the ``sweep[i].fock`` verdict.

Layers: this module imports ``config``, ``ensembles``, ``report``, ``slh``
and ``phases``, which every subcommand or the config needs. It holds the
Fock and grid layers in ``sys.modules`` as lazy modules (``_lazy``) and
calls them through their attributes (``fock.fock_battery``,
``punctured_line.sobolev_half``, ...), so a process executes only its
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
import importlib.util
import sys
import time
from typing import Optional

import numpy as np

from . import phases
from .config import ModelConfig, load_config
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


# --- slh ---------------------------------------------------------------------

def command_slh(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    coupling, gauge = config.coupling, config.gauge
    res = slh_triple(coupling, gauge)
    report.results["matrices"] = {
        "G": res.ito, "V": res.model, "M": res.galilean,
        "F": res.dressing, "S": res.s, "L": res.l, "H": res.h,
    }
    for name, value in identity_residuals(res).items():
        tol = 0.0 if name == "first_row" else \
            (1e-12 if name in ("g_equals_minus_ief",) else 1e-10)
        report.add(name, value, tol)
    if coupling.n * coupling.m == 1 and gauge is None:
        s_ref = cayley(coupling.full[1:, 1:], 0.5)[0, 0]
        report.add("scalar_cayley_match",
                   abs(complex(res.s[0, 0]) - complex(s_ref)), 1e-12)
    if gauge is None:
        reduction = gauge_reduction_check(coupling)
        report.add("gauge_z_zero_reduction", reduction["z_zero_residual"], 1e-12)
        for sigma, residuals in reduction["scalar_residuals"].items():
            report.add(f"gauge_scalar_closed_form[sigma={sigma!r}]",
                       max(residuals.values()), 1e-12)
    rng = np.random.default_rng(seed)
    for i in range(sweep):
        e_i = random_coupling(rng, coupling.m, coupling.n)
        res_i = slh_triple(e_i)
        report.add(f"sweep[{i:03d}].identities",
                   max(identity_residuals(res_i).values()), 1e-10)


# --- phase ---------------------------------------------------------------

def command_phase(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    rows = []
    for sigma in config.phase.sigma_values:
        for e in config.phase.e_values:
            ph = phases.boundary_phase(e, sigma)
            rows.append([e, sigma, ph.s, ph.s_sigma, ph.s_chebotarev])
            defect = max(abs(abs(ph.s) - 1.0),
                         abs(abs(ph.s_sigma) - 1.0),
                         abs(abs(ph.s_chebotarev) - 1.0))
            report.add(f"phase[e={e!r},sigma={sigma!r}].unimodular", defect, 1e-14)
            if sigma == 0.0:
                report.add(f"phase[e={e!r},sigma={sigma!r}].sigma_zero_exact",
                           abs(ph.s_sigma - ph.s), 0.0)
    report.results["columns"] = ["e", "sigma", "s", "s_sigma", "s_chebotarev"]
    report.results["rows"] = rows


# --- defect ---------------------------------------------------------------

def command_defect(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    spec = punctured_line.GridSpec(config.grid.half_width, config.grid.spacing)
    rng = np.random.default_rng(seed)
    # A group draws its bumps first (a bump draws its parameters when it is
    # made, not when it is evaluated), then checks the left half-line and
    # then the right, all its draws in one pass over halves read chunk by
    # chunk: the half-line's defect vector in closed form, each draw
    # evaluated on the chunk's nodes.
    # Between the halves it keeps per-half scalars, joined in the order of
    # the two-sided formulas, so no group holds a node array.
    _defect_vector_checks(spec, report)
    _reproducing_checks(spec, rng, report)
    _decomposition_checks(spec, rng, report)
    _eigenrelation_checks(spec, report)
    _jump_splitting_check(rng, report)
    _symmetry_checks(spec, rng, report)
    _extension_check(report)


# Each defect vector's record name and the half-line it lives on: phi_+
# on the right, phi_- on the left, each zero on the other, trace included.
DEFECT_SIDES = (("plus", False), ("minus", True))


def _defect_vector_checks(spec: punctured_line.GridSpec, report: Report) -> None:
    phi = {left: punctured_line.defect_half(spec, left)
           for left in punctured_line.SIDES}
    for name, left in DEFECT_SIDES:
        jump = punctured_line.Traces.one_sided(left, phi[left].limit).jump
        report.add(f"jump_on_defect_{name}", abs(jump - (-1j)), 0.0)
    for name, left in DEFECT_SIDES:
        norm = punctured_line.norm_from_inner(
            sum(punctured_line.sobolev_half(spec, left, phi[left], phi[left])))
        report.add(f"defect_norm_{name}", abs(norm - 1.0), 1e-5)
    # <phi_+|phi_->_S: the supports are disjoint, so no half-line holds
    # both and the pairing is 0 by construction. Kept for the report.
    report.add("defect_overlap", 0.0, 0.0)


def _reproducing_checks(spec: punctured_line.GridSpec,
                        rng: np.random.Generator, report: Report) -> None:
    # psi_r is a bump on the right half-line, paired with phi_+, and psi_l
    # one on the left, paired with phi_-.
    draws = [(random_bump(rng, "right"), random_bump(rng, "left"))
             for _ in range(10)]
    worst = {}
    for left in punctured_line.SIDES:
        phi = punctured_line.defect_half(spec, left)
        psis = [punctured_line.sample_half(spec, left,
                                           bump_l if left else bump_r)
                for bump_r, bump_l in draws]
        worst[left] = max([0.0] + [
            punctured_line.reproducing_residual(left, terms, psi.limit)
            for terms, psi in zip(punctured_line.reproducing_half(
                spec, left, phi, psis), psis)])
    for name, left in DEFECT_SIDES:
        report.add(f"reproducing_{name}", worst[left], 1e-5)


def _decomposition_checks(spec: punctured_line.GridSpec,
                          rng: np.random.Generator, report: Report) -> None:
    tolerances = {"boundary_zero": 0.0, "orthogonality": 1e-5,
                  "reconstruction": 1e-13}
    # (left, right) bumps of each f, and its (c_plus, c_minus) from them
    draws = [(random_bump(rng, "left"), random_bump(rng, "right"))
             for _ in range(10)]
    coefficients = [punctured_line.defect_coefficients(
                        *map(punctured_line.trace_at_origin, bumps))
                    for bumps in draws]

    def half(left):
        # psi0 = f - c_minus phi_- on the left half-line, f - c_plus phi_+
        # on the right
        phi = punctured_line.defect_half(spec, left)
        return punctured_line.decomposition_half(spec, left, [
            (punctured_line.sample_half(spec, left,
                                        bump_l if left else bump_r),
             c_minus if left else c_plus)
            for (bump_l, bump_r), (c_plus, c_minus) in zip(draws,
                                                           coefficients)], phi)

    worst = dict.fromkeys(tolerances, 0.0)
    for left, right in zip(*map(half, punctured_line.SIDES)):
        for key, value in punctured_line.decomposition_values(
                left, right).items():
            worst[key] = max(worst[key], value)
    for key, tol in tolerances.items():
        report.add(f"decomposition_{key}", worst[key], tol)


def _eigenrelation_checks(spec: punctured_line.GridSpec,
                          report: Report) -> None:
    defects = {}
    for left in punctured_line.SIDES:
        phi = punctured_line.defect_half(spec, left)
        defects[left] = punctured_line.eigenrelation_values(
            punctured_line.Traces.one_sided(left, phi.limit),
            punctured_line.eigenrelation_half(spec, left, phi,
                                              -1.0 if left else 1.0))
    for name, left in DEFECT_SIDES:
        report.add(f"eigenrelation_{name}_coefficient",
                   defects[left]["coefficient"], 0.0)
        report.add(f"eigenrelation_{name}_regular",
                   defects[left]["regular"], 1e-5)


def _jump_splitting_check(rng: np.random.Generator, report: Report) -> None:
    # One draw, indexed (sigma, instance, value, re/im): the same numbers in
    # the same order as one scalar draw per part, so the generator ends in
    # the same state.
    values = rng.uniform(-1, 1, size=(3, 100, 4, 2)).view(complex)[..., 0]
    worst = 0.0
    for sigma, instances in zip((0.0, 0.3, -1.0), values.tolist()):
        for fp, fm, gp, gm in instances:
            worst = max(worst, punctured_line.jump_splitting_defect(
                fp, fm, gp, gm, sigma))
    report.add("jump_splitting_identity", worst, 1e-13)


def _symmetry_checks(spec: punctured_line.GridSpec, rng: np.random.Generator,
                     report: Report) -> None:
    f_bumps = (random_bump(rng, "left"), random_bump(rng, "right"))
    g_bumps = (random_bump(rng, "left"), random_bump(rng, "right"))

    def half(left):
        f, g = (punctured_line.sample_half(spec, left,
                                           bumps[0] if left else bumps[1])
                for bumps in (f_bumps, g_bumps))
        return (punctured_line.symmetry_half(spec, left, f, g),
                (f.limit, g.limit))

    (left_terms, left_traces), (right_terms, right_traces) = map(
        half, punctured_line.SIDES)
    f, g = (punctured_line.Traces(*limits)
            for limits in zip(left_traces, right_traces))
    for name, value in punctured_line.symmetry_values(
            left_terms, right_terms, f, g, 0.3).items():
        report.add(name, value, 1e-4)


def _extension_check(report: Report) -> None:
    worst = max(punctured_line.extension_domain_defect(e, sigma,
                                                       complex(0.7, -0.4))
                for e in (0.5, 2.0, float(np.pi)) for sigma in (0.0, 0.3))
    report.add("extension_domain_annihilation", worst, 1e-13)


# --- scatter ---------------------------------------------------------------

def command_scatter(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    e = config.scatter.e_value
    rows = []
    transmitted = []
    for eps in config.scatter.epsilons:
        r = phases.scatter_regularized(e, eps, config.scatter.mollifier)
        rows.append([r.epsilon, r.transmitted_phase, r.phase_error,
                     r.contrast, r.mollifier_integral - 1.0])
        transmitted.append(r.transmitted_phase)
        report.add(f"scatter[eps={eps!r}].mollifier_norm",
                   abs(r.mollifier_integral - 1.0), 1e-8)
        report.add(f"scatter[eps={eps!r}].phase_error", r.phase_error, 1e-6)
    for i in range(1, len(transmitted)):
        report.add(f"scatter.eps_independence[{i}]",
                   abs(transmitted[i] - transmitted[0]), 1e-8)
    contrast = rows[0][3]
    report.results["columns"] = ["epsilon", "transmitted_phase", "phase_error",
                                 "contrast_vs_cayley", "mollifier_defect"]
    report.results["rows"] = rows
    if abs(e - np.pi) < 1e-12:
        report.add("scatter.contrast_exceeds_half", contrast, None,
                   passed=contrast > 0.5)


# --- fock ---------------------------------------------------------------

def _fock_battery(eq: dict, number_defect: float, report: Report,
                  prefix: str, angle_tol: float, action_tol: float) -> None:
    """Report records of one ``fock.fock_battery`` result."""
    report.add(f"{prefix}kernel_dims", [eq["dim_b"], eq["dim_c"]], None,
               passed=eq["dim_b"] == eq["dim_c"])
    if eq["max_angle"] is not None:
        report.add(f"{prefix}max_principal_angle", eq["max_angle"], angle_tol)
    residuals = eq["action_residuals"]
    report.results[f"{prefix}domain_vectors"] = len(residuals)
    if residuals:
        report.add(f"{prefix}max_action_residual", max(residuals), action_tol)
    report.add(f"{prefix}number_defect_identity", number_defect, 1e-12)


def command_fock(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    coupling, gauge = config.coupling, config.gauge
    m, n, d = coupling.m, coupling.n, config.fock.d
    rng = np.random.default_rng(seed)
    angle_tol, atol = config.tolerances.kernel, config.tolerances.action

    ops = fock.build_mode_operators(m, n, d)
    report.add("ladder_commutators", fock.commutator_defect(ops), 1e-12)
    report.add("number_spectra", fock.number_spectrum_defect(ops), 1e-12)
    # The defect reads a_star, a_plus and a_minus only, which no gauge changes.
    defect = fock.number_defect_residual(ops)
    _fock_battery(fock.fock_battery(coupling, ops, 10, rng, atol), defect,
                  report, "", angle_tol, atol)

    # sigma = 0 builds frak_a by the kappa formula; it must match a_star.
    ops_zero = fock.build_mode_operators(m, n, d, ScalarGauge(0.0))
    reduction = float(np.abs(fock.stacked_boundary_rows(coupling, ops_zero)
                             - fock.stacked_boundary_rows(coupling, ops)).max())
    report.add("gauge_zero_reduction", reduction, 1e-12)

    if gauge is not None:
        ops = fock.build_mode_operators(m, n, d, gauge)
        _fock_battery(fock.fock_battery(coupling, ops, 10, rng, atol), defect,
                      report, "gauged.", angle_tol, atol)

    for i in range(sweep):
        e_i = random_coupling(rng, m, n, zero_channel_system=True)
        eq = fock.fock_battery(e_i, ops, 3, rng, atol)
        worst = max(eq["action_residuals"], default=0.0)
        angle = eq["max_angle"] if eq["max_angle"] is not None else 0.0
        ok = eq["dim_b"] == eq["dim_c"] and angle <= angle_tol and worst <= atol
        report.add(f"sweep[{i:03d}].fock",
                   [eq["dim_b"], eq["dim_c"], angle, worst], None, passed=ok)


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

    A LAPACK failure surfaces as SlhkitError, like every other numerical error.
    """
    effective_seed = config.seed if seed is None else seed
    report = Report(command=command, config_hash=config.config_hash())
    start = time.monotonic()
    try:
        COMMANDS[command](config, effective_seed, sweep, report)
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
