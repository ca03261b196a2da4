"""Batch front end: one binary, five subcommands, deterministic reports.

    slhkit {slh|phase|defect|scatter|fock} --config PATH
           [--out PATH] [--format json|csv] [--seed N] [--sweep N]

Most check values come from a library function that the tests call too
(``slh.identity_residuals``, ``fock.fock_battery``, ...); this module names
the records, sets their tolerances and fixes the order of the random draws.
It computes these records itself from library values: the defect-vector
jump, norm and overlap records, ``phase[...]`` and ``scatter`` records, ``scalar_cayley_match``, ``gauge_zero_reduction`` and
the ``sweep[i].fock`` verdict.

Exit code 0 iff every emitted check passes; config problems, a negative
``--seed`` or ``--sweep``, and a nonzero ``--sweep`` for a subcommand other
than ``slh`` and ``fock`` exit 2, and the first failing check (or a
module-level numerical error) exits 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

import numpy as np

from .errors import ParseError, SlhkitError, ValidationError
from .linalg import cayley
from .slh import (ScalarGauge, gauge_reduction_check, identity_residuals,
                  slh_triple)
from .punctured_line import (
    SIDES,
    GridSpec,
    Traces,
    boundary_phase,
    decomposition_half,
    decomposition_values,
    defect_coefficients,
    defect_halves,
    eigenrelation_half,
    eigenrelation_values,
    extension_domain_defect,
    jump_splitting_defect,
    norm_from_inner,
    reproducing_half,
    reproducing_residuals,
    sample_half,
    scatter_regularized,
    sobolev_half,
    sobolev_total,
    symmetry_half,
    symmetry_values,
    trace_at_origin,
)
from .fock import (
    build_mode_operators,
    commutator_defect,
    fock_battery,
    number_defect_residual,
    number_spectrum_defect,
    stacked_boundary_rows,
)
from .config import ModelConfig, load_config
from .ensembles import random_bump, random_coupling
from .report import Report, emit_report


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
            phases = boundary_phase(e, sigma)
            rows.append([e, sigma, phases.s, phases.s_sigma, phases.s_chebotarev])
            defect = max(abs(abs(phases.s) - 1.0),
                         abs(abs(phases.s_sigma) - 1.0),
                         abs(abs(phases.s_chebotarev) - 1.0))
            report.add(f"phase[e={e!r},sigma={sigma!r}].unimodular", defect, 1e-14)
            if sigma == 0.0:
                report.add(f"phase[e={e!r},sigma={sigma!r}].sigma_zero_exact",
                           abs(phases.s_sigma - phases.s), 0.0)
    report.results["columns"] = ["e", "sigma", "s", "s_sigma", "s_chebotarev"]
    report.results["rows"] = rows


# --- defect ---------------------------------------------------------------

def command_defect(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    spec = GridSpec(config.grid.half_width, config.grid.spacing)
    rng = np.random.default_rng(seed)
    # A group draws its bumps first (a bump draws its parameters when it is
    # made, not when it is evaluated), then checks the left half-line and
    # then the right, all its draws in one pass over halves read leaf by
    # leaf: phi_pm in closed form, each draw evaluated on the leaf's nodes.
    # Between the halves it keeps per-half scalars, joined in the order of
    # the two-sided formulas, so no group holds a node array.
    _defect_vector_checks(spec, report)
    _reproducing_checks(spec, rng, report)
    _decomposition_checks(spec, rng, report)
    _eigenrelation_checks(spec, report)
    _jump_splitting_check(rng, report)
    _symmetry_checks(spec, rng, report)
    _extension_check(report)


def _defect_vector_checks(spec: GridSpec, report: Report) -> None:
    def half(left):
        phi_plus, phi_minus = defect_halves(spec, left)
        return ((phi_plus.limit, phi_minus.limit),
                [sobolev_half(spec, left, u, v)
                 for u, v in ((phi_plus, phi_plus), (phi_minus, phi_minus),
                              (phi_plus, phi_minus))])

    (left_traces, left_terms), (right_traces, right_terms) = map(half, SIDES)
    plus, minus = (Traces(*limits) for limits in zip(left_traces,
                                                     right_traces))
    norm_plus, norm_minus, overlap = (sobolev_total(*terms) for terms in
                                      zip(left_terms, right_terms))
    report.add("jump_on_defect_plus", abs(plus.jump - (-1j)), 0.0)
    report.add("jump_on_defect_minus", abs(minus.jump - (-1j)), 0.0)
    report.add("defect_norm_plus", abs(norm_from_inner(norm_plus) - 1.0),
               1e-5)
    report.add("defect_norm_minus", abs(norm_from_inner(norm_minus) - 1.0),
               1e-5)
    report.add("defect_overlap", abs(overlap), 0.0)


def _reproducing_checks(spec: GridSpec, rng: np.random.Generator,
                        report: Report) -> None:
    # psi_r is a bump on the right half-line and psi_l one on the left, so
    # on each half-line one of the pair is drawn and the other is zero.
    draws = [(random_bump(rng, "right"), random_bump(rng, "left"))
             for _ in range(10)]

    def half(left):
        phi = defect_halves(spec, left)
        pairs = [(sample_half(spec, left, None if left else bump_r),
                  sample_half(spec, left, bump_l if left else None))
                 for bump_r, bump_l in draws]
        terms = reproducing_half(spec, left, *phi, pairs)
        return [(t, psi_r.limit, psi_l.limit)
                for t, (psi_r, psi_l) in zip(terms, pairs)]

    worst_plus = worst_minus = 0.0
    for (left_terms, _, psi_l_trace), (right_terms, psi_r_trace, _) in zip(
            *map(half, SIDES)):
        plus, minus = reproducing_residuals(left_terms, right_terms,
                                            psi_r_trace, psi_l_trace)
        worst_plus = max(worst_plus, plus)
        worst_minus = max(worst_minus, minus)
    report.add("reproducing_plus", worst_plus, 1e-5)
    report.add("reproducing_minus", worst_minus, 1e-5)


def _decomposition_checks(spec: GridSpec, rng: np.random.Generator,
                          report: Report) -> None:
    tolerances = {"boundary_zero": 0.0, "orthogonality": 1e-5,
                  "reconstruction": 1e-13}
    # (left, right) bumps of each f; c_pm read both traces in either pass
    draws = [(random_bump(rng, "left"), random_bump(rng, "right"))
             for _ in range(10)]
    coefficients = [defect_coefficients(*map(trace_at_origin, bumps))
                    for bumps in draws]

    def half(left):
        phi = defect_halves(spec, left)
        return decomposition_half(spec, left, [
            (sample_half(spec, left, bumps[0] if left else bumps[1]), *c)
            for bumps, c in zip(draws, coefficients)], *phi)

    worst = dict.fromkeys(tolerances, 0.0)
    for left, right in zip(*map(half, SIDES)):
        for key, value in decomposition_values(left, right).items():
            worst[key] = max(worst[key], value)
    for key, tol in tolerances.items():
        report.add(f"decomposition_{key}", worst[key], tol)


def _eigenrelation_checks(spec: GridSpec, report: Report) -> None:
    def half(left):
        phi_plus, phi_minus = defect_halves(spec, left)
        return [(phi.limit, eigenrelation_half(spec, left, phi, sign))
                for phi, sign in ((phi_plus, 1.0), (phi_minus, -1.0))]

    for name, ((left_limit, left), (right_limit, right)) in zip(
            ("plus", "minus"), zip(*map(half, SIDES))):
        defects = eigenrelation_values(Traces(left_limit, right_limit), left,
                                       right)
        report.add(f"eigenrelation_{name}_coefficient",
                   defects["coefficient"], 0.0)
        report.add(f"eigenrelation_{name}_regular", defects["regular"], 1e-5)


def _jump_splitting_check(rng: np.random.Generator, report: Report) -> None:
    # One draw, indexed (sigma, instance, value, re/im): the same numbers in
    # the same order as one scalar draw per part, so the generator ends in
    # the same state.
    values = rng.uniform(-1, 1, size=(3, 100, 4, 2)).view(complex)[..., 0]
    worst = 0.0
    for sigma, instances in zip((0.0, 0.3, -1.0), values.tolist()):
        for fp, fm, gp, gm in instances:
            worst = max(worst, jump_splitting_defect(fp, fm, gp, gm, sigma))
    report.add("jump_splitting_identity", worst, 1e-13)


def _symmetry_checks(spec: GridSpec, rng: np.random.Generator,
                     report: Report) -> None:
    f_bumps = (random_bump(rng, "left"), random_bump(rng, "right"))
    g_bumps = (random_bump(rng, "left"), random_bump(rng, "right"))

    def half(left):
        f, g = (sample_half(spec, left, bumps[0] if left else bumps[1])
                for bumps in (f_bumps, g_bumps))
        return symmetry_half(spec, left, f, g), (f.limit, g.limit)

    (left_terms, left_traces), (right_terms, right_traces) = map(half, SIDES)
    f, g = (Traces(*limits) for limits in zip(left_traces, right_traces))
    for name, value in symmetry_values(left_terms, right_terms, f, g,
                                       0.3).items():
        report.add(name, value, 1e-4)


def _extension_check(report: Report) -> None:
    worst = max(extension_domain_defect(e, sigma, complex(0.7, -0.4))
                for e in (0.5, 2.0, float(np.pi)) for sigma in (0.0, 0.3))
    report.add("extension_domain_annihilation", worst, 1e-13)


# --- scatter ---------------------------------------------------------------

def command_scatter(config: ModelConfig, seed: int, sweep: int, report: Report) -> None:
    e = config.scatter.e_value
    rows = []
    phases = []
    for eps in config.scatter.epsilons:
        r = scatter_regularized(e, eps, config.scatter.mollifier)
        rows.append([r.epsilon, r.transmitted_phase, r.phase_error,
                     r.contrast, r.mollifier_integral - 1.0])
        phases.append(r.transmitted_phase)
        report.add(f"scatter[eps={eps!r}].mollifier_norm",
                   abs(r.mollifier_integral - 1.0), 1e-8)
        report.add(f"scatter[eps={eps!r}].phase_error", r.phase_error, 1e-6)
    for i in range(1, len(phases)):
        report.add(f"scatter.eps_independence[{i}]",
                   abs(phases[i] - phases[0]), 1e-8)
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
    """Report records of one ``fock_battery`` result."""
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

    ops = build_mode_operators(m, n, d)
    report.add("ladder_commutators", commutator_defect(ops), 1e-12)
    report.add("number_spectra", number_spectrum_defect(ops), 1e-12)
    # The defect reads a_star, a_plus and a_minus only, which no gauge changes.
    defect = number_defect_residual(ops)
    _fock_battery(fock_battery(coupling, ops, 10, rng, atol), defect, report,
                  "", angle_tol, atol)

    # sigma = 0 builds frak_a by the kappa formula; it must match a_star.
    ops_zero = build_mode_operators(m, n, d, ScalarGauge(0.0))
    reduction = float(np.abs(stacked_boundary_rows(coupling, ops_zero)
                             - stacked_boundary_rows(coupling, ops)).max())
    report.add("gauge_zero_reduction", reduction, 1e-12)

    if gauge is not None:
        ops = build_mode_operators(m, n, d, gauge)
        _fock_battery(fock_battery(coupling, ops, 10, rng, atol), defect,
                      report, "gauged.", angle_tol, atol)

    for i in range(sweep):
        e_i = random_coupling(rng, m, n, zero_channel_system=True)
        eq = fock_battery(e_i, ops, 3, rng, atol)
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
