import ast
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from slhkit import cli, phases
from slhkit.cli import run_command
from slhkit.config import config_from_dict, load_config
from slhkit.ensembles import random_coupling
from slhkit.errors import ParseError, SlhkitError, ValidationError
from slhkit.report import (
    Report,
    emit_report,
    report_to_csv_bytes,
    report_to_json_bytes,
)

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.json"

MINIMAL = {
    "m": 1,
    "n": 1,
    "E": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
}

SCALAR_MODEL = {
    "m": 1,
    "n": 1,
    "E": [[[0.3, 0.0], [0.5, -0.2]], [[0.5, 0.2], [1.0, 0.0]]],
    "seed": 7,
}


def run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "slhkit", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestConfig:
    def test_minimal_defaults(self):
        cfg = config_from_dict(MINIMAL)
        assert cfg.grid.half_width == 40.0 and cfg.grid.spacing == 1e-3
        assert cfg.fock.d == 5 and cfg.seed == 0
        assert cfg.tolerances.kernel == 1e-8

    def test_round_trip_canonical_dict(self):
        cfg = config_from_dict(SCALAR_MODEL)
        echoed = cfg.canonical_dict()
        # strip the None gauge entries the schema treats as absent
        echoed = {k: v for k, v in echoed.items() if v is not None}
        cfg2 = config_from_dict(echoed)
        assert cfg.config_hash() == cfg2.config_hash()

    def test_non_hermitian_block_named(self):
        bad = dict(MINIMAL)
        bad["E"] = [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]]
        with pytest.raises(ValidationError, match=r"block \(0,1\)"):
            config_from_dict(bad)

    def test_non_hermitian_block_message_m2(self):
        # m = n = 2, Hermitian but for block (1,2): the whole message must
        # match a search over the blocks one at a time, keeping the first
        # largest defect in row-major order
        m, n = 2, 2
        rng = np.random.default_rng(21)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        e = (a + a.conj().T) / 2
        e[2:4, 4:6] += 1e-3 * np.array([[1.0, 2j], [0.5, -1.0]])
        worst, pair = 0.0, None
        for alpha in range(n + 1):
            for beta in range(n + 1):
                ab = e[alpha * m:(alpha + 1) * m, beta * m:(beta + 1) * m]
                ba = e[beta * m:(beta + 1) * m, alpha * m:(alpha + 1) * m]
                defect = float(np.abs(ab - ba.conj().T).max())
                if defect > worst:
                    worst, pair = defect, (alpha, beta)
        assert pair == (1, 2)
        bad = {"m": m, "n": n,
               "E": [[[float(v.real), float(v.imag)] for v in row] for row in e]}
        with pytest.raises(ValidationError) as info:
            config_from_dict(bad)
        assert str(info.value) == (
            f"E block (1,2) is not the adjoint of block (2,1): "
            f"max asymmetry {worst:.3e}")

    def test_cutoff_guard(self):
        bad = dict(MINIMAL)
        bad["fock"] = {"d": 2}
        with pytest.raises(ValidationError, match="cutoff"):
            config_from_dict(bad)

    def test_z_and_sigma_exclusive(self):
        bad = dict(MINIMAL)
        bad["Z"] = [[[0.0, 0.0]]]
        bad["sigma"] = 0.5
        with pytest.raises(ValidationError, match="at most one"):
            config_from_dict(bad)

    def test_parse_error_positions(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"m\": 1,\n}")
        with pytest.raises(ParseError, match="line 3"):
            load_config(str(path))

    @pytest.mark.parametrize("field,value", [
        ("E", [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
        ("E", [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("inf"), 0.0]]]),
        ("Z", [[[0.0, float("-inf")]]]),
        ("sigma", float("nan")),
        ("sigma", float("inf")),
        ("grid", {"T": float("nan")}),
        ("grid", {"h": float("nan")}),
        ("grid", {"T": float("inf")}),
        ("grid", {"h": float("inf")}),
        ("grid", {"T": 10 ** 400}),
        ("tolerances", {"action": float("nan")}),
        ("tolerances", {"hermiticity": float("inf")}),
        ("phase", {"E": [1.0, float("inf")]}),
        ("phase", {"sigma": [float("nan")]}),
        ("scatter", {"E": float("nan")}),
        ("scatter", {"epsilon": [float("-inf")]}),
    ])
    def test_non_finite_input_rejected(self, field, value):
        bad = dict(MINIMAL)
        bad[field] = value
        with pytest.raises(ValidationError, match="finite"):
            config_from_dict(bad)

    def test_unknown_keys_rejected(self):
        bad = dict(MINIMAL)
        bad["extra"] = 1
        with pytest.raises(ValidationError, match="unknown"):
            config_from_dict(bad)

    @pytest.mark.parametrize("field,value", [
        ("grid", {"T": "abc"}),
        ("grid", [1, 2]),
        ("grid", {"t": 40.0}),
        ("phase", {"E": "ab"}),
        ("m", 1.9),
        ("n", True),
        ("seed", 2.7),
        ("seed", "1"),
        ("fock", {"d": "5"}),
        ("fock", {"d": 5.0}),
        ("tolerances", {"kernel": -1e-8}),
        ("tolerances", {"kernel": False}),
        ("tolerances", [1e-8]),
        ("scatter", {"mollifier": 3}),
        ("sigma", "0.3"),
        ("scatter", {"mollifier": "box"}),
        ("phase", {"E": []}),
        ("phase", {"sigma": []}),
        ("scatter", {"epsilon": []}),
    ])
    def test_strict_fields_exit_2(self, field, value, tmp_path, capsys):
        bad = dict(MINIMAL)
        bad[field] = value
        with pytest.raises(ValidationError):
            config_from_dict(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli.main(["fock", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_bad_section_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(MINIMAL, grid=[1, 2])))
        proc = run_cli(["defect", "--config", str(path)])
        assert proc.returncode == 2
        assert "'grid' must be an object" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_integral_floats_keep_the_hash(self):
        # a float field stores float(x), so 40 and 40.0 are the same config
        ints = dict(MINIMAL, grid={"T": 40, "h": 0.001}, sigma=0,
                    tolerances={"kernel": 0}, phase={"E": [0, 1]})
        floats = dict(MINIMAL, grid={"T": 40.0, "h": 0.001}, sigma=0.0,
                      tolerances={"kernel": 0.0}, phase={"E": [0.0, 1.0]})
        cfg = config_from_dict(ints)
        assert cfg.config_hash() == config_from_dict(floats).config_hash()
        assert type(cfg.grid.half_width) is float and type(cfg.gauge.sigma) is float


class TestReportSerialization:
    def test_empty_report_envelope(self):
        rep = Report(command="phase", config_hash="abc")
        data = json.loads(report_to_json_bytes(rep))
        assert data == {"command": "phase", "config_hash": "abc",
                        "results": {}, "checks": []}
        csv_text = report_to_csv_bytes(rep).decode()
        assert csv_text == "config_hash,name,value,tolerance,pass\n"

    def test_complex_encoding(self):
        rep = Report(command="slh", config_hash="x")
        rep.add("value", 1.0 - 2.0j, None, passed=True)
        data = json.loads(report_to_json_bytes(rep))
        assert data["checks"][0]["value"] == [1.0, -2.0]

    def test_non_finite_values_fail_and_stay_strict_json(self):
        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        rep = Report(command="fock", config_hash="x")
        rec = rep.add("number_spectra", float("inf"), 1e-12)
        rep.add("nan_check", float("nan"), 1e-12)
        rep.add("pair", complex(float("nan"), -float("inf")), None, passed=True)
        rep.results["values"] = np.array([1.0, -np.inf])
        assert not rec.passed and rep.first_failure() == "number_spectra"
        assert not rep.checks[1].passed
        data = json.loads(report_to_json_bytes(rep), parse_constant=reject)
        assert [c["value"] for c in data["checks"]] == [
            "inf", "nan", ["nan", "-inf"]]
        assert data["results"]["values"] == [1.0, "-inf"]
        rows = list(csv.reader(io.StringIO(report_to_csv_bytes(rep).decode())))
        assert [json.loads(row[2], parse_constant=reject) for row in rows[1:]] \
            == ["inf", "nan", ["nan", "-inf"]]

    def test_same_report_twice_is_byte_identical(self, tmp_path):
        cfg = config_from_dict(SCALAR_MODEL)
        rep = run_command("phase", cfg)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(rep, "json", str(p1))
        emit_report(rep, "json", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("command", ["slh", "phase", "scatter", "fock"])
    def test_rerun_is_byte_identical(self, command):
        cfg = config_from_dict(SCALAR_MODEL)
        rep1 = run_command(command, cfg, sweep=2 if command in ("slh", "fock") else 0)
        rep2 = run_command(command, cfg, sweep=2 if command in ("slh", "fock") else 0)
        assert report_to_json_bytes(rep1) == report_to_json_bytes(rep2)
        assert report_to_csv_bytes(rep1) == report_to_csv_bytes(rep2)

    def test_jump_splitting_draw_matches_scalar_draws(self):
        # The one array draw leaves the generator where 2,400 scalar draws
        # would, so the symmetry group that follows draws the same f and g.
        # The group reads no grid, so it gets no spec.
        rng, scalar = np.random.default_rng(3), np.random.default_rng(3)
        cli.DEFECT_GROUPS["jump_splitting"](None, rng, Report("defect", ""))
        for _ in range(2400):
            scalar.uniform(-1, 1)
        assert rng.bit_generator.state == scalar.bit_generator.state

    def test_defect_walks_its_groups_in_table_order(self, monkeypatch):
        # Each entry wrapped by a recorder: the run calls every group once,
        # in table order, and writes the bytes of an unwrapped run.
        cfg = config_from_dict({**SCALAR_MODEL,
                                "grid": {"T": 30.0, "h": 3e-3}})
        plain = report_to_json_bytes(run_command("defect", cfg))
        calls = []

        def recorded(name, group):
            def run(*args):
                calls.append(name)
                group(*args)
            return run

        monkeypatch.setattr(cli, "DEFECT_GROUPS", {
            name: recorded(name, group)
            for name, group in cli.DEFECT_GROUPS.items()})
        wrapped = report_to_json_bytes(run_command("defect", cfg))
        assert calls == list(cli.DEFECT_GROUPS) and len(calls) == 7
        assert wrapped == plain

    def test_defect_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # Each pairing adds one np.vdot per chunk of NODE_CHUNK nodes,
        # below the size up to which OpenBLAS computes zdot on one thread:
        # one or two BLAS threads write the same report.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**SCALAR_MODEL,
                                    "grid": {"T": 30.0, "h": 3e-3}}))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "slhkit", "defect", "--config",
                 str(path), "--out", str(out)],
                capture_output=True, text=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_count_records(self):
        cfg = config_from_dict(SCALAR_MODEL)
        rep = run_command("fock", cfg, sweep=5)
        sweep_checks = [c for c in rep.checks if c.name.startswith("sweep[")]
        assert len(sweep_checks) == 5
        assert all(c.passed for c in sweep_checks)

    def test_seed_changes_sweep_values(self):
        cfg = config_from_dict(SCALAR_MODEL)
        rep1 = run_command("slh", cfg, seed=1, sweep=3)
        rep2 = run_command("slh", cfg, seed=2, sweep=3)
        v1 = [c.value for c in rep1.checks if c.name.startswith("sweep")]
        v2 = [c.value for c in rep2.checks if c.name.startswith("sweep")]
        assert v1 != v2

    def test_config_hash_reads_the_effective_seed(self):
        # SCALAR_MODEL's own seed is 7
        cfg = config_from_dict(SCALAR_MODEL)
        hashes = {seed: run_command("phase", cfg, seed=seed).config_hash
                  for seed in (3, 4, 7, None)}
        assert hashes[3] != hashes[4]
        assert hashes[7] == hashes[None] == cfg.config_hash()

    @pytest.mark.parametrize("dims, angle, residuals", [
        ((2, 2), 1e-12, [0.0, 1e-9]),
        ((2, 2), 2e-8, [0.0]),
        ((2, 2), 1e-12, [1e-9, 3e-8]),
        ((2, 3), 1e-12, [0.0]),
        ((0, 0), None, []),
    ])
    def test_fock_sweep_verdict_is_the_battery_records(self, monkeypatch,
                                                       dims, angle,
                                                       residuals):
        eq = {"dim_b": dims[0], "dim_c": dims[1], "max_angle": angle,
              "action_residuals": residuals}
        monkeypatch.setattr(cli.fock, "fock_battery", lambda *args: eq)
        rep = run_command("fock", config_from_dict(SCALAR_MODEL), sweep=1)
        battery = [c for c in rep.checks if c.name in (
            "kernel_dims", "max_principal_angle", "max_action_residual")]
        assert len(battery) == 1 + (angle is not None) + bool(residuals)
        sweep = rep.checks[-1]
        assert sweep.name == "sweep[000].fock"
        assert sweep.value == [*dims, angle or 0.0, max(residuals, default=0.0)]
        assert sweep.passed == all(c.passed for c in battery)


def literal_tolerances(source: str) -> list:
    """Lines of the ``report.add`` calls in ``source`` whose tolerance (third
    argument or ``tolerance=``) or pass verdict (fourth argument or
    ``passed=``) holds a numeric literal."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "report"):
            continue
        args = node.args[2:4] + [k.value for k in node.keywords
                                 if k.arg in ("tolerance", "passed")]
        if any(isinstance(leaf, ast.Constant)
               and type(leaf.value) in (int, float, complex)
               for arg in args for leaf in ast.walk(arg)):
            lines.append(node.lineno)
    return lines


class TestToleranceTable:
    SOURCE = Path(cli.__file__).read_text()

    def test_cli_states_no_literal_tolerance(self):
        assert literal_tolerances(self.SOURCE) == []

    def test_guard_sees_a_literal_written_back(self):
        mutant = self.SOURCE.replace('TOLERANCES["reproducing"]', "1e-5")
        assert mutant != self.SOURCE
        assert len(literal_tolerances(mutant)) == 1

    def test_contrast_threshold_is_the_table_entry(self, monkeypatch):
        # a lower bound checked through passed=, not stated as a tolerance
        cfg = config_from_dict(SCALAR_MODEL)
        contrast = run_command("scatter", cfg).checks[-1]
        assert contrast.name == "scatter.contrast_exceeds_half"
        assert contrast.tolerance is None and contrast.passed
        monkeypatch.setitem(cli.TOLERANCES, "scatter.contrast_exceeds_half",
                            contrast.value)
        assert not run_command("scatter", cfg).checks[-1].passed


class TestPhaseRows:
    def test_table_contents(self):
        cfg = config_from_dict({**MINIMAL,
                                "phase": {"E": [0.0, float(np.pi)],
                                          "sigma": [0.0]}})
        rep = run_command("phase", cfg)
        rows = rep.results["rows"]
        assert len(rows) == 2
        e0 = rows[0]
        assert e0[2] == 1.0 and e0[3] == 1.0 and e0[4] == 1.0
        epi = rows[1]
        assert abs(epi[4] - (-1.0)) < 1e-15
        assert abs(epi[2] - epi[3]) == 0.0  # sigma = 0 collapse

    def test_sigma_zero_exact_compares_two_formulas(self, monkeypatch):
        # s comes from the Cayley closed form and s_sigma from the kappa
        # formula, so a wrong kappa formula fails the sigma = 0 check
        monkeypatch.setattr(phases, "_damped_phase",
                            lambda e, sigma: (1.0 - 0.6j * e) / (1.0 + 0.5j * e))
        cfg = config_from_dict({**MINIMAL,
                                "phase": {"E": [1.0], "sigma": [0.0]}})
        rep = run_command("phase", cfg)
        failed = [c.name for c in rep.checks if not c.passed]
        assert "phase[e=1.0,sigma=0.0].sigma_zero_exact" in failed

    def test_csv_has_one_row_per_check(self):
        cfg = config_from_dict({**MINIMAL,
                                "phase": {"E": [0.0, 0.5, 1.0], "sigma": [0.0]}})
        rep = run_command("phase", cfg)
        lines = report_to_csv_bytes(rep).decode().strip().split("\n")
        assert len(lines) == 1 + len(rep.checks)
        assert lines[0] == "config_hash,name,value,tolerance,pass"


class TestExitCodes:
    def test_passing_config(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(SCALAR_MODEL))
        out = tmp_path / "report.json"
        proc = run_cli(["slh", "--config", str(path), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["command"] == "slh"

    def test_non_hermitian_config_fails(self, tmp_path):
        bad = dict(MINIMAL)
        bad["E"] = [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli(["slh", "--config", str(path)])
        assert proc.returncode != 0
        assert "block" in proc.stderr

    @pytest.mark.parametrize("command", ["slh", "defect", "fock"])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(SCALAR_MODEL))
        assert cli.main([command, "--config", str(path), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["slh", "phase", "defect", "scatter", "fock"])
    def test_negative_sweep_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(SCALAR_MODEL))
        assert cli.main([command, "--config", str(path), "--sweep", "-2"]) == 2
        assert "--sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["phase", "defect", "scatter"])
    def test_sweep_rejected_where_ignored(self, command, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(SCALAR_MODEL))
        assert cli.main([command, "--config", str(path), "--sweep", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "--sweep" in err

    def test_nan_coupling_exits_2(self, tmp_path):
        bad = dict(SCALAR_MODEL)
        bad["E"] = [[[float("nan"), 0.0], [0.5, -0.2]], [[0.5, 0.2], [1.0, 0.0]]]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(bad))
        proc = run_cli(["fock", "--config", str(path)])
        assert proc.returncode == 2
        assert "not finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oversized_grid_exits_1(self, tmp_path):
        # h = 1e-9 at T = 40 is 4e10 nodes per half-line; the spec refuses it
        # before any array exists.
        big = dict(SCALAR_MODEL, grid={"T": 40.0, "h": 1e-9})
        path = tmp_path / "big_grid.json"
        path.write_text(json.dumps(big))
        proc = run_cli(["defect", "--config", str(path)])
        assert proc.returncode == 1
        assert "TooLarge" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oversized_fock_exits_1(self, tmp_path):
        # (m, n, d) = (2, 3, 8) would return up to 8 GiB of kernel columns;
        # the space is refused on construction, before any level is charged
        big = {"m": 2, "n": 3, "E": [[[0.0, 0.0]] * 8] * 8, "fock": {"d": 8}}
        path = tmp_path / "big_fock.json"
        path.write_text(json.dumps(big))
        start = time.monotonic()
        assert cli.main(["fock", "--config", str(path)]) == 1
        assert time.monotonic() - start <= 1.0
        proc = run_cli(["fock", "--config", str(path)])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("TooLarge: ")

    def test_coarse_grid_blames_the_grid_derivative(self, tmp_path):
        # At T = 30, h = 2.5 the one-sided end stencil of a defect vector's
        # derivative, e^-30 (3 - 4 e^h + e^2h) / 2h at T (phi_+) and at -T
        # (phi_-, met first: the left half-line comes first), exceeds the
        # decay tolerance; the user gave no function, so the message names
        # the derivative and the spacing.
        coarse = dict(SCALAR_MODEL, grid={"T": 30.0, "h": 2.5})
        path = tmp_path / "coarse_grid.json"
        path.write_text(json.dumps(coarse))
        proc = run_cli(["defect", "--config", str(path)])
        assert proc.returncode == 1
        assert "SpecMismatch: grid derivative at spacing h = 2.5 must " \
            "vanish at the truncation boundary" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_lapack_failure_is_slhkit_error(self, tmp_path, monkeypatch, capsys):
        def diverging(config, seed, sweep, report):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(cli.COMMANDS, "slh", diverging)
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(SCALAR_MODEL))
        with pytest.raises(SlhkitError, match="SVD did not converge"):
            run_command("slh", config_from_dict(SCALAR_MODEL))
        assert cli.main(["slh", "--config", str(path)]) == 1
        assert "SlhkitError: numerical failure" in capsys.readouterr().err

    def test_failing_check_names_first_failure(self, tmp_path):
        # diagonal coupling keeps the boundary kernel nonempty, so the angle
        # check runs and cannot beat an impossibly tight tolerance
        strict = {
            "m": 1, "n": 1,
            "E": [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "tolerances": {"kernel": 1e-30},
        }
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(strict))
        proc = run_cli(["fock", "--config", str(path)])
        assert proc.returncode == 1
        assert "FAILED:" in proc.stderr

    @pytest.mark.parametrize("size", [(3, 1, 5), (1, 2, 6)])
    def test_generic_el0_has_empty_kernel_and_passes(self, size, tmp_path):
        # an invertible E_l0 leaves no finitely-supported domain vector:
        # sigma_min / sigma_max(X_0) is 0.076 at (3,1,5) and 1.0 at (1,2,6),
        # so the level-0 block decides the empty kernel; one ill-conditioned
        # block of the whole box instead reported a spurious kernel there
        m, n, d = size
        e = random_coupling(np.random.default_rng(1), m, n)
        path = tmp_path / "generic.json"
        path.write_text(json.dumps({
            "m": m, "n": n, "fock": {"d": d},
            "E": [[[v.real, v.imag] for v in row] for row in e.full]}))
        out = tmp_path / "report.json"
        assert cli.main(["fock", "--config", str(path), "--out", str(out)]) == 0
        checks = {c["name"]: c["value"]
                  for c in json.loads(out.read_text())["checks"]}
        assert checks["kernel_dims"] == [0, 0]

    def test_cli_reruns_byte_identical(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SCALAR_MODEL))
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            proc = run_cli(["fock", "--config", str(path), "--seed", "3",
                            "--sweep", "2", "--out", str(out)])
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_fock_run_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma (numpy 2.4); a fock process needs none of it
    script = ("import sys; from slhkit import cli; "
              "code = cli.main(['fock', '--config', sys.argv[1], "
              "'--out', sys.argv[2], '--sweep', '1']); "
              "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script, str(EXAMPLE),
                           str(tmp_path / "report.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
