"""Smoke test of the stage-bench row functions (no timing gate): rows of
``tools/bench.py`` on this tree at (m, n, d) = (1, 2, 3), one size the
guard refuses on construction and one it refuses at a level, one Sobolev
row (``punctured_line.sobolev`` on sources) and one ``defect`` run on a
T = 30, h = 3e-3 grid with its check groups, found by the names
``cli.command_defect`` uses (a renamed or added group must show up), one
child run through the hidden ``--child`` dispatch, the paired statistics of
a Sobolev, a defect and a startup stage row (on stand-in measurements), and
the bench's refusal to run without ``--out``."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_row_records_dims_and_sigma_max():
    result = load_bench().row(1, 2, 3, False)
    assert set(result) == {"seconds", "dim", "sector_dims", "sigma_max",
                           "last_level", "largest_charge_mb",
                           "rss_before_mb", "rss_after_mb"}
    assert len(result["sector_dims"]) == 4 * 2 + 1
    assert sum(result["sector_dims"]) == result["dim"] > 0
    assert result["sigma_max"] > 0 and result["seconds"] >= 0
    # the solve stops at the first level that adds nothing
    assert result["sector_dims"][result["last_level"]] == 0
    assert not any(result["sector_dims"][result["last_level"]:])
    assert 1.0 < result["largest_charge_mb"] < 2.0
    assert 0 < result["rss_before_mb"] <= result["rss_after_mb"]


def test_row_with_generic_el0_has_empty_kernel():
    result = load_bench().row(1, 2, 3, True)
    assert result["dim"] == 0
    assert not any(result["sector_dims"])


def test_row_records_a_refused_size():
    result = load_bench().row(2, 3, 8, False)
    assert set(result) == {"refused"} and "guard" in result["refused"]


def test_row_records_a_refused_level(monkeypatch):
    # a level charge above the guard raises inside boundary_kernel
    from slhkit import fock
    from slhkit.errors import MAX_SOLVE_BYTES

    monkeypatch.setattr(fock, "_level_bytes",
                        lambda *args: MAX_SOLVE_BYTES + 1)
    result = load_bench().row(1, 2, 3, False)
    assert set(result) == {"refused"} and "level 0 of" in result["refused"]


def test_sobolev_row_records_call_peak_and_value():
    result = load_bench().sobolev_row(30.0, 3e-3)
    assert set(result) == {"seconds", "nodes", "call_peak_mb",
                           "call_peak_arrays", "value"}
    assert result["nodes"] == 10_000 and result["seconds"] >= 0
    # one chunk's buffers: no node array stored or formed whole
    assert result["call_peak_arrays"] < 1.0
    assert all(isinstance(float.fromhex(x), float) for x in result["value"])


GROUPS = ["defect_vector_defects", "reproducing_defects",
          "decomposition_defects", "eigenrelation_defects",
          "_jump_splitting_check", "symmetry_defects", "_extension_check"]


def test_tool_finds_every_check_group_in_call_order():
    assert load_bench().defect_groups() == GROUPS


def test_defect_run_records_exit_code_and_report_digest():
    result = load_bench().defect_run(30.0, 3e-3)
    assert set(result) == {"seconds", "minor_faults", "exit_code",
                           "report_sha256", "rss_before_mb", "rss_after_mb",
                           "peak_rss_mb", "groups", "call_peak_mb",
                           "call_peak_arrays"}
    assert result["exit_code"] == 0 and result["seconds"] >= 0
    faults = result["minor_faults"]
    assert isinstance(faults, int) and faults >= 0
    assert len(result["report_sha256"]) == 64
    int(result["report_sha256"], 16)
    assert 0 < result["rss_before_mb"] <= result["rss_after_mb"]
    assert result["peak_rss_mb"] == result["rss_after_mb"]
    groups = result["groups"]
    assert list(groups) == GROUPS
    for group in groups.values():
        assert set(group) == {"seconds", "minor_faults", "peak_mb"}
        assert group["seconds"] >= 0 and group["minor_faults"] >= 0
        assert 0 < group["peak_mb"] <= result["call_peak_mb"]
    assert sum(g["seconds"] for g in groups.values()) <= result["seconds"]
    # one chunk's windows: no node array is held
    assert result["call_peak_mb"] < 1.0
    assert result["call_peak_arrays"] == pytest.approx(
        result["call_peak_mb"] * 2 ** 20 / (32 * 10_000))


def test_child_prints_one_json_line(capsys):
    assert load_bench().main(["--child", "kernel", "1", "2", "3",
                              "false"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    result = json.loads(out)
    assert result["dim"] > 0 and result["peak_rss_mb"] > 0


def test_sobolev_stage_runs_ten_alternating_pairs(monkeypatch, capsys,
                                                  tmp_path):
    # Stand-in children: the change is faster in every pair but the fifth.
    bench = load_bench()
    calls = []

    def measure(src, mode, spec):
        side = "parent" if src == tmp_path / "src" else "change"
        calls.append(side)
        i = calls.count(side)
        seconds = 0.003 + 1e-5 * i
        if side == "change" and i != 5:
            seconds -= 3e-4
        return {"seconds": seconds, "nodes": 10, "call_peak_mb": 0.0,
                "call_peak_arrays": 0.5, "value": ["0x1p+0", "0x0p+0"],
                "peak_rss_mb": 1.0}

    monkeypatch.setattr(bench, "measure", measure)
    monkeypatch.setattr(bench, "machine", lambda: {})
    out = bench.bench(tmp_path, ["sobolev"])
    assert bench.PAIRS >= 10
    n = bench.PAIRS
    assert len(calls) == 2 * n * len(bench.SOBOLEV_GRIDS)
    assert calls[:4] == ["parent", "change", "change", "parent"]
    row = out["sobolev_rows"][0]
    stats = row["pairs"]
    assert stats["pairs"] == n and stats["change_wins"] == n - 1
    assert stats["resolved"] and row["same_value"]
    parent = row["parent"]["seconds"]
    assert stats["parent"]["median"] == pytest.approx(
        sorted(parent)[n // 2 - 1] / 2 + sorted(parent)[n // 2] / 2)
    assert stats["parent"]["q1"] < stats["parent"]["median"] \
        < stats["parent"]["q3"]
    line = capsys.readouterr().out.splitlines()[0]
    assert f"change faster in {n - 1}/{n} pairs" in line
    assert "ms (" in line and "not resolved" not in line


def test_defect_stage_runs_ten_alternating_pairs(monkeypatch, capsys,
                                                 tmp_path):
    # Stand-in children: the change is faster in every pair but the fifth,
    # and both sides write the same report.
    bench = load_bench()
    calls = []

    def measure(src, mode, spec):
        side = "parent" if src == tmp_path / "src" else "change"
        calls.append(side)
        i = calls.count(side)
        seconds = 0.25 + 1e-3 * i
        if side == "change" and i != 5:
            seconds -= 0.03
        return {"seconds": seconds, "minor_faults": 150 + i, "exit_code": 0,
                "report_sha256": "0" * 64, "call_peak_mb": 0.2,
                "peak_rss_mb": 1.0}

    monkeypatch.setattr(bench, "measure", measure)
    monkeypatch.setattr(bench, "machine", lambda: {})
    out = bench.bench(tmp_path, ["defect-run"])
    n = bench.PAIRS
    assert len(calls) == 2 * n * len(bench.DEFECT_RUNS)
    assert calls[:4] == ["parent", "change", "change", "parent"]
    row = out["defect_runs"][0]
    stats = row["pairs"]
    assert stats["pairs"] == n and stats["change_wins"] == n - 1
    assert stats["resolved"] and row["same_report"]
    assert row["change"]["minor_faults"] == [151 + i for i in range(n)]
    line = capsys.readouterr().out.splitlines()[0]
    assert f"change faster in {n - 1}/{n} pairs" in line
    assert "minor faults" in line and "not resolved" not in line


def test_startup_stage_runs_ten_alternating_pairs(monkeypatch, capsys,
                                                  tmp_path):
    # Stand-in children: each pair spawns the setup probe and then the CLI
    # on each side; the change is faster in every pair but the fifth, and
    # its CLI child is always 0.5 MB smaller.
    bench = load_bench()
    spawns = []

    def spawn(src, argv):
        side = "parent" if src == tmp_path / "src" else "change"
        spawns.append((side, "probe" if argv[1] == "-c" else "cli", argv))
        i = sum(s == side for s, _, _ in spawns)
        seconds = 0.25 + 1e-3 * i
        if side == "change" and (i + 1) // 2 != 5:
            seconds -= 0.03
        return {"seconds": seconds, "exit_code": 0,
                "peak_rss_mb": 40.0 - 0.5 * (side == "change")}

    def measure(src, mode, spec):
        assert mode == "startup-modules"
        side = "parent" if src == tmp_path / "src" else "change"
        return {"exit_code": 0, "modules": [side], "peak_rss_mb": 1.0}

    monkeypatch.setattr(bench, "spawn", spawn)
    monkeypatch.setattr(bench, "measure", measure)
    monkeypatch.setattr(bench, "machine", lambda: {})
    out = bench.bench(tmp_path, ["startup"])
    n = bench.PAIRS
    rows = out["startup_rows"]
    assert len(spawns) == 4 * n * len(bench.STARTUP_ROWS) == 4 * n * len(rows)
    assert [(side, kind) for side, kind, _ in spawns[:8]] == [
        ("parent", "probe"), ("parent", "cli"), ("change", "probe"),
        ("change", "cli"), ("change", "probe"), ("change", "cli"),
        ("parent", "probe"), ("parent", "cli")]
    # the probe is perfbench's line; the CLI runs the row's command
    assert spawns[0][2][2] == bench.SETUP_PROBE
    assert {(row["command"], row["config"]) for row in rows} == set(
        bench.STARTUP_ROWS)
    kernel = next(row for row in rows if row["config"] == "fock-kernel")
    assert kernel["sweep"] == 1
    argv = next(a for _, kind, a in spawns if kind == "cli" and
                a[a.index("--config") + 1].endswith("fock-kernel.json"))
    assert argv[argv.index("--sweep") + 1] == "1"
    row = rows[0]
    for key in ("setup", "wall"):
        assert row[key]["pairs"] == n and row[key]["change_wins"] == n - 1
        assert row[key]["resolved"]
    assert row["peak_rss"]["change_wins"] == n
    assert row["peak_rss"]["change"]["median"] == 39.5
    assert row["parent"]["modules"] == ["parent"]
    assert row["change"]["exit_codes"] == [0] * n
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("startup slh configs/example.json: setup ")
    assert f"change faster in {n - 1}/{n} pairs" in line
    assert f"40.00 -> 39.50 MB, lower in {n}/{n} pairs" in line


def test_pair_stats_need_nine_in_ten_and_a_gap_over_the_iqr():
    bench = load_bench()
    parent = [1.0 + 0.1 * i for i in range(10)]
    close = {"parent": {"seconds": parent},
             "change": {"seconds": [p - 0.01 for p in parent]}}
    stats = bench.pair_stats(close)
    # faster in every pair, but by far less than the parent's spread
    assert stats["change_wins"] == 10 and not stats["resolved"]
    eight = {"parent": {"seconds": parent},
             "change": {"seconds": [p - (2.0 if i < 8 else -2.0)
                                    for i, p in enumerate(parent)]}}
    stats = bench.pair_stats(eight)
    assert stats["change_wins"] == 8 and not stats["resolved"]
    # three of three pairs, with a gap over the IQR: too few pairs
    three = {"parent": {"seconds": [1.0, 1.1, 1.2]},
             "change": {"seconds": [0.5, 0.6, 0.7]}}
    stats = bench.pair_stats(three)
    assert stats["change_wins"] == 3 and not stats["resolved"]
    gap = stats["parent"]["median"] - stats["change"]["median"]
    assert gap > stats["parent"]["q3"] - stats["parent"]["q1"]


def test_out_is_required(capsys):
    # --parent names a valid checkout, so only the missing --out is
    # refused, before anything is measured or written
    root = SCRIPT.parents[1]
    with pytest.raises(SystemExit) as exc:
        load_bench().main(["--parent", str(root)])
    assert exc.value.code == 2
    assert "--out is required" in capsys.readouterr().err
