"""Smoke test of the stage-bench row functions (no timing gate): rows of
``tools/bench.py`` on this tree at (m, n, d) = (1, 2, 3), one size the
guard refuses, one ``sobolev_inner`` row and one ``defect`` run on a
T = 30, h = 3e-3 grid, the paired statistics of a Sobolev stage row (on
stand-in measurements), and the bench's refusal to run without ``--out``."""

import importlib.util
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
    assert set(result) == {"seconds", "dim", "sector_dims", "sigma_max"}
    assert len(result["sector_dims"]) == 4 * 2 + 1
    assert sum(result["sector_dims"]) == result["dim"] > 0
    assert result["sigma_max"] > 0 and result["seconds"] >= 0


def test_row_with_generic_el0_has_empty_kernel():
    result = load_bench().row(1, 2, 3, True)
    assert result["dim"] == 0
    assert not any(result["sector_dims"])


def test_row_records_a_refused_size():
    result = load_bench().row(1, 3, 7, False)
    assert set(result) == {"refused"} and "guard" in result["refused"]


def test_sobolev_row_records_call_peak_and_value():
    result = load_bench().sobolev_row(30.0, 3e-3)
    assert set(result) == {"seconds", "nodes", "call_peak_mb",
                           "call_peak_arrays", "value"}
    assert result["nodes"] == 10_000 and result["seconds"] >= 0
    # one leaf's buffers: no derivative or product formed whole
    assert result["call_peak_arrays"] < 1.0
    assert all(isinstance(float.fromhex(x), float) for x in result["value"])


def test_defect_run_records_exit_code_and_report_digest():
    result = load_bench().defect_run(30.0, 3e-3)
    assert set(result) == {"seconds", "minor_faults", "exit_code",
                           "report_sha256"}
    assert result["exit_code"] == 0 and result["seconds"] >= 0
    faults = result["minor_faults"]
    assert isinstance(faults, int) and faults >= 0
    assert len(result["report_sha256"]) == 64
    int(result["report_sha256"], 16)


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
    assert bench.SOBOLEV_PAIRS >= 10
    n = bench.SOBOLEV_PAIRS
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


def test_out_is_required(capsys):
    # --parent names a valid checkout, so only the missing --out is
    # refused, before anything is measured or written
    root = SCRIPT.parents[1]
    with pytest.raises(SystemExit) as exc:
        load_bench().main(["--parent", str(root)])
    assert exc.value.code == 2
    assert "--out is required" in capsys.readouterr().err
