"""Smoke test of the stage bench (no timing gate): the children of
``tools/bench.py`` on this tree at (m, n, d) = (1, 2, 3), one size the
guard refuses on construction and one it refuses at a level, one Sobolev
row (``punctured_line.sobolev`` on sources), one ``fock`` and one ``defect``
run, the latter on a T = 30, h = 3e-3 grid with the check groups of
``cli.DEFECT_GROUPS`` under their table keys, the start-up child, children
run through the hidden ``--child`` dispatch, every stage of the table on
stand-in measurements, a child that exits non-zero, the source digest of a
tree, the bench's refusal to run without ``--out``, and a source guard:
the tools import no ``unittest.mock``, read no single-underscore attribute
(by name or through ``getattr`` on a literal) and no function's
bytecode."""

import ast
import importlib.util
import json
import re
import shutil
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


def test_defect_run_records_exit_code_and_report_digest():
    from slhkit import cli

    result = load_bench().defect_run(30.0, 3e-3)
    assert set(result) == {"seconds", "minor_faults", "exit_code",
                           "report_sha256", "rss_before_mb", "rss_after_mb",
                           "peak_rss_mb", "groups", "group_minor_faults",
                           "call_peak_mb", "call_peak_arrays"}
    assert result["exit_code"] == 0 and result["seconds"] >= 0
    faults = result["minor_faults"]
    assert isinstance(faults, int) and faults >= 0
    assert len(result["report_sha256"]) == 64
    int(result["report_sha256"], 16)
    assert 0 < result["rss_before_mb"] <= result["rss_after_mb"]
    assert result["peak_rss_mb"] == result["rss_after_mb"]
    groups = result["groups"]
    assert list(groups) == list(cli.DEFECT_GROUPS)
    for group in groups.values():
        assert set(group) == {"seconds", "minor_faults", "peak_mb"}
        assert group["seconds"] >= 0 and group["minor_faults"] >= 0
        assert 0 < group["peak_mb"] <= result["call_peak_mb"]
    assert sum(g["seconds"] for g in groups.values()) <= result["seconds"]
    assert result["group_minor_faults"] == sum(
        g["minor_faults"] for g in groups.values())
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


def test_fock_run_records_exit_code_and_kernel_dims():
    result = load_bench().fock_run(1, 2, 3)
    assert set(result) == {"seconds", "minor_faults", "exit_code",
                           "rss_before_mb", "rss_after_mb", "kernel_dims"}
    assert result["exit_code"] == 0 and result["seconds"] >= 0
    assert result["kernel_dims"] and all(result["kernel_dims"])


def test_startup_child_runs_the_probe_then_the_cli(monkeypatch):
    # Stand-in bare processes: each records its argv and whether the config
    # it names is on disk when it runs.
    bench = load_bench()
    spawns = []

    def spawn(argv):
        config = argv[3] if argv[1] == "-c" else argv[argv.index("--config")
                                                        + 1]
        spawns.append(("probe" if argv[1] == "-c" else "cli", argv,
                       Path(config).is_file()))
        return {"seconds": 0.25 if argv[1] == "-c" else 0.5, "exit_code": 0,
                "peak_rss_mb": 40.0}

    monkeypatch.setattr(bench, "spawn", spawn)
    for command, config, sweep in bench.STARTUP_ROWS:
        spawns.clear()
        result = bench.startup(command, config, sweep)
        assert result == {"setup_s": 0.25, "seconds": 0.5, "exit_code": 0,
                          "peak_rss_mb": 40.0}
        # the probe is perfbench's line; the CLI runs the row's command on
        # the same config
        (probe, probe_argv, probe_on_disk), (cli, argv, on_disk) = spawns
        assert (probe, cli) == ("probe", "cli") and probe_on_disk and on_disk
        assert probe_argv[2] == bench.SETUP_PROBE
        assert argv[1:4] == ["-m", "slhkit", command]
        assert argv[argv.index("--config") + 1] == probe_argv[3]
        assert argv[argv.index("--sweep") + 1] == str(sweep)
    assert ("fock", "fock-kernel", 1) in bench.STARTUP_ROWS


def test_startup_child_runs_in_a_fresh_process():
    bench = load_bench()
    result = bench.measure(bench.ROOT / "src", "startup",
                           ("slh", "configs/example.json", 0))
    assert set(result) == {"setup_s", "seconds", "exit_code", "peak_rss_mb"}
    assert result["exit_code"] == 0 and result["peak_rss_mb"] > 0
    assert 0 < result["setup_s"] and 0 < result["seconds"]


STAGE_NAMES = list(load_bench().STAGES)


@pytest.mark.parametrize("name", STAGE_NAMES)
def test_stage_measures_its_child_in_alternating_pairs(name, monkeypatch,
                                                       capsys, tmp_path):
    # Stand-in children: every paired field reads 1 + i/1000 in a side's
    # i-th run on a spec, 0.5 less on the change but in the fifth pair;
    # every identity field reads the spec.
    bench = load_bench()
    stage, calls = bench.STAGES[name], []

    def measure(src, child, spec):
        side = "parent" if src == tmp_path / "src" else "change"
        calls.append((side, child, spec))
        i = calls.count((side, child, spec))
        offset = 0.5 if side == "change" and i != 5 else 0.0
        return {**{key: 1.0 + 1e-3 * i - offset for key in stage.paired},
                **{key: list(spec) for key in stage.same}, "first": i}

    monkeypatch.setattr(bench, "measure", measure)
    monkeypatch.setattr(bench, "machine", lambda: {})
    out = bench.bench(tmp_path, [name])
    rows, n = out[name], stage.pairs
    assert out["stages"] == [name] and len(rows) == len(stage.specs)
    assert len(calls) == 2 * n * len(rows)
    for k, (row, spec) in enumerate(zip(rows, stage.specs)):
        mine = calls[2 * n * k:2 * n * (k + 1)]
        assert {(child, spec) for _, child, spec in mine} == {(name, spec)}
        assert [side for side, _, _ in mine[:4]] == [
            "parent", "change", "change", "parent"]
        assert [row[key] for key in stage.keys] == list(spec)
        assert row["same"] == dict.fromkeys(stage.same, True)
        assert list(row["pairs"]) == list(stage.paired)
        for key in stage.paired:
            assert len(row["parent"][key]) == len(row["change"][key]) == n
            stats = row["pairs"][key]
            assert stats["pairs"] == n
            assert stats["change_wins"] == n - (n >= 5)
            # only ten pairs can resolve a gain
            assert stats["resolved"] == (n >= bench.PAIRS)
        # a field neither paired nor per run: the first run's
        assert row["parent"]["first"] == row["change"]["first"] == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(rows)
    assert all(line.startswith(f"{name} ") for line in lines)


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
    row = out["sobolev"][0]
    stats = row["pairs"]["seconds"]
    assert stats["pairs"] == n and stats["change_wins"] == n - 1
    assert stats["resolved"] and row["same"] == {"value": True}
    parent = row["parent"]["seconds"]
    assert stats["parent"]["median"] == pytest.approx(
        sorted(parent)[n // 2 - 1] / 2 + sorted(parent)[n // 2] / 2)
    assert stats["parent"]["q1"] < stats["parent"]["median"] \
        < stats["parent"]["q3"]
    # the peak RSS is kept per run and paired
    assert row["parent"]["peak_rss_mb"] == [1.0] * n
    assert row["pairs"]["peak_rss_mb"]["change_wins"] == 0
    seconds = capsys.readouterr().out.splitlines()[0].split("; ")[0]
    assert f"change lower in {n - 1}/{n} pairs" in seconds
    assert "ms (" in seconds and "not resolved" not in seconds


def test_defect_stage_runs_ten_alternating_pairs(monkeypatch, capsys,
                                                 tmp_path):
    # Stand-in children: the change is faster in every pair but the fifth,
    # both sides write the same report, and the change's groups fault once
    # more in each run.
    bench = load_bench()
    calls = []

    def measure(src, mode, spec):
        side = "parent" if src == tmp_path / "src" else "change"
        calls.append(side)
        i = calls.count(side)
        seconds = 0.25 + 1e-3 * i
        if side == "change" and i != 5:
            seconds -= 0.03
        groups = {"a": {"minor_faults": 20 + i},
                  "b": {"minor_faults": 1 + (side == "change")}}
        return {"seconds": seconds, "minor_faults": 150 + i, "exit_code": 0,
                "report_sha256": "0" * 64, "call_peak_mb": 0.2,
                "peak_rss_mb": 1.0, "groups": groups,
                "group_minor_faults": sum(
                    g["minor_faults"] for g in groups.values())}

    monkeypatch.setattr(bench, "measure", measure)
    monkeypatch.setattr(bench, "machine", lambda: {})
    out = bench.bench(tmp_path, ["defect-run"])
    n = bench.PAIRS
    assert len(calls) == 2 * n * len(bench.DEFECT_RUNS)
    assert calls[:4] == ["parent", "change", "change", "parent"]
    row = out["defect-run"][0]
    stats = row["pairs"]["seconds"]
    assert stats["pairs"] == n and stats["change_wins"] == n - 1
    assert stats["resolved"] and row["same"] == {"report_sha256": True}
    assert row["change"]["minor_faults"] == [151 + i for i in range(n)]
    assert row["change"]["exit_code"] == [0] * n
    assert len(row["change"]["groups"]) == n
    line = capsys.readouterr().out.splitlines()[0]
    assert f"change lower in {n - 1}/{n} pairs" in line
    # the median of the groups' summed faults, not of cli.main's
    assert "group_minor_faults 26.5 (" in line and "-> 27.5 (" in line
    assert "not resolved" not in line.split("; ")[0]


def test_startup_stage_runs_ten_alternating_pairs(monkeypatch, capsys,
                                                  tmp_path):
    # Stand-in children: the change is faster in every pair but the fifth,
    # and its CLI process is always 0.5 MB smaller.
    bench = load_bench()
    calls, n = [], bench.PAIRS

    def measure(src, mode, spec):
        assert mode == "startup"
        side = "parent" if src == tmp_path / "src" else "change"
        calls.append((side, spec))
        i = calls.count((side, spec))
        seconds = 0.25 + 1e-3 * i
        if side == "change" and i != 5:
            seconds -= 0.03
        return {"setup_s": seconds, "seconds": seconds, "exit_code": 0,
                "peak_rss_mb": 40.0 - 0.5 * (side == "change"),
                "first": side}

    monkeypatch.setattr(bench, "measure", measure)
    monkeypatch.setattr(bench, "machine", lambda: {})
    out = bench.bench(tmp_path, ["startup"])
    rows = out["startup"]
    assert len(calls) == 2 * n * len(bench.STARTUP_ROWS) == 2 * n * len(rows)
    assert [side for side, _ in calls[:4]] == [
        "parent", "change", "change", "parent"]
    assert [(row["command"], row["config"], row["sweep"]) for row in rows] \
        == list(bench.STARTUP_ROWS)
    # the fock-kernel workload runs at its sweep, 1
    kernel = next(row for row in rows if row["config"] == "fock-kernel")
    assert kernel["sweep"] == 1
    assert {spec for _, spec in calls if spec[1] == "fock-kernel"} == {
        ("fock", "fock-kernel", 1)}
    row = rows[0]
    for key in ("setup_s", "seconds"):
        stats = row["pairs"][key]
        assert stats["pairs"] == n and stats["change_wins"] == n - 1
        assert stats["resolved"]
    assert row["pairs"]["peak_rss_mb"]["change_wins"] == n
    assert row["pairs"]["peak_rss_mb"]["change"]["median"] == 39.5
    assert row["parent"]["first"] == "parent"
    assert row["change"]["exit_code"] == [0] * n
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith(
        "startup command=slh config=configs/example.json sweep=0: setup_s ")
    assert f"change lower in {n - 1}/{n} pairs" in line
    assert (f"peak_rss_mb 40 (40..40) -> 39.5 (39.5..39.5), change lower "
            f"in {n}/{n} pairs") in line


def test_a_failed_child_ends_its_row_and_the_run_goes_on(monkeypatch,
                                                         capsys, tmp_path):
    # A stand-in child script: it exits 1 at (1, 2, 4), as a kernel child
    # the kernel kills would, and prints one row elsewhere.
    bench = load_bench()
    child = tmp_path / "child.py"
    child.write_text(
        "import json, sys\n"
        "if sys.argv[3:6] == ['1', '2', '4']:\n"
        "    sys.exit('killed at (1, 2, 4)')\n"
        "print(json.dumps({'seconds': 1.0, 'peak_rss_mb': 2.0, 'dim': 1,\n"
        "                  'sector_dims': [1]}))\n")
    monkeypatch.setattr(bench, "SCRIPT", child)
    monkeypatch.setattr(bench, "machine", lambda: {})
    monkeypatch.setitem(bench.STAGES, "kernel", bench.STAGES["kernel"]._replace(
        specs=((1, 2, 4, False), (1, 2, 3, False))))
    failed, row = bench.bench(tmp_path, ["kernel"])["kernel"]
    # the row ends at its first child; the next row runs in full
    assert failed["parent"] == {"failed": {
        "exit_code": 1, "stderr": "killed at (1, 2, 4)\n"}}
    assert failed["change"] == {}
    assert "pairs" not in failed and "same" not in failed
    assert row["parent"]["seconds"] == [1.0] * bench.REPEATS
    assert row["same"] == {"dim": True, "sector_dims": True}
    assert row["pairs"]["peak_rss_mb"]["change"]["median"] == 2.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("kernel m=1 n=2 d=4 generic_el0=False: "
                        "failed -> not run")


def test_source_digest_names_the_tree(tmp_path):
    bench = load_bench()
    copies = [tmp_path / "a", tmp_path / "b"]
    for copy in copies:
        shutil.copytree(bench.ROOT / "src" / "slhkit",
                        copy / "src" / "slhkit",
                        ignore=shutil.ignore_patterns("__pycache__"))
    digests = [bench.source_digest(copy) for copy in copies]
    assert digests[0] == digests[1] == bench.source_digest(bench.ROOT)
    assert len(digests[0]) == 64
    cli = copies[1] / "src" / "slhkit" / "cli.py"
    data = bytearray(cli.read_bytes())
    data[-1] ^= 1
    cli.write_bytes(bytes(data))
    assert bench.source_digest(copies[0]) != bench.source_digest(copies[1])


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



def private_reads(source: str) -> list:
    """The ``unittest.mock`` imports in ``source``, the attributes it reads
    with one leading underscore (``x._name``; dunders are allowed), its
    reads of a function's bytecode (``__code__``, ``co_names``) and its
    ``getattr`` calls on a literal single-underscore name."""
    imports, private = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imports += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and (
                re.match("_[^_]", node.attr)
                or node.attr in ("__code__", "co_names")):
            private.append(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and re.match("_[^_]", str(node.args[1].value))):
            private.append(node.args[1].value)
    return [name for name in imports
            if name.startswith("unittest.mock")] + private


def test_tools_import_no_mock_and_read_no_private():
    for path in sorted(SCRIPT.parent.glob("*.py")):
        assert private_reads(path.read_text()) == [], path.name


def test_guard_sees_a_level_charge_patch_written_back():
    source = SCRIPT.read_text()
    mutant = source.replace("    from slhkit import fock\n", (
        "    from unittest import mock\n    from slhkit import fock\n"
        "    charge = fock._level_bytes\n"), 1)
    assert mutant != source
    assert private_reads(mutant) == ["unittest.mock", "_level_bytes"]


def test_guard_sees_a_bytecode_read_written_back():
    # the check-group scan of an earlier bench.py, and a getattr on one of
    # the private functions it found
    source = SCRIPT.read_text()
    mutant = source.replace("    from slhkit import cli\n", (
        "    from slhkit import cli\n"
        "    names = [name for name in cli.command_defect.__code__.co_names\n"
        "             if callable(getattr(cli, \"_extension_check\", None))]\n"),
        1)
    assert mutant != source
    assert sorted(private_reads(mutant)) == ["__code__", "_extension_check",
                                             "co_names"]
