"""Smoke test of the stage bench (no timing gate): the children of
``tools/bench.py`` on this tree at (m, n, d) = (1, 2, 3), one size the
guard refuses on construction and one it refuses at a level, the rows' E
drawn without the tree, one ``fock`` run, one ``defect-groups`` child on a
T = 30, h = 3e-3 grid, with the check groups of ``cli.DEFECT_GROUPS`` under
their table keys and the digest of the report the CLI writes, the setup
probe and one bare CLI process in every CLI child, on the config its row
names, children run through the hidden ``--child`` dispatch, every stage of
the table, with its identity and paired fields, on stand-in measurements,
each side's ``src/`` copied to a path of equal length, a child that exits
non-zero, the source digest of a tree, the bench's refusal to run without
``--out``, and two source guards: the tools import no ``unittest.mock``,
read no single-underscore attribute (by name or through ``getattr`` on a
literal) and no function's bytecode, and no module under ``tests/`` or
``perfbench/`` defines a test name twice in one scope or has a hypothesis
``@settings`` without ``derandomize=True`` and ``database=None``."""

import ast
import json
import re
import shutil
from pathlib import Path

import pytest

from conftest import TOOLS, load_script

SCRIPT = TOOLS / "bench.py"


def test_row_records_dims_and_sigma_max():
    result = load_script(SCRIPT).row(1, 2, 3, False)
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
    result = load_script(SCRIPT).row(1, 2, 3, True)
    assert result["dim"] == 0
    assert not any(result["sector_dims"])


def test_row_records_a_refused_size():
    result = load_script(SCRIPT).row(2, 3, 8, False)
    assert set(result) == {"refused"} and "guard" in result["refused"]


def test_row_records_a_refused_level(monkeypatch):
    # a level charge above the guard raises inside boundary_kernel
    from slhkit import fock
    from slhkit.errors import MAX_SOLVE_BYTES

    monkeypatch.setattr(fock, "_level_bytes",
                        lambda *args: MAX_SOLVE_BYTES + 1)
    result = load_script(SCRIPT).row(1, 2, 3, False)
    assert set(result) == {"refused"} and "level 0 of" in result["refused"]


def test_rows_draw_e_by_perfbench_not_by_the_tree(monkeypatch):
    # A tree whose ensembles cannot draw still solves the rows' E: both
    # sides solve the same E, whatever their random_coupling.
    from slhkit import ensembles

    def refuse(*args, **kwargs):
        raise AssertionError("E drawn by the tree under test")

    monkeypatch.setattr(ensembles, "random_coupling", refuse)
    monkeypatch.setattr(ensembles, "random_hermitian", refuse)
    bench = load_script(SCRIPT)
    assert bench.row(1, 2, 3, False)["dim"] > 0
    e = bench.coupling(1, 2, False)
    assert e == bench.coupling(1, 2, False)
    # E_l0 = 0, scaled to max entry 1
    assert not any(e[0][1:]) and not any(line[0] for line in e[1:])
    assert max(abs(x) for line in e for x in line) == 1.0


def test_defect_groups_record_each_group_and_the_report_digest(
        monkeypatch):
    from slhkit import cli

    bench = load_script(SCRIPT)
    table = cli.DEFECT_GROUPS
    result = bench.defect_groups(30.0, 3e-3)
    assert cli.DEFECT_GROUPS is table
    assert set(result) == {"seconds", "groups", "group_minor_faults",
                           "report_sha256"}
    groups = result["groups"]
    assert list(groups) == list(table)
    for group in groups.values():
        assert set(group) == {"seconds", "minor_faults", "peak_mb"}
        assert group["seconds"] >= 0 and group["minor_faults"] >= 0
        # one chunk's windows: no node array is held
        assert 0 < group["peak_mb"] < 1.0
    assert sum(g["seconds"] for g in groups.values()) <= result["seconds"]
    assert result["group_minor_faults"] == sum(
        g["minor_faults"] for g in groups.values())
    # the digest of the report a bare CLI process writes on the same grid
    monkeypatch.setenv("PYTHONPATH", str(bench.ROOT / "src"))
    run = bench.cli_run("defect", ["grid-defect",
                                   {"grid": {"T": 30.0, "h": 3e-3}}], 0)
    assert run["exit_code"] == 0
    assert result["report_sha256"] == run["report_sha256"]


def test_child_prints_one_json_line(capsys):
    assert load_script(SCRIPT).main(["--child", "kernel", "1", "2", "3",
                              "false"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    result = json.loads(out)
    assert result["dim"] > 0 and result["peak_rss_mb"] > 0


def test_fock_run_records_exit_code_and_kernel_dims(monkeypatch):
    bench = load_script(SCRIPT)
    monkeypatch.setenv("PYTHONPATH", str(bench.ROOT / "src"))
    result = bench.fock_run(1, 2, 3)
    assert set(result) == {"setup_s", "seconds", "minor_faults", "exit_code",
                           "peak_rss_mb", "report_sha256", "kernel_dims"}
    assert result["exit_code"] == 0 and result["seconds"] >= 0
    assert result["kernel_dims"] and all(result["kernel_dims"])


def test_cli_children_run_the_probe_then_the_cli(monkeypatch):
    # Stand-in bare processes: each records its argv and the config it
    # names, read from disk when it runs; none writes a report.
    bench = load_script(SCRIPT)
    spawns = []

    def spawn(argv):
        config = argv[3] if argv[1] == "-c" else argv[argv.index("--config")
                                                        + 1]
        spawns.append(("probe" if argv[1] == "-c" else "cli", argv,
                       json.loads(Path(config).read_bytes())))
        return {"seconds": 0.25 if argv[1] == "-c" else 0.5, "exit_code": 0,
                "peak_rss_mb": 40.0, "minor_faults": 7}

    def workload(name):
        return json.loads(bench.generate_config(name, bench.SEED))

    monkeypatch.setattr(bench, "spawn", spawn)
    children = [("cli-run", row, row[0], row[2]) for row in bench.CLI_ROWS]
    children.append(("fock-run", (1, 2, 3), "fock", 0))
    for name, spec, command, sweep in children:
        spawns.clear()
        result = bench.STAGES[name].child(*spec)
        # the CLI process's figures are the row's, whatever else the child
        # records
        assert {key: result[key] for key in (
            "setup_s", "seconds", "exit_code", "peak_rss_mb", "minor_faults",
            "report_sha256")} == {
            "setup_s": 0.25, "seconds": 0.5, "exit_code": 0,
            "peak_rss_mb": 40.0, "minor_faults": 7, "report_sha256": None}
        # the probe is perfbench's line; the CLI runs the row's command on
        # the same config
        (probe, probe_argv, probe_config), (cli, argv, config) = spawns
        assert (probe, cli) == ("probe", "cli") and probe_config == config
        assert probe_argv[2] == bench.SETUP_PROBE
        assert argv[1:4] == ["-m", "slhkit", command]
        assert argv[argv.index("--config") + 1] == probe_argv[3]
        assert argv[argv.index("--sweep") + 1] == str(sweep)
        if name == "fock-run":
            # the fock-kernel workload at the row's size and E
            assert config == {**workload("fock-kernel"), "m": 1, "n": 2,
                              "fock": {"d": 3}, "E": [
                                  [[v.real, v.imag] for v in line]
                                  for line in bench.coupling(1, 2, False)]}
            continue
        assert len(result) == 6
        # a path, a workload, or a workload with top-level keys replaced
        if isinstance(spec[1], list):
            want = workload(spec[1][0])
            want.update(spec[1][1])
        else:
            want = (workload(spec[1]) if spec[1] in bench.WORKLOADS
                    else json.loads((bench.ROOT / spec[1]).read_bytes()))
        assert config == want
    # every benchmark workload at its sweep, and the grid-defect workload on
    # every defect-groups grid: its own first
    rows = list(bench.CLI_ROWS)
    assert all(row in rows for row in (
        ("fock", "fock-kernel", 1), ("fock", "fock-coupled", 0),
        ("slh", "slh-sweep", 4000), ("defect", "grid-defect", 0)))
    grid = workload("grid-defect")["grid"]
    assert (grid["T"], grid["h"]) == bench.DEFECT_GRIDS[0]
    assert [row[1][1]["grid"] for row in rows if isinstance(row[1], list)] \
        == [{"T": t, "h": h} for t, h in bench.DEFECT_GRIDS[1:]]


def test_cli_run_child_runs_in_a_fresh_process():
    bench = load_script(SCRIPT)
    result = bench.measure(bench.ROOT / "src", "cli-run",
                           ("slh", "configs/example.json", 0))
    assert set(result) == {"setup_s", "seconds", "exit_code", "peak_rss_mb",
                           "minor_faults", "report_sha256"}
    assert result["exit_code"] == 0 and result["peak_rss_mb"] > 0
    assert result["minor_faults"] > 0 and len(result["report_sha256"]) == 64
    assert 0 < result["setup_s"] and 0 < result["seconds"]


@pytest.fixture
def parent(tmp_path):
    """A stand-in parent checkout: a ``src/`` holding one marker module."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "marker.py").write_text("")
    return tmp_path


STAGE_NAMES = list(load_script(SCRIPT).STAGES)
# the fields a side keeps per run besides its stage's paired ones
PER_RUN = ("exit_code", "minor_faults", "groups")
CLI_PAIRED = ("setup_s", "seconds", "peak_rss_mb")
# each stage's identity fields and paired fields
FIELDS = {"kernel": (("dim", "sector_dims"), ("seconds", "peak_rss_mb")),
          "fock-run": (("kernel_dims",), CLI_PAIRED),
          "cli-run": (("report_sha256",), CLI_PAIRED),
          "defect-groups": (("report_sha256",),
                            ("seconds", "group_minor_faults"))}


@pytest.mark.parametrize("name", STAGE_NAMES)
def test_stage_measures_its_child_in_alternating_pairs(name, monkeypatch,
                                                       capsys, parent):
    # Stand-in children: every paired field reads 1 + i/1000 in a side's
    # i-th run on a spec, 0.5 less on the change but in the fifth pair;
    # every per-run field reads i, every identity field the spec.
    bench = load_script(SCRIPT)
    stage, calls, trees = bench.STAGES[name], [], set()
    assert (stage.same, stage.paired) == FIELDS[name]

    def measure(src, child, spec):
        side = src.parent.name
        # a copy of the side's src/
        assert (src / "marker.py").is_file() == (side == "parent")
        assert (src / "slhkit" / "cli.py").is_file() == (side == "change")
        trees.add(src)
        calls.append((side, child, spec))
        i = calls.count((side, child, spec))
        offset = 0.5 if side == "change" and i != 5 else 0.0
        return {**dict.fromkeys(PER_RUN, i),
                **{key: 1.0 + 1e-3 * i - offset for key in stage.paired},
                **{key: list(spec) for key in stage.same}, "first": i}

    monkeypatch.setattr(bench, "measure", measure)
    monkeypatch.setattr(bench, "machine", lambda: {})
    out = bench.bench(parent, [name])
    rows, n = out[name], stage.pairs
    # the two copies sit at paths of equal length, and are gone after
    assert len(trees) == 2 and len({len(str(src)) for src in trees}) == 1
    assert not any(src.exists() for src in trees)
    # the stages that back a BENCH file's claims run enough pairs to resolve
    assert (n >= bench.PAIRS) == (name in ("cli-run", "defect-groups"))
    assert out["stages"] == [name] and len(rows) == len(stage.specs)
    assert len(calls) == 2 * n * len(rows)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(rows)
    for k, (row, spec, line) in enumerate(zip(rows, stage.specs, lines)):
        mine = calls[2 * n * k:2 * n * (k + 1)]
        assert all(call[1:] == (name, spec) for call in mine)
        assert [side for side, _, _ in mine[:4]] == [
            "parent", "change", "change", "parent"]
        assert [row[key] for key in stage.keys] == list(spec)
        assert row["same"] == dict.fromkeys(stage.same, True)
        assert list(row["pairs"]) == list(stage.paired)
        for side in ("parent", "change"):
            # the per-run fields of every run, the others of the first
            for key in PER_RUN:
                assert row[side][key] == list(range(1, n + 1))
            assert row[side]["first"] == 1
        # the labels, then one summary per paired field, in table order
        label = " ".join(f"{key}={value}"
                         for key, value in zip(stage.keys, spec))
        assert line.startswith(f"{name} {label}: ")
        summaries = line[len(f"{name} {label}: "):].split("; ")
        assert len(summaries) == len(stage.paired)
        for key, summary in zip(stage.paired, summaries):
            assert len(row["parent"][key]) == len(row["change"][key]) == n
            stats = row["pairs"][key]
            assert stats["pairs"] == n
            assert stats["change_wins"] == n - (n >= 5)
            # only ten pairs can resolve a gain
            assert stats["resolved"] == (n >= bench.PAIRS)
            # times in ms, other fields as measured
            scale, unit = ((1e3, " ms") if key in ("seconds", "setup_s")
                           else (1, ""))
            assert summary.startswith(
                f"{key} {scale * stats['parent']['median']:.6g}{unit} (")
            assert (f"-> {scale * stats['change']['median']:.6g}{unit} ("
                    in summary)
            assert f"change lower in {n - (n >= 5)}/{n} pairs" in summary
            assert ("not resolved" in summary) == (not stats["resolved"])
            if n == bench.PAIRS:
                # the change's runs sort the fifth last: 0.501..0.510 and
                # 1.005 (x 1e3 for times)
                assert summary == (
                    f"{key} {scale * 1.0055:.6g}{unit} ({scale * 1.00275:.6g}"
                    f"..{scale * 1.00825:.6g}) -> {scale * 0.5065:.6g}{unit} "
                    f"({scale * 0.50275:.6g}..{scale * 0.50925:.6g}), change "
                    f"lower in 9/10 pairs")


def test_a_failed_child_ends_its_row_and_the_run_goes_on(monkeypatch,
                                                         capsys, parent):
    # A stand-in child script: it exits 1 at (1, 2, 4), as a kernel child
    # the kernel kills would, and prints one row elsewhere.
    bench = load_script(SCRIPT)
    child = parent / "child.py"
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
    failed, row = bench.bench(parent, ["kernel"])["kernel"]
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
    bench = load_script(SCRIPT)
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
    bench = load_script(SCRIPT)
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
    # the quartiles of statistics.quantiles: for ten sorted runs the median
    # of the middle two, q1 three quarters of the way from the 2nd to the
    # 3rd and q3 a quarter of the way from the 8th to the 9th; and the
    # stages pair at least ten times
    stats = bench.pair_stats(close)["parent"]
    assert stats["median"] == pytest.approx((parent[4] + parent[5]) / 2)
    assert (stats["q1"], stats["q3"]) == pytest.approx((1.175, 1.725))
    assert bench.PAIRS >= 10


def test_out_is_required(capsys):
    # --parent names a valid checkout, so only the missing --out is
    # refused, before anything is measured or written
    root = SCRIPT.parents[1]
    with pytest.raises(SystemExit) as exc:
        load_script(SCRIPT).main(["--parent", str(root)])
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


def repeated_test_names(source: str) -> list:
    """The test function and class names that ``source`` defines more than
    once in one module or class body: Python keeps only the last, so pytest
    never collects the others."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    twice = []
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, (ast.Module, ast.ClassDef)):
            names = [node.name for node in scope.body
                     if isinstance(node, defs)
                     and node.name.startswith(("test", "Test"))]
            twice += sorted({name for name in names if names.count(name) > 1})
    return twice


def seeded(decorator) -> bool:
    """Whether a hypothesis ``@settings(...)`` decorator fixes its examples
    and keeps none between runs: derandomize=True and database=None."""
    given = {k.arg: k.value for k in decorator.keywords}
    return all(isinstance(given.get(arg), ast.Constant)
               and given[arg].value is value
               for arg, value in (("derandomize", True), ("database", None)))


def unseeded_settings(source: str) -> list:
    """The lines of the ``@settings(...)`` decorators in ``source`` that
    are not ``seeded``."""
    calls = (decorator for node in ast.walk(ast.parse(source))
             for decorator in getattr(node, "decorator_list", ())
             if isinstance(decorator, ast.Call))
    return [call.lineno for call in calls
            if getattr(call.func, "id", getattr(call.func, "attr", None))
            == "settings" and not seeded(call)]


TEST_SOURCES = sorted([*(SCRIPT.parents[1] / "tests").glob("*.py"),
                       *(SCRIPT.parents[1] / "perfbench").glob("*.py")])


def test_no_module_binds_a_test_name_twice():
    for path in TEST_SOURCES:
        assert repeated_test_names(path.read_text()) == [], path.name
    # a fold that pastes a test beside one of the same name
    assert repeated_test_names("def test_a(): pass\nclass TestB:\n"
                               "    def test_a(self): pass\n"
                               "    def test_a(self): pass\n") == ["test_a"]


def test_every_property_is_seeded_and_keeps_no_database():
    for path in TEST_SOURCES:
        assert unseeded_settings(path.read_text()) == [], path.name
    assert unseeded_settings(
        "@settings(max_examples=5, derandomize=True, database=None)\n"
        "def test_a(x): pass\n"
        "@hypothesis.settings(derandomize=True)\ndef test_b(x): pass\n"
        "@settings(derandomize=1, database=None)\ndef test_c(x): pass\n"
    ) == [3, 5]


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
