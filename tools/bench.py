"""Time the stages of ``STAGES`` on a parent tree and on this tree, each row
in fresh child processes with parent and change alternating.

    python3 tools/bench.py --parent DIR --out FILE [--stages STAGE ...]

DIR is a checkout of the parent commit (``git clone`` or ``git archive``);
both sides import copies of their ``src/`` at paths of equal length, as a
path's length alone moves peak RSS and page faults.  STAGE names a table
entry (default: all four, in table order):

* ``kernel``: one route-B ``fock.boundary_kernel`` solve per (m, n, d,
  generic E_l0) of ``ROWS``, sigma = 0.3, with its dims and level charges,
  or the TooLarge message of a size the guard refuses.  Dims and charges
  are read from the solve's ``levels`` record, so the stage needs a parent
  tree whose ``BoundarySubspace`` has one; an older parent's rows end as
  ``failed``;
* ``fock-run``: one ``slhkit fock`` run, sweep 0, of the ``fock-kernel``
  workload at each (m, n, d) of ``RUNS``;
* ``cli-run``: one ``slhkit`` run per row of ``CLI_ROWS``, its report's
  SHA-256 compared across sides;
* ``defect-groups``: per (T, h) of ``DEFECT_GRIDS``, one ``run_command`` of
  the ``grid-defect`` config on that grid and one traced one in the child,
  which time and trace each check group of ``cli.DEFECT_GROUPS`` under its
  table key, and the SHA-256 of the report's JSON bytes, compared across
  sides.  The stage needs a parent tree whose ``cli`` has that table; an
  older parent's rows end as ``failed``.

A CLI run is ``cli_process``: the setup probe (``setup_s``), then ``python
-m slhkit``, each a bare process timed as ``perfbench/run.py`` times it.
The kernel and ``fock-run`` rows draw E by perfbench's generator from a
fixed seed string, so both sides solve the same E; it is not the E of
``BENCH_25.json`` and ``BENCH_35.json``, which the tree's own
``random_coupling`` drew.

An entry names the child that measures one row, its specs (labelled by the
entry's ``keys``), the alternating pairs per row (``REPEATS`` or
``PAIRS``), the fields compared across sides for identity and the per-run
fields that get pair stats.  Each child is one cold run with one BLAS
thread.  Per side a row keeps the paired and ``PER_RUN`` fields of every
run, in run order, and the other fields of its first run.  ``same`` says
whether each identity field is equal on both sides; ``pairs`` holds, per
paired field, each side's median and quartiles, the pairs in which the
change was lower and whether that resolves a gain (``pair_stats``).  Only
``PAIRS`` pairs can resolve, so the ``kernel`` and ``fock-run`` rows, at
``REPEATS`` pairs (a ``fock-run`` child takes up to 53 s), never back a
claim: they show sizes, dims and level charges, and a claim needs a row
rerun at ``PAIRS``.  A side the guard refuses records ``refused``; a child
that exits non-zero ends its row, recorded as ``failed`` with its exit code
and stderr tail.  Such a row has neither ``same`` nor ``pairs``.

The file also records the machine (``perfbench/probe.py``'s output, run as
the benchmark runs it, and whether ``PYTHONDONTWRITEBYTECODE`` is set: then
every child compiles slhkit from source), each side's ``git describe`` and
a SHA-256 of its ``src/slhkit`` sources, which a ``git archive`` copy has
too.  FILE has no default, so a run never overwrites an earlier BENCH file
unless told to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

# numpy is imported only in the functions a child runs: a child's peak RSS
# (from wait4, or its own getrusage) starts at this process's high-water
# mark, which importing it here would raise to that of a bare CLI process.
# perfbench's run.py and workloads.py import the standard library only.
SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import SETUP_PROBE, THREAD_VARS, quartiles  # noqa: E402
from workloads import (WORKLOADS, Workload, coupling_matrix,  # noqa: E402
                       generate_config)

SIGMA = 0.3
SEED = 1
REPEATS = 3
SIZES = ((1, 2, 4), (2, 2, 4), (1, 2, 6), (2, 2, 5), (1, 3, 4), (1, 3, 5),
         (1, 3, 6), (1, 3, 7))
# (m, n, d, generic E_l0)
ROWS = ([(*size, False) for size in SIZES]
        + [(1, 2, 4, True), (1, 3, 3, True), (1, 3, 4, True)])
RUNS = ((1, 3, 5), (1, 3, 6))
# (T, h) of the defect-groups rows; the first is the grid-defect workload's
DEFECT_GRIDS = ((40.0, 5e-4), (40.0, 2.5e-4), (40.0, 1e-4))
# alternating children per side of a cli-run or defect-groups row, and
# the fewest pairs that can resolve a gain
PAIRS = 10
# (command, config, sweep) of the cli-run rows: a path under ROOT at sweep
# 0, each benchmark workload, generated by perfbench, at its sweep, and the
# grid-defect workload on the finer defect-groups grids, as [workload, the
# top-level keys that replace its own]
CLI_ROWS = tuple((command, "configs/example.json", 0) for command in
                 ("slh", "phase", "defect", "scatter", "fock")) + tuple(
    (workload.command, name, workload.sweep)
    for name, workload in WORKLOADS.items()) + tuple(
    ("defect", ["grid-defect", {"grid": {"T": t, "h": h}}], 0)
    for t, h in DEFECT_GRIDS[1:])
# the paired fields of a CLI run: perfbench's end-to-end metrics
CLI_PAIRED = ("setup_s", "seconds", "peak_rss_mb")
# child fields a side keeps per run besides its stage's paired ones
PER_RUN = ("exit_code", "minor_faults", "groups")
# the characters of a failed child's stderr that its row keeps
STDERR_TAIL = 2000


def coupling(m: int, n: int, generic_el0: bool) -> list:
    """A row's Hermitian (1 + n) m coupling as nested lists, drawn by
    perfbench's generator, the same on both sides."""
    workload = Workload("fock", 0, m, n, zero_channel_system=not generic_el0)
    return coupling_matrix(workload, random.Random(f"bench:{SEED}"))


def row(m: int, n: int, d: int, generic_el0: bool) -> dict:
    """One timed route-B kernel solve on the slhkit tree this process
    imports, with the level record it returns; per-sector dims are None
    when a level spans several sectors."""
    # imported here: the child that calls this picks the tree by PYTHONPATH
    import numpy as np
    from slhkit import fock
    from slhkit.errors import TooLarge
    from slhkit.linalg import null_space
    from slhkit.slh import ScalarGauge, validate_coupling

    e = validate_coupling(np.array(coupling(m, n, generic_el0)), m, n)
    try:
        ops = fock.build_mode_operators(m, n, d, ScalarGauge(SIGMA))
        rows = fock.stacked_boundary_rows(e, ops)
        # a tall and a wide warm-up solve: LAPACK's first-call pages are
        # not the solve's
        null_space(np.ones((3, 2))), null_space(np.ones((2, 3)))
        before = peak_rss_mb()
        start = time.perf_counter()
        sub = fock.boundary_kernel(ops.space, rows)
        seconds = time.perf_counter() - start
        after = peak_rss_mb()
    except TooLarge as err:
        return {"refused": str(err)}
    charges = [level.charge for level in sub.levels]
    per_sector = None
    if all(len(level.sectors) == 1 for level in sub.levels):
        per_sector = [0] * len(ops.space.sectors())
        for level in sub.levels:
            per_sector[level.sectors[0]] += level.added
    return {"seconds": seconds, "dim": sub.dim, "sector_dims": per_sector,
            "sigma_max": sub.sigma_max, "last_level": len(sub.levels) - 1,
            "largest_charge_mb": max(charges) / 2 ** 20,
            "rss_before_mb": before, "rss_after_mb": after}


def config_bytes(config) -> bytes:
    """The config a row names: a path under ROOT, a workload generated by
    perfbench, or [workload, the top-level keys that replace its own]."""
    if isinstance(config, list):
        name, keys = config
        data = json.loads(generate_config(name, SEED))
        data.update(keys)
        return json.dumps(data).encode()
    return (generate_config(config, SEED) if config in WORKLOADS
            else (ROOT / config).read_bytes())


def cli_process(command: str, config: bytes, sweep: int) -> tuple:
    """The setup probe, then ``slhkit command --sweep sweep`` on ``config``,
    each a bare ``spawn``: the run's figures, the probe's seconds (``setup_s``)
    and the report's SHA-256 or None, and the report's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        path.write_bytes(config)
        setup = spawn([sys.executable, "-c", SETUP_PROBE, str(path)])
        run = spawn([sys.executable, "-m", "slhkit", command, "--config",
                     str(path), "--out", str(out), "--sweep", str(sweep)])
        report = out.read_bytes() if out.exists() else None
    return {"setup_s": setup["seconds"], **run, "report_sha256": None if
            report is None else hashlib.sha256(report).hexdigest()}, report


def fock_run(m: int, n: int, d: int) -> dict:
    """One ``slhkit fock`` run, sweep 0, of the ``fock-kernel`` workload at
    (m, n, d) with the kernel rows' E_l0 = 0 coupling, and the kernel dims
    its report records.  sigma is the workload's 0.3 and the seed its 1,
    which only the sampled domain vectors read."""
    run, report = cli_process("fock", config_bytes(["fock-kernel", {
        "m": m, "n": n, "fock": {"d": d},
        "E": [[[v.real, v.imag] for v in line]
              for line in coupling(m, n, False)]}]), 0)
    checks = json.loads(report)["checks"] if report is not None else []
    return {**run, "kernel_dims": [c["value"] for c in checks
                                   if c["name"].endswith("kernel_dims")]}


def defect_groups(half_width: float, spacing: float) -> dict:
    """One ``run_command`` of the ``grid-defect`` config on the (T, h) grid
    and one traced one in this process, each with the entries of
    ``cli.DEFECT_GROUPS`` wrapped: the first's seconds, each check group's
    seconds and faults in the first and its peak in the second, and the
    SHA-256 of the report's JSON bytes."""
    from slhkit import cli
    from slhkit.config import config_from_dict
    from slhkit.report import report_to_json_bytes

    config = json.loads(config_bytes(
        ["grid-defect", {"grid": {"T": half_width, "h": spacing}}]))
    table = cli.DEFECT_GROUPS
    groups = {name: {} for name in table}

    def measured(name, group):
        def run(*args):
            tracemalloc.reset_peak()
            faults, start = minor_faults(), time.perf_counter()
            group(*args)
            # seconds and faults of the untraced run, peak of the traced one
            record = groups[name]
            record.setdefault("seconds", time.perf_counter() - start)
            record.setdefault("minor_faults", minor_faults() - faults)
            record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        return run

    loaded = config_from_dict(config)
    try:
        cli.DEFECT_GROUPS = {name: measured(name, group)
                             for name, group in table.items()}
        start = time.perf_counter()
        report = cli.run_command("defect", loaded)
        seconds = time.perf_counter() - start
        tracemalloc.start()
        cli.run_command("defect", loaded)
    finally:
        tracemalloc.stop()
        cli.DEFECT_GROUPS = table
    return {"seconds": seconds, "groups": groups,
            "group_minor_faults": sum(group["minor_faults"]
                                      for group in groups.values()),
            "report_sha256": hashlib.sha256(
                report_to_json_bytes(report)).hexdigest()}


def cli_run(command: str, config, sweep: int) -> dict:
    """The CLI on one config of ``CLI_ROWS``."""
    return cli_process(command, config_bytes(config), sweep)[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src),
                **{var: "1" for var in THREAD_VARS})


def measure(src: Path, name: str, spec: tuple) -> dict:
    """Stage ``name``'s child on ``spec`` in a fresh process importing
    ``src``, with its peak RSS; ``failed`` if it exits non-zero."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--child", name, *map(json.dumps, spec)],
        env=child_env(src), cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        return {"failed": {"exit_code": proc.returncode,
                           "stderr": proc.stderr[-STDERR_TAIL:]}}
    return json.loads(proc.stdout)


def spawn(argv: list) -> dict:
    """One bare child in this process's environment, run to exit as
    ``perfbench/run.py`` runs it: seconds on this process's clock, peak RSS
    and minor faults from ``wait4``."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024,
            "minor_faults": usage.ru_minflt, "exit_code": proc.returncode}


class Stage(NamedTuple):
    """What one stage measures: ``child`` on each of ``specs``, one row per
    spec labelled by ``keys``, in ``pairs`` alternating pairs; ``same`` are
    the fields compared across sides, ``paired`` the per-run fields that
    get pair stats."""
    child: Callable[..., dict]
    keys: tuple
    specs: tuple
    pairs: int
    same: tuple
    paired: tuple


STAGES = {
    "kernel": Stage(row, ("m", "n", "d", "generic_el0"), ROWS, REPEATS,
                    ("dim", "sector_dims"), ("seconds", "peak_rss_mb")),
    "fock-run": Stage(fock_run, ("m", "n", "d"), RUNS, REPEATS,
                      ("kernel_dims",), CLI_PAIRED),
    "cli-run": Stage(cli_run, ("command", "config", "sweep"), CLI_ROWS,
                     PAIRS, ("report_sha256",), CLI_PAIRED),
    "defect-groups": Stage(defect_groups, ("T", "h"), DEFECT_GRIDS, PAIRS,
                           ("report_sha256",),
                           ("seconds", "group_minor_faults")),
}


def alternate(trees: dict, name: str, spec: tuple, pairs: int) -> dict:
    """Stage ``name``'s child on ``spec`` ``pairs`` times per side, the
    first side alternating, so that the i-th run of each side makes pair i,
    until a run fails; per side, each field's values in run order."""
    runs = {"parent": {}, "change": {}}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = measure(trees[side], name, spec)
            for key, value in result.items():
                runs[side].setdefault(key, []).append(value)
            if "failed" in result:
                return runs
    return runs


def stage_row(trees: dict, name: str, spec: tuple) -> dict:
    """One row of stage ``name``: its labels, per side the paired and
    ``PER_RUN`` fields of each run and the first run's others, and, unless
    a side refused or failed, ``same`` and ``pairs``."""
    stage = STAGES[name]
    record = dict(zip(stage.keys, spec))
    runs = alternate(trees, name, spec, stage.pairs)
    for side, fields in runs.items():
        record[side] = {key: values if key in stage.paired + PER_RUN
                        else values[0] for key, values in fields.items()}
    sides = record["parent"], record["change"]
    if not any("refused" in side or "failed" in side for side in sides):
        record["same"] = {key: sides[0][key] == sides[1][key]
                          for key in stage.same}
        record["pairs"] = {key: pair_stats(record, key)
                           for key in stage.paired}
    return record


def pair_stats(sides: dict, key: str = "seconds") -> dict:
    """Each side's median and quartiles of the per-run ``key`` (seconds
    unless named; lower is better), the pairs in which the change was
    lower, and whether that meets the nine-in-ten rule: at least ``PAIRS``
    pairs, lower in at least 9 of 10, with the median gap over the
    parent's interquartile range."""
    parent, change = sides["parent"][key], sides["change"][key]
    stats = {side: dict(zip(("q1", "q3"), quartiles(values)),
                        median=statistics.median(values))
             for side, values in (("parent", parent), ("change", change))}
    wins = sum(c < p for p, c in zip(parent, change))
    gap = stats["parent"]["median"] - stats["change"]["median"]
    return {**stats, "pairs": len(parent), "change_wins": wins,
            "resolved": (len(parent) >= PAIRS
                         and 10 * wins >= 9 * len(parent)
                         and gap > stats["parent"]["q3"]
                         - stats["parent"]["q1"])}


def pair_summary(key: str, stats: dict) -> str:
    scale, unit = (1e3, " ms") if key in ("seconds", "setup_s") else (1, "")
    sides = " -> ".join(
        f"{scale * stats[side]['median']:.6g}{unit} "
        f"({scale * stats[side]['q1']:.6g}..{scale * stats[side]['q3']:.6g})"
        for side in ("parent", "change"))
    return (f"{key} {sides}, change lower in {stats['change_wins']}/"
            f"{stats['pairs']} pairs"
            f"{'' if stats['resolved'] else ', not resolved'}")


def progress(name: str, record: dict) -> str:
    """One line per row: its labels, and each paired field's pair summary
    and the identity fields that differ, or what each side did."""
    label = " ".join(f"{key}={record[key]}" for key in STAGES[name].keys)
    if "pairs" not in record:
        return f"{name} {label}: " + " -> ".join(
            next((k for k in ("refused", "failed") if k in record[side]),
                 "ran" if record[side] else "not run")
            for side in ("parent", "change"))
    differ = [key for key, same in record["same"].items() if not same]
    return (f"{name} {label}: "
            + "; ".join(pair_summary(key, stats)
                        for key, stats in record["pairs"].items())
            + (f"; differ in {', '.join(differ)}" if differ else ""))


def machine() -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py")],
                          env=child_env(ROOT / "src"), capture_output=True,
                          text=True, check=True)
    info = json.loads(proc.stdout)
    info.pop("slhkit_file")
    info["nproc"] = len(os.sched_getaffinity(0))
    info["blas_threads_env"] = 1
    info["dont_write_bytecode"] = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    info["mem_total_mb"] = round(
        os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20)
    return info


def revision(tree: Path):
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always",
                           "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(tree: Path) -> str:
    """SHA-256 over ``tree``'s ``src/slhkit/*.py`` in sorted order, each as
    its path relative to ``tree``, its length and its bytes."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "slhkit").glob("*.py")):
        data = path.read_bytes()
        digest.update(b"%s\0%d\0" % (path.relative_to(tree).as_posix()
                                     .encode(), len(data)) + data)
    return digest.hexdigest()


def bench(parent: Path, stages=tuple(STAGES)) -> dict:
    roots = {"parent": parent, "change": ROOT}
    out = {"sigma": SIGMA, "seed": SEED, "machine": machine(),
           "revisions": {side: revision(root) for side, root in roots.items()},
           "src_sha256": {side: source_digest(root)
                          for side, root in roots.items()},
           "stages": list(stages)}
    with tempfile.TemporaryDirectory() as tmp:
        # "parent" and "change" have equal length
        trees = {side: shutil.copytree(root / "src", Path(tmp, side, "src"),
                                       ignore=shutil.ignore_patterns("*.pyc"))
                 for side, root in roots.items()}
        for name in stages:
            out[name] = []
            for spec in STAGES[name].specs:
                out[name].append(stage_row(trees, name, spec))
                print(progress(name, out[name][-1]), flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--stages", nargs="+", choices=list(STAGES),
                        default=list(STAGES))
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        name, *spec = args.child
        result = STAGES[name].child(*map(json.loads, spec))
        result.setdefault("peak_rss_mb", peak_rss_mb())
        print(json.dumps(result))
        return 0
    if args.parent is None or not (args.parent / "src" / "slhkit").is_dir():
        parser.error("--parent must be a checkout with src/slhkit")
    if args.out is None:
        parser.error("--out is required")
    stages = [stage for stage in STAGES if stage in args.stages]
    args.out.write_text(json.dumps(bench(args.parent.resolve(), stages),
                                   indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
