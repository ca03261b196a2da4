"""Time the stages of ``STAGES`` on a parent tree and on this tree, each row
in fresh child processes with parent and change alternating.

    python3 tools/bench.py --parent DIR --out FILE [--stages STAGE ...]

DIR is a checkout of the parent commit (``git clone`` or ``git archive``);
its ``src/`` is imported for the parent side, this tree's ``src/`` for the
change.  STAGE names a table entry (default: all five, in table order):

* ``kernel``: one route-B ``fock.boundary_kernel`` solve per (m, n, d,
  generic E_l0) of ``ROWS``, sigma = 0.3, with its dims and level charges,
  or the TooLarge message of a size the guard refuses.  Dims and charges
  are read from the solve's ``levels`` record, so the stage needs a parent
  tree whose ``BoundarySubspace`` has one; an older parent's rows end as
  ``failed``;
* ``fock-run``: one ``slhkit fock`` run, sweep 0, per (m, n, d) of ``RUNS``;
* ``sobolev``: the Sobolev pairing of the ``defect`` suite's groups on the
  half-line core per (T, h) of ``SOBOLEV_GRIDS``: the median of
  ``SOBOLEV_CALLS`` calls and one more traced call's peak;
* ``defect-run``: one ``slhkit defect`` run of the ``grid-defect`` config
  per (T, h) of ``DEFECT_RUNS``, then one traced ``command_defect``, each
  check group of ``cli.DEFECT_GROUPS`` timed and traced under its table
  key.  The stage needs a parent tree whose ``cli`` has that table; an
  older parent's rows end as ``failed``.  ``group_minor_faults`` is the
  fault figure to compare: ``cli.main``'s own also counts module loading
  and compiling from source.  Both, and the peak RSS, move with the length
  of a tree's path, so compare trees at paths of equal length;
* ``startup``: the setup probe (``setup_s``) and then ``python -m slhkit``
  per subcommand and config of ``STARTUP_ROWS``, each a bare process timed
  as ``perfbench/run.py`` times it.

An entry names the child that measures one row, its specs (labelled by the
entry's ``keys``), the alternating pairs per row (``REPEATS`` or
``PAIRS``), the fields compared across sides for identity and the per-run
fields that get pair stats.  Each child is one cold run with one BLAS
thread.  Per side a row keeps the paired and ``PER_RUN`` fields of every
run, in run order, and the other fields of its first run.  ``same`` says
whether each identity field is equal on both sides; ``pairs`` holds, per
paired field, each side's median and quartiles, the pairs in which the
change was lower and whether that resolves a gain (``pair_stats``).  A side
the guard refuses records ``refused``; a child that exits non-zero ends its
row, recorded as ``failed`` with its exit code and stderr tail.  Such a row
has neither ``same`` nor ``pairs``.

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
import resource
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

from run import SETUP_PROBE, THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, generate_config  # noqa: E402

SIGMA = 0.3
SEED = 1
REPEATS = 3
SIZES = ((1, 2, 4), (2, 2, 4), (1, 2, 6), (2, 2, 5), (1, 3, 4), (1, 3, 5),
         (1, 3, 6), (1, 3, 7))
# (m, n, d, generic E_l0)
ROWS = ([(*size, False) for size in SIZES]
        + [(1, 2, 4, True), (1, 3, 3, True), (1, 3, 4, True)])
RUNS = ((1, 3, 5), (1, 3, 6))
# (T, h) of the defect rows
DEFECT_RUNS = ((40.0, 5e-4), (40.0, 2.5e-4), (40.0, 1e-4))
# (T, h) of the Sobolev-pairing stage rows, and the timed calls per child
SOBOLEV_GRIDS = ((40.0, 1e-3), (40.0, 5e-4))
SOBOLEV_CALLS = 20
# alternating children per side of a Sobolev, defect or startup row, and
# the fewest pairs that can resolve a gain
PAIRS = 10
# (command, config, sweep) of the startup rows: a path under ROOT at sweep
# 0, or a benchmark workload at its sweep, whose config
# perfbench/workloads.py generates
STARTUP_ROWS = tuple((command, "configs/example.json", 0) for command in
                     ("slh", "phase", "defect", "scatter", "fock")) + tuple(
    (command, name, WORKLOADS[name].sweep)
    for command, name in (("fock", "fock-kernel"), ("defect", "grid-defect")))
# child fields a side keeps per run besides its stage's paired ones
PER_RUN = ("exit_code", "minor_faults", "groups")
# the characters of a failed child's stderr that its row keeps
STDERR_TAIL = 2000


def coupling(m: int, n: int, generic_el0: bool):
    import numpy as np
    from slhkit.ensembles import random_coupling
    return random_coupling(np.random.default_rng(SEED), m, n,
                           zero_channel_system=not generic_el0)


def row(m: int, n: int, d: int, generic_el0: bool) -> dict:
    """One timed route-B kernel solve on the slhkit tree this process
    imports, with the level record it returns; per-sector dims are None
    when a level spans several sectors."""
    # imported here: the child that calls this picks the tree by PYTHONPATH
    import numpy as np
    from slhkit import fock
    from slhkit.errors import TooLarge
    from slhkit.linalg import null_space
    from slhkit.slh import ScalarGauge

    e = coupling(m, n, generic_el0)
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
        per_sector = [0] * (ops.space.n_modes * (d - 1) + 1)
        for level in sub.levels:
            per_sector[level.sectors[0]] += level.added
    return {"seconds": seconds, "dim": sub.dim, "sector_dims": per_sector,
            "sigma_max": sub.sigma_max, "last_level": len(sub.levels) - 1,
            "largest_charge_mb": max(charges) / 2 ** 20,
            "rss_before_mb": before, "rss_after_mb": after}


def sobolev_row(half_width: float, spacing: float) -> dict:
    """Median per-call seconds and traced peak of one Sobolev pairing on the
    half-line core, for two random functions of the (T, h) grid."""
    import numpy as np
    from slhkit.ensembles import random_bump
    from slhkit.punctured_line import GridSpec, sample, sobolev

    spec = GridSpec(half_width, spacing)
    rng = np.random.default_rng(SEED)
    # f's and g's (left, right) bumps, each drawn left first
    f, g = (sample(spec, random_bump(rng, "left"), random_bump(rng, "right"))
            for _ in range(2))

    def pairing():
        return sobolev(spec, f, g)

    times = []
    for _ in range(SOBOLEV_CALLS):
        start = time.perf_counter()
        value = pairing()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    pairing()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"seconds": statistics.median(times), "nodes": spec.n_nodes,
            "call_peak_mb": peak / 2 ** 20,
            "call_peak_arrays": peak / (32 * spec.n_nodes),
            "value": [value.real.hex(), value.imag.hex()]}


def cli_run(command: str, config: dict) -> tuple:
    """One timed ``cli.main`` run of ``command`` on ``config``, written to a
    temporary file: its seconds, minor faults, exit code and peak RSS
    before and after, and the report's bytes (None if it wrote none)."""
    from slhkit import cli

    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(config))
        before, faults = peak_rss_mb(), minor_faults()
        start = time.perf_counter()
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        seconds = time.perf_counter() - start
        faults, after = minor_faults() - faults, peak_rss_mb()
        report = out.read_bytes() if out.exists() else None
    return {"seconds": seconds, "minor_faults": faults, "exit_code": code,
            "rss_before_mb": before, "rss_after_mb": after}, report


def fock_run(m: int, n: int, d: int) -> dict:
    """One timed ``slhkit fock`` run, sweep 0, of the E_l0 = 0 coupling."""
    e = coupling(m, n, False)
    run, report = cli_run("fock", {
        "m": m, "n": n, "sigma": SIGMA, "fock": {"d": d},
        "E": [[[v.real, v.imag] for v in line] for line in e.full]})
    checks = json.loads(report)["checks"] if report is not None else []
    return {**run, "kernel_dims": [c["value"] for c in checks
                                   if c["name"].endswith("kernel_dims")]}


def defect_run(half_width: float, spacing: float) -> dict:
    """One timed ``slhkit defect`` run of the ``grid-defect`` config on the
    (T, h) grid, then one traced ``command_defect``, each with the entries of
    ``cli.DEFECT_GROUPS`` wrapped; each check group records its seconds and
    faults in the first, its peak in the second."""
    from slhkit import cli
    from slhkit.config import config_from_dict
    from slhkit.punctured_line import GridSpec

    config = json.loads(generate_config("grid-defect", SEED))
    config["grid"] = {"T": half_width, "h": spacing}
    table = cli.DEFECT_GROUPS
    groups, peaks = {name: {} for name in table}, []

    def measured(name, group):
        def run(*args):
            # the traced peak since the last group began, before it restarts
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            faults, start = minor_faults(), time.perf_counter()
            group(*args)
            # seconds and faults of the untraced run, peak of the traced one
            record = groups[name]
            record.setdefault("seconds", time.perf_counter() - start)
            record.setdefault("minor_faults", minor_faults() - faults)
            record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        return run

    try:
        cli.DEFECT_GROUPS = {name: measured(name, group)
                             for name, group in table.items()}
        run, report = cli_run("defect", config)
        loaded = config_from_dict(config)
        tracemalloc.start()
        cli.run_command("defect", loaded)
        peak = max(peaks + [tracemalloc.get_traced_memory()[1]])
    finally:
        tracemalloc.stop()
        cli.DEFECT_GROUPS = table
    unit = 32 * GridSpec(half_width, spacing).n_nodes
    return {**run, "report_sha256": (hashlib.sha256(report).hexdigest()
                                     if report is not None else None),
            "peak_rss_mb": run["rss_after_mb"], "groups": groups,
            "group_minor_faults": sum(group["minor_faults"]
                                      for group in groups.values()),
            "call_peak_mb": peak / 2 ** 20, "call_peak_arrays": peak / unit}


def startup(command: str, config: str, sweep: int) -> dict:
    """The setup probe and then the CLI process on one config, each a bare
    process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = ROOT / config
        if config in WORKLOADS:
            path = Path(tmp) / f"{config}.json"
            path.write_bytes(generate_config(config, SEED))
        setup = spawn([sys.executable, "-c", SETUP_PROBE, str(path)])
        run = spawn([sys.executable, "-m", "slhkit", command, "--config",
                     str(path), "--out", os.devnull, "--sweep", str(sweep)])
    return {"setup_s": setup["seconds"], **run}


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
    from ``wait4``."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit_code": proc.returncode}


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
                      ("kernel_dims",), ("seconds", "peak_rss_mb")),
    "sobolev": Stage(sobolev_row, ("T", "h"), SOBOLEV_GRIDS, PAIRS,
                     ("value",), ("seconds", "peak_rss_mb")),
    "defect-run": Stage(defect_run, ("T", "h"), DEFECT_RUNS, PAIRS,
                        ("report_sha256",),
                        ("seconds", "peak_rss_mb", "group_minor_faults")),
    "startup": Stage(startup, ("command", "config", "sweep"), STARTUP_ROWS,
                     PAIRS, (), ("setup_s", "seconds", "peak_rss_mb")),
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


def quartiles(values) -> tuple:
    """(q1, median, q3), as ``perfbench/run.py`` takes them."""
    return tuple(statistics.quantiles(values, n=4))


def pair_stats(sides: dict, key: str = "seconds") -> dict:
    """Each side's median and quartiles of the per-run ``key`` (seconds
    unless named; lower is better), the pairs in which the change was
    lower, and whether that meets the nine-in-ten rule: at least ``PAIRS``
    pairs, lower in at least 9 of 10, with the median gap over the
    parent's interquartile range."""
    parent, change = sides["parent"][key], sides["change"][key]
    stats = {side: dict(zip(("q1", "median", "q3"), quartiles(values)))
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
    trees = {side: root / "src" for side, root in roots.items()}
    out = {"sigma": SIGMA, "seed": SEED, "machine": machine(),
           "revisions": {side: revision(root) for side, root in roots.items()},
           "src_sha256": {side: source_digest(root)
                          for side, root in roots.items()},
           "stages": list(stages)}
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
