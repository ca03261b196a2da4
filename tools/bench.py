"""Time the route-B boundary-kernel and the Sobolev-pairing stages, full
``fock`` and ``defect`` runs, and CLI process start-up, of a parent tree and
of this tree.

    python3 tools/bench.py --parent DIR --out FILE [--stages STAGE ...]

STAGE is ``kernel``, ``fock-run``, ``sobolev``, ``defect-run`` or
``startup`` (default: all five, in that order).  DIR is a checkout of the
parent commit (``git clone`` or ``git archive``); its ``src/`` is imported
for the parent side, this tree's ``src/`` for the change.  Each stage row
is one ``fock.boundary_kernel(space, rows)`` call on the coupling-form rows
(route B) of a seeded coupling with sigma = 0.3:

* E_l0 = 0 at (m, n, d) = (1,2,4), (2,2,4), (1,2,6), (2,2,5), (1,3,4),
  (1,3,5), (1,3,6) and (1,3,7);
* a generic E_l0 at (1,2,4), (1,3,3) and (1,3,4).

Each Sobolev row is one pairing <f|g>_S on the half-line core at T = 40
with h = 1e-3 and 5e-4 (40k and 80k nodes per half-line), made by
``punctured_line.sobolev`` as the ``defect`` suite's groups make it: one
Sobolev pass on each half-line of ``punctured_line.sample`` sources, which
evaluate f's and g's two seeded ``ensembles.random_bump`` draws (left
first) chunk by chunk.  The child times ``SOBOLEV_CALLS`` calls and reports
the median, then traces one more with tracemalloc for ``call_peak_mb``,
also in two-sided complex arrays (32 bytes per node of a half-line).

Each run row is one ``slhkit fock`` run, sweep 0, on the E_l0 = 0 coupling
of (1,3,5) and (1,3,6) with sigma = 0.3.  Each defect row is one ``slhkit
defect`` run on the ``grid-defect`` benchmark config (``perfbench/
workloads.py``, seed 1) at T = 40 with h = 5e-4, 2.5e-4 and 1e-4 (80k,
160k and 400k nodes per half-line), then one traced ``command_defect``;
its check groups (the grid layer's ``..._defects`` functions and ``cli``'s
own ``_...`` ones, in call order) record their seconds and minor page
faults (``ru_minflt``) in the run and their peak in the traced call
(memory held from earlier groups counts).

Every measurement is one cold call in a fresh child process with one BLAS
thread, parent and change alternating which runs first: three per side, but
``PAIRS`` (ten) for a Sobolev, defect or startup row.  A row no side
refused records, as ``pairs``, each side's median and quartiles of the
per-child seconds, the pairs the change won, and whether it wins at least
nine in ten of at least ``PAIRS`` pairs with a median gap over the parent's
interquartile range.  Per side a stage row records the seconds of each run,
their median and peak RSS, the total and per-sector kernel dims, the
rank-cut scale sigma~ <= ``sigma_max``, the last level assembled, the
guard's largest level charge and the peak RSS before and after the solve
(after a warm-up QR and SVD: LAPACK's first-call pages are not counted),
or the TooLarge message of a size the guard refuses; a Sobolev row the
per-call seconds, peak RSS, traced peak and the pairing's value (float
hex; ``same_value`` if bit for bit equal); a run row the seconds, peak RSS,
exit code and kernel dims; a defect row the seconds and minor faults of
the ``cli.main`` call, the peak RSS before and after it (the latter is the
row's, read before the traced call), exit code, the report's SHA-256
(``same_report``), per child each group's seconds, faults and traced
``peak_mb``, and the traced call's ``call_peak_mb``, also in arrays.
The progress line prints, per side, the median over children of the
groups' summed faults: that figure compares across trees, while the
``cli.main`` total also counts module loading and compiling from source,
which varies with where a tree sits on disk.

Each startup row is one subcommand on one config: each of the five on
``configs/example.json``, ``fock --sweep 1`` on the ``fock-kernel`` and
``defect`` on the ``grid-defect`` benchmark config (seed 1).  Per side a
pair runs the benchmark's setup probe (``perfbench/run.py``'s
``SETUP_PROBE``: import ``slhkit.cli`` and load the config) and then
``python -m slhkit``, each a bare child timed from this process's clock
with its peak RSS from ``wait4``, as the benchmark does.  The row records
per side the probe and CLI seconds, the CLI's peak RSS and exit codes,
their paired statistics (``setup``, ``wall`` and ``peak_rss``), and the
slhkit modules one more CLI run executed (not those ``slhkit.cli`` only
holds as lazy placeholders).  The machine block is ``perfbench/probe.py``'s
output, run as the benchmark runs it, and whether
``PYTHONDONTWRITEBYTECODE`` is set (then every child compiles slhkit from
source).  The JSON goes to FILE, which has no default, so a run never
overwrites an earlier BENCH file unless told to.
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
import types
from pathlib import Path

# numpy and unittest.mock are imported only in the functions a child runs:
# a child's peak RSS (from wait4, or its own getrusage) starts at this
# process's high-water mark, which importing them here would raise to that
# of a bare CLI process.  perfbench's run.py and workloads.py import the
# standard library only.
ROOT = Path(__file__).resolve().parents[1]
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
# (command, config) of the startup rows: a path under ROOT, or a benchmark
# workload whose config perfbench/workloads.py generates
STARTUP_ROWS = tuple((command, "configs/example.json") for command in
                     ("slh", "phase", "defect", "scatter", "fock")) + (
    ("fock", "fock-kernel"), ("defect", "grid-defect"))
STAGES = ("kernel", "fock-run", "sobolev", "defect-run", "startup")
# child fields kept per run, as lists; a side keeps the others of its first
PER_RUN = ("seconds", "minor_faults", "groups")


def coupling(m: int, n: int, generic_el0: bool):
    import numpy as np
    from slhkit.ensembles import random_coupling
    return random_coupling(np.random.default_rng(SEED), m, n,
                           zero_channel_system=not generic_el0)


def row(m: int, n: int, d: int, generic_el0: bool) -> dict:
    """One timed route-B kernel solve on the slhkit tree this process
    imports; per-sector dims are None when a kernel column spans sectors."""
    # imported here: the child that calls this picks the tree by PYTHONPATH
    from unittest import mock

    import numpy as np
    from slhkit import fock
    from slhkit.errors import TooLarge
    from slhkit.linalg import null_space
    from slhkit.slh import ScalarGauge

    e = coupling(m, n, generic_el0)
    charges, charge = [], fock._level_bytes

    def recording(*args):
        charges.append(charge(*args))
        return charges[-1]

    try:
        ops = fock.build_mode_operators(m, n, d, ScalarGauge(SIGMA))
        rows = fock.stacked_boundary_rows(e, ops)
        # a tall and a wide warm-up solve: LAPACK's first-call pages are
        # not the solve's
        null_space(np.ones((3, 2))), null_space(np.ones((2, 3)))
        before = peak_rss_mb()
        with mock.patch.object(fock, "_level_bytes", recording):
            start = time.perf_counter()
            sub = fock.boundary_kernel(ops.space, rows)
            seconds = time.perf_counter() - start
        after = peak_rss_mb()
    except TooLarge as err:
        return {"refused": str(err)}
    sectors = ops.space.sectors()
    photons = np.full(ops.space.fock_dim, -1)
    for total, sector in enumerate(sectors):
        photons[sector] = total
    photons = np.tile(photons, m)
    held = [set(photons[np.flatnonzero(column)]) for column in sub.columns.T]
    per_sector = None
    if all(len(h) == 1 for h in held):
        per_sector = np.bincount([h.pop() for h in held],
                                 minlength=len(sectors)).tolist()
    return {"seconds": seconds, "dim": sub.dim, "sector_dims": per_sector,
            "sigma_max": sub.sigma_max, "last_level": len(charges) - 1,
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


def fock_run(m: int, n: int, d: int) -> dict:
    """One timed ``slhkit fock`` run, sweep 0, of the E_l0 = 0 coupling."""
    from slhkit import cli

    e = coupling(m, n, False)
    config = {"m": m, "n": n, "sigma": SIGMA, "fock": {"d": d},
              "E": [[[v.real, v.imag] for v in line] for line in e.full]}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(config))
        start = time.perf_counter()
        code = cli.main(["fock", "--config", str(path), "--out", str(out)])
        seconds = time.perf_counter() - start
        checks = (json.loads(out.read_text())["checks"] if out.exists()
                  else [])
    return {"seconds": seconds, "exit_code": code,
            "kernel_dims": [c["value"] for c in checks
                            if c["name"].endswith("kernel_dims")]}


def defect_groups() -> list:
    """The check groups in the order ``cli.command_defect`` calls them: the
    grid layer's ``..._defects`` functions and ``cli``'s ``_...``
    functions."""
    from slhkit import cli
    return [name for name in cli.command_defect.__code__.co_names
            if name.endswith("_defects")
            or name.startswith("_") and callable(getattr(cli, name, None))]


def defect_run(half_width: float, spacing: float) -> dict:
    """One timed ``slhkit defect`` run of the ``grid-defect`` config on the
    (T, h) grid, then one traced ``command_defect``; each check group
    records its seconds and faults in the first, its peak in the second."""
    from slhkit import cli
    from slhkit.punctured_line import GridSpec

    config = json.loads(generate_config("grid-defect", SEED))
    config["grid"] = {"T": half_width, "h": spacing}
    owners = {name: cli if name.startswith("_") else cli.punctured_line
              for name in defect_groups()}
    originals = {name: getattr(owner, name) for name, owner in owners.items()}
    groups, peaks = {name: {} for name in owners}, []

    def measured(name):
        def run(*args):
            # the traced peak since the last group began, before it restarts
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            faults, start = minor_faults(), time.perf_counter()
            value = originals[name](*args)
            # seconds and faults of the untraced run, peak of the traced one
            record = groups[name]
            record.setdefault("seconds", time.perf_counter() - start)
            record.setdefault("minor_faults", minor_faults() - faults)
            record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            return value
        return run

    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(config))
        try:
            for name, owner in owners.items():
                setattr(owner, name, measured(name))
            before, faults = peak_rss_mb(), minor_faults()
            start = time.perf_counter()
            code = cli.main(["defect", "--config", str(path), "--out",
                             str(out)])
            seconds = time.perf_counter() - start
            faults, after = minor_faults() - faults, peak_rss_mb()
            digest = (hashlib.sha256(out.read_bytes()).hexdigest()
                      if out.exists() else None)
            loaded = cli.load_config(str(path))
            tracemalloc.start()
            cli.run_command("defect", loaded)
            peak = max(peaks + [tracemalloc.get_traced_memory()[1]])
        finally:
            tracemalloc.stop()
            for name, owner in owners.items():
                setattr(owner, name, originals[name])
    unit = 32 * GridSpec(half_width, spacing).n_nodes
    return {"seconds": seconds, "minor_faults": faults, "exit_code": code,
            "report_sha256": digest, "rss_before_mb": before,
            "rss_after_mb": after, "peak_rss_mb": after, "groups": groups,
            "call_peak_mb": peak / 2 ** 20, "call_peak_arrays": peak / unit}


def startup_modules(command: str, config: str, sweep: int) -> dict:
    """The slhkit modules one CLI run executes; a lazy placeholder that was
    never read is not a ``types.ModuleType`` yet, and ``type()`` reads no
    attribute of it."""
    from slhkit import cli

    cli.main([command, "--config", config, "--out", os.devnull, "--sweep",
              str(sweep)])
    return {"modules": sorted(name for name, module in sys.modules.items()
                              if name.startswith("slhkit.")
                              and type(module) is types.ModuleType)}


# what ``--child NAME`` runs, on its JSON arguments
CHILDREN = {"kernel": row, "sobolev": sobolev_row, "fock-run": fock_run,
            "defect-run": defect_run, "startup-modules": startup_modules}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src),
                **{var: "1" for var in THREAD_VARS})


def measure(src: Path, name: str, spec: tuple) -> dict:
    """The child ``CHILDREN[name]`` on ``spec`` in a fresh process importing
    ``src``, with its peak RSS."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", name,
         *map(json.dumps, spec)],
        env=child_env(src), cwd=ROOT, capture_output=True, text=True,
        check=True)
    return json.loads(proc.stdout)


def spawn(src: Path, argv: list) -> dict:
    """One bare child importing ``src``, run to exit as ``perfbench/run.py``
    runs it: seconds on this process's clock, peak RSS from ``wait4``."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(src), cwd=ROOT,
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit_code": proc.returncode}


def alternate(trees: dict, measure_side, pairs: int) -> dict:
    """``measure_side(src)`` ``pairs`` times per side, the first side
    alternating, so that the i-th run of each side makes pair i; per side,
    each field's values in run order."""
    runs = {"parent": {}, "change": {}}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            for key, value in measure_side(trees[side]).items():
                runs[side].setdefault(key, []).append(value)
    return runs


def child_row(trees: dict, name: str, spec: tuple,
              pairs: int = REPEATS) -> dict:
    """``alternate`` over ``measure`` children: per side the ``PER_RUN``
    fields of each run, the median seconds, the highest peak RSS and the
    first run's other fields, and ``pair_stats`` unless a side refused."""
    record = {}
    for side, runs in alternate(trees, lambda src: measure(src, name, spec),
                                pairs).items():
        record[side] = {key: values if key in PER_RUN else values[0]
                        for key, values in runs.items()}
        if "refused" not in runs:
            record[side].update(median_s=statistics.median(runs["seconds"]),
                                peak_rss_mb=max(runs["peak_rss_mb"]))
    if not any("refused" in record[side] for side in ("parent", "change")):
        record["pairs"] = pair_stats(record)
    return record


def startup_row(trees: dict, command: str, config: Path, sweep: int) -> dict:
    """``PAIRS`` alternating pairs of the setup probe and the CLI process,
    and the modules a CLI run executes, per side."""
    probe = [sys.executable, "-c", SETUP_PROBE, str(config)]
    run = [sys.executable, "-m", "slhkit", command, "--config", str(config),
           "--out", os.devnull, "--sweep", str(sweep)]
    sides = alternate(trees, lambda src: {
        "setup_s": spawn(src, probe)["seconds"], **spawn(src, run)}, PAIRS)
    for side, runs in sides.items():
        runs["exit_codes"] = runs.pop("exit_code")
        runs["modules"] = measure(trees[side], "startup-modules",
                                  (command, str(config), sweep))["modules"]
    return {**sides,
            "setup": pair_stats(sides, "setup_s"),
            "wall": pair_stats(sides),
            "peak_rss": pair_stats(sides, "peak_rss_mb")}


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


def pair_summary(stats: dict) -> str:
    sides = " -> ".join(
        f"{1e3 * stats[side]['median']:.3f} ms ({1e3 * stats[side]['q1']:.3f}"
        f"..{1e3 * stats[side]['q3']:.3f})" for side in ("parent", "change"))
    return (f"{sides}, change faster in {stats['change_wins']}/"
            f"{stats['pairs']} pairs"
            f"{'' if stats['resolved'] else ', not resolved'}")


def summary(sides: dict) -> str:
    return " -> ".join("refused" if "refused" in sides[side]
                       else f"{sides[side]['median_s']:.3f} s"
                       for side in ("parent", "change"))


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


def bench(parent: Path, stages=STAGES) -> dict:
    trees = {"parent": parent / "src", "change": ROOT / "src"}
    out = {"stage": "fock.boundary_kernel (route B)", "sigma": SIGMA,
           "seed": SEED, "repeats": REPEATS, "machine": machine(),
           "revisions": {"parent": revision(parent), "change": revision(ROOT)},
           "stages": list(stages), "rows": [], "sobolev_rows": [], "runs": [],
           "defect_runs": [], "startup_rows": []}
    for m, n, d, generic_el0 in ROWS if "kernel" in stages else ():
        record = {"m": m, "n": n, "d": d,
                  "e_l0": "generic" if generic_el0 else "zero",
                  **child_row(trees, "kernel", (m, n, d, generic_el0))}
        sides = record["parent"], record["change"]
        if "pairs" in record:
            record["speedup"] = sides[0]["median_s"] / sides[1]["median_s"]
            record["same_dims"] = all(sides[0][k] == sides[1][k]
                                      for k in ("dim", "sector_dims"))
        out["rows"].append(record)
        print(f"({m},{n},{d}) E_l0 {record['e_l0']}: {summary(record)}, "
              f"dim {record['change'].get('dim')}, last level "
              f"{record['change'].get('last_level')}", flush=True)
    for half_width, spacing in SOBOLEV_GRIDS if "sobolev" in stages else ():
        record = {"T": half_width, "h": spacing,
                  **child_row(trees, "sobolev", (half_width, spacing), PAIRS)}
        sides = record["parent"], record["change"]
        record["speedup"] = sides[0]["median_s"] / sides[1]["median_s"]
        record["same_value"] = sides[0]["value"] == sides[1]["value"]
        out["sobolev_rows"].append(record)
        print(f"sobolev T={half_width:g} h={spacing:g}: "
              f"{pair_summary(record['pairs'])}, call peak "
              f"{sides[0]['call_peak_arrays']:.2f} -> "
              f"{sides[1]['call_peak_arrays']:.2f} arrays", flush=True)
    for m, n, d in RUNS if "fock-run" in stages else ():
        record = {"m": m, "n": n, "d": d,
                  **child_row(trees, "fock-run", (m, n, d))}
        out["runs"].append(record)
        print(f"fock run ({m},{n},{d}): {summary(record)}", flush=True)
    for half_width, spacing in DEFECT_RUNS if "defect-run" in stages else ():
        record = {"T": half_width, "h": spacing,
                  **child_row(trees, "defect-run", (half_width, spacing),
                              PAIRS)}
        sides = record["parent"], record["change"]
        record["same_report"] = (sides[0]["report_sha256"]
                                 == sides[1]["report_sha256"])
        out["defect_runs"].append(record)
        faults = " -> ".join(str(statistics.median(
            sum(group.get("minor_faults", 0) for group in run.values())
            for run in side["groups"])) for side in sides)
        peaks = " -> ".join(f"{1024 * side['call_peak_mb']:.1f}"
                            for side in sides)
        print(f"defect run T={half_width:g} h={spacing:g}: "
              f"{pair_summary(record['pairs'])}, group minor faults {faults}, "
              f"call peak {peaks} KiB", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command, name in STARTUP_ROWS if "startup" in stages else ():
            config, sweep = ROOT / name, 0
            if name in WORKLOADS:
                config = Path(tmp) / f"{name}.json"
                config.write_bytes(generate_config(name, SEED))
                sweep = WORKLOADS[name].sweep
            record = {"command": command, "config": name, "sweep": sweep,
                      **startup_row(trees, command, config, sweep)}
            out["startup_rows"].append(record)
            rss = " -> ".join(f"{record['peak_rss'][side]['median']:.2f}"
                              for side in ("parent", "change"))
            print(f"startup {command} {name}: setup "
                  f"{pair_summary(record['setup'])}; cli "
                  f"{pair_summary(record['wall'])}; peak RSS {rss} MB, "
                  f"lower in {record['peak_rss']['change_wins']}/"
                  f"{record['peak_rss']['pairs']} pairs; modules "
                  f"{len(record['parent']['modules'])} -> "
                  f"{len(record['change']['modules'])}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--stages", nargs="+", choices=STAGES, default=STAGES)
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        name, *spec = args.child
        result = CHILDREN[name](*map(json.loads, spec))
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
