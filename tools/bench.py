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
with h = 1e-3 and 5e-4 (40k and 80k nodes per half-line): f and g are each
two seeded ``ensembles.random_bump`` draws, the left one first, read as
``punctured_line.sample_half`` sources, and the pairing is
``sobolev_half`` on each half-line joined by ``sobolev_total``, the calls
the ``defect`` suite makes.  No node array is stored: each call evaluates
the bumps chunk by chunk.  The child times ``SOBOLEV_CALLS`` calls and
reports the median; it then traces one more call with tracemalloc, whose
peak is the row's ``call_peak_mb``, also given in two-sided complex arrays
(32 bytes per node of a half-line).

Each run row is one ``slhkit fock`` run, sweep 0, on the E_l0 = 0 coupling
of (1,3,5) and (1,3,6) with sigma = 0.3.  Each defect row is one ``slhkit
defect`` run on the ``grid-defect`` benchmark config (``perfbench/
workloads.py``, seed 1) at T = 40 with h = 5e-4, 2.5e-4 and 1e-4 (80k,
160k and 400k nodes per half-line).

Every measurement is one cold call in a fresh child process with one BLAS
thread, parent and change alternating which runs first: three per side, but
``PAIRS`` (ten) per side for a Sobolev or defect row, which three children
cannot resolve.  A Sobolev or defect row also records, as ``pairs``, each
side's median and quartiles of the per-child seconds, the number of pairs
in which the change was faster, and whether the change wins at least nine
in ten pairs with a median gap over the parent's interquartile range; its
progress line prints them.  Per side a stage row records the seconds of
each run and their median, the child's peak RSS, the total and per-sector
kernel dims, as ``sigma_max`` the rank-cut scale sigma~ <= sigma_max, the
last level assembled, the guard's largest level charge (a tree without
per-level charges gives its whole-solve estimate and no level), and the
child's peak RSS before and after the solve (after a warm-up QR and
SVD, so that LAPACK's first-call pages are not counted); a Sobolev row the
per-call seconds, the child's peak RSS, the call's traced peak and the
pairing's value (as float hex, with whether both sides agree bit for
bit); a run row the seconds, peak RSS, exit code and kernel dims; a defect
row the seconds, the minor page faults of the ``cli.main`` call
(``ru_minflt``), peak RSS, exit code and the SHA-256 of the report bytes,
and whether the two sides wrote the same report.  A size the tree's guard
refuses, on construction or at a level of the solve, records its TooLarge
message instead.

Each startup row is one subcommand on one config: each of the five on
``configs/example.json``, ``fock --sweep 1`` on the ``fock-kernel`` and
``defect`` on the ``grid-defect`` benchmark config (seed 1).  A pair runs,
per side, the benchmark's setup probe (``perfbench/run.py``'s
``SETUP_PROBE``: import ``slhkit.cli`` and load the config) and then the
whole ``python -m slhkit`` process, each a bare child timed from this
process's clock with its peak RSS read by ``wait4``, as the benchmark
does; ``PAIRS`` (ten) alternating pairs.  The row records each side's
probe and CLI seconds, the CLI child's peak RSS and exit codes, their
paired statistics (``setup``, ``wall`` and ``peak_rss``), and the slhkit
modules that one more CLI run executed (a module that ``slhkit.cli`` only
holds as a lazy placeholder is not counted).  The machine block is the
output of ``perfbench/probe.py``, run as a child the way the benchmark
runs it, and says whether ``PYTHONDONTWRITEBYTECODE`` is set: with it,
every child compiles slhkit from source.  The
JSON goes to FILE, which has no default, so a run never overwrites an
earlier BENCH file unless told to.
"""

from __future__ import annotations

import argparse
import contextlib
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
# of a bare CLI process.
ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
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
# alternating children per side of a Sobolev, defect or startup row
PAIRS = 10
# (command, config) of the startup rows: a path under ROOT, or a benchmark
# workload whose config perfbench/workloads.py generates
STARTUP_ROWS = tuple((command, "configs/example.json") for command in
                     ("slh", "phase", "defect", "scatter", "fock")) + (
    ("fock", "fock-kernel"), ("defect", "grid-defect"))
# perfbench/run.py's SETUP_PROBE
SETUP_PROBE = "import sys; from slhkit import cli; cli.load_config(sys.argv[1])"
STAGES = ("kernel", "fock-run", "sobolev", "defect-run", "startup")


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
    charges, charge = [], getattr(fock, "_level_bytes", None)

    def recording(*args):
        charges.append(charge(*args))
        return charges[-1]

    patch = (mock.patch.object(fock, "_level_bytes", recording) if charge
             else contextlib.nullcontext())
    try:
        ops = fock.build_mode_operators(m, n, d, ScalarGauge(SIGMA))
        rows = fock.stacked_boundary_rows(e, ops)
        # a tall and a wide warm-up solve: LAPACK's first-call pages are
        # not the solve's
        null_space(np.ones((3, 2))), null_space(np.ones((2, 3)))
        before = peak_rss_mb()
        with patch:
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
    # a tree without the per-level charge has a whole-solve estimate
    largest = max(charges) if charges else ops.space.solve_bytes()
    return {"seconds": seconds, "dim": sub.dim, "sector_dims": per_sector,
            "sigma_max": sub.sigma_max,
            "last_level": len(charges) - 1 if charges else None,
            "largest_charge_mb": largest / 2 ** 20,
            "rss_before_mb": before, "rss_after_mb": after}


def sobolev_row(half_width: float, spacing: float) -> dict:
    """Median per-call seconds and traced peak of one Sobolev pairing on the
    half-line core, for two random functions of the (T, h) grid."""
    import numpy as np
    from slhkit.ensembles import random_bump
    from slhkit.punctured_line import (SIDES, GridSpec, sample_half,
                                       sobolev_half, sobolev_total)

    spec = GridSpec(half_width, spacing)
    rng = np.random.default_rng(SEED)
    # f's and g's (left, right) bumps, each drawn left first
    f, g = ((random_bump(rng, "left"), random_bump(rng, "right"))
            for _ in range(2))
    halves = {left: [sample_half(spec, left, u[0] if left else u[1])
                     for u in (f, g)] for left in SIDES}

    def pairing():
        return sobolev_total(*(sobolev_half(spec, left, *halves[left])
                               for left in SIDES))

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


def defect_run(half_width: float, spacing: float) -> dict:
    """One timed ``slhkit defect`` run of the ``grid-defect`` config on the
    (T, h) grid."""
    from slhkit import cli

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import generate_config

    config = json.loads(generate_config("grid-defect", SEED))
    config["grid"] = {"T": half_width, "h": spacing}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(config))
        faults = minor_faults()
        start = time.perf_counter()
        code = cli.main(["defect", "--config", str(path), "--out", str(out)])
        seconds = time.perf_counter() - start
        faults = minor_faults() - faults
        digest = (hashlib.sha256(out.read_bytes()).hexdigest()
                  if out.exists() else None)
    return {"seconds": seconds, "minor_faults": faults, "exit_code": code,
            "report_sha256": digest}


def startup_modules(command: str, config: str, sweep: str) -> dict:
    """The slhkit modules one CLI run executes; a lazy placeholder that was
    never read is not a ``types.ModuleType`` yet, and ``type()`` reads no
    attribute of it."""
    from slhkit import cli

    code = cli.main([command, "--config", config, "--out", os.devnull,
                     "--sweep", sweep])
    return {"exit_code": code,
            "modules": sorted(name for name, module in sys.modules.items()
                              if name.startswith("slhkit.")
                              and type(module) is types.ModuleType)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src),
                **{var: "1" for var in THREAD_VARS})


def measure(src: Path, mode: str, spec: tuple) -> dict:
    """``row``, ``sobolev_row``, ``fock_run`` or ``defect_run`` in a fresh
    child importing ``src``, with its peak RSS."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), mode,
         *(str(int(x) if isinstance(x, bool) else x) for x in spec)],
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


def startup_row(trees: dict, command: str, config: Path, sweep: int) -> dict:
    """``PAIRS`` alternating pairs of the setup probe and the CLI process,
    and the modules a CLI run executes, per side."""
    probe = [sys.executable, "-c", SETUP_PROBE, str(config)]
    run = [sys.executable, "-m", "slhkit", command, "--config", str(config),
           "--out", os.devnull, "--sweep", str(sweep)]
    sides = {side: {"setup_s": [], "seconds": [], "peak_rss_mb": [],
                    "exit_codes": []} for side in trees}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side]["setup_s"].append(spawn(trees[side], probe)["seconds"])
            result = spawn(trees[side], run)
            for key in ("seconds", "peak_rss_mb"):
                sides[side][key].append(result[key])
            sides[side]["exit_codes"].append(result["exit_code"])
    for side in trees:
        sides[side]["modules"] = measure(trees[side], "--startup-modules",
                                         (command, config, sweep))["modules"]
    return {**sides,
            "setup": pair_stats(sides, "setup_s"),
            "wall": pair_stats(sides),
            "peak_rss": pair_stats(sides, "peak_rss_mb")}


def alternate(trees: dict, mode: str, spec: tuple,
              repeats: int = REPEATS) -> dict:
    """``repeats`` measurements per side, the first side alternating; the
    i-th run of each side makes pair i."""
    runs = {"parent": [], "change": []}
    for i in range(repeats):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(measure(trees[side], mode, spec))
    sides = {}
    for side, results in runs.items():
        first = results[0]
        if "refused" in first:
            sides[side] = first
            continue
        sides[side] = {
            "seconds": [r["seconds"] for r in results],
            "median_s": statistics.median(r["seconds"] for r in results),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            **{k: v for k, v in first.items()
               if k not in ("seconds", "peak_rss_mb", "minor_faults")}}
        if "minor_faults" in first:
            sides[side]["minor_faults"] = [r["minor_faults"] for r in results]
    return sides


def quartiles(values) -> tuple:
    """(q1, median, q3), as ``perfbench/run.py`` takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def pair_stats(sides: dict, key: str = "seconds") -> dict:
    """Each side's median and quartiles of the per-run ``key`` (seconds
    unless named; lower is better), the pairs in which the change was
    lower, and whether that meets the nine-in-ten rule: lower in at least 9
    of 10 pairs, with the median gap over the parent's interquartile
    range."""
    parent, change = sides["parent"][key], sides["change"][key]
    stats = {side: dict(zip(("q1", "median", "q3"), quartiles(values)))
             for side, values in (("parent", parent), ("change", change))}
    wins = sum(c < p for p, c in zip(parent, change))
    gap = stats["parent"]["median"] - stats["change"]["median"]
    return {**stats, "pairs": len(parent), "change_wins": wins,
            "resolved": (10 * wins >= 9 * len(parent)
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
        sides = alternate(trees, "--row", (m, n, d, generic_el0))
        record = {"m": m, "n": n, "d": d,
                  "e_l0": "generic" if generic_el0 else "zero", **sides}
        if not any("refused" in sides[side] for side in sides):
            record["speedup"] = (sides["parent"]["median_s"]
                                 / sides["change"]["median_s"])
            record["same_dims"] = all(
                sides["parent"][k] == sides["change"][k]
                for k in ("dim", "sector_dims"))
        out["rows"].append(record)
        print(f"({m},{n},{d}) E_l0 {record['e_l0']}: {summary(sides)}, "
              f"dim {sides['change'].get('dim')}, last level "
              f"{sides['change'].get('last_level')}", flush=True)
    for half_width, spacing in SOBOLEV_GRIDS if "sobolev" in stages else ():
        sides = alternate(trees, "--sobolev-row", (half_width, spacing),
                          PAIRS)
        stats = pair_stats(sides)
        out["sobolev_rows"].append({
            "T": half_width, "h": spacing, **sides,
            "speedup": sides["parent"]["median_s"] / sides["change"]["median_s"],
            "pairs": stats,
            "same_value": sides["parent"]["value"] == sides["change"]["value"]})
        print(f"sobolev_half T={half_width:g} h={spacing:g}: "
              f"{pair_summary(stats)}, call peak "
              f"{sides['parent']['call_peak_arrays']:.2f} -> "
              f"{sides['change']['call_peak_arrays']:.2f} arrays", flush=True)
    for m, n, d in RUNS if "fock-run" in stages else ():
        sides = alternate(trees, "--fock-run", (m, n, d))
        out["runs"].append({"m": m, "n": n, "d": d, **sides})
        print(f"fock run ({m},{n},{d}): {summary(sides)}", flush=True)
    for half_width, spacing in DEFECT_RUNS if "defect-run" in stages else ():
        sides = alternate(trees, "--defect-run", (half_width, spacing),
                          PAIRS)
        stats = pair_stats(sides)
        out["defect_runs"].append({
            "T": half_width, "h": spacing, **sides, "pairs": stats,
            "same_report": (sides["parent"].get("report_sha256")
                            == sides["change"].get("report_sha256"))})
        faults = " -> ".join(
            str(statistics.median(sides[side].get("minor_faults", [0])))
            for side in ("parent", "change"))
        print(f"defect run T={half_width:g} h={spacing:g}: "
              f"{pair_summary(stats)}, minor faults {faults}", flush=True)
    if "startup" in stages:
        sys.path.insert(0, str(ROOT / "perfbench"))
        from workloads import WORKLOADS, generate_config

        with tempfile.TemporaryDirectory() as tmp:
            for command, name in STARTUP_ROWS:
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
    parser.add_argument("--row", type=int, nargs=4, help=argparse.SUPPRESS)
    parser.add_argument("--sobolev-row", type=float, nargs=2,
                        help=argparse.SUPPRESS)
    parser.add_argument("--fock-run", type=int, nargs=3, help=argparse.SUPPRESS)
    parser.add_argument("--defect-run", type=float, nargs=2,
                        help=argparse.SUPPRESS)
    parser.add_argument("--startup-modules", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    children = (args.row, args.sobolev_row, args.fock_run, args.defect_run,
                args.startup_modules)
    if children != (None,) * 5:
        if args.row is not None:
            m, n, d, generic_el0 = args.row
            result = row(m, n, d, bool(generic_el0))
        elif args.sobolev_row is not None:
            result = sobolev_row(*args.sobolev_row)
        elif args.fock_run is not None:
            result = fock_run(*args.fock_run)
        elif args.defect_run is not None:
            result = defect_run(*args.defect_run)
        else:
            result = startup_modules(*args.startup_modules)
        result["peak_rss_mb"] = peak_rss_mb()
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
