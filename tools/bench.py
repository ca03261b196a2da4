"""Time the route-B boundary-kernel and the Sobolev-pairing stages, and full
``fock`` and ``defect`` runs, of a parent tree and of this tree.

    python3 tools/bench.py --parent DIR --out FILE [--stages STAGE ...]

STAGE is ``kernel``, ``fock-run``, ``sobolev`` or ``defect-run`` (default:
all four, in that order).  DIR is a checkout of the parent commit (``git clone`` or ``git archive``);
its ``src/`` is imported for the parent side, this tree's ``src/`` for the
change.  Each stage row is one ``fock.boundary_kernel(space, rows)`` call on
the coupling-form rows (route B) of a seeded coupling with sigma = 0.3:

* E_l0 = 0 at (m, n, d) = (1,2,4), (2,2,4), (1,2,6), (2,2,5), (1,3,4),
  (1,3,5) and (1,3,6);
* a generic E_l0 at (1,2,4), (1,3,3) and (1,3,4).

Each Sobolev row is ``punctured_line.sobolev_inner`` on two seeded random
two-sided grid functions (``ensembles.random_grid_function``) at T = 40 with
h = 1e-3 and 5e-4 (40k and 80k nodes per half-line).  The child times
``SOBOLEV_CALLS`` calls, each on fresh ``GridFunction`` instances over the
same arrays (so a tree that caches derivatives on an instance forms them
in every call), and reports the median; it then traces one more call with
tracemalloc, whose peak above the inputs is the row's ``call_peak_mb``, also
given in two-sided complex arrays (32 bytes per node of a half-line).

Each run row is one ``slhkit fock`` run, sweep 0, on the E_l0 = 0 coupling
of (1,3,5) and (1,3,6) with sigma = 0.3.  Each defect row is one ``slhkit
defect`` run on the ``grid-defect`` benchmark config (``perfbench/
workloads.py``, seed 1) at T = 40 with h = 5e-4, 2.5e-4 and 1e-4 (80k,
160k and 400k nodes per half-line).

Every measurement is one cold call in a fresh child process with one BLAS
thread, parent and change alternating which runs first: three per side, but
``SOBOLEV_PAIRS`` (ten) per side for a Sobolev row, whose 2-4 ms calls
three children cannot resolve.  A Sobolev row also records, as
``pairs``, each side's median and quartiles of the per-child seconds, the
number of pairs in which the change was faster, and whether the change
wins at least nine in ten pairs with a median gap over the parent's
interquartile range; its progress line prints them.  Per
side a stage row records the seconds of each run and their median, the
child's peak RSS, the total and per-sector kernel dims and, as
``sigma_max``, the rank-cut scale sigma~ <= sigma_max; a Sobolev row the
per-call seconds, the child's peak RSS, the call's traced peak and the
pairing's value (as float hex, with whether both sides agree bit for bit);
a run row the seconds,
peak RSS, exit code and kernel dims; a defect row the seconds, the minor
page faults of the ``cli.main`` call (``ru_minflt``), peak RSS, exit code
and the SHA-256 of the report bytes, and whether the two sides wrote the
same report.  A size the tree's guard refuses records its
TooLarge message instead.  The machine block is the output of
``perfbench/probe.py``, run as a child the way the benchmark runs it.  The
JSON goes to FILE, which has no default, so a run never overwrites an
earlier BENCH file unless told to.
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

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIGMA = 0.3
SEED = 1
REPEATS = 3
SIZES = ((1, 2, 4), (2, 2, 4), (1, 2, 6), (2, 2, 5), (1, 3, 4), (1, 3, 5),
         (1, 3, 6))
# (m, n, d, generic E_l0)
ROWS = ([(*size, False) for size in SIZES]
        + [(1, 2, 4, True), (1, 3, 3, True), (1, 3, 4, True)])
RUNS = ((1, 3, 5), (1, 3, 6))
# (T, h) of the defect rows
DEFECT_RUNS = ((40.0, 5e-4), (40.0, 2.5e-4), (40.0, 1e-4))
# (T, h) of the Sobolev-pairing stage rows, and the timed calls per child
SOBOLEV_GRIDS = ((40.0, 1e-3), (40.0, 5e-4))
SOBOLEV_CALLS = 20
SOBOLEV_PAIRS = 10
STAGES = ("kernel", "fock-run", "sobolev", "defect-run")


def coupling(m: int, n: int, generic_el0: bool):
    from slhkit.ensembles import random_coupling
    return random_coupling(np.random.default_rng(SEED), m, n,
                           zero_channel_system=not generic_el0)


def row(m: int, n: int, d: int, generic_el0: bool) -> dict:
    """One timed route-B kernel solve on the slhkit tree this process
    imports; per-sector dims are None when a kernel column spans sectors."""
    # imported here: the child that calls this picks the tree by PYTHONPATH
    from slhkit import fock
    from slhkit.errors import TooLarge
    from slhkit.slh import ScalarGauge

    e = coupling(m, n, generic_el0)
    try:
        ops = fock.build_mode_operators(m, n, d, ScalarGauge(SIGMA))
    except TooLarge as err:
        return {"refused": str(err)}
    rows = fock.stacked_boundary_rows(e, ops)
    start = time.perf_counter()
    sub = fock.boundary_kernel(ops.space, rows)
    seconds = time.perf_counter() - start
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
            "sigma_max": sub.sigma_max}


def sobolev_row(half_width: float, spacing: float) -> dict:
    """Median per-call seconds and traced peak of ``sobolev_inner`` on two
    random grid functions of the (T, h) grid."""
    from slhkit.ensembles import random_grid_function
    from slhkit.punctured_line import GridFunction, GridSpec, sobolev_inner

    spec = GridSpec(half_width, spacing)
    rng = np.random.default_rng(SEED)
    f, g = random_grid_function(rng, spec), random_grid_function(rng, spec)

    def fresh():
        return tuple(GridFunction(spec, u.left, u.right, u.left_limit,
                                  u.right_limit) for u in (f, g))

    times = []
    for _ in range(SOBOLEV_CALLS):
        a, b = fresh()
        start = time.perf_counter()
        value = sobolev_inner(a, b)
        times.append(time.perf_counter() - start)
        del a, b
    a, b = fresh()
    tracemalloc.start()
    sobolev_inner(a, b)
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


def pair_stats(sides: dict) -> dict:
    """Each side's median and quartiles of the per-run seconds, the pairs
    in which the change was faster, and whether that meets the
    nine-in-ten rule: faster in at least 9 of 10 pairs, with the median
    gap over the parent's interquartile range."""
    parent, change = sides["parent"]["seconds"], sides["change"]["seconds"]
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
           "defect_runs": []}
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
              f"dim {sides['change'].get('dim')}", flush=True)
    for half_width, spacing in SOBOLEV_GRIDS if "sobolev" in stages else ():
        sides = alternate(trees, "--sobolev-row", (half_width, spacing),
                          SOBOLEV_PAIRS)
        stats = pair_stats(sides)
        out["sobolev_rows"].append({
            "T": half_width, "h": spacing, **sides,
            "speedup": sides["parent"]["median_s"] / sides["change"]["median_s"],
            "pairs": stats,
            "same_value": sides["parent"]["value"] == sides["change"]["value"]})
        print(f"sobolev_inner T={half_width:g} h={spacing:g}: "
              f"{pair_summary(stats)}, call peak "
              f"{sides['parent']['call_peak_arrays']:.2f} -> "
              f"{sides['change']['call_peak_arrays']:.2f} arrays", flush=True)
    for m, n, d in RUNS if "fock-run" in stages else ():
        sides = alternate(trees, "--fock-run", (m, n, d))
        out["runs"].append({"m": m, "n": n, "d": d, **sides})
        print(f"fock run ({m},{n},{d}): {summary(sides)}", flush=True)
    for half_width, spacing in DEFECT_RUNS if "defect-run" in stages else ():
        sides = alternate(trees, "--defect-run", (half_width, spacing))
        out["defect_runs"].append({
            "T": half_width, "h": spacing, **sides,
            "same_report": (sides["parent"].get("report_sha256")
                            == sides["change"].get("report_sha256"))})
        faults = " -> ".join(
            str(statistics.median(sides[side].get("minor_faults", [0])))
            for side in ("parent", "change"))
        print(f"defect run T={half_width:g} h={spacing:g}: {summary(sides)}, "
              f"minor faults {faults}", flush=True)
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
    args = parser.parse_args(argv)
    children = (args.row, args.sobolev_row, args.fock_run, args.defect_run)
    if children != (None,) * 4:
        if args.row is not None:
            m, n, d, generic_el0 = args.row
            result = row(m, n, d, bool(generic_el0))
        elif args.sobolev_row is not None:
            result = sobolev_row(*args.sobolev_row)
        elif args.fock_run is not None:
            result = fock_run(*args.fock_run)
        else:
            result = defect_run(*args.defect_run)
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
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
