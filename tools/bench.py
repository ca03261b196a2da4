"""Time the route-B boundary-kernel stage of a parent tree and of this tree.

    python3 tools/bench.py --parent DIR [--out BENCH_15.json]

DIR is a checkout of the parent commit (``git clone`` or ``git archive``);
its ``src/`` is imported for the parent side, this tree's ``src/`` for the
change.  Each row is one ``fock.boundary_kernel`` call on the coupling-form
rows (route B) of a seeded coupling with sigma = 0.3, full and guarded
(cap = d - 2):

* E_l0 = 0 at (m, n, d) = (1,2,4), (2,2,4), (1,2,6), (2,2,5), (1,3,4) and
  (1,3,5): one block per photon-number sector;
* a generic E_l0 at (1,2,4): one block coupling every sector.

Every measurement is one cold call in a fresh child process with one BLAS
thread, three per side, parent and change alternating which runs first.  Per
side a row records the seconds of each run and their median, the child's peak RSS,
the total and per-sector kernel dims, the number of blocks the Cholesky
certificate decided (None for a tree without it) and sigma_max.  The machine
block is the output of ``perfbench/probe.py``, run as a child the way the
benchmark runs it.  The JSON goes to ``--out`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIGMA = 0.3
SEED = 1
REPEATS = 3
SIZES = ((1, 2, 4), (2, 2, 4), (1, 2, 6), (2, 2, 5), (1, 3, 4), (1, 3, 5))
# (m, n, d, generic E_l0), each run full and guarded
ROWS = [(*size, False) for size in SIZES] + [(1, 2, 4, True)]


def row(m: int, n: int, d: int, guarded: bool, generic_el0: bool) -> dict:
    """One timed route-B kernel solve on the slhkit tree this process
    imports; per-sector dims are None when a kernel column spans sectors."""
    # imported here: the child that calls this picks the tree by PYTHONPATH
    from slhkit import fock
    from slhkit.ensembles import random_coupling
    from slhkit.slh import ScalarGauge

    e = random_coupling(np.random.default_rng(SEED), m, n,
                        zero_channel_system=not generic_el0)
    ops = fock.build_mode_operators(m, n, d, ScalarGauge(SIGMA))
    rows = fock.stacked_boundary_rows(e, ops)
    cap = d - 2 if guarded else None
    start = time.perf_counter()
    sub = fock.boundary_kernel(ops.space, rows, cap)
    seconds = time.perf_counter() - start
    sectors = ops.space.sectors(cap)
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
            "certified": getattr(sub, "certified", None),
            "sigma_max": sub.sigma_max}


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src),
                **{var: "1" for var in THREAD_VARS})


def measure(src: Path, spec: tuple) -> dict:
    """``row`` in a fresh child importing ``src``, with its peak RSS."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--row",
         *(str(int(x)) for x in spec)],
        env=child_env(src), cwd=ROOT, capture_output=True, text=True,
        check=True)
    return json.loads(proc.stdout)


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


def bench(parent: Path) -> dict:
    trees = {"parent": parent / "src", "change": ROOT / "src"}
    out = {"stage": "fock.boundary_kernel (route B)", "sigma": SIGMA,
           "seed": SEED, "repeats": REPEATS, "machine": machine(),
           "revisions": {"parent": revision(parent), "change": revision(ROOT)},
           "rows": []}
    for m, n, d, generic_el0 in ROWS:
        for guarded in (False, True):
            spec = (m, n, d, guarded, generic_el0)
            runs = {"parent": [], "change": []}
            for i in range(REPEATS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(measure(trees[side], spec))
            sides = {}
            for side, results in runs.items():
                first = results[0]
                sides[side] = {
                    "seconds": [r["seconds"] for r in results],
                    "median_s": statistics.median(r["seconds"] for r in results),
                    "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
                    **{k: first[k] for k in ("dim", "sector_dims", "certified",
                                             "sigma_max")}}
            record = {"m": m, "n": n, "d": d, "cap": d - 2 if guarded else d - 1,
                      "e_l0": "generic" if generic_el0 else "zero", **sides,
                      "speedup": sides["parent"]["median_s"] / sides["change"]["median_s"],
                      "same_dims": (sides["parent"]["dim"] == sides["change"]["dim"]
                                    and sides["parent"]["sector_dims"]
                                    == sides["change"]["sector_dims"])}
            out["rows"].append(record)
            print(f"({m},{n},{d}) cap {record['cap']} E_l0 {record['e_l0']}: "
                  f"{sides['parent']['median_s']:.3f} s -> "
                  f"{sides['change']['median_s']:.3f} s "
                  f"(x{record['speedup']:.2f}), dim {sides['change']['dim']}, "
                  f"certified {sides['change']['certified']}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_15.json")
    parser.add_argument("--row", type=int, nargs=5, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row is not None:
        m, n, d, guarded, generic_el0 = args.row
        result = row(m, n, d, bool(guarded), bool(generic_el0))
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    if args.parent is None or not (args.parent / "src" / "slhkit").is_dir():
        parser.error("--parent must be a checkout with src/slhkit")
    args.out.write_text(json.dumps(bench(args.parent.resolve()), indent=1)
                        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
