"""Print the tracemalloc peak and the minor page faults of each check group
of ``slhkit defect``, and the peak-RSS growth of the whole command.

    PYTHONPATH=src python3 tools/defect_peaks.py

Runs ``cli.command_defect`` in-process at each grid of ``SIZES``, with the
check groups it calls (the module-level ``_...`` functions it names) wrapped
so that each records the traced peak reached while it runs and the minor
page faults (``ru_minflt``) the process took meanwhile. Memory still held
from earlier groups counts. The peak is printed twice: in two-sided complex
arrays, 32 bytes per node of a half-line, the unit of
``punctured_line.DEFECT_LIVE_ARRAYS``, and in KiB. The suite holds no node
array, so its peak is a few windows of one chunk of
``punctured_line.NODE_CHUNK`` nodes: the KiB figures stay flat in n while
the array figures fall towards 0. The last row of the peak tables is the
peak of the whole command, and the last row of the fault table the whole
command's faults. Faults are counted with tracemalloc on, so read them side
by side with another tree's, not as those of a plain run.

The last table is the end-to-end figure: for each grid, one
``command_defect`` in a fresh child process (one BLAS thread, no
tracemalloc) and the growth of its ``ru_maxrss`` over the call, in MB,
after numpy, slhkit and the config are loaded. Linux carries a process's
peak RSS across fork and exec into the child's ``ru_maxrss``, so the
children run first, before this process runs anything in-process; from a
caller whose own peak is higher, the growth reads low or 0.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import slhkit
from slhkit import cli
from slhkit.config import config_from_dict
from slhkit.punctured_line import GridSpec
from slhkit.report import Report

# (T, h): 10k, 20k, 40k, 80k and 400k nodes per half-line.
SIZES = ((30.0, 3e-3), (40.0, 2e-3), (40.0, 1e-3), (40.0, 5e-4),
         (40.0, 1e-4))
COUPLING = [[[0.3, 0.0], [0.5, -0.2]], [[0.5, 0.2], [1.0, 0.0]]]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def group_names():
    """The check groups in the order ``command_defect`` calls them."""
    return [name for name in cli.command_defect.__code__.co_names
            if name.startswith("_") and callable(getattr(cli, name, None))]


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def grid_config(half_width: float, spacing: float):
    return config_from_dict({"m": 1, "n": 1, "E": COUPLING,
                             "grid": {"T": half_width, "h": spacing}})


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_rss_growth(half_width: float, spacing: float) -> float:
    """In this process: the ``ru_maxrss`` growth, in MB, over one
    ``command_defect`` call."""
    config = grid_config(half_width, spacing)
    np.random.default_rng(0)  # numpy.random imports lazily, once
    before = max_rss_mb()
    cli.command_defect(config, 0, 0, Report("defect", ""))
    return max_rss_mb() - before


def rss_growth(half_width: float, spacing: float) -> float:
    """``child_rss_growth`` in a fresh child process on this slhkit tree."""
    src = str(Path(slhkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rss",
         str(half_width), str(spacing)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def peaks(half_width: float, spacing: float) -> tuple:
    """Traced peak in bytes, and minor page faults, per group and in
    total."""
    config = grid_config(half_width, spacing)
    np.random.default_rng(0)  # numpy.random imports lazily, once
    result, faults = {}, {}

    def measured(name, group):
        def run(*args):
            tracemalloc.reset_peak()
            before = minor_faults()
            group(*args)
            faults[name] = minor_faults() - before
            result[name] = tracemalloc.get_traced_memory()[1]
        return run

    originals = {name: getattr(cli, name) for name in group_names()}
    for name, group in originals.items():
        setattr(cli, name, measured(name, group))
    tracemalloc.start()
    try:
        before = minor_faults()
        cli.command_defect(config, 0, 0, Report("defect", ""))
        faults["command_defect"] = minor_faults() - before
        total = max(result.values())
    finally:
        tracemalloc.stop()
        for name, group in originals.items():
            setattr(cli, name, group)
    result["command_defect"] = total
    return result, faults


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--rss"]:
        print(json.dumps(child_rss_growth(*map(float, argv[1:3]))))
        return 0
    growth = [rss_growth(*size) for size in SIZES]
    columns = []
    for size, rss in zip(SIZES, growth):
        peak, faults = peaks(*size)
        unit = 32 * GridSpec(*size).n_nodes
        columns.append(({k: v / unit for k, v in peak.items()},
                        {k: v / 1024 for k, v in peak.items()}, faults,
                        {"command_defect": rss}))
    heads = [f"T={t:g},n={GridSpec(t, h).n_nodes}" for t, h in SIZES]
    for title, index, form in (("peak (two-sided arrays)", 0, ".4f"),
                               ("peak (KiB)", 1, ".1f"),
                               ("minor page faults", 2, "d"),
                               ("ru_maxrss growth (MB, fresh child)", 3,
                                ".2f")):
        table = [column[index] for column in columns]
        width = max(len(name) for name in table[0])
        print(title)
        print(" " * width, *(f"{head:>14}" for head in heads))
        for name in table[0]:
            print(f"{name:<{width}}",
                  *(f"{column[name]:>14{form}}" for column in table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
