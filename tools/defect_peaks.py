"""Print the tracemalloc peak and the minor page faults of each check group
of ``slhkit defect``.

    PYTHONPATH=src python3 tools/defect_peaks.py

Runs ``cli.command_defect`` in-process at each grid of ``SIZES``, with the
check groups it calls (the module-level ``_...`` functions it names) wrapped
so that each records the traced peak reached while it runs and the minor
page faults (``ru_minflt``) the process took meanwhile. Memory still held
from earlier groups (the cached defect vectors, the shared zero half)
counts. The peak's unit is one two-sided complex array, 32 bytes per node of
a half-line, the unit of ``punctured_line.DEFECT_LIVE_ARRAYS``; the last row
of the peak table is the peak of the whole command, the figure that
constant bounds, and the last row of the fault table the whole command's
faults. Faults are counted with tracemalloc on, so read them side by side
with another tree's, not as those of a plain run.
"""

from __future__ import annotations

import resource
import tracemalloc

import numpy as np

from slhkit import cli, punctured_line
from slhkit.config import config_from_dict
from slhkit.punctured_line import GridSpec
from slhkit.report import Report

# (T, h): 10k, 20k, 40k and 80k nodes per half-line.
SIZES = ((30.0, 3e-3), (40.0, 2e-3), (40.0, 1e-3), (40.0, 5e-4))
COUPLING = [[[0.3, 0.0], [0.5, -0.2]], [[0.5, 0.2], [1.0, 0.0]]]


def group_names():
    """The check groups in the order ``command_defect`` calls them."""
    return [name for name in cli.command_defect.__code__.co_names
            if name.startswith("_") and callable(getattr(cli, name, None))]


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peaks(half_width: float, spacing: float) -> tuple:
    """Traced peak, in two-sided complex arrays, and minor page faults, per
    group and in total."""
    config = config_from_dict({"m": 1, "n": 1, "E": COUPLING,
                               "grid": {"T": half_width, "h": spacing}})
    unit = 32 * GridSpec(half_width, spacing).n_nodes
    np.random.default_rng(0)  # numpy.random imports lazily, once
    punctured_line.defect_vectors.cache_clear()
    punctured_line.zero_half.cache_clear()
    result, faults = {}, {}

    def measured(name, group):
        def run(*args):
            tracemalloc.reset_peak()
            before = minor_faults()
            group(*args)
            faults[name] = minor_faults() - before
            result[name] = tracemalloc.get_traced_memory()[1] / unit
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


def main() -> int:
    columns = [peaks(*size) for size in SIZES]
    heads = [f"T={t:g},n={GridSpec(t, h).n_nodes}" for t, h in SIZES]
    for title, index, form in (("peak (two-sided arrays)", 0, ".2f"),
                               ("minor page faults", 1, "d")):
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
