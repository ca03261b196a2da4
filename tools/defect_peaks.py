"""Print the tracemalloc peak of each check group of ``slhkit defect``.

    PYTHONPATH=src python3 tools/defect_peaks.py

Runs ``cli.command_defect`` in-process at each grid of ``SIZES``, with the
check groups it calls (the module-level ``_...`` functions it names) wrapped
so that each records the traced peak reached while it runs. Memory still
held from earlier groups (the cached defect vectors, the shared zero half)
counts. The unit is one two-sided complex array, 32 bytes per node of a
half-line, the unit of ``punctured_line.DEFECT_LIVE_ARRAYS``; the last row
is the peak of the whole command, the figure that constant bounds.
"""

from __future__ import annotations

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


def peaks(half_width: float, spacing: float) -> dict:
    """Traced peak, in two-sided complex arrays, per group and in total."""
    config = config_from_dict({"m": 1, "n": 1, "E": COUPLING,
                               "grid": {"T": half_width, "h": spacing}})
    unit = 32 * GridSpec(half_width, spacing).n_nodes
    np.random.default_rng(0)  # numpy.random imports lazily, once
    punctured_line.defect_vectors.cache_clear()
    punctured_line.zero_half.cache_clear()
    result = {}

    def measured(name, group):
        def run(*args):
            tracemalloc.reset_peak()
            group(*args)
            result[name] = tracemalloc.get_traced_memory()[1] / unit
        return run

    originals = {name: getattr(cli, name) for name in group_names()}
    for name, group in originals.items():
        setattr(cli, name, measured(name, group))
    tracemalloc.start()
    try:
        cli.command_defect(config, 0, 0, Report("defect", ""))
        total = max(result.values())
    finally:
        tracemalloc.stop()
        for name, group in originals.items():
            setattr(cli, name, group)
    result["command_defect"] = total
    return result


def main() -> int:
    columns = [peaks(*size) for size in SIZES]
    heads = [f"T={t:g},n={GridSpec(t, h).n_nodes}" for t, h in SIZES]
    width = max(len(name) for name in columns[0])
    print(" " * width, *(f"{head:>14}" for head in heads))
    for name in columns[0]:
        print(f"{name:<{width}}", *(f"{column[name]:>14.2f}" for column in columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
