"""Write the byte-identity oracle of the slhkit tree on PYTHONPATH.

    PYTHONPATH=src python3 tools/report_oracle.py OUTDIR

Runs a fixed set of CLI invocations, one ``python -m slhkit`` process each,
and writes every report into OUTDIR together with ``exit_codes.txt`` (one
``<report file> <exit code>`` line per run). A refactor that must not change
any answer shows it with one ``diff -r`` of the directories written before
and after:

* every subcommand on ``configs/example.json``, JSON and CSV, and ``slh``
  and ``fock`` (the subcommands that take ``--sweep``) also with
  ``--sweep 5``;
* ``fock --sweep 3`` on the ``fock-kernel`` and ``fock-coupled`` benchmark
  configs and ``defect`` on the ``grid-defect`` one, seeds 1, 2, 3 and 101;
* ``slh --sweep 50`` on the ``slh-sweep`` config, seed 1;
* ``fock`` on an m = 2 config with a matrix gauge Z and E_l0 = 0, JSON and
  CSV, and ``slh`` on it (the only run that prints G, V, M, F, S, L and H
  under a full Hermitian Z);
* ``fock --sweep 3`` on an m = 2, n = 1 config with a rank-1 E_l0 (one
  coupled block whose identity slot has a non-scalar coefficient) and on an
  (m, n, d) = (1, 3, 3) config with E_l0 = 0 and sigma = 0.3 (three stacked
  boundary rows);
* ``defect`` at the smallest admitted half-width T = 30, where the defect
  vectors' tails sit at the decay tolerance, and h = 2e-3 (15k nodes per
  half-line, a node count no other run uses).

Benchmark configs come from ``perfbench/workloads.generate_config`` and are
written to a temporary directory. BLAS runs single-threaded in every child.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import generate_config  # noqa: E402

COMMANDS = ("slh", "phase", "defect", "scatter", "fock")
SEEDS = (1, 2, 3, 101)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# m = 2, n = 1: E_l0 = 0, so both batteries find a kernel; Z is a full
# Hermitian matrix, so the gauged battery runs the kappa formula off-diagonal.
MATRIX_GAUGE_CONFIG = {
    "m": 2,
    "n": 1,
    "E": [[[0.4, 0.0], [0.1, -0.3], [0.0, 0.0], [0.0, 0.0]],
          [[0.1, 0.3], [-0.2, 0.0], [0.0, 0.0], [0.0, 0.0]],
          [[0.0, 0.0], [0.0, 0.0], [0.9, 0.0], [0.2, 0.5]],
          [[0.0, 0.0], [0.0, 0.0], [0.2, -0.5], [-0.6, 0.0]]],
    "Z": [[[0.3, 0.0], [0.1, 0.2]], [[0.1, -0.2], [-0.4, 0.0]]],
    "fock": {"d": 4},
    "seed": 7,
}

# m = 2, n = 1: E_l0 has rank 1, so the constant term chains every sector into
# one block and its identity slot carries a non-scalar 2 x 2 coefficient.
RANK1_EL0_CONFIG = {
    "m": 2,
    "n": 1,
    "E": [[[0.2, 0.0], [0.1, -0.1], [0.0, 0.0], [7.2, 2.4]],
          [[0.1, 0.1], [-0.4, 0.0], [0.0, 0.0], [0.0, 0.0]],
          [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.2]],
          [[7.2, -2.4], [0.0, 0.0], [0.0, -0.2], [-0.3, 0.0]]],
    "fock": {"d": 5},
    "seed": 11,
}

# (m, n, d) = (1, 3, 3): E_l0 = 0 and a scalar gauge, three stacked rows.
THREE_CHANNEL_CONFIG = {
    "m": 1,
    "n": 3,
    "E": [[[0.2, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
          [[0.0, 0.0], [0.7, 0.0], [0.1, 0.3], [-0.2, 0.1]],
          [[0.0, 0.0], [0.1, -0.3], [-0.5, 0.0], [0.4, 0.0]],
          [[0.0, 0.0], [-0.2, -0.1], [0.4, 0.0], [0.9, 0.0]]],
    "sigma": 0.3,
    "fock": {"d": 3},
    "seed": 13,
}

# T = 30 is punctured_line.MIN_HALF_WIDTH.
MIN_WIDTH_GRID_CONFIG = {
    "m": 1,
    "n": 1,
    "E": [[[0.3, 0.0], [0.5, -0.2]], [[0.5, 0.2], [1.0, 0.0]]],
    "grid": {"T": 30.0, "h": 0.002},
    "seed": 17,
}

EXTRA_FOCK_CONFIGS = {"rank1-el0": RANK1_EL0_CONFIG,
                      "three-channel": THREE_CHANNEL_CONFIG}


def runs(configs: Path):
    """(report file name, CLI arguments) of every oracle run."""
    example = str(ROOT / "configs" / "example.json")
    for command in COMMANDS:
        for fmt in ("json", "csv"):
            for sweep in (0, 5) if command in ("slh", "fock") else (0,):
                yield (f"example.{command}.sweep{sweep}.{fmt}",
                       [command, "--config", example, "--format", fmt,
                        "--sweep", str(sweep)])
    for name, command, sweep in (("fock-kernel", "fock", 3),
                                 ("fock-coupled", "fock", 3),
                                 ("grid-defect", "defect", 0)):
        for seed in SEEDS:
            yield (f"{name}.seed{seed}.json",
                   [command, "--config", str(configs / f"{name}.{seed}.json"),
                    "--sweep", str(sweep)])
    yield ("slh-sweep.seed1.json",
           ["slh", "--config", str(configs / "slh-sweep.1.json"),
            "--sweep", "50"])
    for fmt in ("json", "csv"):
        yield (f"matrix-gauge.fock.{fmt}",
               ["fock", "--config", str(configs / "matrix-gauge.json"),
                "--format", fmt])
    yield ("matrix-gauge.slh.json",
           ["slh", "--config", str(configs / "matrix-gauge.json")])
    for name in EXTRA_FOCK_CONFIGS:
        yield (f"{name}.fock.sweep3.json",
               ["fock", "--config", str(configs / f"{name}.json"),
                "--sweep", "3"])
    yield ("min-width-grid.defect.json",
           ["defect", "--config", str(configs / "min-width-grid.json")])


def write_configs(configs: Path) -> None:
    for name in ("fock-kernel", "fock-coupled", "grid-defect"):
        for seed in SEEDS:
            (configs / f"{name}.{seed}.json").write_bytes(
                generate_config(name, seed))
    (configs / "slh-sweep.1.json").write_bytes(generate_config("slh-sweep", 1))
    (configs / "matrix-gauge.json").write_text(json.dumps(MATRIX_GAUGE_CONFIG))
    for name, config in EXTRA_FOCK_CONFIGS.items():
        (configs / f"{name}.json").write_text(json.dumps(config))
    (configs / "min-width-grid.json").write_text(
        json.dumps(MIN_WIDTH_GRID_CONFIG))


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: report_oracle.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        configs = Path(tmp)
        write_configs(configs)
        for name, args in runs(configs):
            proc = subprocess.run(
                [sys.executable, "-m", "slhkit", *args, "--out", str(out / name)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            codes.append(f"{name} {proc.returncode}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
