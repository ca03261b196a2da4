"""The report oracle script builds its run list from the benchmark's config
generator; a change there that breaks the list must show here, not only
when someone runs the script. One pass of its runner, in this process,
checks every run's exit code and every Fock rank decision of the runs."""

from pathlib import Path

import numpy as np

from conftest import TOOLS, load_script
from slhkit import cli, fock
from slhkit.linalg import NULLSPACE_TOL

SCRIPT = TOOLS / "report_oracle.py"


def test_run_list_covers_every_subcommand(tmp_path):
    oracle = load_script(SCRIPT)
    oracle.write_configs(tmp_path)
    runs = list(oracle.runs(tmp_path))
    names = [name for name, _ in runs]
    assert len(runs) == len(set(names)) == 34
    assert {args[0] for _, args in runs} == set(oracle.COMMANDS)
    for _, args in runs:
        assert Path(args[args.index("--config") + 1]).is_file()


def test_runner_records_what_escapes_cli_main(tmp_path, monkeypatch):
    # the code python -m slhkit would exit with, and the later runs still run
    escapes = iter([SystemExit(2), SystemExit(None), SystemExit("message"),
                    ValueError("bug")])

    def main(argv):
        exc = next(escapes, None)
        if exc is not None:
            raise exc
        return 0

    monkeypatch.setattr(cli, "main", main)
    oracle = load_script(SCRIPT)
    codes = oracle.run_all(tmp_path)
    assert [name for name, _ in codes] == [
        name for name, _ in oracle.runs(tmp_path)]
    assert [code for _, code in codes] == [2, 0, 1, 1] + [0] * 30


def test_fock_rank_decisions_are_decisive(tmp_path, monkeypatch):
    """Every oracle run exits 0, and every rank decision of the Fock kernel
    solves of its runs keeps singular values at least 100 x the cut
    NULLSPACE_TOL x sigma~ and drops only values at most cut / 100,
    recomputed block by block; all from one pass of the oracle's runner."""
    solve = fock.null_space
    decisions = []

    def recording(block, scale):
        kernel = solve(block, scale)
        sing = np.linalg.svd(block, compute_uv=False)
        decisions.append((block.shape[1] - kernel.shape[1], sing,
                          NULLSPACE_TOL * scale))
        return kernel

    monkeypatch.setattr(fock, "null_space", recording)
    codes = load_script(SCRIPT).run_all(tmp_path)
    assert len(codes) == 34
    assert [name for name, code in codes if code != 0] == []
    assert decisions and max(rank for rank, _, _ in decisions) > 0
    for rank, sing, cut in decisions:
        assert np.sum(sing > cut) == rank
        assert np.all(sing[:rank] >= 100 * cut)
        assert np.all(sing[rank:] <= cut / 100)
