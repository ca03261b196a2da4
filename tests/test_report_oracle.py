"""The report oracle script builds its run list from the benchmark's config
generator; a change there that breaks the list must show here, not only
when someone runs the script."""

import importlib.util
from pathlib import Path

import numpy as np

from slhkit import cli, fock
from slhkit.linalg import NULLSPACE_TOL

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_oracle.py"


def load_oracle():
    spec = importlib.util.spec_from_file_location("report_oracle", SCRIPT)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def test_run_list_covers_every_subcommand(tmp_path):
    oracle = load_oracle()
    oracle.write_configs(tmp_path)
    runs = list(oracle.runs(tmp_path))
    names = [name for name, _ in runs]
    assert len(runs) == len(set(names)) == 33
    assert {args[0] for _, args in runs} == set(oracle.COMMANDS)
    for _, args in runs:
        assert Path(args[args.index("--config") + 1]).is_file()


def test_fock_rank_decisions_are_decisive(tmp_path, monkeypatch):
    """Every rank decision of the Fock kernel solves of the oracle's JSON
    fock runs keeps singular values at least 100 x the cut NULLSPACE_TOL x
    sigma~ and drops only values at most cut / 100, recomputed block by
    block."""
    oracle = load_oracle()
    oracle.write_configs(tmp_path)
    solve = fock.null_space
    decisions = []

    def recording(block, scale):
        kernel = solve(block, scale)
        cut = NULLSPACE_TOL * scale
        sing = np.linalg.svd(block, compute_uv=False)
        rank = block.shape[1] - kernel.shape[1]
        assert np.sum(sing > cut) == rank
        assert np.all(sing[:rank] >= 100 * cut)
        assert np.all(sing[rank:] <= cut / 100)
        decisions.append(rank)
        return kernel

    monkeypatch.setattr(fock, "null_space", recording)
    fock_runs = [(name, args) for name, args in oracle.runs(tmp_path)
                 if args[0] == "fock" and name.endswith(".json")]
    assert len(fock_runs) == 13
    for name, args in fock_runs:
        assert cli.main([*args, "--out", str(tmp_path / name)]) == 0
    assert decisions and max(decisions) > 0
