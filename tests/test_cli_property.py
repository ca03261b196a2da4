"""Property of the command-line flags: fuzzed ``--seed``, ``--sweep`` and
``--format`` through ``cli.main`` for all five subcommands: ``defect`` on
coarse grids of at most 400 nodes per half-line and ``fock`` at d = 3, each
ungauged and at sigma = 0.3.

Every run exits 0, 1 or 2 without an escaping exception; it exits 2 exactly
when a flag is refused (a negative ``--seed`` or ``--sweep``, or a nonzero
``--sweep`` for a subcommand that takes none), and then prints exactly one
``config error:`` line and writes no report."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from slhkit import cli

COUPLING = [[[0.3, 0.0], [0.5, -0.2]], [[0.5, 0.2], [1.0, 0.0]]]
# (T, h) of the defect grids: 300 or 400 nodes per half-line
GRIDS = ((30.0, 0.1), (40.0, 0.1), (30.0, 0.125))
SEEDS = st.one_of(st.none(), st.integers(-3, 3),
                  st.integers(-2 ** 70, 2 ** 70),
                  st.sampled_from((2 ** 63, 2 ** 64, -2 ** 64)))
SWEEPS = st.one_of(st.none(), st.integers(-3, 3))
FORMATS = st.sampled_from((None, "json", "csv"))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(tuple(cli.COMMANDS)), SEEDS, SWEEPS, FORMATS,
       st.sampled_from(GRIDS), st.sampled_from((None, 0.3)))
def test_flags_exit_cleanly(command, seed, sweep, fmt, grid, sigma):
    config = {"m": 1, "n": 1, "E": COUPLING, "sigma": sigma,
              "grid": {"T": grid[0], "h": grid[1]}, "fock": {"d": 3}}
    argv = [command]
    for flag, value in (("--seed", seed), ("--sweep", sweep),
                        ("--format", fmt)):
        if value is not None:
            argv += [flag, str(value)]
    refused = ((seed or 0) < 0 or (sweep or 0) < 0
               or (bool(sweep) and command not in cli.SWEEP_COMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert (code == 2) == refused
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: ")
            assert not out.exists()
