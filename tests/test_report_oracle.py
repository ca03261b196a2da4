"""The report oracle script builds its run list from the benchmark's config
generator; a change there that breaks the list must show here, not only
when someone runs the script."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_oracle.py"


def test_run_list_covers_every_subcommand(tmp_path):
    spec = importlib.util.spec_from_file_location("report_oracle", SCRIPT)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    oracle.write_configs(tmp_path)
    runs = list(oracle.runs(tmp_path))
    names = [name for name, _ in runs]
    assert len(runs) == len(set(names)) == 31
    assert {args[0] for _, args in runs} == set(oracle.COMMANDS)
    for _, args in runs:
        assert Path(args[args.index("--config") + 1]).is_file()
