"""Smoke test of the stage-bench row function (no timing gate): one row of
``tools/bench.py`` on this tree at (m, n, d) = (1, 2, 3)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


@pytest.mark.parametrize("guarded", [False, True])
def test_row_records_dims_certificates_and_sigma_max(guarded):
    result = load_bench().row(1, 2, 3, guarded, False)
    assert set(result) == {"seconds", "dim", "sector_dims", "certified",
                           "sigma_max"}
    sectors = 4 * (1 if guarded else 2) + 1
    assert len(result["sector_dims"]) == sectors
    assert sum(result["sector_dims"]) == result["dim"] > 0
    assert 0 < result["certified"] < sectors
    assert result["sigma_max"] > 0 and result["seconds"] >= 0


def test_row_with_generic_el0_is_one_certified_block():
    result = load_bench().row(1, 2, 3, False, True)
    assert result["dim"] == 0 and result["certified"] == 1
    assert not any(result["sector_dims"])
