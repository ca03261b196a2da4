"""``tools/defect_peaks.py`` finds the check groups of ``cli.command_defect``
by the names that function uses; a renamed or added group must show up. Its
end-to-end figure, the peak-RSS growth of one ``command_defect`` in a fresh
child, must come back as a number."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "defect_peaks.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("defect_peaks", TOOL)
    tool = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tool
    spec.loader.exec_module(tool)
    return tool


def test_tool_finds_every_check_group_in_call_order():
    assert load_tool().group_names() == [
        "_defect_vector_checks", "_reproducing_checks", "_decomposition_checks",
        "_eigenrelation_checks", "_jump_splitting_check", "_symmetry_checks",
        "_extension_check"]


def test_rss_growth_runs_one_command_in_a_fresh_child():
    # The child's ru_maxrss starts at this process's peak, so only the
    # type and the range are pinned, not the size of the growth.
    growth = load_tool().rss_growth(30.0, 3e-3)
    assert isinstance(growth, float) and 0.0 <= growth < 64.0
