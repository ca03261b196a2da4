"""``tools/defect_peaks.py`` finds the check groups of ``cli.command_defect``
by the names that function uses; a renamed or added group must show up."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "defect_peaks.py"


def test_tool_finds_every_check_group_in_call_order():
    spec = importlib.util.spec_from_file_location("defect_peaks", TOOL)
    tool = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tool
    spec.loader.exec_module(tool)
    assert tool.group_names() == [
        "_defect_vector_checks", "_reproducing_checks", "_decomposition_checks",
        "_eigenrelation_checks", "_jump_splitting_check", "_symmetry_checks",
        "_extension_check"]
