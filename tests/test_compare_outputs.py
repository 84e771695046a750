import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)
Outcome = compare_outputs.Outcome

NORM = Outcome(0, stdout=("^y: norm-convergent",))
REFUSAL = Outcome(2, stderr=("^y: numerical breakdown: rounding allowance",), one_line=True)


def outputs(exit_code: int, stdout: str = "", stderr: str = "") -> dict[str, bytes]:
    return {"exit": str(exit_code).encode(), "stdout": stdout.encode(), "stderr": stderr.encode()}


@pytest.mark.parametrize("outcome, run, misses", [
    (NORM, outputs(0, "gate: PASS\ny: norm-convergent (rate 1.0)\n"), []),
    (REFUSAL, outputs(2, stderr="y: numerical breakdown: rounding allowance 1e-3\n"), []),
    (Outcome(2, stderr=("differs from the unit",)),
     outputs(2, stderr="y: extension failed: section value differs from the unit\n"), []),
    (Outcome(2), outputs(0), ["exit 0, expected 2"]),
    (NORM, outputs(0, "y: weak-only\n"), ["no stdout line starts 'y: norm-convergent'"]),
    (NORM, outputs(0, "  note: y: norm-convergent\n"),
     ["no stdout line starts 'y: norm-convergent'"]),
    (REFUSAL, outputs(2, stderr="y: numerical breakdown: rounding allowance\nTraceback\n"),
     ["stderr has 2 lines, expected 1"]),
], ids=["met", "one-line refusal met", "substring met", "exit code", "anchored line missing",
        "line only unanchored", "second stderr line"])
def test_outcome_check_reports_each_miss(outcome, run, misses):
    assert compare_outputs.outcome_misses(outcome, run) == misses
