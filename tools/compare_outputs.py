"""Compare the command line outputs of two source trees, and check the second's outcomes.

    python tools/compare_outputs.py TREE_A TREE_B

Each case runs once per tree, each time in a fresh process with
``OPENBLAS_NUM_THREADS=1``, ``PYTHONPATH=<tree>/src`` and every warning an
error, in a fresh working directory that holds the case's scenario or
kernel document under the same relative name.  Stdout, stderr, the exit
code and every file written to the output directory (CSV and JSON reports)
are compared byte for byte.  A case with an expected :class:`Outcome` also
has TREE_B's run checked against it; TREE_A may be a parent whose outcomes
differ.  One row is printed per case; each differing stream is shown below
the table by its first differing line, and each missed expectation by what
was missed.  The exit code is 1 when any case differs or misses, else 0.
Passing the same tree twice checks that the outputs are deterministic and
as expected.  Nothing is timed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Outcome(NamedTuple):
    """What a case's run must show: its exit code and some lines of stdout and stderr.

    A pattern that starts with ``^`` must begin a line, as grep anchors it;
    any other must occur within one.  ``one_line``: stderr is a single line.
    """

    exit: int
    stdout: tuple[str, ...] = ()
    stderr: tuple[str, ...] = ()
    one_line: bool = False


_OK, _NORM = Outcome(0), Outcome(0, stdout=("^y: norm-convergent",))
_CCPD = "^conditionally completely positive definite: PASS"
_TWISTED = (
    "dim 2\nlabels u v\ngenerator ce\neta u [[0.1, 0.2], [0, 0.1j]]\n"
    "eta v [[0.2, 0], [0.1, -0.1]]\nbeta u [[-0.05, 0.1], [0, 0.02]]\n"
    "beta v [[0.03, 0], [0.1j, -0.04]]\nmatrix A [[1, 0.5], [0, 1]]\n"
    "matrix B [[0.1, 0.2], [-0.2, 0.05]]\nmatrix C [[1, -0.5], [0, 1]]\n"
    "expression y = A*u*expm(t*B)*C\nexpression z = expm(t*B)*concat(u@0.5, v@0.5)\n"
    "schedule dyadic 3 8\nexpect y norm-convergent\nexpect z weak-only\n")
_F6 = "10000000*concat(u@0.5, v@0.5) - 9999999*concat(u@0.5, v@0.5)"

# name -> (input file name, its text or None for the tree's bundled scenario, CLI arguments,
#          the Outcome TREE_B must show or None).  A scenario's expect lines make a run
# exit 1 on a verdict they do not name.  F3, F6, the gate refusal and affine_42 dyadic:3:4
# expect nothing: F3 and F6 are known defects, which an expectation would turn into checks.
CASES = {
    "affine_42": ("affine_42.scenario", None, [], _OK),
    "affine_42 random:8": ("affine_42.scenario", None, ["--schedule", "random:8"], _NORM),
    "affine_42 dyadic:3:4": ("affine_42.scenario", None, ["--schedule", "dyadic:3:4"], None),
    "counterexample_41": ("counterexample_41.scenario", None, [], _OK),
    "counterexample_41 random:8": ("counterexample_41.scenario", None,
                                   ["--schedule", "random:8"], _OK),
    "counterexample_41 dyadic:3:4": ("counterexample_41.scenario", None,
                                     ["--schedule", "dyadic:3:4"], _OK),
    "cancelling": ("case.scenario", "dim 1\nlabels u v\ngenerator gamma [[0.7, 0.3], [0.3, 0.9]]\n"
                   "expression y = 30*u - 29*u\nschedule dyadic 3 6\n", [], _NORM),
    "near-unit": ("case.scenario",
                  "dim 1\nlabels u\ngenerator gamma [[1.0]]\nexpression y = 1.0000000001*u\n", [],
                  Outcome(2, stderr=("differs from the unit",))),
    "twisted": ("case.scenario", _TWISTED, [], _OK),
    "twisted random:4": ("case.scenario", _TWISTED, ["--schedule", "random:4"], _OK),
    "near-equal": ("case.scenario", "dim 1\nlabels u v\n"
                   "generator gamma [[1.0, 1.0], [1.0, 1.00000000000001]]\n"
                   "expression y = concat(u@0.5, v@0.5)\nschedule dyadic 3 6\n", [],
                   Outcome(0, stdout=("^y: weak-only",))),
    "overflow": ("case.scenario", "dim 2\nlabels u\ngenerator ce\neta u [[0.1, 0], [0, 0.2]]\n"
                 "beta u [[0, 0], [0, 0]]\nmatrix A [[1e200, 0], [0, 0]]\n"
                 "matrix B [[0, 0], [0, 1e200]]\nexpression y = A*u*B + u\n", [],
                 Outcome(2, stderr=("^y: extension failed: the magnitudes of the extended "
                                    "kernel are not finite",), one_line=True)),
    "padding": ("case.scenario", "dim 1\nlabels u v w\n"
                "generator gamma [[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 0.25]]\n"
                "expression y = concat(u@0.5, v@0.5) + 100000000*v - 100000000*v\n"
                "schedule dyadic 3 4\ncandidate y w\n", [],
                Outcome(2, stderr=("^y: numerical breakdown: rounding allowance",),
                        one_line=True)),
    "F3 overflowing pairing": ("case.scenario", "dim 1\nlabels u v\n"
                               "generator gamma [[0.7, 0.3], [0.3, 0.9]]\n"
                               "expression y = 3000*u - 2999*v\nschedule dyadic 3 6\n", [],
                               None),
    "F6 c = 1e7": ("case.scenario", "dim 1\nlabels u v\n"
                   "generator gamma [[0.0, -10.0], [-10.0, 0.0]]\n"
                   f"expression y = {_F6}\nschedule dyadic 3 6\n", [], None),
    "gate refusal": ("case.scenario", "dim 1\nlabels u v\n"
                     "generator gamma [[0.0, 2.0], [2.0, -6.0]]\nexpression y = u\n", [], None),
    "validate identity": ("identity.json",
                          '{"dim": 1, "labels": ["a"], "entries": {"a|a": [[1.0, 0.0]]}}\n', [],
                          Outcome(0, stdout=("^completely positive definite: PASS", _CCPD))),
    "validate indefinite": ("indefinite.json", '{"dim": 1, "labels": ["u", "v"], "entries": '
                            '{"u|u": [[1e6, 0.0]], "u|v": [[0.0, 0.0]], "v|u": [[0.0, 0.0]], '
                            '"v|v": [[-1e-5, 0.0]]}}\n', [],
                            Outcome(0, stdout=("^completely positive definite: FAIL", _CCPD))),
}


def run_case(tree: Path, workdir: Path, case: tuple) -> dict[str, bytes]:
    """Every output of one case in one tree, keyed by stream or written file."""
    name, text, extra, _ = case
    source = tree / "src" / "trotterlab" / "scenarios" / name if text is None else None
    (workdir / name).write_bytes(source.read_bytes() if source else text.encode())
    command = ["validate", name] if name.endswith(".json") else ["run", name, "--out", "out"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree.resolve() / "src"))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "trotterlab.cli", *command,
                           *extra], cwd=workdir, env=env, capture_output=True, timeout=300)
    outputs = {"exit": str(done.returncode).encode(), "stdout": done.stdout,
               "stderr": done.stderr}
    out = workdir / "out"
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        outputs[path.name] = path.read_bytes()
    return outputs


def outcome_misses(outcome: Outcome, outputs: dict[str, bytes]) -> list[str]:
    """What of ``outcome`` one run's outputs miss, one phrase each; empty when all is met."""
    code = outputs["exit"].decode()
    misses = [] if code == str(outcome.exit) else [f"exit {code}, expected {outcome.exit}"]
    for stream in ("stdout", "stderr"):
        lines = outputs[stream].decode(errors="replace").splitlines()
        for pattern in getattr(outcome, stream):
            anchored, text = pattern.startswith("^"), pattern.removeprefix("^")
            if not any(line.startswith(text) if anchored else text in line for line in lines):
                misses.append(f"no {stream} line {'starts' if anchored else 'contains'} {text!r}")
        if stream == "stderr" and outcome.one_line and len(lines) != 1:
            misses.append(f"stderr has {len(lines)} lines, expected 1")
    return misses


def first_difference(a: bytes, b: bytes) -> tuple[str, str]:
    """The first line at which two outputs differ, ``<end>`` past the last one."""
    lines_a, lines_b = ([*x.decode(errors="replace").splitlines(), "<end>"] for x in (a, b))
    for line_a, line_b in zip(lines_a, lines_b):
        if line_a != line_b:
            return line_a, line_b
    return "<end>", "<end>"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [Path(arg) for arg in argv]
    print("| case | exit | stdout | stderr | files | result | outcome |\n"
          "|---|---|---|---|---|---|---|")
    details, differing, missed = [], 0, 0
    with tempfile.TemporaryDirectory() as scratch:
        for index, (label, case) in enumerate(CASES.items()):
            runs = []
            for side, tree in enumerate(trees):
                workdir = Path(scratch) / f"{index}-{side}"
                workdir.mkdir()
                runs.append(run_case(tree, workdir, case))
            a, b = runs
            keys = sorted(set(a) | set(b))
            diff = [key for key in keys if a.get(key) != b.get(key)]
            files = [key for key in keys if key not in ("exit", "stdout", "stderr")]
            mark = {key: "DIFF" if key in diff else "same" for key in ("stdout", "stderr")}
            exit_ = a["exit"].decode() if a["exit"] == b["exit"] else (
                f"{a['exit'].decode()} / {b['exit'].decode()}")
            filed = sum(key in diff for key in files)
            outcome = case[3]
            misses = outcome_misses(outcome, b) if outcome else []
            print(f"| {label} | {exit_} | {mark['stdout']} | {mark['stderr']} | "
                  f"{len(files)}{f', {filed} DIFF' if filed else ' same'} | "
                  f"{'DIFF' if diff else 'identical'} | "
                  f"{'-' if outcome is None else 'MISSED' if misses else 'met'} |")
            differing += bool(diff)
            missed += bool(misses)
            for key in diff:
                line_a, line_b = first_difference(a.get(key, b""), b.get(key, b""))
                details.append(f"{label}: {key} differs\n  A: {line_a}\n  B: {line_b}")
            details += [f"{label}: outcome missed: {miss}" for miss in misses]
    for detail in details:
        print(f"\n{detail}")
    expected = sum(case[3] is not None for case in CASES.values())
    print(f"\n{len(CASES) - differing} of {len(CASES)} cases byte-identical; "
          f"{expected - missed} of {expected} expected outcomes met")
    return 1 if differing or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
