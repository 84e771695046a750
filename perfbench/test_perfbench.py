"""Tests of the benchmark's own logic: defect checks, self time, expm counts.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import checks
import run
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = ROOT / "src" / "trotterlab" / "scenarios"


def _scenario(name):
    from trotterlab.scenario import parse_scenario
    return parse_scenario((SCENARIOS / name).read_text())


def _run_cli(scenario: str, schedule: str, out: Path) -> int:
    from trotterlab import cli
    return cli.main(["run", str(SCENARIOS / scenario), "--out", str(out),
                     "--schedule", schedule])


def _write_rows(path: Path, rows: list[dict]) -> None:
    lines = [",".join(checks.COLUMNS)]
    lines += [",".join(repr(r[c]) for c in checks.COLUMNS) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _move_one_defect(path: Path, row: int, column: str, delta: float) -> None:
    rows = checks.read_defect_csv(path)
    rows[row][column] += delta
    _write_rows(path, rows)


@pytest.mark.parametrize("scenario, expected", [
    ("counterexample_41.scenario", checks.fock_expected),
    ("affine_42.scenario", checks.affine_expected),
])
def test_defect_check_accepts_program_output_and_rejects_a_moved_defect(
        tmp_path, scenario, expected):
    from trotterlab.scenario import build_schedule

    schedule = "random:1"  # one partition of 8 random parts
    assert _run_cli(scenario, schedule, tmp_path) in (0, 1)
    sc = _scenario(scenario)
    rows = expected(sc, build_schedule(sc, schedule, seed=sc.seed))
    assert checks.check_outputs(tmp_path, rows) == []

    _move_one_defect(tmp_path / "y.csv", 0, "norm_defect", 1e-9)
    problems = checks.check_outputs(tmp_path, rows)
    assert len(problems) == 1 and "norm_defect" in problems[0]


def test_fock_expectation_is_the_closed_form():
    from trotterlab.fock import counterexample_scenario
    from trotterlab.scenario import build_schedule

    sc = _scenario("counterexample_41.scenario")
    rows = checks.fock_expected(sc, build_schedule(sc, "random:3", seed=5))
    uniform = counterexample_scenario(sc.horizon, sizes=(1,)).report_vs_candidate
    for row in rows["y"]:
        assert row["gram_defect"] == pytest.approx(0.0, abs=1e-14)
        assert row["criterion_defect"] == pytest.approx(uniform.criterion_defects[0], abs=1e-14)
        assert row["norm_defect"] == pytest.approx(uniform.norm_defects[0], abs=1e-14)
    assert uniform.norm_defects[0] == pytest.approx(np.exp(0.5) - np.exp(0.25), abs=1e-14)


@pytest.mark.parametrize("workload, schedule", [
    ("affine-dyadic", None), ("affine-random", "random:8")])
def test_recorded_reference_matches_the_stacked_block_evaluator(workload, schedule):
    from trotterlab.scenario import build_schedule

    reference = json.loads((HERE / "references" / f"{workload}.json").read_text())
    sc = _scenario("affine_42.scenario")
    seed = sc.seed if reference["seed"] is None else reference["seed"]
    rows = checks.affine_expected(sc, build_schedule(sc, schedule, seed=seed))
    for name, recorded in reference["rows"].items():
        assert checks.compare_rows(name, recorded, rows[name]) == []


def test_reference_check_rejects_a_moved_defect(tmp_path):
    reference = json.loads((HERE / "references" / "affine-random.json").read_text())
    rows = reference["rows"]["y"]
    _write_rows(tmp_path / "y.csv", rows)
    assert checks.check_outputs(tmp_path, reference["rows"]) == []
    _move_one_defect(tmp_path / "y.csv", len(rows) - 1, "gram_defect", -1e-9)
    assert len(checks.check_outputs(tmp_path, reference["rows"])) == 1


def test_self_time_of_nested_fake_spans():
    # a [0, 10] holds b [1, 6] and d [7, 9]; b holds c [2, 3].
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracer.self_times(start, end, parent).tolist() == [3.0, 4.0, 1.0, 2.0]


def test_tracer_spans_recursion_and_layers_with_a_fake_clock():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def inner(k):
        return fact(k)

    def fact_body(k):
        return 1 if k == 0 else k * traced_inner(k - 1)

    fact = t.wrap("trotter.fact", fact_body)
    traced_inner = t.wrap("algebra.inner", inner)
    assert fact(2) == 2
    s = tracer.summarize(t.names, t.name, t.start, t.end, t.parent, t.flags)
    # Clock: fact 0..9, inner 1..8, fact 2..7, inner 3..6, fact 4..5.
    assert s["trotter.fact"] == {"calls": 3, "total_s": 9.0, "self_s": 2.0 + 2.0 + 1.0}
    assert s["algebra.inner"] == {"calls": 2, "total_s": 7.0, "self_s": 2.0 + 2.0}
    assert s["trotter"]["total_s"] == 9.0 and s["algebra"]["total_s"] == 7.0


def test_stacked_expm_counts_each_matrix():
    t = tracer.Tracer()
    expm = t.wrap(tracer.EXPM, scipy.linalg.expm, t.count_expm)
    expm(np.zeros((3, 2, 2)))
    expm(np.zeros((2, 2)))
    assert t.counters["expm_matrices"] == 4
    assert tracer.summarize(t.names, t.name, t.start, t.end, t.parent,
                            t.flags)[tracer.EXPM]["calls"] == 2


def test_tracer_fails_loudly_when_a_site_is_gone(monkeypatch):
    import trotterlab.units

    monkeypatch.delattr(trotterlab.units, "is_conditionally_cpd")
    with pytest.raises(tracer.TracerError, match="is_conditionally_cpd"):
        tracer.Tracer().install()


def test_traced_child_wraps_every_lookup_site(tmp_path):
    out = tmp_path / "out"
    cmd = [sys.executable, str(HERE / "child.py"), "trace", str(tmp_path / "spans.npz"),
           str(tmp_path / "meta.json"), "--", "run",
           str(SCENARIOS / "counterexample_41.scenario"), "--out", str(out),
           "--schedule", "dyadic:3:4"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode in (0, 1), done.stdout + done.stderr
    with np.load(tmp_path / "spans.npz") as z:
        s = tracer.summarize(list(z["names"]), z["name"], z["start"], z["end"],
                             z["parent"], z["flags"])
    # The CLI's gate, then one extension per expression (y and w_section).
    assert s["kernels.is_conditionally_cpd"]["calls"] == 1 + 2
    # Each expression pairs 5 times per partition (section, target, 3 labels);
    # the 16-part partition recurses once more into the fast path's block.
    assert s["trotter.eval_pairing"]["calls"] == 2 * (5 + 5 + 5)
    assert s["algebra.superop_norm"]["calls"] == 2 * 2
    assert s[tracer.EXPM]["calls"] > 0
    sites = json.loads((tmp_path / "meta.json").read_text())["wrapped_sites"]
    for site in ("trotterlab.cli.is_conditionally_cpd", "trotterlab.units.is_conditionally_cpd",
                 "trotterlab.trotter.superop_norm", "trotterlab.trotter.eval_pairing",
                 "scipy.linalg.expm"):
        assert site in sites


def test_benchmark_json_lists_what_the_harness_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_METRICS
