import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from trotterlab.cli import main
from trotterlab.kernels import (
    kernel_to_json_dict,
    identity_kernel,
    random_christensen_evans,
    scalar_kernel,
)
from trotterlab.scenario import (
    ScenarioParseError,
    build_generator,
    build_schedule,
    parse_expression,
    parse_scenario,
)

CE_SCENARIO = """
dim 2
labels xi1 xi2
generator ce
eta xi1 [[0.01, 0.02], [0.0, -0.01]]
eta xi2 [[0.02, 0.0], [0.01, 0.01]]
beta xi1 [[-0.01, 0.0], [0.005, 0.01]]
beta xi2 [[0.0, (0.01+0.005j)], [-0.02, 0.0]]
matrix B [[0.05, 0.0], [0.0, -0.05]]
expression y = 2*xi1 - 1*xi2
expression z = xi1 * expm(t*B)
horizon 1.0
schedule dyadic 3 5
expect y norm-convergent
seed 9
"""


def bundled(name: str) -> Path:
    return Path(resources.files("trotterlab") / "scenarios" / name)


# -- parsing -----------------------------------------------------------------

def test_parse_and_round_trip():
    scenario = parse_scenario(CE_SCENARIO)
    assert scenario.dim == 2 and scenario.labels == ("xi1", "xi2")
    assert set(scenario.expressions) == {"y", "z"}


def test_bundled_scenarios_round_trip():
    for name in ("counterexample_41.scenario", "affine_42.scenario"):
        scenario = parse_scenario(bundled(name).read_text())
        assert scenario.expressions and scenario.expectations


def test_expression_grammar_terms():
    matrices = {"A": np.diag([1.0, 2.0]).astype(complex),
                "B": np.diag([0.5, 0.25]).astype(complex)}
    labels = ("xi0", "xi1")
    expr = parse_expression("xi0 + A*xi1*B - B*A*xi1", 2, labels, matrices)
    assert len(expr.terms) == 3
    assert np.allclose(expr.terms[1].left, matrices["A"])
    assert np.allclose(expr.terms[1].right, matrices["B"])
    assert np.allclose(expr.terms[2].left, -matrices["B"] @ matrices["A"])

    twisted = parse_expression("expm(t*A) * xi0", 2, labels, matrices)
    assert twisted.terms[0].twist_side == "left"
    joined = parse_expression("concat(xi0@0.25, xi1@0.75)", 2, labels, matrices)
    segments = joined.terms[0].segments
    assert [s.label for s in segments] == ["xi0", "xi1"]
    assert [s.fraction for s in segments] == [0.25, 0.75]


def test_expression_complex_coefficients_via_sums():
    expr = parse_expression("2*u + 1j*u - 1*v - 1j*v", 1, ("u", "v"), {})
    total = sum(t.left[0, 0] * t.right[0, 0] for t in expr.terms)
    assert total == pytest.approx(1.0)


def test_expression_errors_carry_positions():
    with pytest.raises(ScenarioParseError) as info:
        parse_expression("2*q", 1, ("u",), {}, line=7)
    assert "line 7" in str(info.value) and "q" in str(info.value)
    with pytest.raises(ScenarioParseError):
        parse_expression("u*v", 1, ("u", "v"), {})  # two unit factors
    with pytest.raises(ScenarioParseError):
        parse_expression("2*3", 1, ("u",), {})  # no unit factor
    with pytest.raises(ScenarioParseError):
        parse_expression("concat(u@0.5, v@0.6)", 1, ("u", "v"), {})


def test_scenario_error_reporting():
    with pytest.raises(ScenarioParseError, match="line 1"):
        parse_scenario("bogus directive\n")
    with pytest.raises(ScenarioParseError, match="dim"):
        parse_scenario("labels u\ngenerator gamma [[0]]\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("dim 1\nlabels u\ngenerator gamma [[0]]\nexpect y weak-only\n")


@pytest.mark.parametrize("bad", ["dim two", "horizon abc", "horizon inf", "seed 1.5",
                                 "schedule dyadic 3 x", "threshold convergent_defect x",
                                 "matrix M [[1e999]]", "threshold bogus 1",
                                 "expression y = concat(u@0.5j, u@1)",
                                 "expression y = concat(u@0.5, u@0.5, u@0)",
                                 "expression y = 1e999*u"])
def test_cli_malformed_scenario_numbers(tmp_path, capsys, bad):
    scenario_path = tmp_path / "bad.scenario"
    scenario_path.write_text(f"dim 1\nlabels u\ngenerator gamma [[0.0]]\n{bad}\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    assert "line 4" in capsys.readouterr().err


MALFORMED_SPECS = ("dyadic:3:x", "random:")


@pytest.mark.parametrize("override, directive", [
    ("dyadic:5:3", ""), ("random:0", ""), *((spec, "") for spec in MALFORMED_SPECS),
    (None, "schedule dyadic 9 4\n"), (None, "schedule random 0\n")])
def test_cli_rejects_empty_schedules(tmp_path, capsys, override, directive):
    scenario_path = tmp_path / "empty.scenario"
    scenario_path.write_text(
        f"dim 1\nlabels u\ngenerator gamma [[0.0]]\nexpression y = u\n{directive}")
    args = ["run", str(scenario_path), "--out", str(tmp_path / "out")]
    if override:
        args += ["--schedule", override]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "schedule" in err
    if override in MALFORMED_SPECS:
        assert f"bad schedule spec {override!r}" in err


def test_build_generator_and_schedule(tmp_path):
    scenario = parse_scenario(CE_SCENARIO)
    generator = build_generator(scenario)
    assert generator.labels == ("xi1", "xi2") and generator.dim == 2
    schedule = build_schedule(scenario)
    assert [p.size for p in schedule] == [8, 16, 32]
    override = build_schedule(scenario, "dyadic:2:4")
    assert [p.size for p in override] == [4, 8, 16]
    randomized = build_schedule(scenario, "random:5", seed=3)
    assert len(randomized) == 5
    assert randomized[-1].norm < randomized[0].norm

    kernel_path = tmp_path / "kernel.json"
    kernel_path.write_text(json.dumps(kernel_to_json_dict(
        scalar_kernel(np.array([[0.0]]), ("u",)))))
    text = f"dim 1\nlabels u\ngenerator kernel {kernel_path.name}\n"
    from_kernel = parse_scenario(text)
    loaded = build_generator(from_kernel, base_dir=tmp_path)
    assert loaded.labels == ("u",)


# -- command line ---------------------------------------------------------------

def test_cli_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_cli_run_counterexample(tmp_path, capsys):
    code = main(["run", str(bundled("counterexample_41.scenario")),
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "weak-only" in out and "norm-convergent" in out
    assert (tmp_path / "y.csv").exists() and (tmp_path / "y.json").exists()
    report = json.loads((tmp_path / "y.json").read_text())
    assert report["verdict"] == "weak-only"
    assert report["criterion_defects"][-1] == pytest.approx(
        np.exp(0.5) - np.exp(0.25), abs=1e-12)


def test_cli_run_affine(tmp_path, capsys):
    code = main(["run", str(bundled("affine_42.scenario")), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "norm-convergent" in out
    report = json.loads((tmp_path / "y.json").read_text())
    assert 0.9 <= report["criterion_rate"] <= 1.1


@pytest.mark.parametrize("scenario, schedule, names, code", [
    ("counterexample_41", [], ("y.csv", "w_section.csv", "y.json"), 0),
    ("affine_42", ["--schedule", "random:3"], ("y.csv", "y.json"), None)],
    ids=["counterexample_41", "affine_42-random:3"])
def test_cli_outputs_are_deterministic(tmp_path, scenario, schedule, names, code):
    # The seeded random schedule must draw the same partitions on every run.
    # Its verdict is not pinned here (code None), only its reproducibility.
    out1, out2 = tmp_path / "a", tmp_path / "b"
    codes = [main(["run", str(bundled(f"{scenario}.scenario")), "--out", str(out), *schedule])
             for out in (out1, out2)]
    assert codes[0] == codes[1] and code in (None, codes[0])
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_expectation_mismatch(tmp_path, capsys):
    text = bundled("counterexample_41.scenario").read_text().replace(
        "expect y weak-only", "expect y norm-convergent")
    scenario_path = tmp_path / "wrong.scenario"
    scenario_path.write_text(text)
    code = main(["run", str(scenario_path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "expected norm-convergent, got weak-only" in out


def test_cli_gate_failure(tmp_path, capsys):
    scenario_path = tmp_path / "gate.scenario"
    scenario_path.write_text(
        "dim 1\nlabels u v\ngenerator gamma [[0.0, 2.0], [2.0, -6.0]]\n"
        "expression y = u\nhorizon 1.0\nschedule dyadic 3 4\nseed 1\n")
    code = main(["run", str(scenario_path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in out and "witness" in out


@pytest.mark.filterwarnings("error")
def test_cli_overflow_is_a_numerical_breakdown(tmp_path, capsys):
    scenario_path = tmp_path / "overflow.scenario"
    scenario_path.write_text(
        "dim 1\nlabels u\ngenerator gamma [[1e300]]\nexpression y = u\n"
        "schedule dyadic 3 4\n")
    code = main(["run", str(scenario_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("y: numerical breakdown: ") and "partition size 8" in err


def test_cli_empty_expression_list_gate_only(tmp_path, capsys):
    scenario_path = tmp_path / "gate_only.scenario"
    scenario_path.write_text(
        "dim 1\nlabels u\ngenerator gamma [[0.0]]\nhorizon 1.0\n"
        "schedule dyadic 3 4\nseed 1\n")
    code = main(["run", str(scenario_path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "gate" in out and "PASS" in out


def test_cli_malformed_scenario(tmp_path, capsys):
    scenario_path = tmp_path / "bad.scenario"
    scenario_path.write_text("dim 1\nwat\n")
    assert main(["run", str(scenario_path)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_cli_validate_identity(tmp_path, capsys):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(kernel_to_json_dict(identity_kernel(("a", "b"), 2))))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "completely positive definite: PASS" in out
    assert "conditionally completely positive definite: PASS" in out


def test_cli_validate_indefinite_scalar(tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(kernel_to_json_dict(
        scalar_kernel(np.array([[1.0, 2.0], [2.0, 1.0]]), ("u", "v")))))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "completely positive definite: FAIL" in out
    assert "witness" in out and "-1.0" in out


def test_cli_validate_generator_conditional_only(tmp_path, capsys):
    rng = np.random.default_rng(11)
    generator = random_christensen_evans(("a", "b"), 2, rng, scale=0.8)
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(kernel_to_json_dict(generator)))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "completely positive definite: FAIL" in out
    assert "conditionally completely positive definite: PASS" in out


@pytest.mark.parametrize("document", [
    '{"dim": 2}',
    '{"dim": 1, "labels": ["a"], "entries": {"a|a": [1]}}',
    '{"dim": 1, "labels": ["a"], "entries": {"a|a": [["x", 0]]}}',
    '{"dim": 1, "labels": ["a"], "entries": {"a|a": 5}}',
    '{"dim": 1, "labels": ["a"], "entries": {"a|a": [[NaN, 0]]}}',
    '{"dim": 1, "labels": ["a"], "entries": {"a|a": [[Infinity, 0]]}}',
    '{"dim": 1, "labels": "ab", "entries": {"a|a": [[1, 0]], "a|b": [[0, 0]], '
    '"b|a": [[0, 0]], "b|b": [[1, 0]]}}'],
    ids=["dim-only", "bare-number", "string-value", "entry-not-list", "nan", "infinity",
         "string-labels"])
def test_cli_validate_malformed(tmp_path, capsys, document):
    path = tmp_path / "broken.json"
    path.write_text(document)
    assert main(["validate", str(path)]) == 3
    assert "malformed" in capsys.readouterr().err
