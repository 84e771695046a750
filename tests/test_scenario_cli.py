import json
import os
import subprocess
import sys
from functools import reduce
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trotterlab
from trotterlab.cli import main
from trotterlab.kernels import scalar_kernel
from trotterlab.scenario import (
    _DIRECTIVES,
    ScenarioParseError,
    build_generator,
    build_schedule,
    parse_expression,
    parse_scenario,
)
from trotterlab.units import Segment, Term, UnitExpression

from builders import identity_kernel, kernel_to_json_dict, random_christensen_evans

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


@pytest.mark.parametrize("spelling, plain", [
    ("2*(u)", "2*u"), ("(2*u) - (v)", "2*u - v"), ("0x10*u", "16*u"), ("1_000*u", "1000*u"),
    ("concat(u@0.5, v@0.5,)", "concat(u@0.5, v@0.5)"), ("+2*u - v", "2*u - v"),
    ("2*u + -v", "2*u - v"), ("2*u + -1*v", "2*u - 1*v"), ("+v + -(2*u)", "v - 2*u")])
def test_expression_python_spellings_keep_their_meaning(spelling, plain):
    parsed, expected = (parse_expression(text, 1, ("u", "v"), {}) for text in (spelling, plain))
    assert_same_terms(parsed.terms, expected.terms)


def assert_same_terms(got_terms, want_terms):
    assert len(got_terms) == len(want_terms)
    for got, want in zip(got_terms, want_terms):
        assert np.array_equal(got.left, want.left) and np.array_equal(got.right, want.right)
        assert got.segments == want.segments


@pytest.mark.parametrize("signed", ["-1*xi2 + 2*xi1", "-xi2 + 2*xi1"])
def test_expression_leading_sign_is_a_multiplier(signed):
    # A sign in front of a number or of a whole term is the multiplier -1 or +1.
    plain = parse_expression("2*xi1 - xi2", 2, ("xi1", "xi2"), {})
    parsed = parse_expression(signed, 2, ("xi1", "xi2"), {})
    assert_same_terms(parsed.terms, plain.terms[::-1])


def test_expression_signed_fraction_is_refused_as_non_positive():
    with pytest.raises(ScenarioParseError) as info:
        parse_expression("concat(xi1@-0.5, xi2@1.5)", 2, ("xi1", "xi2"), {}, line=4)
    assert str(info.value) == "line 4, col 12: segment fraction '-0.5' must be real and positive"


# Property test of the expression grammar: a random sum of signed products,
# written as text and built directly from Terms, must parse to those Terms.
GRAMMAR_LABELS = ("u", "v", "w")
GRAMMAR_MATRICES = {name: np.random.default_rng(seed).normal(size=(2, 2, 2)) @ (1, 1j)
                    for seed, name in enumerate(("A", "B"))}
SCALARS = st.one_of(
    st.integers(0, 99).map(lambda n: (str(n), complex(n))),
    st.floats(0.0, 99.0).map(lambda x: (repr(x), complex(x))),
    st.floats(0.0, 99.0).map(lambda x: (f"{x!r}j", complex(0.0, x))))
FACTORS = st.one_of(SCALARS, st.sampled_from(sorted(GRAMMAR_MATRICES)).map(
    lambda name: (name, GRAMMAR_MATRICES[name])))


@st.composite
def units(draw):
    """``(text, segments)`` of a unit label or a ``concat`` group."""
    if draw(st.booleans()):
        label = draw(st.sampled_from(GRAMMAR_LABELS))
        return label, (Segment(label, 1.0),)
    parts = draw(st.lists(st.tuples(st.sampled_from(GRAMMAR_LABELS), st.integers(1, 9)),
                          min_size=1, max_size=3))
    total = sum(weight for _, weight in parts)
    segments = tuple(Segment(label, weight / total) for label, weight in parts)
    body = ", ".join(f"{s.label}@{s.fraction!r}" for s in segments)
    return f"concat({body})", segments


@st.composite
def terms(draw, sign):
    """``(text, term)`` of ``left factors * unit * right factors``, maybe with one twist."""
    lefts, rights = draw(st.lists(FACTORS, max_size=2)), draw(st.lists(FACTORS, max_size=2))
    unit_text, segments = draw(units())
    side = draw(st.sampled_from(("none", "left", "right")))
    twist = None
    texts = {"left": [text for text, _ in lefts], "right": [text for text, _ in rights]}
    if side != "none":
        name = draw(st.sampled_from(sorted(GRAMMAR_MATRICES)))
        twist = GRAMMAR_MATRICES[name]
        texts[side].insert(len(texts[side]) if side == "left" else 0, f"expm(t*{name})")
    eye = np.eye(2, dtype=complex)
    left = reduce(np.matmul, [sign * eye] + [v * eye if np.ndim(v) == 0 else v for _, v in lefts])
    right = reduce(np.matmul, [eye] + [v * eye if np.ndim(v) == 0 else v for _, v in rights])
    op = draw(st.sampled_from(("*", " * ")))
    text = op.join(texts["left"] + [unit_text] + texts["right"])
    return text, Term(left, right, segments, twist=twist, twist_side=side)


@st.composite
def expressions(draw):
    signs = [1.0] + draw(st.lists(st.sampled_from((1.0, -1.0)), max_size=3))
    drawn = [draw(terms(sign)) for sign in signs]
    text = drawn[0][0] + "".join(
        f" {'+' if sign > 0 else '-'} {t}" for sign, (t, _) in zip(signs[1:], drawn[1:]))
    return text, UnitExpression(2, tuple(term for _, term in drawn))


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_expression_grammar_property(case):
    text, expected = case
    parsed = parse_expression(text, 2, GRAMMAR_LABELS, GRAMMAR_MATRICES)
    assert len(parsed.terms) == len(expected.terms)
    for got, want in zip(parsed.terms, expected.terms):
        for side in ("left", "right"):  # same products, possibly in another rounding order
            want_side = getattr(want, side)
            assert np.allclose(getattr(got, side), want_side, rtol=0.0,
                               atol=1e-13 * max(1.0, np.abs(want_side).max()))
        assert got.segments == want.segments
        assert got.twist_side == want.twist_side
        if want.twist is None:
            assert got.twist is None
        else:
            assert np.array_equal(got.twist, want.twist)


TWIST_MATRICES = {"A": np.array([[1, 1], [0, 1]], dtype=complex),
                  "B": np.array([[0, 1], [0, 0]], dtype=complex),
                  "C": np.array([[1, 0], [1, 1]], dtype=complex)}


@pytest.mark.parametrize("text, col", [
    ("A*expm(t*B)*C*xi1", 3), ("expm(t*B)*A*C*xi1", 1),
    ("xi1*A*expm(t*B)*C", 7), ("xi1*A*C*expm(t*B)", 9), ("2*xi1 - A*expm(t * B)*C*xi1", 11)])
def test_expression_twist_must_stand_next_to_the_unit(text, col):
    with pytest.raises(ScenarioParseError) as info:
        parse_expression(text, 2, ("xi1",), TWIST_MATRICES, line=5)
    twist = "expm(t * B)" if "t * B" in text else "expm(t*B)"
    assert str(info.value) == f"line 5, col {col}: {twist} must stand next to the unit factor"


@pytest.mark.parametrize("expr, col", [
    ("1e200*1e200*u", 1), ("1e200*u*1e200j", 1), ("1e200*u*1e200", 1), ("u - 1e200*u*1e200", 5)])
def test_cli_refuses_non_finite_multipliers(tmp_path, capsys, expr, col):
    scenario_path = tmp_path / "huge.scenario"
    scenario_path.write_text(f"dim 1\nlabels u\ngenerator gamma [[1.0]]\nexpression y = {expr}\n"
                             "schedule dyadic 3 4\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    term = expr.split(" - ")[-1]
    assert capsys.readouterr().err == (
        f"{scenario_path}: line 4, col {col}: term {term!r}: its multipliers or their product "
        "are not finite\n")


def test_scenario_error_reporting():
    with pytest.raises(ScenarioParseError, match="line 1"):
        parse_scenario("bogus directive\n")
    with pytest.raises(ScenarioParseError, match="dim"):
        parse_scenario("labels u\ngenerator gamma [[0]]\n")
    with pytest.raises(ScenarioParseError, match="^missing 'labels' directive$"):
        parse_scenario("dim 1\ngenerator gamma [[0]]\n")
    with pytest.raises(ScenarioParseError, match="^missing 'generator' directive$"):
        parse_scenario("dim 1\nlabels u\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("dim 1\nlabels u\ngenerator gamma [[0]]\nexpect y weak-only\n")


EVERY_DIRECTIVE_SCENARIO = CE_SCENARIO + "candidate z xi1\n"
GAMMA_SCENARIO = "dim 1\nlabels u v\ngenerator gamma [[1.0, 0.5], [0.5, 1.0]]\nexpression y = u\n"


@pytest.mark.parametrize("text, directive", [
    *((EVERY_DIRECTIVE_SCENARIO, head) for head in sorted(_DIRECTIVES)),
    (GAMMA_SCENARIO, "generator")], ids=[*sorted(_DIRECTIVES), "generator-gamma"])
def test_directive_fields_split_at_tabs(text, directive):
    lines = text.splitlines()
    tabbed = [line.replace(" ", "\t") if line.split(" ", 1)[0] == directive else line
              for line in lines]
    assert tabbed != lines
    assert repr(parse_scenario("\n".join(tabbed))) == repr(parse_scenario(text))


@pytest.mark.parametrize("bad", ["dim two", "horizon abc", "horizon inf", "seed 1.5", "seed -1",
                                 "schedule dyadic 3 x", "threshold convergent_defect x",
                                 "matrix M [[1e999]]", "threshold bogus 1",
                                 "expression y = concat(u@0.5j, u@1)",
                                 "expression y = concat(u@0.5, u@0.5, u@0)",
                                 "expression y = 1e999*u", "candidate y", "expect y maybe",
                                 "threshold convergent_defect",
                                 "threshold convergent_defect nan",
                                 pytest.param("expression y = " + " + ".join(["u"] * 3000),
                                              id="beyond-the-nesting-limit")])
def test_cli_malformed_scenario_numbers(tmp_path, capsys, bad):
    scenario_path = tmp_path / "bad.scenario"
    scenario_path.write_text(f"dim 1\nlabels u\ngenerator gamma [[0.0]]\n{bad}\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "line 4" in err
    # Every threshold line is refused as retired, whatever its fields.
    assert ("threshold directive is retired" in err) == bad.startswith("threshold")


def test_cli_refuses_the_retired_threshold_directive(tmp_path, capsys):
    # A well-formed threshold line in a scenario that otherwise runs.
    scenario_path = tmp_path / "threshold.scenario"
    text = bundled("affine_42.scenario").read_text()
    scenario_path.write_text(text + "threshold convergent_defect 1e-5\n")
    line = len(text.splitlines()) + 1
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        f"{scenario_path}: line {line}: the threshold directive is retired: verdicts compare "
        "generator entries, with no thresholds\n")
    assert not (tmp_path / "out").exists()


def test_cli_rejects_a_horizon_too_small_for_a_random_schedule(tmp_path):
    # Drawing the partitions used to loop forever, hence the subprocess.
    scenario_path = tmp_path / "tiny.scenario"
    text = bundled("counterexample_41.scenario").read_text()
    scenario_path.write_text(text.replace("horizon 1.0", "horizon 1e-320"))
    src = Path(trotterlab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "trotterlab.cli", "run", str(scenario_path),
                           "--schedule", "random:8", "--out", str(tmp_path / "out")],
                          cwd=src, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3
    assert proc.stderr == (f"{scenario_path}: no random partition of horizon 1e-320 into 283 "
                           "parts in 100 draws; the horizon is too small\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_cli_rejects_a_negative_seed_option(tmp_path, capsys):
    args = ["run", str(bundled("affine_42.scenario")), "--seed", "-1", "--schedule", "random:8",
            "--out", str(tmp_path / "out")]
    assert main(args) == 3
    assert capsys.readouterr().err == "--seed must be non-negative, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, line, repeated", [
    ("dim 1", 4, "dim"), ("labels u", 4, "labels"), ("generator gamma [[0.0]]", 4, "generator"),
    ("horizon 1\nhorizon 2", 5, "horizon"),
    ("schedule dyadic 3 4\nschedule random 2", 5, "schedule"),
    ("seed 1\nseed 2", 5, "seed"), ("expression y = u\nexpression y=2*u", 5, "expression y"),
    ("matrix M [[1]]\nmatrix M [[2]]", 5, "matrix M"), ("eta u [[0]]\neta u [[1]]", 5, "eta u"),
    ("beta u [[0]]\nbeta u [[1]]", 5, "beta u"),
    ("expression y = u\ncandidate y u\ncandidate y u", 6, "candidate y"),
    ("expression y = u\nexpect y divergent\nexpect y weak-only", 6, "expect y")])
def test_cli_rejects_repeated_definitions(tmp_path, capsys, extra, line, repeated):
    scenario_path = tmp_path / "repeated.scenario"
    scenario_path.write_text(f"dim 1\nlabels u\ngenerator gamma [[0.0]]\n{extra}\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"line {line}: {repeated} is already defined" in err


def test_cli_rejects_keyword_labels_in_expressions(tmp_path, capsys):
    scenario_path = tmp_path / "keyword.scenario"
    scenario_path.write_text("dim 1\nlabels u lambda\ngenerator gamma [[0.0, 0.0], [0.0, 0.0]]\n"
                             "expression y = lambda\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 4" in err


def test_cli_expression_names_stay_inside_out(tmp_path, capsys):
    scenario_path = tmp_path / "escape.scenario"
    scenario_path.write_text("dim 1\nlabels u\ngenerator gamma [[0.0]]\n"
                             "expression ../escaped = u\nschedule dyadic 3 4\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out" / "inner")]) == 3
    assert "line 4: bad expression name '../escaped'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["escape.scenario"]


def _out_is_a_file(tmp_path):
    (tmp_path / "out").write_text("")


def _report_path_is_a_directory(tmp_path):
    (tmp_path / "out" / "y.csv").mkdir(parents=True)


def _scenario_is_not_utf8(tmp_path):
    (tmp_path / "io.scenario").write_bytes(b"dim 1\n# caf\xe9\nlabels u\n")


def _scenario_is_missing(tmp_path):
    (tmp_path / "io.scenario").unlink()


@pytest.mark.parametrize("setup, message", [
    (_out_is_a_file, "cannot write outputs: "),
    (_report_path_is_a_directory, "cannot write outputs: "),
    (_scenario_is_not_utf8, "cannot read scenario: "),
    (_scenario_is_missing, "cannot read scenario: ")])
def test_cli_io_errors_are_malformed_input(tmp_path, capsys, setup, message):
    (tmp_path / "io.scenario").write_text(
        "dim 1\nlabels u\ngenerator gamma [[0.0]]\nexpression y = u\nschedule dyadic 3 4\n")
    setup(tmp_path)
    assert main(["run", str(tmp_path / "io.scenario"), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    if setup is _scenario_is_not_utf8:
        assert "line 2" in err


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
    if directive:
        assert "line 5: schedule spec" in err


@pytest.mark.parametrize("override, directive, message", [
    ("dyadic:3:21", "", "schedule spec 'dyadic:3:21': 21 exceeds 20"),
    ("random:65", "", "schedule spec 'random:65': 65 exceeds 64"),
    (None, "schedule dyadic 3 40\n", "line 5: schedule spec 'dyadic 3 40': 40 exceeds 20"),
    (None, "schedule random 1000\n", "line 5: schedule spec 'random 1000': 1000 exceeds 64"),
    ("dyadic:-1:3", "", "schedule spec 'dyadic:-1:3': KMIN -1 is negative"),
    (None, "schedule dyadic -1 3\n", "line 5: schedule spec 'dyadic -1 3': KMIN -1 is negative")],
    ids=["dyadic-option", "random-option", "dyadic-line", "random-line",
         "negative-kmin-option", "negative-kmin-line"])
def test_cli_rejects_oversized_schedules(tmp_path, capsys, override, directive, message):
    # Only values rejected while parsing: an accepted one this large would allocate.
    scenario_path = tmp_path / "huge.scenario"
    scenario_path.write_text(
        f"dim 1\nlabels u\ngenerator gamma [[0.0]]\nexpression y = u\n{directive}")
    args = ["run", str(scenario_path), "--out", str(tmp_path / "out")]
    if override:
        args += ["--schedule", override]
    assert main(args) == 3
    assert capsys.readouterr().err == f"{scenario_path}: {message}\n"
    for limit in ("dyadic 3 20", "dyadic 0 20", "random 64"):
        text = f"dim 1\nlabels u\ngenerator gamma [[0.0]]\nschedule {limit}\n"
        assert parse_scenario(text).schedule_args[-1] == int(limit.split()[-1])


@pytest.mark.parametrize("lines, message", [
    ("generator ce\neta u [[0.0]]\nbeta u [[0.0]]\neta v [[0.0]]",
     "line 6: eta for undeclared label 'v'"),
    ("generator ce\neta u [[0.0]]\nbeta v [[0.0]]\nbeta u [[0.0]]",
     "line 5: beta for undeclared label 'v'"),
    ("generator gamma [[0.0]]\neta u [[0.0]]", "line 4: eta 'u' needs 'generator ce'"),
    ("generator kernel k.json\nbeta u [[0.0]]", "line 4: beta 'u' needs 'generator ce'"),
    ("generator gamma [[0.0]]\nmatrix u [[5.0]]", "line 4: matrix 'u' has the name of a unit label"),
    ("generator gamma [[0.0]]\ncandidate z u", "line 4: candidate for unknown expression 'z'"),
    ("generator gamma [[0.0]]\nexpect z divergent", "line 4: expect for unknown expression 'z'"),
    ("generator gamma [[0.0]]\ncandidate y v", "line 4: candidate label 'v' unknown"),
    ("generator gamma [[0.0]]\nmatrix if [[2.0]]", "line 4: bad matrix name 'if': a Python keyword"),
    ("generator gamma [[0.0]]\nmatrix None [[2.0]]",
     "line 4: bad matrix name 'None': a Python keyword")],
    ids=["eta-undeclared", "beta-undeclared", "eta-under-gamma", "beta-under-kernel",
         "matrix-named-like-a-label", "candidate-expression", "expect-expression",
         "candidate-label", "matrix-keyword", "matrix-none"])
def test_cli_checks_the_names_lines_refer_to(tmp_path, capsys, lines, message):
    scenario_path = tmp_path / "names.scenario"
    scenario_path.write_text(f"dim 1\nlabels u\n{lines}\nexpression y = u\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"{scenario_path}: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("dim 1\nlabels u u\ngenerator gamma [[0.0, 0.0], [0.0, 0.0]]", "line 2: duplicate labels"),
    ("dim 2\nlabels u\ngenerator gamma [[0.0]]", "line 3: generator gamma requires dim 1"),
    ("dim 1\nlabels u v\ngenerator gamma [[0.0]]",
     "line 3: gamma matrix has shape (1, 1), expected (2, 2) for 2 labels"),
    ("dim 2\nlabels u\ngenerator ce\neta u [[1.0]]\nbeta u [[0.0, 0.0], [0.0, 0.0]]",
     "line 4: eta u has shape (1, 1), expected (2, 2)"),
    ("dim 1\nlabels u v\ngenerator ce\neta u [[0.0]]\nbeta u [[0.0]]\neta v [[0.0]]",
     "line 3: missing eta/beta for labels ['v']"),
    ("dim 1\nlabels u 1x\ngenerator gamma [[0.0, 0.0], [0.0, 0.0]]",
     "line 2: bad label name '1x': not an ASCII identifier"),
    ("dim 1\nlabels u if\ngenerator gamma [[0.0, 0.0], [0.0, 0.0]]",
     "line 2: bad label name 'if': a Python keyword"),
    ("dim 1\nlabels u True\ngenerator gamma [[0.0, 0.0], [0.0, 0.0]]",
     "line 2: bad label name 'True': a Python keyword"),
    ("dim 0\nlabels u\ngenerator gamma [[0.0]]", "line 1: dim must be positive"),
    # Only a kernel document reaches a large dim, and a unit factor builds a
    # d x d identity for it before the document is opened.
    ("dim 33\nlabels u\ngenerator kernel k.json", "line 1: dim 33 exceeds 32"),
    ("dim 1\nlabels\ngenerator gamma [[0.0]]", "line 2: labels line needs at least one label"),
    ("dim 1\nlabels u\ngenerator kernel", "line 3: generator kernel needs a path"),
    ("dim 1\nlabels u\ngenerator lindblad", "line 3: unknown generator kind 'lindblad'")],
    ids=["duplicate-labels", "gamma-dim", "gamma-shape", "eta-shape", "missing-beta",
         "label-not-identifier", "label-keyword", "label-true", "dim-zero", "dim-above-bound",
         "bare-labels",
         "kernel-without-path", "unknown-generator-kind"])
def test_cli_generator_errors_carry_their_line(tmp_path, capsys, text, message):
    scenario_path = tmp_path / "generator.scenario"
    scenario_path.write_text(f"{text}\nexpression y = u\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"{scenario_path}: {message}\n"


@pytest.mark.parametrize("matrix", ["[[1]+1]", "[[x]]", "[[1, -y]]",
                                    "[[True]]", '[["1"]]', '[[b"1"]]', '[["1j"]]'])
def test_malformed_matrix_names_its_text(matrix):
    # literal_eval's own message names the syntax node by its memory address;
    # numpy would read bool, str and bytes leaves as numbers.
    messages = set()
    for _ in range(2):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(f"dim 1\nlabels u\ngenerator gamma {matrix}\nexpression y = u\n")
        messages.add(str(info.value))
    assert messages == {f"line 3: bad matrix literal: {matrix!r} is not a nested list of numbers"}
    assert "0x" not in messages.pop()


def test_cli_kernel_document_over_other_labels(tmp_path, capsys):
    (tmp_path / "uv.json").write_text(json.dumps(kernel_to_json_dict(
        scalar_kernel(np.zeros((2, 2)), ("u", "v")))))
    scenario_path = tmp_path / "other.scenario"
    scenario_path.write_text("dim 1\nlabels u\ngenerator kernel uv.json\nexpression y = u\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    message = "kernel document does not match dim/labels"
    assert capsys.readouterr().err == f"{scenario_path}: {message}\n"


@pytest.mark.parametrize("generator", ["gamma [[0.0, 1.0], [0.0, 0.0]]", "kernel skew.json"],
                         ids=["gamma", "kernel"])
def test_cli_non_hermitian_generator_is_malformed(tmp_path, capsys, generator):
    (tmp_path / "skew.json").write_text(json.dumps(kernel_to_json_dict(
        scalar_kernel(np.array([[0.0, 1.0], [0.0, 0.0]]), ("u", "v")))))
    scenario_path = tmp_path / "skew.scenario"
    scenario_path.write_text(f"dim 1\nlabels u v\ngenerator {generator}\nexpression y = u\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{scenario_path}: not a kernel candidate: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


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


def test_cli_two_partitions_read_weak_only(tmp_path, capsys):
    # No rate is fitted to two partitions; the plateau defect alone reads weak-only.
    code = main(["run", str(bundled("counterexample_41.scenario")), "--schedule", "dyadic:3:4",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert ("y: weak-only against candidate 'w' "
            "(finest criterion defect 3.647e-01, rate n/a)") in out
    report = json.loads((tmp_path / "y.json").read_text())
    assert report["verdict"] == "weak-only" and report["criterion_rate"] is None


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


@pytest.mark.parametrize("scenario, schedule", [("affine_42", "dyadic:3:6"),
                                                ("counterexample_41", "random:2")])
def test_cli_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, scenario, schedule):
    src = Path(trotterlab.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "trotterlab.cli", "run",
                               str(bundled(f"{scenario}.scenario")), "--schedule", schedule,
                               "--out", str(out)],
                              cwd=src, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0 and not proc.stderr
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        outputs.append((proc.returncode, proc.stdout, files))
    assert outputs[0] == outputs[1]
    assert {name.rsplit(".", 1)[1] for name in outputs[0][2]} == {"csv", "json"}


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


@pytest.mark.parametrize("drift", ["1000000.0", "100000000.0"])
def test_cli_gate_failure_under_a_large_drift(tmp_path, capsys, drift):
    # Only the -0.001 on (v, v) survives the compression; the drift used to
    # widen the tolerance until this generator passed.
    scenario_path = tmp_path / "drift.scenario"
    scenario_path.write_text(
        f"dim 1\nlabels u v\ngenerator gamma [[0.0, {drift}j], [-{drift}j, -0.001]]\n"
        "expression y = 2*u - v\nhorizon 1.0\nschedule dyadic 3 4\n")
    code = main(["run", str(scenario_path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("gate: generator conditional positivity FAIL")
    assert "quadratic form minimum eigenvalue: -5.000000e-04" in out


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


def test_cli_section_off_the_unit_fails_the_extension(tmp_path, capsys):
    scenario_path = tmp_path / "off.scenario"
    scenario_path.write_text("dim 1\nlabels u\ngenerator gamma [[0.5]]\nexpression y = 2*u\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "y: extension failed: section value at t=0 differs from the unit by 1.000e+00; "
        "the term multipliers must sum to the identity\n")


@pytest.mark.parametrize("expr, defect", [
    ("1.0000000001*u", "1.000e-10"),
    ("1000000*u - 999999*u + 0.00000001*u", "1.000e-08"),
    ("0.7*u + 0.2*u + 0.1*u", None),
])
def test_cli_unit_check_allows_the_rounding_of_the_sum_only(tmp_path, capsys, expr, defect):
    # c^n u with c = 1 + 1e-10 or 1 + 1e-8 does not converge, however large the
    # terms that sum to c; 0.7 + 0.2 + 0.1 is 1 up to rounding.
    scenario_path = tmp_path / "near.scenario"
    scenario_path.write_text(f"dim 1\nlabels u\ngenerator gamma [[1.0]]\nexpression y = {expr}\n")
    code = main(["run", str(scenario_path), "--out", str(tmp_path / "out")])
    assert code == (0 if defect is None else 2)
    err = capsys.readouterr().err
    assert err == ("" if defect is None else
                   f"y: extension failed: section value at t=0 differs from the unit by {defect}; "
                   "the term multipliers must sum to the identity\n")


@pytest.mark.parametrize("fraction, code", [("0.50000001", 3), ("0.5000000001", 0)])
def test_cli_segment_fractions_are_lenient_to_typed_digits_only(tmp_path, capsys, fraction,
                                                                 code):
    # A chain 1e-10 over 1 is a typed 1/2 + 1/2; one 1e-8 over is refused.
    scenario_path = tmp_path / "fractions.scenario"
    scenario_path.write_text("dim 1\nlabels u v\ngenerator gamma [[0.0, 0.0], [0.0, 1.0]]\n"
                             f"expression y = concat(u@0.5, v@{fraction})\nschedule dyadic 3 4\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else
                   f"{scenario_path}: line 4: segment fractions must sum to 1, got 1.00000001\n")


def test_cli_overflowing_section_sum_fails_the_extension(tmp_path, capsys):
    scenario_path = tmp_path / "sum.scenario"
    scenario_path.write_text(
        "dim 1\nlabels u\ngenerator gamma [[0.5]]\nexpression y = 1e308*u + 1e308*u\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "y: extension failed: section value at t=0 differs from the unit by inf; "
        "the term multipliers must sum to the identity\n")


_MAGNITUDES_OVERFLOW = ("y: extension failed: the magnitudes of the extended kernel are not "
                        "finite: the products of the section's term multipliers overflow\n")


def test_cli_overflowing_section_size_fails_the_extension(tmp_path, capsys):
    # The value at t=0 is exactly 1, but the magnitudes, and with them every
    # rounding allowance, are infinite.
    scenario_path = tmp_path / "size.scenario"
    scenario_path.write_text(
        "dim 1\nlabels u\ngenerator gamma [[0.5]]\nexpression y = 1e308*u - 1e308*u + u\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == _MAGNITUDES_OVERFLOW


def test_cli_overflowing_magnitudes_beside_a_finite_product_fail_the_extension(tmp_path,
                                                                                capsys):
    # A @ B = 0 exactly, so the value at t=0 is I and sum |left| |right| is
    # finite; the magnitudes hold (1e200)^2 = inf and, beside a zero, nan.
    scenario_path = tmp_path / "shear.scenario"
    scenario_path.write_text(
        "dim 2\nlabels u\ngenerator ce\neta u [[0.1, 0], [0, 0.2]]\nbeta u [[0, 0], [0, 0]]\n"
        "matrix A [[1e200, 0], [0, 0]]\nmatrix B [[0, 0], [0, 1e200]]\nexpression y = A*u*B + u\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == _MAGNITUDES_OVERFLOW


def test_cli_cancellation_beyond_double_precision_is_refused(tmp_path, capsys):
    # (1e8)^2 * gamma_vv cancels: the entries' rounding allowance exceeds the
    # entries, so no verdict can be read from them.
    scenario_path = tmp_path / "cancel.scenario"
    scenario_path.write_text(
        "dim 1\nlabels u v w\n"
        "generator gamma [[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 0.25]]\n"
        "expression y = concat(u@0.5, v@0.5) + 100000000*v - 100000000*v\n"
        "schedule dyadic 3 4\ncandidate y w\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("y: numerical breakdown: rounding allowance ")
    assert err.endswith("the section's terms cancel beyond double precision\n")


def test_cli_overflowing_pairing_names_the_verdict_it_reached(tmp_path, capsys):
    # The verdict reads the extension's entries before any pairing; at n = 8
    # the pairings of 3000*u - 2999*v overflow, and the one line keeps the verdict.
    scenario_path = tmp_path / "overflow.scenario"
    scenario_path.write_text(
        "dim 1\nlabels u v\ngenerator gamma [[0.7, 0.3], [0.3, 0.9]]\n"
        "expression y = 3000*u - 2999*v\nschedule dyadic 3 6\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "y: numerical breakdown: the verdict is norm-convergent, but a pairing or limit map "
        "is not finite at partition size 8 (horizon 1.0)\n")


@pytest.mark.parametrize("epsilon", [1e-13, 1e-14])
def test_cli_near_equal_entries_stay_outside_the_allowance(tmp_path, capsys, epsilon):
    # K^{zeta zeta} = 1 + eps/2 and K_crit = 1 + eps/4 differ by eps/4.  At
    # eps = 1e-14 that gap is 1.10x the verdict's allowance, so an allowance 10%
    # looser reads norm-convergent.
    scenario_path = tmp_path / "near.scenario"
    scenario_path.write_text(
        f"dim 1\nlabels u v\ngenerator gamma [[1.0, 1.0], [1.0, {1 + epsilon!r}]]\n"
        "expression y = concat(u@0.5, v@0.5)\nschedule dyadic 3 6\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 0
    assert "\ny: weak-only against adjoined 'zeta' " in capsys.readouterr().out


def test_cli_limit_label_avoids_a_declared_zeta(tmp_path, capsys):
    scenario_path = tmp_path / "zeta.scenario"
    scenario_path.write_text("dim 1\nlabels zeta\ngenerator gamma [[0.0]]\nexpression y = zeta\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "y.json").read_text())["target"] == "zeta_1"
    assert "against adjoined 'zeta_1'" in capsys.readouterr().out


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


def test_cli_validate_fails_a_small_negative_eigenvalue_beside_a_large_one(tmp_path, capsys):
    # A tolerance of 1e-10 times the largest eigenvalue (1e-4 here) passed it.
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(kernel_to_json_dict(
        scalar_kernel(np.diag([1e6, -1e-5]), ("u", "v")))))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "completely positive definite: FAIL (min eigenvalue -1.000e-05)\n" in out
    assert "quadratic form minimum eigenvalue: -1.000000e-05" in out


def test_cli_validate_generator_conditional_only(tmp_path, capsys):
    rng = np.random.default_rng(11)
    generator = random_christensen_evans(("a", "b"), 2, rng, scale=0.8)
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(kernel_to_json_dict(generator)))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "completely positive definite: FAIL" in out
    assert "conditionally completely positive definite: PASS" in out


STRAY_KEY_DOCUMENT = ('{"dim": 1, "labels": ["a"], '
                      '"entries": {"a|a": [[0, 0]], "a|zzz": [[5, 0]], "junk": 1}}')


@pytest.mark.parametrize("document", [
    '{"dim": 2}',
    '{"dim": 1, "labels": ["a"], "entries": {"a|a": [1]}}',
    '{"dim": 1, "labels": ["a"], "entries": {"a|a": [["x", 0]]}}',
    '{"dim": 1, "labels": ["a"], "entries": {"a|a": 5}}',
    '{"dim": 1, "labels": ["a"], "entries": {"a|a": [[NaN, 0]]}}',
    '{"dim": 1, "labels": ["a"], "entries": {"a|a": [[Infinity, 0]]}}',
    '{"dim": 1, "labels": "ab", "entries": {"a|a": [[1, 0]], "a|b": [[0, 0]], '
    '"b|a": [[0, 0]], "b|b": [[1, 0]]}}',
    '{"dim": 1, "labels": [1, null], "entries": {"1|1": [[1, 0]], "1|None": [[0, 0]], '
    '"None|1": [[0, 0]], "None|None": [[1, 0]]}}',
    '{"dim": 1, "labels": ["a|b"], "entries": {"a|b|a|b": [[1, 0]]}}',
    STRAY_KEY_DOCUMENT],
    ids=["dim-only", "bare-number", "string-value", "entry-not-list", "nan", "infinity",
         "string-labels", "non-string-labels", "bar-in-label", "stray-entry-keys"])
def test_cli_validate_malformed(tmp_path, capsys, document):
    path = tmp_path / "broken.json"
    path.write_text(document)
    assert main(["validate", str(path)]) == 3
    assert "malformed" in capsys.readouterr().err


def test_cli_validate_asymmetric_kernel(tmp_path, capsys):
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps(kernel_to_json_dict(
        scalar_kernel(np.array([[0.0, 1.0], [0.0, 0.0]]), ("a", "b")))))
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "FAIL: not a kernel candidate: hermitian symmetry defect 1.000e+00 "
        "exceeds 1.0e-09 * scale 1.000e+00")


def test_cli_stray_entry_key_is_named(tmp_path, capsys):
    (tmp_path / "stray.json").write_text(STRAY_KEY_DOCUMENT)
    message = "entry key 'a|zzz' names no pair of declared labels"
    assert main(["validate", str(tmp_path / "stray.json")]) == 3
    assert capsys.readouterr().err == f"malformed kernel document: {message}\n"
    scenario_path = tmp_path / "stray.scenario"
    scenario_path.write_text("dim 1\nlabels a\ngenerator kernel stray.json\nexpression y = a\n")
    assert main(["run", str(scenario_path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"{scenario_path}: {message}\n"
