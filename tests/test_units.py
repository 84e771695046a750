import ast
from pathlib import Path

import numpy as np
import pytest

import trotterlab
import trotterlab.units
from trotterlab.algebra import (
    _UNIT_ROUNDOFF,
    Superoperator,
    dagger,
    left_right_rep,
    superop_exp,
    superop_norm,
    unit_element,
)
from trotterlab.kernels import (NotCompletelyPositiveError, OperatorKernel, _allowance,
                                christensen_evans_kernel, is_conditionally_cpd,
                                kernel_from_json_dict, scalar_kernel)
from trotterlab.scenario import build_generator, parse_scenario
from trotterlab.trotter import Partition, eval_pairing
from trotterlab.units import (
    Segment,
    Term,
    UnitExpression,
    _decide_verdict,
    _extended_tables,
    _pair_sum,
    _term_pairs,
    extend_generator,
    pair_derivative,
    unit_expression,
)

from builders import (
    affine_expression,
    concat_expression,
    kernel_from_entries,
    normalize_unit,
    parse_section,
    random_christensen_evans,
    star_conjugate,
)
from positivity_oracles import sampled_conditional_form, schoenberg_grid_ok


@pytest.fixture
def ce_generator():
    rng = np.random.default_rng(10)
    return random_christensen_evans(("x1", "x2", "x3"), 2, rng, scale=0.4)


def random_matrix(rng, d, scale=1.0):
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


# -- expression validation ------------------------------------------------------

def test_term_fraction_validation():
    eye = unit_element(2)
    with pytest.raises(ValueError):
        Term(eye, eye, (Segment("a", 0.4), Segment("b", 0.4)))
    with pytest.raises(ValueError):
        Segment("a", 0.0)
    with pytest.raises(ValueError):
        Term(eye, eye, (Segment("a", 1.0),), twist=eye, twist_side="none")


def test_expression_label_and_unit_checks(ce_generator):
    expr = affine_expression([0.5, 0.5], ["x1", "nope"], 2)
    with pytest.raises(KeyError):
        pair_derivative(expr, expr, ce_generator)
    extend_generator(affine_expression([2, -1], ["x1", "x2"], 2), ce_generator)
    with pytest.raises(ValueError, match=r"differs from the unit by 1\.000e\+00;"):
        extend_generator(affine_expression([2, -2], ["x1", "x2"], 2), ce_generator)


# -- pair derivatives -----------------------------------------------------------

def test_single_unit_derivative_is_generator_entry(ce_generator):
    xi = unit_expression("x1", 2)
    derived = pair_derivative(xi, xi, ce_generator)
    assert np.array_equal(derived.rep, ce_generator[("x1", "x1")].rep)
    cross = pair_derivative(xi, unit_expression("x2", 2), ce_generator)
    assert np.array_equal(cross.rep, ce_generator[("x1", "x2")].rep)


def test_affine_derivative_closed_form(ce_generator):
    coeffs = [2.0 + 0.5j, -1.0 - 0.5j]
    y = affine_expression(coeffs, ["x1", "x2"], 2)
    derived = pair_derivative(y, y, ce_generator)
    expected = sum(np.conj(coeffs[i]) * coeffs[j]
                   * ce_generator[(f"x{i + 1}", f"x{j + 1}")].rep
                   for i in range(2) for j in range(2))
    assert np.max(np.abs(derived.rep - expected)) <= 1e-13
    cross = pair_derivative(y, unit_expression("x3", 2), ce_generator)
    expected_cross = sum(np.conj(coeffs[i]) * ce_generator[(f"x{i + 1}", "x3")].rep
                         for i in range(2))
    assert np.max(np.abs(cross.rep - expected_cross)) <= 1e-13


def test_twisted_derivative_closed_form(ce_generator):
    rng = np.random.default_rng(11)
    beta = random_matrix(rng, 2, 0.3)
    y = parse_section("x1*expm(t*B)", ce_generator, B=beta)
    derived = pair_derivative(y, y, ce_generator)
    eye = np.eye(2)
    expected = (ce_generator[("x1", "x1")].rep
                + np.kron(eye, dagger(beta)) + np.kron(beta.T, eye))
    assert np.max(np.abs(derived.rep - expected)) <= 1e-13
    cross = pair_derivative(y, unit_expression("x1", 2), ce_generator)
    expected_cross = ce_generator[("x1", "x1")].rep + np.kron(eye, dagger(beta))
    assert np.max(np.abs(cross.rep - expected_cross)) <= 1e-13


def test_concat_derivative_is_affine_in_fractions():
    gamma = np.array([[0.1, 0.4 + 0.2j, 0.3],
                      [0.4 - 0.2j, 0.9, 0.1j],
                      [0.3, -0.1j, 0.2]])
    gen = scalar_kernel(gamma, ("u", "v", "x"))
    kappa = 0.3
    y = concat_expression([("u", kappa), ("v", 1 - kappa)], 1)
    x = unit_expression("x", 1)
    derived = pair_derivative(x, y, gen)
    expected = kappa * gamma[2, 0] + (1 - kappa) * gamma[2, 1]
    assert derived.rep[0, 0] == pytest.approx(expected, abs=1e-14)


def test_finite_difference_consistency(ce_generator):
    rng = np.random.default_rng(12)
    a = random_matrix(rng, 2, 0.8)
    b = random_matrix(rng, 2, 0.8)
    expressions = [
        unit_expression("x1", 2),
        affine_expression([1.5, -0.5], ["x1", "x2"], 2),
        parse_section("expm(t*B)*x2", ce_generator, B=random_matrix(rng, 2, 0.3)),
        concat_expression([("x1", 0.25), ("x3", 0.75)], 2),
        parse_section("x1 + A*x2*B - A*x3*B", ce_generator, A=a, B=b),
    ]
    # Twists on either side of matrix multipliers (A C = I) and of a concat chain.
    shear = {"A": np.array([[1.0, 0.5], [0.0, 1.0]]), "C": np.array([[1.0, -0.5], [0.0, 1.0]]),
             "B": random_matrix(rng, 2, 0.3)}
    expressions += [parse_section(text, ce_generator, **shear) for text in
                    ("A*x1*expm(t*B)*C", "A*expm(t*B)*x2*C",
                     "expm(t*B)*concat(x1@0.25, x3@0.75)")]
    ident = np.eye(4)
    for e1 in expressions:
        for e2 in expressions:
            derived = pair_derivative(e1, e2, ce_generator)
            times = (1e-2, 1e-3, 1e-4)
            errors = []
            for t in times:
                part = Partition((t,))
                quotient = (eval_pairing(e1, part, e2, part, ce_generator).rep - ident) * (1.0 / t)
                errors.append(max(superop_norm(Superoperator(2, quotient - derived.rep)), 1e-15))
            slope = np.polyfit(np.log(times), np.log(errors), 1)[0]
            assert slope >= 0.9 or errors[0] < 1e-12


def test_hermitian_coherence(ce_generator):
    rng = np.random.default_rng(13)
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 2)
    e1 = parse_section("x1 + A*x2*B - A*x3*B", ce_generator, A=a, B=b)
    e2 = parse_section("x2*expm(t*B)", ce_generator, B=random_matrix(rng, 2, 0.4))
    forward = pair_derivative(e1, e2, ce_generator)
    backward = pair_derivative(e2, e1, ce_generator)
    assert np.max(np.abs(forward.rep - star_conjugate(backward).rep)) <= 1e-10


# -- generator extension ---------------------------------------------------------

def test_extension_of_single_unit_duplicates_its_row(ce_generator):
    kernel = extend_generator(unit_expression("x1", 2), ce_generator)
    assert kernel.labels == ("x1", "x2", "x3", "zeta")
    assert np.array_equal(kernel[("zeta", "zeta")].rep, ce_generator[("x1", "x1")].rep)
    for s in ("x1", "x2", "x3"):
        assert np.array_equal(kernel[("zeta", s)].rep, ce_generator[("x1", s)].rep)
        assert np.max(np.abs(kernel[(s, "zeta")].rep
                             - ce_generator[(s, "x1")].rep)) <= 1e-12
    assert is_conditionally_cpd(kernel).ok


def test_extension_restricts_to_base(ce_generator):
    y = affine_expression([2, -1], ["x1", "x2"], 2)
    ext = extend_generator(y, ce_generator)
    for pair, op in ce_generator.entries.items():
        assert np.array_equal(ext[pair].rep, op.rep)
    assert ext.hermitian_defect() <= 1e-12


def test_affine_extension_passes_conditional_positivity(ce_generator):
    y = affine_expression([2, -1], ["x1", "x2"], 2)
    ext = extend_generator(y, ce_generator)
    report = is_conditionally_cpd(ext)
    assert report.ok and report.min_scaled_eigenvalue >= -1e-8
    # Both oracles accept the extended kernel too.
    sampled_ok, worst, _ = sampled_conditional_form(ext)
    assert sampled_ok and worst >= -1e-8
    assert schoenberg_grid_ok(ext)


def test_extension_requires_unit_section(ce_generator):
    with pytest.raises(ValueError, match="sum to the identity"):
        extend_generator(affine_expression([2, -2], ["x1", "x2"], 2), ce_generator)


@pytest.mark.parametrize("signs", [(1,), (1, -1)])  # value inf at zero, and inf - inf = nan
def test_extension_refuses_a_non_finite_value_at_zero(ce_generator, signs):
    big = np.diag([1e200, 1.0])
    section = UnitExpression(2, tuple(Term(sign * big, big, (Segment("x1", 1.0),))
                                      for sign in signs))
    with pytest.raises(ValueError, match="differs from the unit by inf"):
        extend_generator(section, ce_generator)


# A complex shear and the correctly rounded inverse of A.  With OpenBLAS, entry (0, 0)
# of A @ C - I rounds to 0.74 of the unit check's allowance 4 u (|A| |C|)_00.  One
# more unit in the last digit of C's first entry takes it to 1.27.
_SHEAR = "[[(-2.6+61.8j), (-41.7+14.6j)], [(-14.2+12.1j), (-37.3-69j)]]"
_SHEAR_INVERSE = ("[[(-0.00282447147447976-0.01849947512334775j), "
                  "(0.010540924200226396+7.686486060523783e-05j)], "
                  "[(0.004163167236981101-0.0015748551592858736j), "
                  "(-0.00555768533425454+0.013671152543316578j)]]")


@pytest.mark.parametrize("inverse, accepted", [
    (_SHEAR_INVERSE, True), (_SHEAR_INVERSE.replace("447976-", "447977-"), False)],
    ids=["rounded-inverse", "one-digit-off"])
def test_unit_check_allows_the_rounding_of_the_products_and_no_more(inverse, accepted):
    gen = random_christensen_evans(("u",), 2, np.random.default_rng(1), scale=0.3)
    a, c = (np.array(ast.literal_eval(text), dtype=complex) for text in (_SHEAR, inverse))
    section = parse_section("A*u*C", gen, A=a, C=c)
    if accepted:
        assert extend_generator(section, gen).labels == ("u", "zeta")
    else:
        with pytest.raises(ValueError, match="differs from the unit by 7.916e-16"):
            extend_generator(section, gen)


def _gate_sweep_section(rng, kind, dim, labels, mp):
    """A unit section of ``kind``: cancelling affine, twisted beside a cancelling term, or sheared."""
    eye = np.eye(dim, dtype=complex)

    def chain():
        fractions = rng.uniform(0.2, 1.0, int(rng.integers(1, 7)))
        fractions /= fractions.sum()
        fractions[-1] = 1.0 - fractions[:-1].sum()
        return tuple(Segment(str(rng.choice(labels)), float(f)) for f in fractions)

    c = float(rng.choice((-1, 1)) * 10.0 ** rng.uniform(0, 3))
    if kind == "cancelling":
        return affine_expression([c, 1.0 - c], [labels[0], str(rng.choice(labels))], dim)
    twist = random_matrix(rng, dim, 0.3)
    if kind == "twisted":
        side = str(rng.choice(["left", "right"]))
        return UnitExpression(dim, (Term(c * eye, eye, chain(), twist=twist, twist_side=side),
                                    Term((1.0 - c) * eye, eye, chain())))
    shear = random_matrix(rng, dim, 10.0 ** rng.uniform(0, 2))
    inverse = np.array((mp.matrix(shear.tolist()) ** -1).tolist(), dtype=complex)
    return UnitExpression(dim, (Term(shear, inverse, chain(), twist=twist, twist_side="right"),))


def test_extension_gate_leaves_nine_tenths_of_its_allowance_unused():
    # 300 unit sections of random generators, d <= 3: cancelling (|c| <= 1000),
    # twisted and sheared, with chains of 1-6 segments.  Each extension is
    # conditionally positive definite, so its smallest eigenvalue is rounding.
    # Without the table's own rounding, eigh's backward error alone is too small.
    # The public test is the gate: it passes every extension, with no witness.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(32)
    worst = beyond_eigh = 0.0
    for i in range(300):
        dim, labels = int(rng.integers(1, 4)), ("a", "b", "c")[:int(rng.integers(2, 4))]
        gen = random_christensen_evans(labels, dim, rng, scale=10.0 ** rng.uniform(-3, 1))
        kind = ("cancelling", "twisted", "sheared")[i % 3]
        section = _gate_sweep_section(rng, kind, dim, labels, mp)
        extension = extend_generator(section, gen)
        report = is_conditionally_cpd(extension)
        assert report.ok and report.witness is None, (i, kind, dim, report)
        eigh = report.allowance - extension.rounding  # the table's term is the rounding
        worst = max(worst, -report.min_eigenvalue / report.allowance)
        beyond_eigh = max(beyond_eigh, -report.min_eigenvalue / eigh)
    assert worst <= 0.1
    assert beyond_eigh > 1.0


def test_magnitudes_bound_every_entry_of_the_extended_kernel():
    # 300 cancelling, twisted and sheared sections of random generators, d <= 3:
    # |K| sums every map by its absolute value, so it bounds each entry's size,
    # the twists' maps included, up to its own rounding.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(34)
    for i in range(300):
        dim, labels = int(rng.integers(1, 4)), ("a", "b", "c")[:int(rng.integers(2, 4))]
        gen = random_christensen_evans(labels, dim, rng, scale=10.0 ** rng.uniform(-3, 1))
        section = _gate_sweep_section(rng, ("cancelling", "twisted", "sheared")[i % 3], dim,
                                      labels, mp)
        kernel, magnitudes, roundings = _extended_tables(section, gen)
        nonzero = kernel.table != 0
        assert (magnitudes.table.real[nonzero] >= np.abs(kernel.table[nonzero])
                * (1 - 2 * roundings * _UNIT_ROUNDOFF)).all()


def bundled_scenario(name):
    return parse_scenario((Path(trotterlab.__file__).parent / "scenarios"
                           / f"{name}.scenario").read_text())


def count_term_pairs(monkeypatch):
    calls = []
    term_pairs = trotterlab.units._term_pairs
    monkeypatch.setattr(trotterlab.units, "_term_pairs",
                        lambda *args: calls.append(args) or term_pairs(*args))
    return calls


def test_extension_sums_each_term_pair_once(monkeypatch):
    # affine_42's y over its two labels: one _term_pairs call per entry of the
    # 3 x 3 extended table serves both the entry and its magnitude, and two
    # more make the criterion and its magnitude.
    scenario = bundled_scenario("affine_42")
    calls = count_term_pairs(monkeypatch)
    extend_generator(scenario.expressions["y"], build_generator(scenario))
    assert len(calls) == 11


@pytest.mark.parametrize("name, candidate, built", [("affine_42", None, 11),
                                                    ("counterexample_41", "w", 18)])
def test_the_verdict_builds_nothing(monkeypatch, name, candidate, built):
    # (n + 1)^2 + 2 _term_pairs calls over n ambient labels make the extension,
    # its criterion and its allowance; the verdict only compares what it carries.
    scenario = bundled_scenario(name)
    calls = count_term_pairs(monkeypatch)
    extension = extend_generator(scenario.expressions["y"], build_generator(scenario))
    assert len(calls) == built
    _decide_verdict(extension, candidate)
    assert len(calls) == built


def reference_allowance(section, extension):
    """The verdict allowance as it was made before the extension carried it: |K|,
    L and the criterion's magnitude rebuilt over the extension's ambient slice."""
    ambient = OperatorKernel(extension.labels[:-1], extension.table[:-1, :-1])
    _, magnitudes, roundings = _extended_tables(section, ambient)
    zeta = unit_expression(magnitudes.labels[-1], extension.dim)
    criterion = _pair_sum(*_term_pairs(zeta, section, magnitudes), np.abs)
    return _allowance(2 * roundings, max(magnitudes.table.real.max(), criterion.max()))


def reference_verdict(section, extension, candidate):
    """The verdict from the rebuilt allowance and a fresh criterion, or the refusal's text."""
    allowance = reference_allowance(section, extension)
    table, z = extension.table, len(extension.labels) - 1
    largest = np.abs(table).max()
    if allowance >= largest > 0:
        return (f"rounding allowance {allowance:.3e} of the extended kernel reaches "
                f"its largest entry {largest:.3e}; the section's terms cancel "
                "beyond double precision")
    if candidate is None:
        zeta = unit_expression(extension.labels[z], extension.dim)
        gap = np.abs(pair_derivative(zeta, section, extension).rep - table[z, z]).max()
        return ("norm-convergent" if gap <= allowance else "weak-only"), True
    w = extension.labels.index(candidate)
    grams, limit, weak = (np.abs(a - b).max() <= allowance for a, b in (
        (table[z, z], table[w, w]), (table[z, z], table[w, z]), (table[:z, z], table[:z, w])))
    return ("norm-convergent" if grams and limit else "weak-only" if weak
            else "divergent"), bool(grams)


def assert_matches_the_rebuild(section, generator):
    extension = extend_generator(section, generator)
    assert extension.allowance == reference_allowance(section, extension)
    for candidate in (None, *generator.labels):
        try:
            verdict = _decide_verdict(extension, candidate)
        except ValueError as exc:
            verdict = str(exc)
        assert verdict == reference_verdict(section, extension, candidate)


def test_extension_carries_the_allowance_the_verdict_rebuilt():
    # 300 cancelling, twisted and sheared sections of random generators, d <= 3,
    # and the bundled expressions beside a section padded beyond double precision.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(35)
    for i in range(300):
        dim, labels = int(rng.integers(1, 4)), ("a", "b", "c")[:int(rng.integers(2, 4))]
        gen = random_christensen_evans(labels, dim, rng, scale=10.0 ** rng.uniform(-3, 1))
        kind = ("cancelling", "twisted", "sheared")[i % 3]
        assert_matches_the_rebuild(_gate_sweep_section(rng, kind, dim, labels, mp), gen)
    for name in ("affine_42", "counterexample_41"):
        scenario = bundled_scenario(name)
        for section in scenario.expressions.values():
            assert_matches_the_rebuild(section, build_generator(scenario))
    gen = build_generator(bundled_scenario("counterexample_41"))
    padded = parse_section("concat(u@0.5, v@0.5) + 100000000*v - 100000000*v", gen)
    with pytest.raises(ValueError, match="cancel beyond double precision"):
        _decide_verdict(extend_generator(padded, gen), None)
    assert_matches_the_rebuild(padded, gen)


def test_extension_fails_on_bad_base_generator():
    bad = scalar_kernel(np.array([[0.0, 2.0], [2.0, -6.0]]), ("u", "v"))
    with pytest.raises(NotCompletelyPositiveError) as info:
        extend_generator(affine_expression([0.5, 0.5], ["u", "v"], 1), bad)
    result = info.value.result
    assert result.ok is False and result.witness is not None
    assert str(info.value).endswith(f" below the rounding allowance {-result.allowance:.3e})")


def test_input_tables_carry_no_rounding():
    rng = np.random.default_rng(36)
    eta = {s: random_matrix(rng, 2) for s in ("u", "v")}
    beta = {s: random_matrix(rng, 2) for s in ("u", "v")}
    document = {"dim": 1, "labels": ["a"], "entries": {"a|a": [[1.0, 0.0]]}}
    for kernel in (kernel_from_json_dict(document), scalar_kernel(np.eye(2), ("u", "v")),
                   christensen_evans_kernel(("u", "v"), 2, eta, beta)):
        assert kernel.rounding == 0.0
    for rounding in (-1e-300, float("nan")):
        with pytest.raises(ValueError, match="non-negative bound"):
            OperatorKernel(("a",), np.zeros((1, 1, 1, 1)), rounding)


@pytest.mark.parametrize("name", ["affine_42", "counterexample_41"])
def test_the_extension_rounding_enters_the_gate_once(name):
    # The same table with and without its rounding: one eigendecomposition,
    # and allowances apart by exactly the rounding, added once, in the rule.
    scenario = bundled_scenario(name)
    for section in scenario.expressions.values():
        extension = extend_generator(section, build_generator(scenario))
        carried = is_conditionally_cpd(extension)
        bare = is_conditionally_cpd(OperatorKernel(extension.labels, extension.table))
        assert extension.rounding > 0.0
        assert carried.min_eigenvalue == bare.min_eigenvalue
        assert carried.allowance == bare.allowance + extension.rounding


def test_modified_expression_extension_matches_bilinear_forms(ce_generator):
    rng = np.random.default_rng(14)
    a1 = random_matrix(rng, 2, 0.6)
    b1 = random_matrix(rng, 2, 0.6)
    a2 = -a1 @ b1
    b2 = np.eye(2, dtype=complex)
    y = parse_section("x1 + A1*x2*B1 + A2*x3*B2", ce_generator, A1=a1, B1=b1, A2=a2, B2=b2)
    ext = extend_generator(y, ce_generator)

    # Bilinear closed form over all term pairs, base unit included.
    lefts = [np.eye(2, dtype=complex), a1, a2]
    rights = [np.eye(2, dtype=complex), b1, b2]
    labels = ["x1", "x2", "x3"]
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        for j in range(3):
            inner = ce_generator[(labels[i], labels[j])]
            piece = (np.kron(rights[j].T, dagger(rights[i]))
                     @ inner.rep @ np.kron(lefts[j].T, dagger(lefts[i])))
            expected += piece
    zeta = ext.labels[-1]
    assert np.max(np.abs(ext[(zeta, zeta)].rep - expected)) <= 1e-12

    cross_expected = sum(
        np.kron(np.eye(2), dagger(rights[i])) @ ce_generator[(labels[i], "x2")].rep
        @ np.kron(np.eye(2), dagger(lefts[i])) for i in range(3))
    assert np.max(np.abs(ext[(zeta, "x2")].rep - cross_expected)) <= 1e-12


def test_affine_rule_restricted_to_candidate_and_limit():
    # Covariance data of three genuine exponential units, hence a valid generator.
    params = {"u": (0.1 + 0.2j, 0.3 + 0.1j), "v": (-0.05j, 0.8), "x": (0.2, 0.4 - 0.6j)}
    labels = ("u", "v", "x")
    gamma = np.array([[np.conj(params[s][0]) + params[t][0]
                       + np.conj(params[s][1]) * params[t][1]
                       for t in labels] for s in labels])
    gen = scalar_kernel(gamma, labels)
    kappa = 0.5
    y = concat_expression([("u", kappa), ("v", 1 - kappa)], 1)
    ext = extend_generator(y, gen)
    got = ext[("x", ext.labels[-1])].rep[0, 0]
    want = kappa * gamma[2, 0] + (1 - kappa) * gamma[2, 1]
    assert got == pytest.approx(want, abs=1e-14)


# -- normalization ----------------------------------------------------------------

def test_normalize_trivial_generator_gives_zero_twist():
    gen = scalar_kernel(np.array([[0.0]]), ("xi",))
    result = normalize_unit("xi", gen)
    assert result.beta[0, 0] == pytest.approx(0.0)
    assert result.expression.terms[0].twist_side == "right"


def test_normalize_scalar_unit_growth():
    gen = scalar_kernel(np.array([[1.0]]), ("xi",))
    result = normalize_unit("xi", gen)
    # K(b) = b + (-1/2) b + b (-1/2) = 0
    assert result.beta[0, 0] == pytest.approx(-0.5)
    ext = result.extension
    assert np.max(np.abs(ext[(ext.labels[-1],) * 2].rep)) <= 1e-14


def test_normalize_ce_generator_is_unital(ce_generator):
    h = np.array([[0.1, 0.2j], [-0.2j, -0.3]])
    result = normalize_unit("x1", ce_generator, h=h)
    eye = unit_element(2)
    ext = result.extension
    diagonal = ext[(ext.labels[-1],) * 2]
    assert np.linalg.norm(diagonal.apply(eye), 2) <= 1e-10
    for t in (0.25, 0.5, 1.0):
        image = superop_exp(diagonal, t).apply(eye)
        assert np.linalg.norm(image - eye, 2) <= 1e-10


def test_left_and_right_twists_extend_equally(ce_generator):
    rng = np.random.default_rng(15)
    beta = random_matrix(rng, 2, 0.4)
    left = extend_generator(parse_section("expm(t*B)*x1", ce_generator, B=beta), ce_generator)
    right = extend_generator(parse_section("x1*expm(t*B)", ce_generator, B=beta), ce_generator)
    assert left.labels == right.labels
    assert max(np.max(np.abs(op.rep - right[pair].rep))
               for pair, op in left.entries.items()) <= 1e-9


def test_normalize_rejects_bad_inputs(ce_generator):
    with pytest.raises(KeyError):
        normalize_unit("nope", ce_generator)
    with pytest.raises(ValueError, match="selfadjoint"):
        normalize_unit("x1", ce_generator, h=np.array([[0.0, 1.0], [0.0, 0.0]]))
    skew = Superoperator(2, left_right_rep(np.array([[1j, 0.0], [0.0, -1j]]), np.eye(2)))
    malformed = kernel_from_entries(("xi",), {("xi", "xi"): skew})
    with pytest.raises(ValueError, match="malformed generator"):
        normalize_unit("xi", malformed)


@pytest.mark.parametrize("c", [1.0, 1e-12])
def test_normalize_selfadjointness_checks_are_scale_invariant(c):
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    entry = Superoperator(2, left_right_rep(c * a, np.eye(2)))
    generator = kernel_from_entries(("xi",), {("xi", "xi"): entry})
    with pytest.raises(ValueError, match="not selfadjoint"):
        normalize_unit("xi", generator)
    with pytest.raises(ValueError, match="h must be selfadjoint"):
        normalize_unit("xi", scalar_kernel(np.array([[0.0]]), ("xi",)), h=np.array([[c * 1j]]))
