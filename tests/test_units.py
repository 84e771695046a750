import numpy as np
import pytest

from trotterlab.algebra import (
    Superoperator,
    dagger,
    left_right_rep,
    superop_exp,
    superop_norm,
    unit_element,
)
from trotterlab.kernels import scalar_kernel
from trotterlab.trotter import Partition, eval_pairing
from trotterlab.units import (
    ExtensionPositivityError,
    Segment,
    Term,
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
    assert affine_expression([2, -1], ["x1", "x2"], 2).unit_section_defect() == 0.0
    assert affine_expression([2, -2], ["x1", "x2"], 2).unit_section_defect() == pytest.approx(1.0)


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
    assert np.max(np.abs(forward.rep - backward.star_conjugate().rep)) <= 1e-10


# -- generator extension ---------------------------------------------------------

def test_extension_of_single_unit_duplicates_its_row(ce_generator):
    ext = extend_generator(unit_expression("x1", 2), ce_generator)
    kernel = ext.kernel
    assert kernel.labels == ("x1", "x2", "x3", ext.zeta)
    assert np.array_equal(kernel[(ext.zeta, ext.zeta)].rep, ce_generator[("x1", "x1")].rep)
    for s in ("x1", "x2", "x3"):
        assert np.array_equal(kernel[(ext.zeta, s)].rep, ce_generator[("x1", s)].rep)
        assert np.max(np.abs(kernel[(s, ext.zeta)].rep
                             - ce_generator[(s, "x1")].rep)) <= 1e-12
    assert ext.report.ok


def test_extension_restricts_to_base(ce_generator):
    y = affine_expression([2, -1], ["x1", "x2"], 2)
    ext = extend_generator(y, ce_generator)
    for pair, op in ce_generator.entries.items():
        assert np.array_equal(ext.kernel[pair].rep, op.rep)
    assert ext.kernel.hermitian_defect() <= 1e-12


def test_affine_extension_passes_conditional_positivity(ce_generator):
    y = affine_expression([2, -1], ["x1", "x2"], 2)
    ext = extend_generator(y, ce_generator)
    assert ext.report.ok and ext.report.min_scaled_eigenvalue >= -1e-8
    # Both oracles accept the extended kernel too.
    sampled_ok, worst, _ = sampled_conditional_form(ext.kernel)
    assert sampled_ok and worst >= -1e-8
    assert schoenberg_grid_ok(ext.kernel)


def test_extension_requires_unit_section(ce_generator):
    with pytest.raises(ValueError, match="sum to the identity"):
        extend_generator(affine_expression([2, -2], ["x1", "x2"], 2), ce_generator)


def test_extension_fails_on_bad_base_generator():
    bad = scalar_kernel(np.array([[0.0, 2.0], [2.0, -6.0]]), ("u", "v"))
    with pytest.raises(ExtensionPositivityError) as info:
        extend_generator(affine_expression([0.5, 0.5], ["u", "v"], 1), bad)
    assert info.value.report.witness is not None


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
    assert np.max(np.abs(ext.kernel[(ext.zeta, ext.zeta)].rep - expected)) <= 1e-12

    cross_expected = sum(
        np.kron(np.eye(2), dagger(rights[i])) @ ce_generator[(labels[i], "x2")].rep
        @ np.kron(np.eye(2), dagger(lefts[i])) for i in range(3))
    assert np.max(np.abs(ext.kernel[(ext.zeta, "x2")].rep - cross_expected)) <= 1e-12


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
    got = ext.kernel[("x", ext.zeta)].rep[0, 0]
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
    assert np.max(np.abs(ext.kernel[(ext.zeta, ext.zeta)].rep)) <= 1e-14


def test_normalize_ce_generator_is_unital(ce_generator):
    h = np.array([[0.1, 0.2j], [-0.2j, -0.3]])
    result = normalize_unit("x1", ce_generator, h=h)
    eye = unit_element(2)
    ext = result.extension
    diagonal = ext.kernel[(ext.zeta, ext.zeta)]
    assert np.linalg.norm(diagonal.apply(eye), 2) <= 1e-10
    for t in (0.25, 0.5, 1.0):
        image = superop_exp(diagonal, t).apply(eye)
        assert np.linalg.norm(image - eye, 2) <= 1e-10


def test_left_and_right_twists_extend_equally(ce_generator):
    rng = np.random.default_rng(15)
    beta = random_matrix(rng, 2, 0.4)
    left = extend_generator(parse_section("expm(t*B)*x1", ce_generator, B=beta), ce_generator)
    right = extend_generator(parse_section("x1*expm(t*B)", ce_generator, B=beta), ce_generator)
    assert left.kernel.labels == right.kernel.labels
    assert max(np.max(np.abs(op.rep - right.kernel[pair].rep))
               for pair, op in left.kernel.entries.items()) <= 1e-9


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
