import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from trotterlab.algebra import Superoperator, choi_matrix, dagger, left_right_rep
from trotterlab.kernels import (
    CpdSemigroup,
    KernelSymmetryError,
    NotCompletelyPositiveError,
    OperatorKernel,
    christensen_evans_kernel,
    evaluate_positivity_form,
    is_cpd,
    is_conditionally_cpd,
    kernel_from_json_dict,
    kolmogorov_decompose,
    scalar_kernel,
)

from builders import (
    evaluate,
    identity_kernel,
    kernel_from_entries,
    kernel_to_json_dict,
    random_christensen_evans,
    zero_kernel,
)
from positivity_oracles import sampled_conditional_form, schoenberg_grid_ok


def exponential_unit_gamma(params):
    """Covariance matrix gamma[s, t] = conj(a_s) + a_t + conj(c_s) c_t."""
    out = np.empty((len(params), len(params)), dtype=complex)
    for i, (a1, c1) in enumerate(params):
        for j, (a2, c2) in enumerate(params):
            out[i, j] = np.conj(a1) + a2 + np.conj(c1) * c2
    return out


# -- complete positive definiteness ------------------------------------------

def test_constant_identity_kernel_is_cpd():
    assert is_cpd(identity_kernel(("a", "b", "c"), 2)).ok


def test_scalar_indefinite_kernel_fails_with_witness():
    kernel = scalar_kernel(np.array([[1.0, 2.0], [2.0, 1.0]]), ("u", "v"))
    result = is_cpd(kernel)
    assert not result.ok
    # 2x2 eigenvalue oracle: spectrum of [[1,2],[2,1]] is {3, -1}.
    assert result.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    witness = result.witness
    assert witness is not None
    form = evaluate_positivity_form(kernel, witness.sigmas, witness.lefts, witness.rights)
    assert np.linalg.eigvalsh((form + dagger(form)) / 2)[0] == pytest.approx(-1.0, abs=1e-9)


def test_exponential_unit_semigroup_kernels_are_cpd():
    rng = np.random.default_rng(0)
    params = [(complex(a), complex(c)) for a, c in
              zip(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                  rng.standard_normal(3) + 1j * rng.standard_normal(3))]
    gamma = exponential_unit_gamma(params)
    semigroup = CpdSemigroup(scalar_kernel(gamma, ("p", "q", "r")))
    for t in (0.1, 0.5, 1.0, 2.0):
        kernel_t = evaluate(semigroup, t)
        assert is_cpd(kernel_t).ok
        # Gram-matrix oracle: the entries are genuine inner products, so the
        # plain matrix of values must be positive semidefinite.
        values = np.array([[kernel_t[(s, u)].rep[0, 0] for u in ("p", "q", "r")]
                           for s in ("p", "q", "r")])
        assert np.linalg.eigvalsh((values + values.conj().T) / 2)[0] >= -1e-10


def _lopsided_kernel():
    """Identity diagonal, ``b -> diag(1, 2) b`` above it and zero below: not hermitian."""
    eye, zero = np.eye(4), np.zeros((4, 4))
    return kernel_from_entries(("a", "b"), {
        ("a", "a"): Superoperator(2, eye),
        ("a", "b"): Superoperator(2, left_right_rep(np.diag([1.0, 2.0]), np.eye(2))),
        ("b", "a"): Superoperator(2, zero),
        ("b", "b"): Superoperator(2, eye)})


def test_is_cpd_rejects_non_hermitian():
    with pytest.raises(KernelSymmetryError, match="not a kernel candidate"):
        is_cpd(_lopsided_kernel())


def test_is_cpd_invariant_under_relabeling():
    rng = np.random.default_rng(1)
    gen = random_christensen_evans(("a", "b", "c"), 2, rng, scale=0.7)
    kernel = evaluate(CpdSemigroup(gen), 0.4)
    swap = {"a": "c", "b": "b", "c": "a"}
    permuted = kernel_from_entries(("a", "b", "c"), {
        (swap[s], swap[t]): op for (s, t), op in kernel.entries.items()})
    assert is_cpd(kernel).ok == is_cpd(permuted).ok
    bad = scalar_kernel(np.array([[1.0, 2.0], [2.0, 1.0]]), ("u", "v"))
    flip = {"u": "v", "v": "u"}
    flipped = kernel_from_entries(("v", "u"), {
        (flip[s], flip[t]): op for (s, t), op in bad.entries.items()})
    assert is_cpd(bad).min_eigenvalue == pytest.approx(is_cpd(flipped).min_eigenvalue)


# -- conditional positivity ----------------------------------------------------

def test_zero_kernel_is_conditionally_cpd():
    report = is_conditionally_cpd(zero_kernel(("a", "b"), 2))
    assert report.ok and report.scale == 0.0 and report.witness is None


def test_christensen_evans_form_is_conditionally_cpd():
    rng = np.random.default_rng(2)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=1.0)
    report = is_conditionally_cpd(gen)
    assert report.ok and report.witness is None
    assert report.min_scaled_eigenvalue >= -1e-8
    # Both oracles accept it too.
    sampled_ok, worst, _ = sampled_conditional_form(gen, samples=500, seed=3)
    assert sampled_ok and worst >= -1e-8
    assert schoenberg_grid_ok(gen)


def _broken_generator():
    rng = np.random.default_rng(3)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=1.0)
    bump = left_right_rep(np.diag([1.0, 0.4]), np.diag([1.0, 0.4]))
    entries = dict(gen.entries)
    for s in ("a", "b"):
        entries[(s, s)] = Superoperator(2, entries[(s, s)].rep - 3.0 * bump)
    return kernel_from_entries(("a", "b"), entries)


def test_broken_generator_fails_with_reusable_witness():
    broken = _broken_generator()
    report = is_conditionally_cpd(broken)
    assert not report.ok
    assert report.witness is not None
    w = report.witness
    form = evaluate_positivity_form(broken, w.sigmas, w.lefts, w.rights)
    assert np.linalg.eigvalsh((form + dagger(form)) / 2)[0] < -1e-6


def _scaled(kernel, factor):
    return OperatorKernel(kernel.labels, factor * kernel.table)


def test_conditional_report_records_coverage():
    # The report covers the whole constrained subspace: its margin is the
    # smallest eigenvalue there, recomputed here from an independent basis.
    rng = np.random.default_rng(12)
    for labels, d in ((("a",), 2), (("a", "b"), 2), (("a", "b", "c"), 3)):
        gen = random_christensen_evans(labels, d, rng)
        for kernel in (gen, _scaled(gen, -1.0)):
            block = kernel.block_choi()
            herm = (block + dagger(block)) / 2
            omega = np.tile(np.eye(d).reshape(-1), len(labels))
            basis = scipy.linalg.null_space(omega[None, :])
            assert basis.shape[1] == len(labels) * d * d - 1
            scale = np.linalg.norm(herm, 2)
            lowest = np.linalg.eigvalsh(dagger(basis) @ herm @ basis)[0]
            report = is_conditionally_cpd(kernel)
            assert report.scale == pytest.approx(scale, rel=1e-12)
            assert report.min_scaled_eigenvalue == pytest.approx(lowest / scale, abs=1e-12)
            assert report.ok == (lowest >= -1e-8 * scale)
    # One label over the scalars has an empty constrained subspace.
    report = is_conditionally_cpd(scalar_kernel(np.array([[-5.0]]), ("a",)))
    assert report.ok and report.min_scaled_eigenvalue == 0.0 and report.witness is None
    assert report.scale == pytest.approx(5.0)


@pytest.mark.parametrize("factor", [1e-12, 1.0, 1e6])
def test_positivity_verdicts_are_scale_invariant(factor):
    rng = np.random.default_rng(13)
    gen = random_christensen_evans(("a", "b"), 2, rng)
    broken = _broken_generator()
    reference = is_conditionally_cpd(broken).min_scaled_eigenvalue

    assert is_conditionally_cpd(_scaled(gen, factor)).ok
    report = is_conditionally_cpd(_scaled(broken, factor))
    assert not report.ok
    assert report.min_scaled_eigenvalue == pytest.approx(reference, rel=1e-9)

    value = evaluate(CpdSemigroup(gen), 0.5)
    assert is_cpd(_scaled(value, factor)).ok
    assert not is_cpd(_scaled(broken, factor)).ok
    factored = kolmogorov_decompose(_scaled(value, factor))
    assert factored.rank == kolmogorov_decompose(value).rank
    assert factored.max_reconstruction_error(_scaled(value, factor)) <= 1e-9 * factor

    # Single maps: the transpose on 2x2 matrices (Choi spectrum {1, 1, 1, -1})
    # is not completely positive at any scale; the identity and zero maps are.
    def one_label(op):
        return kernel_from_entries(("x",), {("x", "x"): op})

    transpose = Superoperator(2, np.eye(4)[[0, 2, 1, 3]])  # b -> b.T
    assert not is_cpd(one_label(Superoperator(2, factor * transpose.rep))).ok
    assert is_cpd(one_label(Superoperator(2, factor * np.eye(4)))).ok
    assert is_cpd(one_label(Superoperator(2, np.zeros((4, 4))))).ok
    with pytest.raises(KernelSymmetryError):
        is_conditionally_cpd(_scaled(_lopsided_kernel(), factor))


def _perturbed_generator(rng, labels, d, size):
    """A random Christensen-Evans kernel plus a random hermitian kernel of ``size``."""
    entries = dict(random_christensen_evans(labels, d, rng, scale=0.8).entries)
    for i, s in enumerate(labels):
        for t in labels[i:]:
            raw = Superoperator(d, size * (rng.standard_normal((d * d, d * d))
                                           + 1j * rng.standard_normal((d * d, d * d))))
            if s == t:
                raw = Superoperator(d, (raw.rep + raw.star_conjugate().rep) / 2)
            entries[(s, t)] = Superoperator(d, entries[(s, t)].rep + raw.rep)
            if s != t:
                entries[(t, s)] = Superoperator(d, entries[(t, s)].rep + raw.star_conjugate().rep)
    return kernel_from_entries(labels, entries)


# Depths (in units of the gate's scale) beyond which each oracle is
# expected to see a violation.  The grid starts at t = 1e-3, where the
# O(t^2) term of exp(tK) can still mask a shallow negative direction
# (largest miss seen: -8.3e-5 over 600 kernels).  The sampler rarely
# draws a violation that needs every label in one tuple, inside a thin
# cone of coefficients (largest miss seen: -0.027 over 400 violations,
# with member norms log-uniform in [0.1, 10] and with unit norms alike).
GRID_RESOLUTION = 1e-3
SAMPLER_RESOLUTION = 0.1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3)), st.integers(1, 3),
       st.sampled_from((0.0, 0.01, 0.1, 0.5)))
def test_exact_gate_agrees_with_sampler_and_schoenberg(seed, dim, n_labels, size):
    rng = np.random.default_rng(seed)
    labels = tuple(f"s{i}" for i in range(n_labels))
    kernel = _perturbed_generator(rng, labels, dim, size)
    report = is_conditionally_cpd(kernel)
    if size == 0.0:
        assert report.ok
    sampled_ok, _, sampled_witness = sampled_conditional_form(kernel, seed=seed % 1000)
    grid_ok = schoenberg_grid_ok(kernel)
    # Both oracles are sound: a violation either finds refutes the kernel.
    if not sampled_ok:
        assert not report.ok
        w = sampled_witness
        form = evaluate_positivity_form(kernel, w.sigmas, w.lefts, w.rights)
        assert np.linalg.eigvalsh((form + dagger(form)) / 2)[0] < 0
    if not grid_ok:
        assert not report.ok
    # Beyond their resolution they also find every violation.
    if report.ok or report.min_scaled_eigenvalue < -GRID_RESOLUTION:
        assert grid_ok == report.ok
    if report.ok or report.min_scaled_eigenvalue < -SAMPLER_RESOLUTION:
        assert sampled_ok == report.ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3)), st.integers(1, 3))
def test_conditional_witness_satisfies_constraint_and_is_negative(seed, dim, n_labels):
    rng = np.random.default_rng(seed)
    labels = tuple(f"s{i}" for i in range(n_labels))
    kernel = _perturbed_generator(rng, labels, dim, 0.5)
    report = is_conditionally_cpd(kernel)
    if report.ok:
        assert report.witness is None
        return
    witness = report.witness
    magnitude = sum(np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
                    for a, b in zip(witness.lefts, witness.rights))
    constraint = sum(a @ b for a, b in zip(witness.lefts, witness.rights))
    assert np.linalg.norm(constraint, 2) <= 1e-10 * magnitude
    form = evaluate_positivity_form(kernel, witness.sigmas, witness.lefts, witness.rights)
    lowest = np.linalg.eigvalsh((form + dagger(form)) / 2)[0]
    assert lowest < 0
    assert witness.form_min_eigenvalue == pytest.approx(lowest, rel=1e-9, abs=1e-12)
    # The (1, 1) entry of the form is the compressed Rayleigh quotient.
    assert form[0, 0].real == pytest.approx(
        report.min_scaled_eigenvalue * report.scale, rel=1e-9)


# -- semigroup evaluation ------------------------------------------------------

def test_evaluate_at_zero_is_identity_kernel():
    rng = np.random.default_rng(4)
    gen = random_christensen_evans(("a", "b"), 2, rng)
    kernel0 = evaluate(CpdSemigroup(gen), 0.0)
    for pair, op in kernel0.entries.items():
        assert np.allclose(op.rep, np.eye(4))


def test_evaluate_scalar_generator_entrywise():
    kappa = 0.4 + 0.3j
    gamma = np.array([[0.0, kappa], [np.conj(kappa), abs(kappa) ** 2]])
    semigroup = CpdSemigroup(scalar_kernel(gamma, ("u", "v")))
    t = 0.8
    kernel_t = evaluate(semigroup, t)
    for i, s in enumerate(("u", "v")):
        for j, u in enumerate(("u", "v")):
            assert kernel_t[(s, u)].rep[0, 0] == pytest.approx(np.exp(t * gamma[i, j]))


def test_vacuum_indicator_generator_evaluates_to_paper_values():
    # u pairs trivially with everything, v has unit growth: the semigroup
    # matrix at time t is [[1, 1], [1, e^t]].
    gamma = np.array([[0.0, 0.0], [0.0, 1.0]])
    semigroup = CpdSemigroup(scalar_kernel(gamma, ("u", "v")))
    for t in (0.3, 1.0):
        kernel_t = evaluate(semigroup, t)
        assert kernel_t[("u", "u")].rep[0, 0] == pytest.approx(1.0)
        assert kernel_t[("u", "v")].rep[0, 0] == pytest.approx(1.0)
        assert kernel_t[("v", "u")].rep[0, 0] == pytest.approx(1.0)
        assert kernel_t[("v", "v")].rep[0, 0] == pytest.approx(np.exp(t))


def test_evaluate_rejects_negative_time():
    semigroup = CpdSemigroup(zero_kernel(("a",), 1))
    with pytest.raises(ValueError):
        evaluate(semigroup, -0.1)


def test_evaluate_preserves_hermitian_symmetry():
    rng = np.random.default_rng(5)
    gen = random_christensen_evans(("a", "b", "c"), 3, rng, scale=0.6)
    assert gen.hermitian_defect() <= 1e-12
    semigroup = CpdSemigroup(gen)
    for t in (0.2, 0.9):
        assert evaluate(semigroup, t).hermitian_defect() <= 1e-10


def test_schoenberg_forward_and_converse_over_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n_labels = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        labels = tuple(f"s{i}" for i in range(n_labels))
        gen = random_christensen_evans(labels, d, rng, scale=0.8)
        report = is_conditionally_cpd(gen)
        assert report.ok and report.min_scaled_eigenvalue >= -1e-8
        # forward: exponentials are all CPD; converse: the constrained
        # sampler finds nothing below the tolerance.  Both agree with the gate.
        assert schoenberg_grid_ok(gen)
        sampled_ok, worst, _ = sampled_conditional_form(
            gen, samples=60, seed=int(rng.integers(1 << 30)))
        assert sampled_ok and worst >= -1e-8


def test_generator_recovered_from_small_time_differences():
    rng = np.random.default_rng(7)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.5)
    semigroup = CpdSemigroup(gen)

    def difference_quotient(s, u, t):
        return (semigroup.entry_rep(s, u, t) - np.eye(4)) / t

    for s in ("a", "b"):
        for u in ("a", "b"):
            errors = []
            for t in (1e-2, 1e-3, 1e-4):
                errors.append(np.linalg.norm(difference_quotient(s, u, t)
                                             - gen[(s, u)].rep, 2))
            slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errors), 1)[0]
            assert slope >= 0.9
            # Richardson extrapolation removes the first-order error term.
            richardson = 2 * difference_quotient(s, u, 5e-3) - difference_quotient(s, u, 1e-2)
            assert (np.linalg.norm(richardson - gen[(s, u)].rep, 2)
                    < 0.05 * np.linalg.norm(difference_quotient(s, u, 1e-2) - gen[(s, u)].rep, 2))


def test_diagonal_unitality_recording():
    eye = np.eye(1)
    semigroup = CpdSemigroup(scalar_kernel(np.array([[0.0]]), ("u",)))
    for t in (0.5, 1.0):
        drift = semigroup.entry("u", "u", t).apply(eye) - eye
        assert np.linalg.norm(drift, 2) == pytest.approx(0.0)
    growing = CpdSemigroup(scalar_kernel(np.array([[1.0]]), ("v",)))
    drift = growing.entry("v", "v", 1.0).apply(eye) - eye
    assert np.linalg.norm(drift, 2) == pytest.approx(np.e - 1.0)


# -- factorization -------------------------------------------------------------

def test_kolmogorov_identity_single_label():
    kernel = identity_kernel(("a",), 2)
    decomposition = kolmogorov_decompose(kernel)
    assert decomposition.rank == 1
    factor = decomposition.factors[0][0]
    assert np.allclose(factor @ dagger(factor), np.eye(2))
    assert decomposition.max_reconstruction_error(kernel) <= 1e-12


def test_kolmogorov_rank_one_scalar_kernel():
    kernel = scalar_kernel(np.array([[1.0, 1.0], [1.0, 1.0]]), ("u", "v"))
    decomposition = kolmogorov_decompose(kernel)
    assert decomposition.rank == 1
    assert decomposition.factors[0][0] == pytest.approx(decomposition.factors[1][0])
    assert abs(decomposition.factors[0][0][0, 0]) == pytest.approx(1.0)


def test_kolmogorov_reconstructs_random_cpd_kernel():
    rng = np.random.default_rng(8)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.7)
    kernel = evaluate(CpdSemigroup(gen), 0.6)
    decomposition = kolmogorov_decompose(kernel)
    assert decomposition.max_reconstruction_error(kernel) < 1e-9
    assert decomposition.factors.shape == (2, decomposition.rank, 2, 2)


def test_kolmogorov_requires_cpd():
    kernel = scalar_kernel(np.array([[1.0, 2.0], [2.0, 1.0]]), ("u", "v"))
    with pytest.raises(NotCompletelyPositiveError):
        kolmogorov_decompose(kernel)


# -- the table against per-pair loops -----------------------------------------
# Each kernel operation reads the whole table at once; these loops build or
# read it one entry at a time with the same per-element arithmetic, so the
# two must agree exactly.

def loop_hermitian_defect(kernel):
    worst = 0.0
    for s in kernel.labels:
        for t in kernel.labels:
            diff = kernel[(t, s)].rep - kernel[(s, t)].star_conjugate().rep
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def loop_block_choi(kernel):
    return np.block([[choi_matrix(kernel[(s, t)].rep) for t in kernel.labels]
                     for s in kernel.labels])


def loop_christensen_evans(labels, dim, eta, beta):
    eye = np.eye(dim)
    return {(s, t): left_right_rep(dagger(eta[s]), eta[t]) + left_right_rep(eye, beta[t])
            + left_right_rep(dagger(beta[s]), eye) for s in labels for t in labels}


def loop_reconstruction_error(decomposition, kernel):
    worst, factors = 0.0, decomposition.factors
    for i, s in enumerate(kernel.labels):
        for j, t in enumerate(kernel.labels):
            rep = left_right_rep(dagger(factors[i]), factors[j]).sum(axis=0)
            worst = max(worst, float(np.max(np.abs(rep - kernel[(s, t)].rep))))
    return worst


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3)), st.integers(1, 3))
def test_table_operations_match_per_pair_loops(seed, dim, n_labels):
    rng = np.random.default_rng(seed)
    labels = tuple(f"s{i}" for i in range(n_labels))
    d2 = dim * dim

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    generic = OperatorKernel(labels, draw(n_labels, n_labels, d2, d2))
    assert generic.hermitian_defect() == loop_hermitian_defect(generic)
    assert np.array_equal(generic.block_choi(), loop_block_choi(generic))

    eta = {s: draw(dim, dim) for s in labels}
    beta = {s: draw(dim, dim) for s in labels}
    ce = christensen_evans_kernel(labels, dim, eta, beta)
    expected = loop_christensen_evans(labels, dim, eta, beta)
    assert all(np.array_equal(ce[pair].rep, rep) for pair, rep in expected.items())
    assert ce.hermitian_defect() == loop_hermitian_defect(ce)

    matrix = draw(n_labels, n_labels)
    scalar = scalar_kernel(matrix, labels)
    assert all(scalar[(s, t)].rep == matrix[i, j]
               for i, s in enumerate(labels) for j, t in enumerate(labels))

    value = evaluate(CpdSemigroup(ce), 0.3 / (1.0 + float(np.max(np.abs(ce.table)))))
    decomposition = kolmogorov_decompose(value)
    assert (decomposition.max_reconstruction_error(value)
            == loop_reconstruction_error(decomposition, value))


def test_kernel_table_is_read_only_and_fixes_dim():
    source = np.zeros((2, 2, 4, 4), dtype=complex)
    kernel = OperatorKernel(("a", "b"), source)
    assert kernel.dim == 2 and not kernel.table.flags.writeable
    with pytest.raises(ValueError):
        kernel.table[0, 0, 0, 0] = 1.0
    source[0, 0, 0, 0] = 1.0  # the kernel holds its own copy
    assert kernel[("a", "a")].rep[0, 0] == 0.0
    for shape in ((2, 2, 4, 3), (2, 1, 4, 4), (2, 2, 3, 3), (2, 2, 0, 0)):
        with pytest.raises(ValueError, match="table shape"):
            OperatorKernel(("a", "b"), np.zeros(shape))


# -- JSON codec ----------------------------------------------------------------

def test_json_round_trip_is_exact():
    rng = np.random.default_rng(9)
    gen = random_christensen_evans(("a", "b"), 2, rng)
    kernel = evaluate(CpdSemigroup(gen), 0.31)
    document = json.loads(json.dumps(kernel_to_json_dict(kernel)))
    back = kernel_from_json_dict(document)
    assert back.labels == kernel.labels and back.dim == kernel.dim
    for pair in kernel.entries:
        assert np.array_equal(back[pair].rep, kernel[pair].rep)


def test_json_codec_rejects_bad_documents():
    with pytest.raises(ValueError):
        kernel_from_json_dict({"dim": 2})
    with pytest.raises(ValueError, match="at least one label"):
        kernel_from_json_dict({"dim": 1, "labels": [], "entries": {}})
    with pytest.raises(ValueError):
        kernel_from_json_dict({"dim": 1, "labels": ["a"], "entries": {}})
    with pytest.raises(ValueError):
        kernel_from_json_dict({"dim": 1, "labels": ["a"],
                               "entries": {"a|a": [[0, 0], [0, 0]]}})
    for dim, values in ((0, []), (-1, [[1.0, 0.0]]), (1.5, [[1.0, 0.0]])):
        with pytest.raises(ValueError, match="dim must be an integer"):
            kernel_from_json_dict({"dim": dim, "labels": ["a"], "entries": {"a|a": values}})
    for values in ([1], [["x", 0]], 5, [[float("nan"), 0]], [[float("inf"), 0]],
                   [[True, 0]], [[10 ** 400, 0]]):
        with pytest.raises(ValueError, match="a[|]a"):
            kernel_from_json_dict({"dim": 1, "labels": ["a"], "entries": {"a|a": values}})
    with pytest.raises(ValueError, match="labels must be a list"):
        kernel_from_json_dict({"dim": 1, "labels": "ab", "entries": {
            "a|a": [[1, 0]], "a|b": [[0, 0]], "b|a": [[0, 0]], "b|b": [[1, 0]]}})
    with pytest.raises(ValueError):
        kernel_to_json_dict(identity_kernel(("a|b",), 1))
