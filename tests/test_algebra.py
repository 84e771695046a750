import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from trotterlab.algebra import (
    Superoperator,
    _candidate_ratios,
    _NORM_DIRECTIONS,
    _NORM_MAX_ITER,
    _NORM_REFINE_FROM,
    _NORM_RTOL,
    _norm_candidates,
    choi_matrix,
    dagger,
    expm_times,
    left_right_rep,
    matrix_unit,
    superop_exp,
    superop_norm,
    unit_element,
    unvec,
    vec,
)
from trotterlab.kernels import KernelSymmetryError, is_cpd

from builders import kernel_from_entries


def is_cp(op):
    """Choi's test: ``op`` is completely positive iff its one-label kernel is CPD."""
    return is_cpd(kernel_from_entries(("x",), {("x", "x"): op})).ok


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_superop(rng, d, scale=1.0):
    return Superoperator(d, scale * (rng.standard_normal((d * d, d * d))
                                     + 1j * rng.standard_normal((d * d, d * d))))


def test_vec_column_stacking():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(a), np.array([1, 3, 2, 4]))
    assert np.array_equal(unvec(vec(a), 2), a)


def test_left_right_matches_kron_identity():
    rng = np.random.default_rng(0)
    p, q, b = (random_matrix(rng, 3) for _ in range(3))
    rep = left_right_rep(p, q)
    assert np.allclose(rep, np.kron(q.T, p))
    assert np.allclose(Superoperator(3, rep).apply(b), p @ b @ q)


def test_star_conjugate_is_involution_partner():
    rng = np.random.default_rng(2)
    op = random_superop(rng, 2)
    b = random_matrix(rng, 2)
    assert np.allclose(op.star_conjugate().apply(b), dagger(op.apply(dagger(b))))
    assert np.allclose(op.star_conjugate().star_conjugate().rep, op.rep)


def test_involution_and_unit_identities():
    rng = np.random.default_rng(3)
    a, b = random_matrix(rng, 3), random_matrix(rng, 3)
    assert np.allclose(dagger(dagger(a)), a)
    assert np.allclose(dagger(a @ b), dagger(b) @ dagger(a))
    eye = unit_element(3)
    assert np.allclose(eye @ a, a) and np.allclose(a @ eye, a)


def test_compose_left_then_right_mul():
    rng = np.random.default_rng(5)
    c = random_matrix(rng, 2)
    b = random_matrix(rng, 2)
    eye = np.eye(2)
    sandwich = Superoperator(2, left_right_rep(c, eye) @ left_right_rep(eye, c))
    assert np.allclose(sandwich.apply(b), c @ b @ c)


def test_exp_of_zero_map_is_identity():
    zero = Superoperator(3, np.zeros((9, 9)))
    assert np.array_equal(superop_exp(zero, 0.7).rep, np.eye(9))


def test_exp_scalar_case():
    gamma = 0.3 - 0.8j
    g = Superoperator(1, np.array([[gamma]]))
    assert np.allclose(superop_exp(g, 2.0).rep[0, 0], np.exp(2.0 * gamma))


def test_exp_matches_taylor_series():
    rng = np.random.default_rng(6)
    g = random_superop(rng, 2)
    t = 0.3
    term = np.eye(4, dtype=complex)
    series = term.copy()
    for k in range(1, 21):
        term = term @ (t * g.rep) / k
        series += term
    assert np.max(np.abs(superop_exp(g, t).rep - series)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_exp_semigroup_law(seed, large_times):
    rng = np.random.default_rng(seed)
    g = random_superop(rng, 2)
    g = Superoperator(2, (1.0 if large_times else 10.0) / np.linalg.norm(g.rep, 2) * g.rep)
    hi = 1.0 if not large_times else 10.0
    s, t = rng.uniform(0, hi, size=2)
    lhs = superop_exp(g, s).rep @ superop_exp(g, t).rep
    rhs = superop_exp(g, s + t).rep
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_exp_negative_time_flagged():
    g = Superoperator(2, np.eye(4))
    with pytest.warns(UserWarning):
        superop_exp(g, -0.5)


def test_exp_rejects_non_finite():
    g = Superoperator(1, np.array([[np.inf]]))
    with pytest.raises(ValueError):
        superop_exp(g, 1.0)
    with pytest.raises(ValueError):
        superop_exp(Superoperator(1, np.eye(1)), np.nan)


# -- expm_times ---------------------------------------------------------------

UNIT_ROUNDOFF = 2.0 ** -53


def scaled_generators(rng, size, table, times, rho):
    """A random complex (table + (size, size)) stack with max|t| * max ||rep||_1 == rho."""
    rep = rng.standard_normal((*table, size, size)) + 1j * rng.standard_normal((*table, size, size))
    reach = np.max(np.abs(times)) * np.max(np.abs(rep).sum(axis=-2))
    return rep * (rho / reach) if reach > 0 else rep


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3)),
       st.sampled_from(((), (2,), (2, 2), (3, 1))), st.integers(1, 5),
       st.floats(0.0, 30.0))
def test_expm_times_matches_scipy(seed, d, table, n_times, rho):
    rng = np.random.default_rng(seed)
    times = rng.uniform(-1.0, 1.0, size=n_times)
    times[rng.integers(n_times)] = 0.0
    rep = scaled_generators(rng, d * d, table, times, rho)
    got = expm_times(rep, times)
    assert got.shape == times.shape + rep.shape
    for k, t in enumerate(times):
        for index in np.ndindex(*table):
            want = scipy.linalg.expm(t * rep[index])
            assert np.max(np.abs(got[k][index] - want)) <= 1e-12 * np.max(np.abs(want))


def test_expm_times_at_time_zero_is_exactly_the_identity():
    rep = scaled_generators(np.random.default_rng(4), 4, (2, 2), [1.0], 25.0)
    for t in (0.0, -0.0, [0.0, 0.0]):
        got = expm_times(rep, t)
        assert np.array_equal(got, np.broadcast_to(np.eye(4), got.shape))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_expm_times_semigroup_law(seed, s, t):
    rep = scaled_generators(np.random.default_rng(seed), 4, (), [1.0], 3.0)
    e_s, e_t, e_st = expm_times(rep, np.array([s, t, s + t]))
    scale = np.linalg.norm(e_s, 1) * np.linalg.norm(e_t, 1)
    assert np.max(np.abs(e_s @ e_t - e_st)) <= 1e-12 * scale


def test_expm_times_scalar_generators_are_np_exp():
    rep = np.array([[[0.3 - 0.8j]], [[-2.0 + 0.1j]]])
    times = np.array([[0.0, 1.5], [-0.25, 40.0]])
    got = expm_times(rep, times)
    assert got.shape == (2, 2, 2, 1, 1)
    assert np.array_equal(got, np.exp(times[..., None, None, None] * rep))


def test_expm_times_rejects_non_finite():
    with pytest.raises(ValueError):
        expm_times(np.eye(2), [0.5, np.nan])
    with pytest.raises(ValueError):
        expm_times(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0)


def test_expm_times_error_against_high_precision():
    # Truth: exp(t rep) in 34-digit arithmetic from the exact float inputs.
    # scipy's Pade scaling-and-squaring stays within 1.97 unit roundoffs here.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    with mp.workdps(34):
        for k in range(24):
            size = (2, 4)[k % 2]
            times = rng.uniform(-1.0, 1.0, size=3)
            rep = scaled_generators(rng, size, (), times, rng.uniform(0.0, 0.5))
            got = expm_times(rep, times)
            exact = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in rep])
            for t, value in zip(times, got):
                truth = mp.expm(mp.mpf(float(t)) * exact)
                err = max(abs(mp.mpc(complex(value[i, j])) - truth[i, j])
                          for i in range(size) for j in range(size))
                top = max(abs(truth[i, j]) for i in range(size) for j in range(size))
                assert err <= 3 * UNIT_ROUNDOFF * top


def test_norm_of_identity_and_zero():
    assert superop_norm(Superoperator(3, np.eye(9))) == pytest.approx(1.0, abs=1e-12)
    assert superop_norm(Superoperator(3, np.zeros((9, 9)))) == 0.0


def test_norm_of_conjugation_map():
    # b -> c b c* with |c| = 2; brute-force maximization is the oracle.
    c = np.diag([2.0, 0.7 + 0.1j])
    op = Superoperator(2, left_right_rep(c, dagger(c)))
    rng = np.random.default_rng(7)
    brute = 0.0
    for _ in range(2_000):
        b = random_matrix(rng, 2)
        brute = max(brute, np.linalg.norm(op.apply(b), 2) / np.linalg.norm(b, 2))
    value = superop_norm(op)
    assert value == pytest.approx(4.0, rel=1e-8)
    assert value >= brute - 1e-9


def _op_norm_ratio(op, b):
    nb = np.linalg.norm(b, 2)
    if nb == 0.0:
        return 0.0
    return float(np.linalg.norm(op.apply(b), 2) / nb)


def per_candidate_ranking(op, directions=500):
    """Oracle: candidates drawn one at a time and ranked by one ratio call each."""
    d = op.dim
    rng = np.random.default_rng(1729)
    candidates = [np.eye(d, dtype=complex)]
    candidates += [matrix_unit(d, i, j) for i in range(d) for j in range(d)]
    _, _, vh = np.linalg.svd(op.rep)
    candidates.append(unvec(vh[0].conj(), d))
    for _ in range(directions):
        candidates.append(random_matrix(rng, d))
    ratios = [_op_norm_ratio(op, b) for b in candidates]
    order = sorted(range(len(candidates)), key=ratios.__getitem__, reverse=True)
    return np.stack(candidates), np.array(ratios), order


def test_batched_norm_scoring_matches_per_candidate_ranking():
    rng = np.random.default_rng(13)
    for k in range(30):
        op = random_superop(rng, 1 + k % 3)
        candidates, ratios, order = per_candidate_ranking(op)
        batched = _candidate_ratios(op, _norm_candidates(op, 500))
        assert np.array_equal(_norm_candidates(op, 500), candidates)
        np.testing.assert_allclose(batched, ratios, rtol=1e-12, atol=0.0)
        assert list(np.argsort(-batched, kind="stable")[:8]) == order[:8]
        assert superop_norm(op) >= ratios[order[0]]


def per_candidate_norm(op):
    """Oracle: the refinement one candidate at a time, each step on single matrices."""
    candidates = _norm_candidates(op, _NORM_DIRECTIONS)
    scored = candidates[np.argsort(-_candidate_ratios(op, candidates), kind="stable")]
    best = _op_norm_ratio(op, scored[0])
    if best == 0.0:
        return 0.0
    adjoint = Superoperator(op.dim, op.rep.conj().T)
    for b0 in scored[:_NORM_REFINE_FROM]:
        b = b0 / np.linalg.norm(b0, 2)
        val = _op_norm_ratio(op, b)
        for _ in range(_NORM_MAX_ITER):
            u, _, vh_img = np.linalg.svd(op.apply(b))
            grad = adjoint.apply(np.outer(u[:, 0], vh_img[0]))
            ug, sg, vgh = np.linalg.svd(grad)
            if sg[0] == 0.0:
                break
            b_new = ug @ vgh
            val_new = _op_norm_ratio(op, b_new)
            if val_new <= val * (1.0 + _NORM_RTOL):
                break
            b, val = b_new, val_new
        best = max(best, val)
    return best


def test_lockstep_norm_refinement_matches_per_candidate_loop():
    rng = np.random.default_rng(21)
    for k in range(60):
        op = random_superop(rng, 1 + k % 3)
        assert superop_norm(op) == pytest.approx(per_candidate_norm(op), rel=1e-12, abs=0.0)
    zero = Superoperator(2, np.zeros((4, 4)))
    assert superop_norm(zero) == per_candidate_norm(zero) == 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_submultiplicative(seed):
    rng = np.random.default_rng(seed)
    a, b = random_superop(rng, 2), random_superop(rng, 2)
    product = Superoperator(2, a.rep @ b.rep)
    assert superop_norm(product) <= superop_norm(a) * superop_norm(b) + 1e-8


def test_choi_of_identity_is_entangled_projector():
    d = 2
    ident = Superoperator(d, np.eye(d * d))
    c = choi_matrix(ident.rep)
    phi = sum(np.kron(np.eye(d)[:, i], np.eye(d)[:, i]) for i in range(d))
    assert np.allclose(c, np.outer(phi, phi.conj()))
    assert is_cp(ident)


def test_single_kraus_map_is_cp():
    rng = np.random.default_rng(9)
    c = random_matrix(rng, 3)
    op = Superoperator(3, left_right_rep(dagger(c), c))  # b -> c* b c
    assert is_cp(op)


def test_transpose_map_not_cp():
    transpose = Superoperator(2, np.eye(4)[[0, 2, 1, 3]])  # b -> b.T
    b = random_matrix(np.random.default_rng(11), 2)
    assert np.array_equal(transpose.apply(b), b.T)
    # Eigen-decomposition oracle: the Choi matrix of the transpose at d=2
    # is the swap, with spectrum {1, 1, 1, -1}.
    eigs = np.linalg.eigvalsh(choi_matrix(transpose.rep))
    assert eigs[0] == pytest.approx(-1.0, abs=1e-12)
    assert not is_cp(transpose)


def test_non_hermiticity_preserving_map_is_not_a_kernel():
    # b -> p b with p not selfadjoint maps selfadjoint b to non-selfadjoint
    # ones, so its one-label kernel fails hermitian symmetry.
    op = Superoperator(2, left_right_rep(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2)))
    with pytest.raises(KernelSymmetryError):
        is_cp(op)


def test_cp_verdict_agrees_with_sampled_form():
    # Direct sampling of sum_ij b_i* A(a_i* a_j) b_j over random tuples.
    rng = np.random.default_rng(10)
    checked = 0
    for trial in range(25):
        d = int(rng.integers(2, 4))
        if trial % 2 == 0:
            ops = [random_matrix(rng, d) for _ in range(2)]
            rep = sum(np.kron(k.conj(), k) for k in ops)  # Kraus form: CP
            op = Superoperator(d, rep)
        else:
            op = random_superop(rng, d)
            # Hermiticity preserving, generically not CP.
            op = Superoperator(d, op.rep + op.star_conjugate().rep)
        verdict = is_cp(op)
        min_form = 0.0
        for _ in range(8):
            n = int(rng.integers(1, 4))
            lefts = [random_matrix(rng, d) for _ in range(n)]
            rights = [random_matrix(rng, d) for _ in range(n)]
            form = sum(dagger(rights[i]) @ op.apply(dagger(lefts[i]) @ lefts[j]) @ rights[j]
                       for i in range(n) for j in range(n))
            min_form = min(min_form, np.linalg.eigvalsh((form + dagger(form)) / 2)[0])
            checked += 1
        scale = max(1.0, np.linalg.norm(op.rep, 2))
        if verdict:
            assert min_form >= -1e-8 * scale
        elif min_form < -1e-8 * scale:
            assert not verdict
    assert checked >= 200
