import numpy as np
import pytest

from trotterlab.fock import (
    ExponentialUnit,
    ExponentialVector,
    StepFunction,
    concat,
    counterexample_scenario,
    covariance,
    covariance_kernel,
    fock_inner,
    trotter_vector,
)
from trotterlab.trotter import Partition, eval_pairing
from trotterlab.units import unit_expression


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(1, (0.5, 1.0), ((1.0,),))
    with pytest.raises(ValueError):
        StepFunction(1, (0.0, 1.0, 1.0), ((1.0,), (2.0,)))
    with pytest.raises(ValueError):
        StepFunction(2, (0.0, 1.0), ((1.0,),))


def test_vacuum_inner_product_is_one():
    vacuum = ExponentialUnit(0.0, (0.0,))
    assert fock_inner(vacuum.vector(1.0), vacuum.vector(1.0)) == pytest.approx(1.0)


def test_indicator_inner_product():
    indicator = ExponentialUnit(0.0, (1.0,))
    for t in (0.5, 1.0, 2.0):
        value = fock_inner(indicator.vector(t), indicator.vector(t))
        assert value == pytest.approx(np.exp(t), abs=1e-12)


def test_half_amplitude_against_alternating_pattern():
    # <psi(0.5 on [0,1]), alternating 0/1 over 8 equal slots> = exp(1/4):
    # the integrand is 0.5 on the four filled slots of total measure 1/2.
    half = ExponentialVector(1.0, StepFunction.constant((0.5,), 1.0))
    breakpoints = tuple(i / 8 for i in range(9))
    values = tuple(((0.0,) if i % 2 == 0 else (1.0,)) for i in range(8))
    pattern = ExponentialVector(1.0, StepFunction(1, breakpoints, values))
    assert fock_inner(half, pattern) == pytest.approx(np.exp(0.25), abs=1e-14)


def test_inner_product_rejects_mismatches():
    u = ExponentialUnit(0.0, (1.0,))
    v = ExponentialUnit(0.0, (1.0, 0.0))
    with pytest.raises(ValueError):
        fock_inner(u.vector(1.0), u.vector(2.0))
    with pytest.raises(ValueError):
        fock_inner(u.vector(1.0), v.vector(1.0))


def test_multiplicativity_over_concatenation():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        def rand_vec(length):
            k = 2
            cuts = np.sort(rng.uniform(0, length, size=2))
            bps = (0.0, *cuts, length)
            vals = tuple(tuple(rng.standard_normal(k) + 1j * rng.standard_normal(k))
                         for _ in range(3))
            return ExponentialVector(complex(np.exp(rng.standard_normal() * 0.2)),
                                     StepFunction(k, bps, vals))

        x1, y1 = rand_vec(0.7), rand_vec(0.7)
        x2, y2 = rand_vec(0.5), rand_vec(0.5)
        product = fock_inner(x1, y1) * fock_inner(x2, y2)
        joined = fock_inner(x1.concat(x2), y1.concat(y2))
        worst = max(worst, abs(product - joined) / max(1.0, abs(product)))
    assert worst <= 1e-12


def test_trotter_vector_direct_identification():
    vacuum = ExponentialUnit(0.0, (0.0,))
    indicator = ExponentialUnit(0.0, (1.0,))
    vector = trotter_vector(vacuum, indicator, 1.0, 1)
    assert vector.prefactor == pytest.approx(1.0)
    assert vector.argument.breakpoints == (0.0, 0.5, 1.0)
    assert vector.argument.values == ((0.0,), (1.0,))


def test_trotter_vector_norm_is_exact_for_every_n():
    vacuum = ExponentialUnit(0.0, (0.0,))
    indicator = ExponentialUnit(0.0, (1.0,))
    for n in (1, 2, 17, 1024):
        y = trotter_vector(vacuum, indicator, 1.0, n)
        assert fock_inner(y, y) == pytest.approx(np.exp(0.5), abs=1e-12)


def test_trotter_vector_pairs_with_general_unit():
    vacuum = ExponentialUnit(0.0, (0.0,))
    indicator = ExponentialUnit(0.0, (1.0,))
    alpha, c = 0.3 - 0.2j, 0.7 + 0.4j
    other = ExponentialUnit(alpha, (c,))
    for n in (1, 8, 64):
        y = trotter_vector(vacuum, indicator, 1.0, n)
        value = fock_inner(other.vector(1.0), y)
        assert value == pytest.approx(np.exp(np.conj(alpha) + np.conj(c) / 2), abs=1e-12)


def test_trotter_vector_with_uneven_fractions():
    u = ExponentialUnit(0.1, (0.6,))
    v = ExponentialUnit(-0.2, (1.0,))
    y = trotter_vector(u, v, 1.0, 4, fractions=(0.25, 0.75))
    norm_sq = fock_inner(y, y)
    expected = np.exp(2 * 0.1 * 0.25 + 2 * (-0.2) * 0.75
                      + 0.25 * 0.36 + 0.75 * 1.0)
    assert norm_sq == pytest.approx(expected, abs=1e-12)


def test_covariance_matches_kernel_engine_on_random_pairs():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t = float(rng.uniform(0.05, 2.0))
        u = ExponentialUnit(alpha[0], (amps[0],))
        v = ExponentialUnit(alpha[1], (amps[1],))
        part = Partition((t,))
        engine = eval_pairing(unit_expression("p", 1), part, unit_expression("q", 1),
                              part, covariance_kernel({"p": u, "q": v})).rep[0, 0]
        direct = fock_inner(u.vector(t), v.vector(t))
        worst = max(worst, abs(engine - direct) / abs(direct))
    assert worst <= 1e-10


def test_exponential_vector_gram_matrices_are_psd():
    rng = np.random.default_rng(2)
    for _ in range(10):
        vectors = [ExponentialUnit(complex(a), tuple(c)).vector(1.0)
                   for a, c in zip(0.2 * (rng.standard_normal(5)
                                          + 1j * rng.standard_normal(5)),
                                   rng.standard_normal((5, 2))
                                   + 1j * rng.standard_normal((5, 2)))]
        gram = np.array([[fock_inner(x, y) for y in vectors] for x in vectors])
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])


def test_counterexample_values_exact():
    result = counterexample_scenario(1.0, (1, 8, 1024))
    gap = np.exp(0.5) - np.exp(0.25)
    for row in result.values:
        assert row["y_norm_sq"] == pytest.approx(np.exp(0.5), abs=1e-12)
        assert row["w_pairing"] == pytest.approx(np.exp(0.25), abs=1e-12)
        assert row["w_norm_sq"] == pytest.approx(np.exp(0.25), abs=1e-12)
        assert row["distance_sq"] == pytest.approx(gap, abs=1e-12)
    assert result.zeta_norm_sq == pytest.approx(np.exp(0.5), abs=1e-12)
    assert result.report_vs_candidate.verdict == "weak-only"
    assert result.report_zeta_section.verdict == "norm-convergent"
    assert result.criterion_gap == pytest.approx(gap, abs=1e-12)


def test_counterexample_pairing_with_limit_is_constant_in_n():
    result = counterexample_scenario(1.0, (1, 2, 4, 8, 16, 256))
    for pairing in result.zeta_pairings:
        assert pairing == pytest.approx(np.exp(0.25), abs=1e-12)


def test_counterexample_at_time_zero():
    result = counterexample_scenario(0.0, (1, 4))
    for row in result.values:
        assert row["y_norm_sq"] == pytest.approx(1.0)
        assert row["distance_sq"] == pytest.approx(0.0, abs=1e-14)
    assert result.zeta_norm_sq == pytest.approx(1.0)


def test_counterexample_csv_shape(tmp_path):
    result = counterexample_scenario(1.0, (1, 8))
    path = tmp_path / "weak.csv"
    result.report_vs_candidate.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,norm,gram_defect,criterion_defect,norm_defect"
    assert len(lines) == 3


def test_covariance_formula():
    u = ExponentialUnit(0.2 + 0.3j, (1.0, -0.5j))
    v = ExponentialUnit(-0.1j, (0.5, 0.25))
    expected = np.conj(u.alpha) + v.alpha + np.conj(1.0) * 0.5 + np.conj(-0.5j) * 0.25
    assert covariance(u, v) == pytest.approx(expected)


def test_concat_shifts_domain():
    f = StepFunction.constant((1.0,), 0.5)
    g = StepFunction(1, (0.0, 0.25, 0.5), ((2.0,), (3.0,)))
    joined = concat(f, g)
    assert joined.breakpoints == (0.0, 0.5, 0.75, 1.0)
    assert joined.values == ((1.0,), (2.0,), (3.0,))
