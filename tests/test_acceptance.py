"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
tolerance is pinned in the assertions below.
"""

import time

import numpy as np
import pytest

from trotterlab.algebra import Superoperator, dagger, superop_exp, unit_element
from trotterlab.fock import (
    ExponentialUnit,
    counterexample_scenario,
    covariance_kernel,
    fock_inner,
)
from trotterlab.kernels import (
    CpdSemigroup,
    evaluate_positivity_form,
    is_cpd,
    is_conditionally_cpd,
    scalar_kernel,
)
from trotterlab.trotter import (
    Partition,
    convergence_verdict,
    dyadic_schedule,
    eval_pairing,
)
from trotterlab.units import (
    extend_generator,
    unit_expression,
)

from builders import (
    affine_expression,
    certified_norm,
    concat_expression,
    kernel_from_entries,
    normalize_unit,
    parse_section,
    prop33_bound_check,
    random_christensen_evans,
)
from positivity_oracles import sampled_conditional_form, schoenberg_grid_ok

_SUITE_START = time.perf_counter()


def _affine_setup():
    rng = np.random.default_rng(42)
    generator = random_christensen_evans(("xi1", "xi2"), 2, rng, scale=0.03)
    section = affine_expression([2.0, -1.0], ["xi1", "xi2"], 2)
    return generator, section


def _kernel_mod_setup():
    rng = np.random.default_rng(11)
    generator = random_christensen_evans(("x0", "x1", "x2"), 2, rng, scale=0.04)
    a1 = 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    b1 = 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    a2 = -a1 @ b1
    b2 = np.eye(2, dtype=complex)
    section = parse_section("x0 + A1*x1*B1 + A2*x2*B2", generator, A1=a1, B1=b1, A2=a2, B2=b2)
    return generator, section, (a1, a2), (b1, b2)


def _reassembled_norm_defect_residual(section, kernel, horizon, schedule, report):
    """Max deviation between stored norm defects and the squared-distance
    expansion recomputed from fresh pairings; also checks positivity."""
    d = kernel.dim
    eye = unit_element(d)
    target = unit_expression(report.target, d)
    target_one = CpdSemigroup(kernel).entry(report.target, report.target, horizon).apply(eye)
    worst = 0.0
    ordered = sorted(schedule, key=lambda p: p.norm, reverse=True)
    for partition, stored in zip(ordered, report.norm_defects):
        gram_one = eval_pairing(section, partition, section, partition,
                                kernel).apply(eye)
        crit_one = eval_pairing(target, partition, section, partition,
                                kernel).apply(eye)
        assembled = gram_one - crit_one - dagger(crit_one) + target_one
        herm = (assembled + dagger(assembled)) / 2
        eigs = np.linalg.eigvalsh(herm)
        assert eigs[0] >= -1e-9
        worst = max(worst, abs(float(eigs[-1]) - stored))
    return worst


def test_criterion_1_counterexample_exact_values():
    start = time.perf_counter()
    result = counterexample_scenario(1.0, (1, 8, 1024))
    gap = np.exp(0.5) - np.exp(0.25)
    for row in result.values:
        assert abs(row["y_norm_sq"] - np.exp(0.5)) <= 1e-12
        assert abs(row["w_pairing"] - np.exp(0.25)) <= 1e-12
        assert abs(row["w_norm_sq"] - np.exp(0.25)) <= 1e-12
        assert abs(row["distance_sq"] - gap) <= 1e-12
    assert result.report_vs_candidate.verdict == "weak-only"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS  alternation values exact to 1e-12 for "
          f"n in (1, 8, 1024); gap {gap:.6f}; weak-only; {elapsed:.3f}s")


def test_criterion_2_repaired_limit_in_enlargement():
    start = time.perf_counter()
    result = counterexample_scenario(1.0, (1, 8, 1024))
    assert abs(result.zeta_norm_sq - np.exp(0.5)) <= 1e-12
    zeta_report = result.report_zeta_section
    assert max(zeta_report.criterion_defects) <= 1e-12
    assert zeta_report.verdict == "norm-convergent"
    # The alternation's own norms and ambient pairings agree with the
    # adjoined unit identically; the obstruction is confined to the
    # criterion pairing, which stays at exp(1/4) for every n.
    assert max(result.report_vs_candidate.gram_defects) <= 1e-12
    for pairing in result.zeta_pairings:
        assert abs(pairing - np.exp(0.25)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2: PASS  doubled-multiplicity limit unit has squared "
          f"norm e^(1/2); its section converges with defect <= 1e-12; "
          f"{elapsed:.3f}s")


def test_criterion_3_kernel_engine_vs_fock_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        alphas = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t = float(rng.uniform(0.05, 2.0))
        u = ExponentialUnit(alphas[0], (amps[0],))
        v = ExponentialUnit(alphas[1], (amps[1],))
        semigroup = CpdSemigroup(covariance_kernel({"p": u, "q": v}))
        for s, w, first, second in (("p", "q", u, v), ("p", "p", u, u),
                                    ("q", "q", v, v)):
            engine = semigroup.entry_rep(s, w, t)[0, 0]
            direct = fock_inner(first.vector(t), second.vector(t))
            worst = max(worst, abs(engine - direct) / abs(direct))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 3: PASS  100 random unit pairs, worst relative "
          f"disagreement {worst:.3e} <= 1e-10; {elapsed:.3f}s")


def test_criterion_4_affine_construction():
    start = time.perf_counter()
    generator, section = _affine_setup()
    extension = extend_generator(section, generator)
    assert is_conditionally_cpd(extension).ok
    schedule = dyadic_schedule(1.0, 3, 12)
    report = convergence_verdict(section, extension, 1.0, schedule)
    assert report.criterion_rate is not None
    assert 0.9 <= report.criterion_rate <= 1.1
    assert report.verdict == "norm-convergent"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4: PASS  affine section 2*xi1 - xi2: conditional "
          f"positivity holds, criterion slope {report.criterion_rate:.4f} in "
          f"[0.9, 1.1], norm-convergent; {elapsed:.1f}s")


def test_criterion_5_normalization():
    rng = np.random.default_rng(77)
    generator = random_christensen_evans(("xi", "rho"), 2, rng, scale=0.3)
    h = np.array([[0.2, 0.1j], [-0.1j, -0.4]])
    normalized = normalize_unit("xi", generator, h=h)
    eye = unit_element(2)
    q_one = generator[("xi", "xi")].apply(eye)
    assert np.allclose(normalized.beta, -q_one / 2 + 1j * h)
    ext = normalized.extension
    zeta = ext.labels[-1]
    diagonal = ext[(zeta, zeta)]
    assert np.linalg.norm(diagonal.apply(eye), 2) <= 1e-10
    for t in (0.25, 0.5, 1.0):
        drift = superop_exp(diagonal, t).apply(eye) - eye
        assert np.linalg.norm(drift, 2) <= 1e-10
    beta = normalized.beta
    left = extend_generator(parse_section("expm(t*B)*xi", generator, B=beta), generator)
    right = extend_generator(parse_section("xi*expm(t*B)", generator, B=beta), generator)
    assert left.labels == right.labels
    assert max(np.max(np.abs(op.rep - right[pair].rep))
               for pair, op in left.entries.items()) <= 1e-9
    print("ACCEPTANCE 5: PASS  twist -q/2 + ih gives K(1) = 0 within 1e-10, "
          "exp(tK)(1) = 1 on {1/4, 1/2, 1}, and left/right twists extend "
          "identically within 1e-9")


def test_criterion_6_kernel_modification():
    generator, section, lefts, rights = _kernel_mod_setup()
    extension = extend_generator(section, generator)
    assert is_conditionally_cpd(extension).ok
    schedule = dyadic_schedule(1.0, 3, 12)
    report = convergence_verdict(section, extension, 1.0, schedule)
    assert report.verdict == "norm-convergent"

    # Finite-difference oracle for the new diagonal, second-order terms
    # removed by one Richardson step.
    ident = np.eye(4)

    def quotient(t):
        part = Partition((t,))
        return (eval_pairing(section, part, section, part, extension).rep
                - ident) * (1.0 / t)

    richardson = 2.0 * quotient(5e-5) - quotient(1e-4)
    zeta = extension.labels[-1]
    diagonal = extension[(zeta, zeta)]
    deviation = certified_norm(Superoperator(2, richardson - diagonal.rep))
    assert deviation <= 1e-9
    print(f"ACCEPTANCE 6: PASS  modified section with sum a_l b_l = 0: "
          f"conditional positivity holds, norm-convergent, bilinear diagonal "
          f"within {deviation:.2e} of finite differences (<= 1e-9)")


def test_criterion_7_covariance_affine_rule():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        alphas = 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        units = {name: ExponentialUnit(a, (c,))
                 for name, a, c in zip(("u", "v", "x"), alphas, amps)}
        generator = covariance_kernel(units)
        if trial < 10:
            kappa = complex(rng.uniform(0.1, 0.9))
            section = concat_expression([("u", kappa.real), ("v", 1 - kappa.real)], 1)
        else:
            kappa = complex(rng.standard_normal() + 1j * rng.standard_normal())
            section = affine_expression([kappa, 1 - kappa], ["u", "v"], 1)
        extension = extend_generator(section, generator)
        got = extension[("x", extension.labels[-1])].rep[0, 0]
        want = (kappa * generator[("x", "u")].rep[0, 0]
                + (1 - kappa) * generator[("x", "v")].rep[0, 0])
        worst = max(worst, abs(got - want))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 7: PASS  covariance of the combined unit is the "
          f"affine combination for 20 random triples (10 concatenations, "
          f"10 complex affine sums), worst error {worst:.2e} <= 1e-9")


def test_criterion_8_property_suites():
    # (a) Schoenberg, both directions, on 50 random generator instances.
    rng = np.random.default_rng(31)
    for _ in range(50):
        labels = tuple(f"s{i}" for i in range(int(rng.integers(1, 4))))
        d = int(rng.integers(1, 4))
        generator = random_christensen_evans(labels, d, rng, scale=0.8)
        verdict = is_conditionally_cpd(generator)
        assert verdict.ok and verdict.min_scaled_eigenvalue >= -1e-8
        assert schoenberg_grid_ok(generator)
        sampled_ok, worst, _ = sampled_conditional_form(
            generator, samples=60, seed=int(rng.integers(1 << 30)))
        assert sampled_ok and worst >= -1e-8

    # (b) Block-Choi verdict against direct sampling of the positivity form
    # on 100 random kernels (half built positive, half generic hermitian).
    def kernel_from_block(block, labels, d):
        d2 = d * d
        entries = {}
        for i, s in enumerate(labels):
            for j, t in enumerate(labels):
                choi = block[i * d2:(i + 1) * d2, j * d2:(j + 1) * d2]
                rep = np.zeros((d2, d2), dtype=complex)
                for a in range(d):
                    for b in range(d):
                        for k in range(d):
                            for l in range(d):
                                rep[k + l * d, a + b * d] = choi[a * d + k, b * d + l]
                entries[(s, t)] = Superoperator(d, rep)
        return kernel_from_entries(labels, entries)

    agreements = 0
    for trial in range(100):
        d = int(rng.integers(1, 3))
        labels = tuple(f"s{i}" for i in range(int(rng.integers(1, 3))))
        m = len(labels) * d * d
        raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        block = raw @ dagger(raw) if trial % 2 == 0 else (raw + dagger(raw)) / 2
        kernel = kernel_from_block(block, labels, d)
        result = is_cpd(kernel)
        if result.ok:
            for _ in range(4):
                n = int(rng.integers(1, 4))
                sigmas = [str(rng.choice(labels)) for _ in range(n)]
                lefts = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                         for _ in range(n)]
                rights = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                          for _ in range(n)]
                form = evaluate_positivity_form(kernel, sigmas, lefts, rights)
                min_eig = np.linalg.eigvalsh((form + dagger(form)) / 2)[0]
                assert min_eig >= -1e-8 * max(1.0, result.scale)
        else:
            w = result.witness
            witness_form = evaluate_positivity_form(kernel, w.sigmas, w.lefts, w.rights)
            assert np.linalg.eigvalsh(
                (witness_form + dagger(witness_form)) / 2)[0] < 0
        agreements += 1
    assert agreements == 100

    # (c) Squared-distance expansion residual on every verdict run here.
    residuals = []
    for setup in ("affine", "kernel_mod", "counterexample"):
        if setup == "affine":
            generator, section = _affine_setup()
            candidate = None
        elif setup == "kernel_mod":
            generator, section, _, _ = _kernel_mod_setup()
            candidate = None
        else:
            generator = scalar_kernel(
                np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 0.25]]),
                ("u", "v", "w"))
            section = concat_expression([("u", 0.5), ("v", 0.5)], 1)
            candidate = "w"
        extension = extend_generator(section, generator)
        schedule = dyadic_schedule(1.0, 3, 7)
        report = convergence_verdict(section, extension, 1.0, schedule,
                                     candidate=candidate)
        residuals.append(_reassembled_norm_defect_residual(
            section, extension, 1.0, schedule, report))
    assert max(residuals) <= 1e-10

    # (d) Product bound and eventual boundedness on all schedules run here.
    for generator, section in (
            _affine_setup(),
            _kernel_mod_setup()[:2],
            (random_christensen_evans(("a", "b"), 2, np.random.default_rng(9),
                                      scale=0.5), unit_expression("a", 2))):
        extension = extend_generator(section, generator)
        _, bounds_hold, eventually_bounded = prop33_bound_check(
            section, extension, 1.0, dyadic_schedule(1.0, 3, 9))
        assert bounds_hold
        assert eventually_bounded

    elapsed = time.perf_counter() - _SUITE_START
    assert elapsed < 300.0
    print(f"ACCEPTANCE 8: PASS  Schoenberg both ways on 50 generators; "
          f"block-Choi vs sampled form on 100 kernels; expansion residual "
          f"{max(residuals):.2e} <= 1e-10; product bounds hold on all "
          f"schedules; acceptance module total {elapsed:.1f}s < 300s")
