import itertools
from importlib import resources

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from trotterlab.algebra import (
    dagger,
    left_right_rep,
    superop_exp,
    superop_norm,
    unit_element,
)
from trotterlab.kernels import (
    CpdSemigroup,
    OperatorKernel,
    scalar_kernel,
)
from trotterlab.scenario import build_generator, parse_scenario
from trotterlab.trotter import (
    Partition,
    _walk_pairing,
    VerdictThresholds,
    assemble_report,
    convergence_verdict,
    dyadic_schedule,
    eval_pairing,
    fit_rate,
    random_schedule,
)
from trotterlab.units import (
    Segment,
    Term,
    UnitExpression,
    extend_generator,
    unit_expression,
)

from builders import (
    affine_expression,
    concat_expression,
    normalize_unit,
    parse_section,
    prop33_bound_check,
    random_christensen_evans,
)


def scalar_counterexample_generator():
    # Covariance of the vacuum, the indicator unit, and the weak-limit
    # candidate with amplitude 1/2.
    gamma = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 0.25]])
    return scalar_kernel(gamma, ("u", "v", "w"))


# -- partitions -----------------------------------------------------------------

def test_partition_basics():
    p = Partition((0.25, 0.25, 0.5))
    assert p.length == pytest.approx(1.0)
    assert p.norm == 0.5
    assert p.size == 3
    assert p.time_widths == (0.25, 0.25, 0.5)
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((0.5, 0.0))
    for parts in ((np.nan,), (1.0, np.inf), (0.5, -np.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            Partition(parts)


# -- pairing evaluation -----------------------------------------------------------

def test_single_unit_pairing_collapses_by_semigroup_law():
    rng = np.random.default_rng(1)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.5)
    semigroup = CpdSemigroup(gen)
    xi = unit_expression("a", 2)
    reference = semigroup.entry_rep("a", "a", 1.0)
    for partition in (Partition((1.0,)), Partition.uniform(1.0, 7),
                      random_schedule(1.0, 3, seed=5)[-1]):
        value = eval_pairing(xi, partition, xi, partition, gen)
        assert np.max(np.abs(value.rep - reference)) <= 1e-10


def test_pairing_refinement_invariance_for_single_units():
    rng = np.random.default_rng(2)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.5)
    xi, eta = unit_expression("a", 2), unit_expression("b", 2)
    p1 = Partition.uniform(1.0, 4)
    p2 = random_schedule(1.0, 2, seed=9)[-1]
    v1 = eval_pairing(xi, p1, eta, p2, gen)
    v2 = eval_pairing(xi, Partition((1.0,)), eta, Partition((1.0,)), gen)
    assert superop_norm(v1 - v2) <= 1e-10


def test_counterexample_pairings_match_closed_forms():
    gen = scalar_counterexample_generator()
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    w = unit_expression("w", 1)
    for n in (1, 2, 8, 64, 1024):
        partition = Partition.uniform(1.0, n)
        against_w = eval_pairing(w, partition, y, partition, gen).rep[0, 0]
        assert against_w == pytest.approx(np.exp(0.25), abs=1e-12)
        gram = eval_pairing(y, partition, y, partition, gen).rep[0, 0]
        assert gram == pytest.approx(np.exp(0.5), abs=1e-12)


def test_pairing_respects_mismatched_partitions():
    gen = scalar_counterexample_generator()
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    v1 = eval_pairing(y, Partition.uniform(1.0, 3), y, Partition.uniform(1.0, 5), gen)
    # Interleaved alternations overlap on a computable measure; the overlap
    # of the two u/v patterns determines the exponent exactly.
    cuts = sorted({i / 3 for i in range(1, 3)} | {i / 5 for i in range(1, 5)}
                  | {(i + 0.5) / 3 for i in range(3)} | {(i + 0.5) / 5 for i in range(5)})
    grid = [0.0, *cuts, 1.0]

    def pattern(pos, n):
        slot = pos * n
        return slot - int(slot) >= 0.5  # True on the v-half

    overlap = sum(hi - lo for lo, hi in zip(grid[:-1], grid[1:])
                  if pattern((lo + hi) / 2, 3) and pattern((lo + hi) / 2, 5))
    assert v1.rep[0, 0] == pytest.approx(np.exp(overlap), abs=1e-12)


def test_pairing_validates_inputs():
    gen = scalar_counterexample_generator()
    y = unit_expression("u", 1)
    with pytest.raises(ValueError):
        eval_pairing(y, Partition((1.0,)), y, Partition((0.5,)), gen)
    with pytest.raises(KeyError):
        eval_pairing(unit_expression("nope", 1), Partition((1.0,)), y, Partition((1.0,)), gen)


def test_power_fast_path_matches_generic_walk():
    rng = np.random.default_rng(3)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.4)
    y = affine_expression([2, -1], ["a", "b"], 2)
    partition = Partition.uniform(1.0, 32)
    fast = eval_pairing(y, partition, y, partition, gen)
    slow = _walk_pairing(y, partition, y, partition, gen)
    assert superop_norm(fast - slow) <= 1e-11


def high_precision_affine_pairing(mp, coefficients, labels, gen, partition):
    """Oracle in mpmath: the affine section ``sum_l k_l xi^l`` paired with itself.

    Every term has left multiplier ``k_l 1`` and right multiplier 1, so the
    interval block is ``B(w) = sum_{s,t} conj(k_s) k_t exp(w G_st)`` and the
    pairing is ``B(w_1) ... B(w_n)``, earliest interval leftmost.  Each
    exponential comes from an eigendecomposition of ``G_st``, taken from the
    exact float entries in the current working precision.
    """
    weights = dict(zip(labels, coefficients))
    spectra = {}
    for s in labels:
        for t in labels:
            rep = gen[(s, t)].rep
            values, vectors = mp.eig(mp.matrix([[mp.mpc(complex(x)) for x in row] for row in rep]))
            spectra[(s, t)] = values, vectors, mp.inverse(vectors)
    size = len(values)
    blocks, total = {}, mp.eye(size)
    for w in partition.time_widths:
        if w not in blocks:
            block = mp.zeros(size, size)
            for (s, t), (values, vectors, inverse) in spectra.items():
                diagonal = mp.diag([mp.exp(mp.mpf(w) * v) for v in values])
                block += mp.conj(weights[s]) * weights[t] * (vectors * diagonal * inverse)
            blocks[w] = block
        total = total * blocks[w]
    return total


@pytest.mark.parametrize("seed", range(4))
def test_pairing_against_high_precision_oracle(seed):
    # Bounds, in units of n * 2^-53 * max|truth|, from 40 seeds of this test's
    # generators: the uniform power path reached 7.8 and the random product
    # 0.77; the power path squares the one-interval block's rounding log2(n) times.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.4)
    y = affine_expression([2, -1], ["a", "b"], 2)
    with mp.workdps(34):
        for partition, multiple in ((Partition.uniform(1.0, 64), 16.0),
                                    (random_schedule(1.0, 4, seed=seed)[1], 1.0)):
            truth = high_precision_affine_pairing(mp, [2, -1], ["a", "b"], gen, partition)
            got = eval_pairing(y, partition, y, partition, gen).rep
            err = max(abs(mp.mpc(complex(got[i, j])) - truth[i, j])
                      for i in range(4) for j in range(4))
            top = max(abs(truth[i, j]) for i in range(4) for j in range(4))
            assert err <= multiple * partition.size * 2.0 ** -53 * top


def random_unit_section(rng, dim, n_terms):
    """Terms with random multipliers summing to the unit, random twists and concat chains."""
    def draw(scale):
        return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))

    rest = np.eye(dim, dtype=complex)
    terms = []
    for k in range(n_terms):
        if k < n_terms - 1:
            left, right = draw(0.5), draw(0.5)
            rest = rest - left @ right
        else:
            left, right = rest, np.eye(dim)
        weights = rng.uniform(0.2, 1.0, size=int(rng.integers(1, 4)))
        segments = tuple(Segment(str(rng.choice(["a", "b"])), float(f))
                         for f in weights / weights.sum())
        side = ("none", "left", "right")[int(rng.integers(3))]
        twist = None if side == "none" else draw(0.3)
        terms.append(Term(left, right, segments, twist=twist, twist_side=side))
    return UnitExpression(dim, tuple(terms))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3)),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 256))
def test_batched_pairing_matches_walk(seed, dim, terms1, terms2, parts):
    rng = np.random.default_rng(seed)
    gen = random_christensen_evans(("a", "b"), dim, rng, scale=0.5)
    e1 = random_unit_section(rng, dim, terms1)
    e2 = random_unit_section(rng, dim, terms2)
    widths = rng.uniform(0.1, 1.0, size=parts)
    partition = Partition(tuple(widths / widths.sum()))
    batched = eval_pairing(e1, partition, e2, partition, gen).rep
    walk = _walk_pairing(e1, partition, e2, partition, gen).rep
    assert np.max(np.abs(batched - walk)) <= 1e-12 * max(1.0, np.max(np.abs(walk)))


def brute_force_pairing(e1, p1, e2, p2, semigroup):
    """The pairing as a sum of single-term chains, one per assignment of terms to intervals.

    Each chain is the time-ordered product, over the grid of both sides'
    bounds and every term's segment cuts, of the entry exponential of the
    two assigned terms' labels, with a side's right multiplier (and right
    twist) entering where its interval starts and its left multiplier (and
    left twist) where it ends.
    """
    d = semigroup.generator.dim
    eye = np.eye(d)
    sides = []
    points = set()
    for expr, p in ((e1, p1), (e2, p2)):
        bounds = np.concatenate(([0.0], np.cumsum(p.time_widths)))
        points.update(bounds)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            points.update(lo + f * (hi - lo) for term in expr.terms for f in term.cut_fractions())
        sides.append((expr, bounds))
    grid = [0.0]
    for x in sorted(points):
        if x - grid[-1] > 1e-12:
            grid.append(x)

    def multipliers(term, width):
        twist = np.eye(d) if term.twist is None else scipy.linalg.expm(width * term.twist)
        right = twist @ term.right if term.twist_side == "right" else term.right
        left = term.left @ twist if term.twist_side == "left" else term.left
        return right, left

    total = np.zeros((d * d, d * d), dtype=complex)
    choices = [itertools.product(range(len(expr.terms)), repeat=len(b) - 1) for expr, b in sides]
    for assignment in itertools.product(*choices):
        rep = np.eye(d * d, dtype=complex)
        for lo, hi in zip(grid[:-1], grid[1:]):
            mid = (lo + hi) / 2
            pieces = []
            for (expr, bounds), chosen in zip(sides, assignment):
                i = int(np.searchsorted(bounds, mid)) - 1
                term = expr.terms[chosen[i]]
                width = bounds[i + 1] - bounds[i]
                right, left = multipliers(term, width)
                label = term.label_at((mid - bounds[i]) / width)
                pieces.append((right, left, label, abs(lo - bounds[i]) <= 1e-12,
                               abs(hi - bounds[i + 1]) <= 1e-12))
            (r1, l1, s, open1, close1), (r2, l2, t, open2, close2) = pieces
            if open1:
                rep = rep @ left_right_rep(dagger(r1), eye)
            if open2:
                rep = rep @ left_right_rep(eye, r2)
            rep = rep @ semigroup.entry_rep(s, t, hi - lo)
            if close1:
                rep = rep @ left_right_rep(dagger(l1), eye)
            if close2:
                rep = rep @ left_right_rep(eye, l2)
        total += rep
    return total


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2)), st.integers(1, 2),
       st.integers(1, 2), st.integers(1, 3), st.integers(1, 3))
def test_walk_matches_brute_force_chains_on_mismatched_partitions(seed, dim, terms1, terms2,
                                                                  parts1, parts2):
    rng = np.random.default_rng(seed)
    gen = random_christensen_evans(("a", "b"), dim, rng, scale=0.5)
    e1 = random_unit_section(rng, dim, terms1)
    e2 = random_unit_section(rng, dim, terms2)
    w1, w2 = rng.uniform(0.1, 1.0, size=parts1), rng.uniform(0.1, 1.0, size=parts2)
    p1, p2 = Partition(tuple(w1 / w1.sum())), Partition(tuple(w2 / w2.sum()))
    oracle = brute_force_pairing(e1, p1, e2, p2, CpdSemigroup(gen))
    walk = _walk_pairing(e1, p1, e2, p2, gen).rep
    assert np.max(np.abs(walk - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3)), st.integers(1, 3),
       st.integers(1, 3), st.integers(9, 64), st.integers(1, 4), st.integers(1, 4))
def test_commensurate_uniform_pairing_matches_walk(seed, dim, terms1, terms2, g, a, b):
    # g * a against g * b equal parts share every cut at a multiple of 1/g.
    rng = np.random.default_rng(seed)
    gen = random_christensen_evans(("a", "b"), dim, rng, scale=0.5)
    e1 = random_unit_section(rng, dim, terms1)
    e2 = random_unit_section(rng, dim, terms2)
    p1, p2 = Partition.uniform(1.0, g * a), Partition.uniform(1.0, g * b)
    power = eval_pairing(e1, p1, e2, p2, gen).rep
    walk = _walk_pairing(e1, p1, e2, p2, gen).rep
    assert np.max(np.abs(power - walk)) <= 1e-11 * max(1.0, np.max(np.abs(walk)))


def test_nested_uniform_pairing_walks_one_period(monkeypatch):
    import trotterlab.trotter as trotter

    gen = random_christensen_evans(("a", "b"), 2, np.random.default_rng(11), scale=0.4)
    y = affine_expression([2, -1], ["a", "b"], 2)
    p1, p2 = Partition.uniform(1.0, 2 ** 11), Partition.uniform(1.0, 2 ** 12)
    walked = []

    def recording_walk(e1, q1, e2, q2, kernel):
        walked.append((q1.parts, q2.parts))
        return _walk_pairing(e1, q1, e2, q2, kernel)

    monkeypatch.setattr(trotter, "_walk_pairing", recording_walk)
    power = eval_pairing(y, p1, y, p2, gen).rep
    assert walked == [(p1.parts[:1], p2.parts[:2])]
    walk = _walk_pairing(y, p1, y, p2, gen).rep
    assert np.max(np.abs(power - walk)) <= 1e-11 * max(1.0, np.max(np.abs(walk)))


# -- convergence verdicts ----------------------------------------------------------

def test_single_unit_verdict_is_trivially_convergent():
    rng = np.random.default_rng(4)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.5)
    a = unit_expression("a", 2)
    report = convergence_verdict(a, extend_generator(a, gen), 1.0, dyadic_schedule(1.0, 3, 6))
    assert report.verdict == "norm-convergent"
    assert max(report.gram_defects) <= 1e-10
    assert max(report.criterion_defects) <= 1e-10
    assert max(report.norm_defects) <= 1e-10
    assert min(report.norm_defects) >= -1e-9


def test_normalized_unit_verdict_convergent():
    rng = np.random.default_rng(5)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.05)
    normalized = normalize_unit("a", gen)
    report = convergence_verdict(normalized.expression, normalized.extension, 1.0,
                                 dyadic_schedule(1.0, 3, 10))
    assert report.verdict == "norm-convergent"
    assert report.criterion_rate is None or report.criterion_rate >= 0.9


def test_counterexample_verdicts():
    gen = scalar_counterexample_generator()
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    schedule = dyadic_schedule(1.0, 3, 9)
    ext = extend_generator(y, gen)
    against_candidate = convergence_verdict(y, ext, 1.0, schedule, candidate="w")
    assert against_candidate.verdict == "weak-only"
    gap = np.exp(0.5) - np.exp(0.25)
    assert against_candidate.criterion_defects[-1] == pytest.approx(gap, abs=1e-12)
    assert against_candidate.norm_defects[-1] == pytest.approx(gap, abs=1e-12)

    against_limit = convergence_verdict(y, ext, 1.0, schedule)
    # The limit unit exists only outside the ambient system: the gram and
    # the ambient pairings agree identically while the criterion stays at
    # the same strictly positive gap.
    assert max(against_limit.gram_defects) <= 1e-10
    assert max(max(v) for v in against_limit.ambient_defects.values()) <= 1e-10
    assert against_limit.criterion_defects[-1] == pytest.approx(gap, abs=1e-12)
    assert against_limit.verdict == "weak-only"


def test_candidate_not_approached_even_weakly_is_divergent():
    # <v, y_P> = e^{1/2} on every partition, while <v, u> = 1: the products
    # do not approach u even weakly, although the criterion plateaus.
    gen = scalar_counterexample_generator()
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    report = convergence_verdict(y, extend_generator(y, gen), 1.0, dyadic_schedule(1.0, 3, 6),
                                 candidate="u")
    assert report.verdict == "divergent"
    assert report.ambient_defects["v"] == pytest.approx([np.exp(0.5) - 1.0] * 4, abs=1e-12)


def test_norm_defect_identity_reassembled_from_fresh_pairings():
    rng = np.random.default_rng(6)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.3)
    y = affine_expression([2, -1], ["a", "b"], 2)
    ext = extend_generator(y, gen)
    schedule = dyadic_schedule(1.0, 3, 6)
    report = convergence_verdict(y, ext, 1.0, schedule)
    eye = unit_element(2)
    zeta = unit_expression(ext.zeta, 2)
    limit_one = superop_exp(ext.kernel[(ext.zeta, ext.zeta)], 1.0).apply(eye)
    for partition, stored in zip(sorted(schedule, key=lambda p: p.norm, reverse=True),
                                 report.norm_defects):
        gram_one = eval_pairing(y, partition, y, partition, ext.kernel).apply(eye)
        crit_one = eval_pairing(zeta, partition, y, partition, ext.kernel).apply(eye)
        difference = gram_one - crit_one - dagger(crit_one) + limit_one
        herm = (difference + dagger(difference)) / 2
        eigs = np.linalg.eigvalsh(herm)
        assert abs(float(eigs[-1]) - stored) <= 1e-10
        assert eigs[0] >= -1e-9  # the assembled element is a squared norm


def test_verdict_series_on_refinement_chain():
    gen = scalar_counterexample_generator()
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    # Each partition refines the last by the cut points of a random one.
    cuts = {0.5}
    chain = [Partition.uniform(1.0, 2)]
    rng = np.random.default_rng(7)
    for _ in range(3):
        extra = random_schedule(1.0, 1, seed=int(rng.integers(1 << 30)))[0]
        cuts |= set(np.cumsum(extra.time_widths)[:-1])
        chain.append(Partition(np.diff([0.0, *sorted(cuts), 1.0])))
    report = convergence_verdict(y, extend_generator(y, gen), 1.0, chain, candidate="w")
    assert all(np.isfinite(report.criterion_defects))
    assert report.norms == tuple(sorted(report.norms, reverse=True))


def affine_42_rescaled(c):
    """``affine_42``'s section, its generator times ``c`` and its horizon over ``c``."""
    scenario = parse_scenario(
        (resources.files("trotterlab") / "scenarios" / "affine_42.scenario").read_text())
    gen = build_generator(scenario)
    scaled = OperatorKernel(gen.labels, c * gen.table)
    return scenario.expressions["y"], scaled, scenario.horizon / c


@pytest.mark.parametrize("schedule", [lambda t: random_schedule(t, 8, seed=42),
                                      lambda t: dyadic_schedule(t, 3, 12)],
                         ids=["random:8", "dyadic:3:12"])
def test_verdict_is_invariant_under_time_rescaling(schedule):
    # exp(t * c L) over horizon t / c describes the same sections as exp(t L) over t.
    y, gen, horizon = affine_42_rescaled(1.0)
    base = convergence_verdict(y, extend_generator(y, gen), horizon, schedule(horizon))
    for c in (1e10, 1e-6):
        y, gen, horizon = affine_42_rescaled(c)
        report = convergence_verdict(y, extend_generator(y, gen), horizon, schedule(horizon))
        assert report.verdict == base.verdict
        np.testing.assert_allclose(report.criterion_defects, base.criterion_defects, rtol=1e-8)


@pytest.mark.parametrize("c", [1e10, 1e-6])
def test_walk_pairing_is_invariant_under_time_rescaling(c):
    def walk(c):
        y, gen, horizon = affine_42_rescaled(c)
        partitions = random_schedule(horizon, 8, seed=42)
        kernel = extend_generator(y, gen).kernel
        return eval_pairing(y, partitions[4], y, partitions[5], kernel).rep

    base = walk(1.0)
    deviation = np.max(np.abs(base - np.eye(len(base))))
    assert np.max(np.abs(walk(c) - base)) <= 1e-12 * deviation


@pytest.mark.parametrize("scenario, candidate", [("affine_42", None),
                                                   ("counterexample_41", "w")])
def test_one_exponential_per_limit(monkeypatch, scenario, candidate):
    # The limit gram and one ambient limit per label; a candidate is ambient,
    # so its own gram is one of those and takes no exponential of its own.
    parsed = parse_scenario(
        (resources.files("trotterlab") / "scenarios" / f"{scenario}.scenario").read_text())
    gen = build_generator(parsed)
    y = parsed.expressions["y"]
    ext = extend_generator(y, gen)
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda *args: calls.append(1) or expm(*args))
    convergence_verdict(y, ext, parsed.horizon, dyadic_schedule(parsed.horizon, 3, 4),
                        candidate=candidate)
    assert len(calls) == 1 + len(gen.labels)


def test_report_serialization(tmp_path):
    gen = scalar_counterexample_generator()
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    report = convergence_verdict(y, extend_generator(y, gen), 1.0, dyadic_schedule(1.0, 3, 5),
                                 candidate="w")
    csv_path = tmp_path / "report.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,norm,gram_defect,criterion_defect,norm_defect"
    assert len(lines) == 4
    json_path = tmp_path / "report.json"
    report.write_json(json_path)
    import json as json_module
    data = json_module.loads(json_path.read_text())
    assert data["verdict"] == "weak-only"
    assert data["thresholds"]["convergent_defect"] == 1e-6


def test_fit_rate_handles_noise_floor():
    assert fit_rate((0.5, 0.25, 0.125), (1e-15, 1e-15, 1e-16)) is None
    rate = fit_rate((0.5, 0.25, 0.125, 0.0625), (0.1, 0.05, 0.025, 0.0125))
    assert rate == pytest.approx(1.0, abs=1e-9)


def test_obs35_note_needs_a_fitted_rate():
    def report(criterion):
        return assemble_report(horizon=1.0, target="zeta", target_kind="adjoined",
                               partitions=dyadic_schedule(1.0, 3, 5), gram_defects=criterion,
                               criterion_defects=criterion, norm_defects=criterion,
                               ambient_defects={})

    exact = report([0.0, 0.0, 0.0])
    assert exact.verdict == "norm-convergent" and exact.criterion_rate is None
    assert not exact.obs35_sequences_suffice and exact.notes == ()
    first_order = report([8e-7, 4e-7, 2e-7])
    assert first_order.verdict == "norm-convergent"
    assert first_order.criterion_rate == pytest.approx(1.0)
    assert first_order.obs35_sequences_suffice and len(first_order.notes) == 1


def test_custom_thresholds_change_verdict():
    gen = scalar_counterexample_generator()
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    strict = VerdictThresholds(plateau_defect=1.0)
    report = convergence_verdict(y, extend_generator(y, gen), 1.0, dyadic_schedule(1.0, 3, 5),
                                 candidate="w", thresholds=strict)
    assert report.verdict == "divergent"


# -- product bounds -----------------------------------------------------------------

def test_prop33_single_unit_defects_vanish():
    rng = np.random.default_rng(9)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.5)
    ext = extend_generator(unit_expression("a", 2), gen)
    rows, bounds_hold, eventually_bounded = prop33_bound_check(
        unit_expression("a", 2), ext, 1.0, dyadic_schedule(1.0, 3, 6))
    worst = max(row["gram_defect"] for t_rows in rows.values() for row in t_rows)
    assert worst <= 1e-10
    assert bounds_hold and eventually_bounded


def test_prop33_affine_rate_and_bounds():
    rng = np.random.default_rng(42)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.1)
    y = affine_expression([2, -1], ["a", "b"], 2)
    ext = extend_generator(y, gen)
    schedule = dyadic_schedule(1.0, 3, 10)
    _, bounds_hold, eventually_bounded = prop33_bound_check(y, ext, 1.0, schedule)
    assert bounds_hold
    assert eventually_bounded
    gram_rate = convergence_verdict(y, ext, 1.0, schedule).gram_rate
    assert 0.9 <= gram_rate <= 1.1


def test_prop33_gram_gap_against_wrong_limit_does_not_vanish():
    gen = scalar_counterexample_generator()
    semigroup = CpdSemigroup(gen)
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    gap = np.exp(0.5) - np.exp(0.25)
    for n in (8, 64, 512):
        partition = Partition.uniform(1.0, n)
        gram = eval_pairing(y, partition, y, partition, gen).rep[0, 0]
        w_gram = semigroup.entry_rep("w", "w", 1.0)[0, 0]
        assert abs(gram - w_gram) == pytest.approx(gap, abs=1e-12)


def test_prop33_boundedness_inequality_across_schedule():
    rng = np.random.default_rng(10)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.3)
    y = parse_section("a*expm(t*B)", gen, B=np.diag([0.1, -0.2]))
    ext = extend_generator(y, gen)
    rows, _, eventually_bounded = prop33_bound_check(y, ext, 1.0, dyadic_schedule(1.0, 3, 8))
    assert eventually_bounded
    for t_rows in rows.values():
        for row in t_rows:
            assert row["pairing_norm"] <= row["pairing_norm_bound"] + 1e-9
