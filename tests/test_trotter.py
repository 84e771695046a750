import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st

from trotterlab.algebra import (
    dagger,
    expm_times,
    superop_exp,
    unit_element,
)
from trotterlab.kernels import (
    CpdSemigroup,
    OperatorKernel,
    scalar_kernel,
)
import trotterlab
from trotterlab.scenario import build_generator, parse_scenario
from trotterlab.trotter import (
    Partition,
    _batched_pairing,
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
    _decide_verdict,
    extend_generator,
    pair_derivative,
    unit_expression,
)

from builders import (
    affine_expression,
    certified_norm,
    concat_expression,
    normalize_unit,
    parse_section,
    prop33_bound_check,
    random_christensen_evans,
)
from pairing_oracles import brute_force_pairing, walk_pairing


def scalar_counterexample_generator():
    # Covariance of the vacuum, the indicator unit, and the weak-limit
    # candidate with amplitude 1/2.
    gamma = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 0.25]])
    return scalar_kernel(gamma, ("u", "v", "w"))


# -- partitions -----------------------------------------------------------------

def test_partition_basics():
    p = Partition((0.25, 0.25, 0.5))
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


def test_random_schedule_rejects_a_horizon_too_small_for_its_parts():
    # 1e-320 holds about 2,000 subnormal floats, too few for 181 distinct cuts;
    # an unbounded redraw loop never returns, hence the subprocess.
    probe = "from trotterlab.trotter import random_schedule; random_schedule(1e-320, 3, seed=0)"
    src = Path(trotterlab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "ValueError: no random partition of horizon 1e-320 into 181 parts in 100 draws; "
        "the horizon is too small")


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
    v1 = walk_pairing(xi, p1, eta, p2, gen)
    v2 = eval_pairing(xi, Partition((1.0,)), eta, Partition((1.0,)), gen)
    assert certified_norm(v1 - v2) <= 1e-10


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
    v1 = walk_pairing(y, Partition.uniform(1.0, 3), y, Partition.uniform(1.0, 5), gen)
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
    slow = walk_pairing(y, partition, y, partition, gen)
    assert certified_norm(fast - slow) <= 1e-11


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
    walk = walk_pairing(e1, partition, e2, partition, gen).rep
    assert np.max(np.abs(batched - walk)) <= 1e-12 * max(1.0, np.max(np.abs(walk)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3)), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 300), st.integers(1, 6), st.integers(1, 40))
def test_chunked_pairing_matches_walk(monkeypatch, seed, dim, terms1, terms2, parts, pool,
                                      chunk):
    # Chunks of `chunk` intervals; widths drawn from `pool` values recur across chunks.
    import trotterlab.trotter as trotter

    monkeypatch.setattr(trotter, "_CHUNK_BYTES", 0)
    monkeypatch.setattr(trotter, "_CHUNK_MIN_INTERVALS", chunk)
    rng = np.random.default_rng(seed)
    gen = random_christensen_evans(("a", "b"), dim, rng, scale=0.5)
    e1 = random_unit_section(rng, dim, terms1)
    e2 = random_unit_section(rng, dim, terms2)
    widths = rng.choice(rng.uniform(0.1, 1.0, size=pool), size=parts)
    partition = Partition(tuple(widths / widths.sum()))
    chunked = trotter._batched_pairing(e1, e2, partition, gen).rep
    walk = walk_pairing(e1, partition, e2, partition, gen).rep
    assert np.max(np.abs(chunked - walk)) <= 1e-12 * max(1.0, np.max(np.abs(walk)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3)), st.integers(1, 3),
       st.floats(-3.0, 1.0))
def test_random_sections_extend_through_the_gate(seed, dim, n_terms, log_scale):
    # The extended kernel's semigroup holds limits of Gram kernels of actual
    # elements, so it is conditionally positive definite whenever the
    # generator is; its rounding must stay inside the gate's eigh allowance.
    rng = np.random.default_rng(seed)
    gen = random_christensen_evans(("a", "b"), dim, rng, scale=10.0 ** log_scale)
    extension = extend_generator(random_unit_section(rng, dim, n_terms), gen)
    assert extension.labels == ("a", "b", "zeta")


@pytest.mark.parametrize("text, keys", [
    ("2*a - 1*b", 4),  # (a, a) (a, b) (b, a) (b, b) at fraction 1
    ("A*a*expm(t*B)*C", 3),  # (a, a) at fraction 1 and the twist on each side
], ids=["affine", "twisted"])
def test_gram_takes_one_exponential_per_chunk(monkeypatch, text, keys):
    # A twist joins the stack: it adds no call, in the pairing or in the units module.
    import trotterlab.trotter as trotter
    import trotterlab.units as units

    rng = np.random.default_rng(3)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.05)
    y = parse_section(text, gen, A=np.array([[1.0, 0.5], [0.0, 1.0]]),
                      B=0.3 * rng.standard_normal((2, 2)), C=np.array([[1.0, -0.5], [0.0, 1.0]]))
    partition = random_schedule(1.0, 8, seed=42)[-1]
    calls = []

    def counting(rep, times):
        calls.append((np.shape(rep), np.size(times)))
        return expm_times(rep, times)

    monkeypatch.setattr(trotter, "expm_times", counting)
    monkeypatch.setattr(units, "expm_times", counting, raising=False)
    eval_pairing(y, partition, y, partition, gen)
    # The stacked keys are 4 x 4 complex entries.
    step = max(trotter._CHUNK_MIN_INTERVALS, trotter._CHUNK_BYTES // (keys * 4 * 4 * 16))
    assert len(calls) == -(-partition.size // step) > 1
    assert all(shape == (keys, 4, 4) and size <= step for shape, size in calls)


def test_uniform_chunks_are_the_power_of_one_interval_block(monkeypatch):
    # 1,024 equal parts in 16 chunks of 64; each chunk exponentiates every width it holds.
    import trotterlab.trotter as trotter

    monkeypatch.setattr(trotter, "_CHUNK_BYTES", 0)
    monkeypatch.setattr(trotter, "_CHUNK_MIN_INTERVALS", 64)
    rng = np.random.default_rng(5)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.5)
    e1, e2 = random_unit_section(rng, 2, 2), random_unit_section(rng, 2, 3)
    partition = Partition.uniform(1.0, 1024)
    chunked = trotter._batched_pairing(e1, e2, partition, gen).rep
    block = trotter._batched_pairing(e1, e2, Partition(partition.parts[:1]), gen).rep
    power = np.linalg.matrix_power(block, partition.size)
    assert np.max(np.abs(chunked - power)) <= 1e-12 * np.max(np.abs(power))


def test_only_equal_widths_take_the_power_path(monkeypatch):
    # One width moved by an ulp makes the partition non-uniform, so it is paired whole.
    import trotterlab.trotter as trotter

    gen = random_christensen_evans(("a", "b"), 2, np.random.default_rng(7), scale=0.4)
    y = affine_expression([2, -1], ["a", "b"], 2)
    uniform = Partition.uniform(1.0, 64)
    moved = Partition((np.nextafter(uniform.parts[0], 1.0), *uniform.parts[1:]))
    batched = []

    def recording(e1, e2, partition, kernel):
        batched.append(partition.size)
        return _batched_pairing(e1, e2, partition, kernel)

    monkeypatch.setattr(trotter, "_batched_pairing", recording)
    power = eval_pairing(y, uniform, y, uniform, gen).rep
    assert batched == [1]
    whole = eval_pairing(y, moved, y, moved, gen).rep
    assert batched == [1, 64]
    assert np.max(np.abs(power - whole)) <= 1e-12 * np.max(np.abs(whole))


def test_same_partition_pairing_memory_stays_bounded():
    # 4,096 parts at d = 4; a pairing that holds every interval's block at once peaks at 56 MB.
    gen = random_christensen_evans(("a", "b"), 4, np.random.default_rng(3), scale=0.05)
    y = affine_expression([2, -1], ["a", "b"], 4)
    partition = random_schedule(1.0, 8, seed=42)[-1]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        eval_pairing(y, partition, y, partition, gen)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("fraction", [1e-6, 1e-8, 1e-10])
def test_walk_keeps_short_segments(fraction):
    # On an interval of width w the pairing of concat(a@f, b@1-f) with itself
    # is exp(f w K_aa) exp((1 - f) w K_bb); merging cut points that lie closer
    # than 1e-12 of the horizon dropped the short a-segments.
    gen = random_christensen_evans(("a", "b"), 2, np.random.default_rng(3), scale=0.5)
    y = parse_section(f"concat(a@{fraction!r}, b@{1 - fraction!r})", gen)
    partition = random_schedule(1.0, 8, seed=42)[-1]
    widths = np.asarray(partition.parts)[:, None, None]
    short = scipy.linalg.expm(fraction * widths * gen[("a", "a")].rep)
    long = scipy.linalg.expm((1 - fraction) * widths * gen[("b", "b")].rep)
    expected = np.eye(4, dtype=complex)
    for a, b in zip(short, long):
        expected = expected @ a @ b
    for pairing in (walk_pairing(y, partition, y, partition, gen),
                    _batched_pairing(y, y, partition, gen)):
        assert np.max(np.abs(pairing.rep - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_chain_summing_to_just_over_one_ends_at_the_interval_end():
    # The first cut lies past 1 within the fraction tolerance; the walk used to
    # place an event past the horizon and index beyond the last interval.
    gen = random_christensen_evans(("a", "b"), 2, np.random.default_rng(3), scale=0.5)
    y = parse_section("concat(a@1.0000000005, b@1e-10)", gen)
    u = unit_expression("a", 2)
    p, q = Partition((0.3, 0.7)), Partition((0.5, 0.5))
    for left, right in ((p, q), (p, p)):
        expected = walk_pairing(u, left, u, right, gen).rep
        pairings = [walk_pairing(y, left, u, right, gen)]
        if left == right:
            pairings.append(eval_pairing(y, left, u, right, gen))
        for pairing in pairings:
            assert np.max(np.abs(pairing.rep - expected)) <= 1e-12 * np.max(np.abs(expected))


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
    walk = walk_pairing(e1, p1, e2, p2, gen).rep
    assert np.max(np.abs(walk - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


def test_brute_force_chains_keep_a_segment_shorter_than_the_old_merge_distance():
    # The 1e-13 segment lies closer to its interval's start than 1e-12; a
    # reference that merged such points was off by 3.1e-12 relative here.
    gen = random_christensen_evans(("a", "b"), 2, np.random.default_rng(3), scale=3.0)
    y = concat_expression([("a", 1e-13), ("b", 1 - 1e-13)], 2)
    p = Partition((0.2, 0.3, 0.5))
    for q in (Partition((0.5, 0.5)), p):
        oracle = brute_force_pairing(y, p, y, q, CpdSemigroup(gen))
        walk = walk_pairing(y, p, y, q, gen).rep
        assert np.max(np.abs(walk - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3)), st.integers(1, 3),
       st.integers(1, 3), st.integers(9, 64), st.integers(1, 4), st.integers(1, 4))
def test_commensurate_uniform_pairing_matches_walk(seed, dim, terms1, terms2, g, a, b):
    # g * a against g * b equal parts share every cut at a multiple of 1/g, where
    # the walk's state sums to a single map: the walk is the g-th power of one period's.
    rng = np.random.default_rng(seed)
    gen = random_christensen_evans(("a", "b"), dim, rng, scale=0.5)
    e1 = random_unit_section(rng, dim, terms1)
    e2 = random_unit_section(rng, dim, terms2)
    p1, p2 = Partition.uniform(1.0, g * a), Partition.uniform(1.0, g * b)
    period = walk_pairing(e1, Partition(p1.parts[:a]), e2, Partition(p2.parts[:b]), gen).rep
    power = np.linalg.matrix_power(period, g)
    walk = walk_pairing(e1, p1, e2, p2, gen).rep
    assert np.max(np.abs(power - walk)) <= 1e-11 * max(1.0, np.max(np.abs(walk)))


def test_pairing_refuses_differing_partitions():
    # Nested dyadic partitions, and one width moved by an ulp, name both sides.
    gen = random_christensen_evans(("a", "b"), 2, np.random.default_rng(11), scale=0.4)
    y = affine_expression([2, -1], ["a", "b"], 2)
    p1, p2 = Partition.uniform(1.0, 2 ** 11), Partition.uniform(1.0, 2 ** 12)
    moved = Partition((np.nextafter(p1.parts[0], 1.0), *p1.parts[1:]))
    for left, right in ((p1, p2), (p2, p1), (p1, moved)):
        with pytest.raises(ValueError, match=f"of {left.size} and {right.size} parts"):
            eval_pairing(y, left, y, right, gen)


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


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3)), st.floats(-3.0, 0.0),
       st.floats(-2.0, 3.0), st.floats(0.1, 0.9))
def test_random_generators_read_affine_sections_norm_convergent(seed, dim, log_scale,
                                                                coefficient, fraction):
    # By bilinearity an affine section's criterion generator is its K^{zeta zeta},
    # so it converges in norm on every schedule; a concat section without a
    # candidate converges at least weakly, so it is never divergent.
    rng = np.random.default_rng(seed)
    gen = random_christensen_evans(("a", "b"), dim, rng, scale=10.0 ** log_scale)
    affine = affine_expression([coefficient, 1.0 - coefficient], ["a", "b"], dim)
    chain = concat_expression([("a", fraction), ("b", 1.0 - fraction)], dim)
    affine_ext, chain_ext = extend_generator(affine, gen), extend_generator(chain, gen)
    for schedule in (dyadic_schedule(1.0, 3, 8), random_schedule(1.0, 4, seed)):
        assert convergence_verdict(affine, affine_ext, 1.0, schedule).verdict == "norm-convergent"
        assert convergence_verdict(chain, chain_ext, 1.0, schedule).verdict != "divergent"


def entry_gap_share(section, gen):
    """max |pair_derivative(zeta, section) - K^{zeta zeta}| over the verdict's allowance."""
    ext = extend_generator(section, gen)
    criterion = pair_derivative(unit_expression("zeta", gen.dim), section, ext).rep
    return np.abs(criterion - ext[("zeta", "zeta")].rep).max() / ext.allowance


def test_affine_sections_use_a_tenth_of_the_entry_allowance():
    # 300 affine sections of random generators: d <= 3, 2-3 labels, scales 1e-3...10,
    # real or complex coefficients summing to 1 with l1 size <= 5.  The concat
    # section of the counterexample misses the same allowance by more than 1e10.
    rng = np.random.default_rng(2029)
    worst = 0.0
    for _ in range(300):
        dim, n = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        labels = ("a", "b", "c")[:n]
        gen = random_christensen_evans(labels, dim, rng, scale=10.0 ** rng.uniform(-3, 1))
        head = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1) * (rng.random() < 0.5)
        head *= rng.uniform(0.0, 2.0) / np.abs(head).sum()
        section = affine_expression([*head, 1.0 - head.sum()], labels, dim)
        worst = max(worst, entry_gap_share(section, gen))
    assert worst <= 0.1
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    assert entry_gap_share(y, scalar_counterexample_generator()) >= 1e10


def test_cancelling_affine_sections_read_norm_convergent():
    # c a + (1 - c) x with x = a or b and |c| = 1...1000: the terms cancel, and
    # the unit check, the extension gate and the verdict must each allow the
    # rounding of the coefficients' size.
    rng = np.random.default_rng(30)
    verdicts = []
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        gen = random_christensen_evans(("a", "b"), dim, rng, scale=10.0 ** rng.uniform(-3, 1))
        c = float(rng.choice((-1, 1)) * 10.0 ** rng.uniform(0, 3))
        section = affine_expression([c, 1.0 - c], ["a", ("a", "b")[int(rng.integers(2))]], dim)
        extension = extend_generator(section, gen)
        verdicts.append(_decide_verdict(extension, None)[0])
    assert verdicts == ["norm-convergent"] * 300


def test_candidate_not_approached_even_weakly_is_divergent():
    # <v, y_P> = e^{1/2} on every partition, while <v, u> = 1: the products
    # do not approach u even weakly, although the criterion plateaus.
    gen = scalar_counterexample_generator()
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    report = convergence_verdict(y, extend_generator(y, gen), 1.0, dyadic_schedule(1.0, 3, 6),
                                 candidate="u")
    assert report.verdict == "divergent"
    assert report.ambient_defects["v"] == pytest.approx([np.exp(0.5) - 1.0] * 4, abs=1e-12)


@pytest.mark.parametrize("scale", [1.0, 20.0, 40.0])
def test_candidate_note_is_relative_to_the_grams(scale):
    # 1.1 w - 0.1 w is exactly w, so the two grams agree to their rounding,
    # which grows like exp(scale): 1.7e-6 at 20 and 1.7e3 at 40.
    gen = scalar_kernel(np.array([[0.0, 0.0], [0.0, scale]]), ("u", "w"))
    y = parse_section("1.1*w - 0.1*w", gen)
    report = convergence_verdict(y, extend_generator(y, gen), 1.0, dyadic_schedule(1.0, 3, 5),
                                 candidate="w")
    assert not [note for note in report.notes if note.startswith("candidate gram")]


def test_candidate_note_names_a_limit_outside_the_candidate_span():
    gen = scalar_counterexample_generator()
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    report = convergence_verdict(y, extend_generator(y, gen), 1.0, dyadic_schedule(1.0, 3, 5),
                                 candidate="w")
    assert report.notes == ("candidate gram differs from the predicted limit gram by "
                            "3.646959e-01; the limit unit lies outside the span of the candidate",)


def test_norm_defect_identity_reassembled_from_fresh_pairings():
    rng = np.random.default_rng(6)
    gen = random_christensen_evans(("a", "b"), 2, rng, scale=0.3)
    y = affine_expression([2, -1], ["a", "b"], 2)
    ext = extend_generator(y, gen)
    schedule = dyadic_schedule(1.0, 3, 6)
    report = convergence_verdict(y, ext, 1.0, schedule)
    eye = unit_element(2)
    zeta = unit_expression(ext.labels[-1], 2)
    limit_one = superop_exp(ext[(ext.labels[-1],) * 2], 1.0).apply(eye)
    for partition, stored in zip(sorted(schedule, key=lambda p: p.norm, reverse=True),
                                 report.norm_defects):
        gram_one = eval_pairing(y, partition, y, partition, ext).apply(eye)
        crit_one = eval_pairing(zeta, partition, y, partition, ext).apply(eye)
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
        kernel = extend_generator(y, gen)
        return walk_pairing(y, partitions[4], y, partitions[5], kernel).rep

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
    assert "thresholds" not in data


def test_fit_rate_handles_noise_floor():
    assert fit_rate((0.5, 0.25, 0.125), (1e-15, 1e-15, 1e-16)) is None
    rate = fit_rate((0.5, 0.25, 0.125, 0.0625), (0.1, 0.05, 0.025, 0.0125))
    assert rate == pytest.approx(1.0, abs=1e-9)


def test_obs35_note_needs_a_fitted_rate():
    def report(criterion, verdict="norm-convergent"):
        return assemble_report(horizon=1.0, target="zeta", target_kind="adjoined",
                               partitions=dyadic_schedule(1.0, 3, 5), gram_defects=criterion,
                               criterion_defects=criterion, norm_defects=criterion,
                               ambient_defects={}, verdict=verdict)

    exact = report([0.0, 0.0, 0.0])
    assert exact.verdict == "norm-convergent" and exact.criterion_rate is None
    assert not exact.obs35_sequences_suffice and exact.notes == ()
    first_order = report([8e-7, 4e-7, 2e-7])
    assert first_order.verdict == "norm-convergent"
    assert first_order.criterion_rate == pytest.approx(1.0)
    assert first_order.obs35_sequences_suffice and len(first_order.notes) == 1
    assert report([8e-7, 4e-7, 2e-7], "weak-only").notes == ()


def test_rates_are_fitted_against_h2():
    # Widths (2, 1, 1) / 4k repeated k times have norm 4/3 h2, with h2 the sum of
    # squared widths over t, while n equal parts have norm = h2 = 1/n.  A defect
    # equal to h2 fits rate 1 against h2, and a smaller slope against the norms.
    partitions = [Partition((0.5 / k, 0.25 / k, 0.25 / k) * k) for k in (1, 2, 4)]
    partitions.append(Partition.uniform(1.0, 64))
    h2 = [sum(w * w for w in p.parts) for p in partitions]
    report = assemble_report(horizon=1.0, target="zeta", target_kind="adjoined",
                             partitions=partitions, gram_defects=h2, criterion_defects=h2,
                             norm_defects=h2, ambient_defects={}, verdict="norm-convergent")
    assert report.criterion_rate == pytest.approx(1.0, abs=1e-12)
    assert report.gram_rate == pytest.approx(1.0, abs=1e-12)
    assert report.norms == tuple(p.norm for p in partitions)
    assert fit_rate(report.norms, h2) < 0.95


def test_two_point_plateau_reads_weak_only():
    # Two partitions fit no rate; the verdict compares entries of the extended
    # kernel, so it needs none: weak-only against w, and divergent against u,
    # which the products do not approach even weakly.
    gen = scalar_counterexample_generator()
    y = concat_expression([("u", 0.5), ("v", 0.5)], 1)
    ext, schedule = extend_generator(y, gen), dyadic_schedule(1.0, 3, 4)
    plateau = convergence_verdict(y, ext, 1.0, schedule, candidate="w")
    assert plateau.criterion_rate is None and plateau.verdict == "weak-only"
    assert convergence_verdict(y, ext, 1.0, schedule, candidate="u").verdict == "divergent"


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
