"""Verdict relations: two descriptions of one problem must get one answer.

Each relation runs two equivalent problems through ``convergence_verdict``
and requires the same verdict and the same defect series.  Every entry of
the gram, criterion, norm and ambient series may differ by at most
``(1e-13 + 1e-15 n) * max(1, |limit gram|)``, with n the partition size and
``|limit gram|`` the norm of the predicted limit gram at the horizon (a
completely positive map, so the norm is that of its value at the unit).
Ambient series are compared over the labels both sides share.

The relations, each on affine_42 over dyadic 3..12 and ``random:8``:

* time rescaling: horizon T under generator L against horizon 1 under
  T * L, over the rescaled schedule;
* labels: adjoining an unused label, and reversing the label order;
* rewriting a section: splitting a coefficient over repeated terms;
* unitary conjugation: eta and beta conjugated by b -> U b U*, run
  through ``trotterlab run``; verdicts and exit codes only.

Four more relations compare verdicts only, each of which must be
``norm-convergent``: affine_42 on ``random:8`` under four seeds against
dyadic 3..12 (relation 1), affine_42 at horizons 0.25 to 4 (relation 2),
the unit section ``y = u`` under ``gamma [[G]]`` at every scale G
(relations 4 and 7), whose defects are rounding at the ulp of exp(G), and
``y = u`` against the cancelling rewrites ``30*u - 29*u`` and
``100*u - 99*u`` (relation 6).  Relation 6 also pads counterexample_41's
y with cancelling terms, which must keep its verdict ``weak-only``.

The label relations hold exactly, and are also checked on random
Christensen-Evans generators.  The other two can miss the tolerance,
which scales with the limit gram while the rounding scales with the
pairings that the defects are computed from; these can be far larger (a
divergent section's coarse defects, or terms that cancel).  On affine_42,
``3*xi1 - xi1 - xi2`` for ``2*xi1 - 1*xi2`` misses it by 4% in the gram
defect at n = 1024 on dyadic 3..12, and is marked as failing.  On random
generators, time rescaling at T = 3 and rewrites each miss it on a few
draws in a thousand, so they are not checked there.
"""

import ast
import json
import tempfile
from contextlib import redirect_stdout
from functools import lru_cache
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trotterlab
from trotterlab.algebra import dagger, unit_element
from trotterlab.cli import main
from trotterlab.kernels import CpdSemigroup, OperatorKernel
from trotterlab.scenario import build_generator, build_schedule, parse_scenario
from trotterlab.trotter import convergence_verdict, dyadic_schedule, random_schedule
from trotterlab.units import UnitExpression, extend_generator

from builders import affine_expression, random_christensen_evans

AFFINE = (Path(trotterlab.__file__).parent / "scenarios" / "affine_42.scenario").read_text()
COUNTEREXAMPLE = (Path(trotterlab.__file__).parent / "scenarios"
                  / "counterexample_41.scenario").read_text()
SCHEDULES = ("dyadic:3:12", "random:8")
# An unused third label for affine_42, with generator data of the same size.
XI3 = ("eta xi3 [[0.02, 0.01j], [-0.01, 0.03]]\n"
       "beta xi3 [[0.01, 0.0], [0.02j, -0.01]]\n")


def analyse(section: UnitExpression, generator: OperatorKernel, horizon: float, schedule):
    """The report of ``section`` and the norm of its predicted limit gram."""
    extension = extend_generator(section, generator)
    zeta = extension.labels[-1]
    gram = CpdSemigroup(extension).entry(zeta, zeta, horizon)
    report = convergence_verdict(section, extension, horizon, schedule)
    return report, float(np.linalg.norm(gram.apply(unit_element(generator.dim)), 2))


def assert_same_answer(first, second):
    """Same verdict, and the same defect series within the module's tolerance."""
    (a, gram_norm), (b, _) = first, second
    assert a.verdict == b.verdict
    assert a.sizes == b.sizes
    tolerance = (1e-13 + 1e-15 * np.array(a.sizes)) * max(1.0, gram_norm)
    shared = sorted(set(a.ambient_defects) & set(b.ambient_defects))
    series = [(a.gram_defects, b.gram_defects), (a.criterion_defects, b.criterion_defects),
              (a.norm_defects, b.norm_defects)]
    series += [(a.ambient_defects[s], b.ambient_defects[s]) for s in shared]
    for x, y in series:
        assert np.all(np.abs(np.subtract(x, y)) <= tolerance)


@lru_cache(maxsize=None)
def scenario_answer(text: str, schedule: str, factor: float = 1.0, seed: int | None = None):
    """``analyse`` of the scenario's y with its generator multiplied by ``factor``.

    ``seed`` draws a random schedule; the scenario's own seed by default.
    """
    sc = parse_scenario(text)
    generator = build_generator(sc)
    generator = OperatorKernel(generator.labels, factor * generator.table)
    return analyse(sc.expressions["y"], generator, sc.horizon,
                   build_schedule(sc, schedule, seed=seed))


@pytest.mark.parametrize("seed", [None, 3, 17, 2005])
def test_schedule_keeps_the_verdict(seed):
    dyadic, _ = scenario_answer(AFFINE, "dyadic:3:12")
    drawn, _ = scenario_answer(AFFINE, "random:8", seed=seed)
    assert dyadic.verdict == drawn.verdict == "norm-convergent"


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("horizon", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_horizon_keeps_the_verdict(schedule, horizon):
    text = AFFINE.replace("horizon 1.0", f"horizon {horizon!r}")
    assert scenario_answer(text, schedule)[0].verdict == "norm-convergent"


@pytest.mark.parametrize("scale", [5.0, 20.0, 40.0])
def test_unit_section_converges_at_every_generator_scale(scale):
    text = f"dim 1\nlabels u\ngenerator gamma [[{scale!r}]]\nexpression y = u\n"
    assert scenario_answer(text, "dyadic:3:6")[0].verdict == "norm-convergent"


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("horizon", [0.3, 0.5, 2.0, 3.0, 4.0])
def test_time_rescaling(schedule, horizon):
    stretched = AFFINE.replace("horizon 1.0", f"horizon {horizon!r}")
    assert_same_answer(scenario_answer(stretched, schedule),
                       scenario_answer(AFFINE, schedule, horizon))


REWRITE_ROUNDING = pytest.mark.xfail(
    reason="the pairing's rounding exceeds the tolerance by 4% in the gram defect at n = 1024")


@pytest.mark.parametrize("schedule, rewrite", [
    (schedule, rewrite) if (schedule, rewrite) != ("dyadic:3:12", "3*xi1 - xi1 - xi2")
    else pytest.param(schedule, rewrite, marks=REWRITE_ROUNDING)
    for schedule in SCHEDULES
    for rewrite in ("xi1 + xi1 - xi2", "3*xi1 - xi1 - xi2",
                    "0.5*xi1 + 1.5*xi1 - 0.25*xi2 - 0.75*xi2")])
def test_section_rewrites(schedule, rewrite):
    rewritten = AFFINE.replace("y = 2*xi1 - 1*xi2", f"y = {rewrite}")
    assert_same_answer(scenario_answer(AFFINE, schedule), scenario_answer(rewritten, schedule))


@pytest.mark.parametrize("rewrite", ["30*u - 29*u", "100*u - 99*u"])
def test_cancelling_rewrite_keeps_the_verdict(rewrite):
    # The terms cancel to exactly u; the extension and the verdict carry
    # rounding of the size of the coefficients, which they must allow.
    text = "dim 1\nlabels u v\ngenerator gamma [[0.7, 0.3], [0.3, 0.9]]\nexpression y = {}\n"
    plain = scenario_answer(text.format("u"), "dyadic:3:6")[0]
    assert scenario_answer(text.format(rewrite), "dyadic:3:6")[0].verdict == plain.verdict


@pytest.mark.parametrize("padding", ["2000000*u - 2000000*u", "2000000*v - 2000000*v"])
def test_cancelling_padding_keeps_the_weak_verdict(padding):
    # The u row of gamma is zero, so u padding leaves every entry of the
    # extended kernel as it was; v padding adds rounding far below the gap
    # K^{zeta zeta} - K^{w w} = 1/4 that makes y weak-only against w.
    y = "expression y = concat(u@0.5, v@0.5)"
    sc = parse_scenario(COUNTEREXAMPLE.replace(y, f"{y} + {padding}"))
    section = sc.expressions["y"]
    report = convergence_verdict(section, extend_generator(section, build_generator(sc)),
                                 sc.horizon, build_schedule(sc, "dyadic:3:6"), candidate="w")
    assert report.verdict == "weak-only"


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("relabel", [
    lambda text: text.replace("labels xi1 xi2", "labels xi1 xi2 xi3") + XI3,
    lambda text: text.replace("labels xi1 xi2", "labels xi2 xi1")],
    ids=["unused-label", "reversed-labels"])
def test_labels(schedule, relabel):
    assert_same_answer(scenario_answer(AFFINE, schedule),
                       scenario_answer(relabel(AFFINE), schedule))


def conjugated(text: str, unitary: np.ndarray) -> str:
    """``text`` with every ``eta`` and ``beta`` matrix b replaced by ``U b U*``."""
    lines = []
    for line in text.splitlines():
        directive, _, rest = line.partition(" ")
        if directive in ("eta", "beta"):
            label, _, matrix = rest.partition(" ")
            b = np.array(ast.literal_eval(matrix), dtype=complex)
            line = f"{directive} {label} {(unitary @ b @ dagger(unitary)).tolist()}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def random_unitary(seed: int, dim: int) -> np.ndarray:
    """A Haar unitary: the QR factor of a complex Gaussian matrix, phases fixed by R."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@lru_cache(maxsize=None)
def cli_answer(text: str, schedule: str):
    """The exit code of ``trotterlab run`` on ``text`` and the verdict of its y."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.scenario"
        path.write_text(text)
        with redirect_stdout(StringIO()):
            code = main(["run", str(path), "--schedule", schedule, "--out", tmp])
        return code, json.loads((Path(tmp) / "y.json").read_text())["verdict"]


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("seed", [3, 17, 2005])
def test_unitary_conjugation_keeps_the_verdict(schedule, seed):
    """Conjugating the generator by a unitary gives the same verdict and exit code.

    The defect series are not compared: their exact values are unitarily
    invariant, but the pairings' rounding, about 1e-12 absolute, moves the
    n = 4096 defects by up to 3.4e-6 relative.  They join this relation
    when the pairing arithmetic is exact to about 1e-16.
    """
    unitary = random_unitary(seed, 2)
    text = conjugated(AFFINE, unitary)
    assert text != AFFINE and np.allclose(unitary @ dagger(unitary), np.eye(2), atol=1e-14)
    assert cli_answer(text, schedule) == cli_answer(AFFINE, schedule)


def reversed_kernel(kernel: OperatorKernel) -> OperatorKernel:
    return OperatorKernel(kernel.labels[::-1], kernel.table[::-1, ::-1])


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from((1, 2)), seed=st.integers(0, 2**32 - 1),
       exponent=st.floats(-3.0, 0.0), coefficient=st.floats(-2.0, 3.0),
       horizon=st.sampled_from((0.3, 0.5, 2.0, 3.0)),
       schedule=st.sampled_from(("dyadic", "random")))
def test_label_relations_on_random_generators(dim, seed, exponent, coefficient, horizon,
                                              schedule):
    # A third label drawn with the first two, so the two-label generator is its restriction.
    wide = random_christensen_evans(("a", "b", "c"), dim, np.random.default_rng(seed),
                                    scale=10.0 ** exponent)
    generator = OperatorKernel(("a", "b"), wide.table[:2, :2])
    section = affine_expression([coefficient, 1.0 - coefficient], ["a", "b"], dim)
    if schedule == "dyadic":
        partitions = dyadic_schedule(horizon, 3, 8)
    else:
        partitions = random_schedule(horizon, 4, seed)
    base = analyse(section, generator, horizon, partitions)
    for relabelled in (wide, reversed_kernel(generator)):
        assert_same_answer(base, analyse(section, relabelled, horizon, partitions))
