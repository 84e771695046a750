"""Command line front end: run scenario files, validate kernel documents.

    trotterlab run SCENARIO [--out DIR] [--seed N]
                            [--schedule dyadic:MIN:MAX | random:COUNT]
    trotterlab validate KERNEL.json
    trotterlab version

``run`` gates the scenario's generator through the exact conditional
positivity test and prints its margin, evaluates every declared
expression over the schedule, writes one CSV and one JSON report per
expression into the output directory, and exits 0 exactly when all
declared expectations hold.  The default output directory is
``$TROTTERLAB_OUT`` or ``./trotterlab-out``.  The seed (``--seed``, else
the scenario's own) draws ``random`` schedules and is recorded in the
JSON reports; nothing else depends on it.  Outputs are deterministic:
the same scenario and seed produce byte-identical CSVs.

``validate`` prints hermitian symmetry, complete positivity (with an
explicit witness tuple on failure) and conditional positivity reports for
a kernel JSON document.  A generator is allowed to fail plain complete
positivity; the exit code only reflects well-formedness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .kernels import (
    KernelSymmetryError,
    is_conditionally_cpd,
    is_cpd,
    kernel_from_json_dict,
    kolmogorov_decompose,
)
from .scenario import (
    ScenarioParseError,
    build_generator,
    build_schedule,
    parse_scenario,
)
from .trotter import convergence_verdict
from .units import ExtensionPositivityError, extend_generator

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_GATE = 2
EXIT_MALFORMED = 3


def _print_witness(witness) -> None:
    print("  witness tuple (label, left, right):")
    for sigma, left, right in zip(witness.sigmas, witness.lefts, witness.rights):
        print(f"    {sigma}: left={np.array2string(left, precision=4)} "
              f"right={np.array2string(right, precision=4)}")
    print(f"  quadratic form minimum eigenvalue: {witness.form_min_eigenvalue:.6e}")


def cmd_run(args) -> int:
    path = Path(args.scenario)
    try:
        scenario = parse_scenario(path.read_bytes().decode("utf-8"))
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        print(f"cannot read scenario: {path}: line {line}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ScenarioParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED

    seed = args.seed if args.seed is not None else scenario.seed
    out_dir = Path(args.out or os.environ.get("TROTTERLAB_OUT", "trotterlab-out"))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_MALFORMED

    try:
        generator = build_generator(scenario, base_dir=path.parent)
        schedule = build_schedule(scenario, args.schedule, seed=seed)
        generator.require_hermitian()  # the gate's precondition, as malformed input
    except (ScenarioParseError, OSError, ValueError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED

    gate = is_conditionally_cpd(generator)
    print(f"gate: generator conditional positivity "
          f"{'PASS' if gate.ok else 'FAIL'} "
          f"(min scaled eigenvalue {gate.min_scaled_eigenvalue:.3e}, "
          f"scale {gate.scale:.3e})")
    if not gate.ok:
        _print_witness(gate.witness)
        return EXIT_GATE

    failures = []
    for name, expression in scenario.expressions.items():
        candidate = scenario.candidates.get(name)
        try:
            extension = extend_generator(expression, generator)
        except (ExtensionPositivityError, ValueError) as exc:
            print(f"{name}: extension failed: {exc}", file=sys.stderr)
            return EXIT_GATE
        try:
            report = convergence_verdict(
                expression, generator, scenario.horizon, schedule,
                candidate=candidate, extension=extension,
                thresholds=scenario.thresholds, seed=seed)
        except ValueError as exc:
            print(f"{name}: numerical breakdown: {exc}", file=sys.stderr)
            return EXIT_GATE
        try:
            report.write_csv(out_dir / f"{name}.csv")
            report.write_json(out_dir / f"{name}.json")
        except OSError as exc:
            print(f"cannot write outputs: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
        against = f"candidate {candidate!r}" if candidate else f"adjoined {report.target!r}"
        rate = "n/a" if report.criterion_rate is None else f"{report.criterion_rate:.3f}"
        print(f"{name}: {report.verdict} against {against} "
              f"(finest criterion defect {report.criterion_defects[-1]:.3e}, "
              f"rate {rate})")
        for note in report.notes:
            print(f"  note: {note}")
        expected = scenario.expectations.get(name)
        if expected is not None and expected != report.verdict:
            failures.append((name, expected, report.verdict))

    if failures:
        print("expectation mismatches:")
        for name, expected, got in failures:
            print(f"  {name}: expected {expected}, got {got}")
        return EXIT_EXPECTATION
    return EXIT_OK


def cmd_validate(args) -> int:
    path = Path(args.kernel)
    try:
        kernel = kernel_from_json_dict(json.loads(path.read_text()))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"malformed kernel document: {exc}", file=sys.stderr)
        return EXIT_MALFORMED

    print(f"kernel: dim {kernel.dim}, labels {list(kernel.labels)}")
    print(f"hermitian symmetry defect: {kernel.hermitian_defect():.3e}")
    try:
        cpd = is_cpd(kernel)
    except KernelSymmetryError as exc:
        print(f"FAIL: {exc}")
        return EXIT_MALFORMED
    if cpd.ok:
        decomposition = kolmogorov_decompose(kernel)
        print(f"completely positive definite: PASS "
              f"(min eigenvalue {cpd.min_eigenvalue:.3e}, "
              f"factorization rank {decomposition.rank}, "
              f"reconstruction error "
              f"{decomposition.max_reconstruction_error(kernel):.3e})")
    else:
        print(f"completely positive definite: FAIL "
              f"(min eigenvalue {cpd.min_eigenvalue:.3e})")
        _print_witness(cpd.witness)

    conditional = is_conditionally_cpd(kernel)
    print(f"conditionally completely positive definite: "
          f"{'PASS' if conditional.ok else 'FAIL'} "
          f"(min scaled eigenvalue {conditional.min_scaled_eigenvalue:.3e}, "
          f"scale {conditional.scale:.3e})")
    if not conditional.ok:
        _print_witness(conditional.witness)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="trotterlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario file")
    run_parser.add_argument("scenario")
    run_parser.add_argument("--out", default=None, help="output directory")
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument("--schedule", default=None,
                            help="dyadic:MIN:MAX or random:COUNT")
    run_parser.set_defaults(func=cmd_run)

    validate_parser = sub.add_parser("validate", help="validate a kernel JSON document")
    validate_parser.add_argument("kernel")
    validate_parser.set_defaults(func=cmd_validate)

    version_parser = sub.add_parser("version", help="print the version")
    version_parser.set_defaults(func=lambda args: print(__version__) or EXIT_OK)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
