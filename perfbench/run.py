"""Benchmark of ``trotterlab run``: time to verdict, set-up, memory, correctness.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  One harness process
starts one child process at a time (closed loop, one client), so the
child has the machine to itself while it is timed.

``--trace 0`` measures, with tracing off:

* ``setup_s`` -- launch until the scenario is parsed and the generator and
  schedule are built (what ``trotterlab run`` does before its gate), the
  median of several probe processes;
* ``wall_s`` -- launch of ``trotterlab run`` until it exits, the median of
  the runs that fit in ``--seconds`` (at least one);
* ``peak_rss_mb`` -- peak resident memory of the run process, median.

``--trace 1`` runs ``trotterlab run`` untraced and then traced (the tracer
in ``tracer.py`` wraps the package from outside), checks that both wrote
byte-identical CSVs, and reports calls, total and self time per layer.

Every run's CSVs are checked against an independent expected defect
series (``checks.py``) and, where one was recorded for this seed, against
the reference under ``references/``.  A run fails when it crashes, times
out, exits with a code other than 0 or 1, misses an expression's CSV or
JSON, or fails a defect check.  Exit code 1 means an ``expect`` line did
not hold: that lowers ``verdicts_ok`` and is not a failure.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, provenance
included, goes to ``.perfbench-work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy
import scipy

import checks
import tracer
from child import TRACER_BROKEN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "trotterlab" / "scenarios"
WORK = ROOT / ".perfbench-work"
REFERENCES = HERE / "references"

EXIT_OK, EXIT_EXPECTATION = 0, 1
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0  # the whole benchmark process must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    scenario: str
    schedule: str | None  # None: the scenario's own schedule
    expected: Callable  # (scenario, schedule) -> expected defect rows per expression


# Why these three: see BENCHMARK.json.  In short, affine-dyadic is dominated
# by the gate and superop_norm, affine-random by d=2 transfer walks, and
# cex-random by per-event Python work on scalar blocks with concat cuts.
WORKLOADS = {
    "affine-dyadic": Workload("affine_42.scenario", None, checks.affine_expected),
    "affine-random": Workload("affine_42.scenario", "random:8", checks.affine_expected),
    "cex-random": Workload("counterexample_41.scenario", "random:8", checks.fock_expected),
}

E2E_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_METRICS = {
    "kernels.gate_calls": "count",
    "kernels.gate_s": "s",
    "kernels.entry_rep_calls": "count",
    "kernels.entry_rep_repeat_ratio": "share",
    "units.extend_generator_s": "s",
    "units.extend_generator_self_s": "s",
    "trotter.eval_pairing_calls": "count",
    "trotter.eval_pairing_s": "s",
    "trotter.eval_pairing_uniform_calls": "count",
    "trotter.pairing_intervals": "count",
    "trotter.convergence_verdict_self_s": "s",
    "trotter.report_write_s": "s",
    "algebra.superop_norm_calls": "count",
    "algebra.superop_norm_s": "s",
    "algebra.expm_calls": "count",
    "algebra.expm_matrices": "count",
    "algebra.expm_s": "s",
    "scenario.setup_s": "s",
    "scenario.import_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.in_process_s": "s",
    "verdicts_ok": "share",
    **{f"{layer}.{kind}": unit
       for layer in tracer.LAYERS
       for kind, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package sources, bad child)."""


# -- child processes ----------------------------------------------------------

@dataclass
class Exited:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    timed_out: bool
    first_line: str | None = None


def launch(cmd: list[str], env: dict, timeout: float, stdout_path: Path | None = None,
           wait_for_line: bool = False) -> Exited:
    """Start ``cmd``, wait for it to end, and time it.

    With ``wait_for_line`` the time runs until the child's first line of
    standard output instead of until it exits.  The child is killed at
    ``timeout`` seconds.
    """
    killed = threading.Event()
    with open(stdout_path or os.devnull, "w") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE if wait_for_line else sink,
                                stderr=subprocess.STDOUT if not wait_for_line else sink)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        first_line = status = None
        try:
            if wait_for_line:
                first_line = proc.stdout.readline().decode()
                elapsed = time.perf_counter() - start
                sink.write(first_line + proc.stdout.read().decode())
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            if not wait_for_line:
                elapsed = time.perf_counter() - start
        finally:
            timer.cancel()
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Exited(elapsed, proc.returncode, usage.ru_maxrss / 1024.0, killed.is_set(),
                  first_line)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- one workload ---------------------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    def __init__(self, name: str, seed: int | None, seconds: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.started = time.perf_counter()
        self.seconds = seconds
        self.scenario_path = SCENARIOS / self.workload.scenario
        if not (SRC / "trotterlab" / "cli.py").is_file() or not self.scenario_path.is_file():
            raise SetupError(f"no trotterlab sources under {SRC}; run from the root "
                             "of a source checkout")
        sys.path.insert(0, str(SRC))
        import trotterlab
        from trotterlab.scenario import build_schedule, parse_scenario

        if Path(trotterlab.__file__).resolve().parent != SRC / "trotterlab":
            raise SetupError(f"trotterlab imported from {trotterlab.__file__}, not {SRC}")
        self.scenario = parse_scenario(self.scenario_path.read_text())
        self.seed = self.scenario.seed if seed is None else seed
        self.schedule = build_schedule(self.scenario, self.workload.schedule, seed=self.seed)
        self.expected = self.workload.expected(self.scenario, self.schedule)
        self.reference = self._recorded_reference()
        self.env = child_env()
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.runs: list[dict] = []
        self.describe: list[str] = []
        self.provenance = {
            "workload": name, "seed": self.seed,
            "scenario": self.workload.scenario,
            "scenario_sha256": sha256_file(self.scenario_path),
            "schedule": self.workload.schedule or "scenario default "
                        f"{self.scenario.schedule_kind} {list(self.scenario.schedule_args)}",
            "schedule_sizes": sorted((p.size for p in self.schedule)),
            "git_commit": git_commit(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "reference": self.reference["path"] if self.reference else None,
        }

    def _recorded_reference(self) -> dict | None:
        path = REFERENCES / f"{self.name}.json"
        if not path.exists():
            return None
        data = json.loads(path.read_text())
        if data["seed"] is not None and data["seed"] != self.seed:
            return None
        return {"path": str(path.relative_to(ROOT)), "rows": data["rows"]}

    def remaining(self) -> float:
        return max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.started))

    # -- set-up probe -----------------------------------------------------------

    def probe_setup(self) -> float:
        cmd = [sys.executable, str(HERE / "child.py"), "setup", str(self.scenario_path),
               str(self.seed)] + ([self.workload.schedule] if self.workload.schedule else [])
        done = launch(cmd, self.env, self.remaining(), self.work / "setup.log",
                      wait_for_line=True)
        if done.exit_code != 0 or not done.first_line:
            raise SetupError(f"set-up probe failed with exit code {done.exit_code}; "
                             f"see {self.work / 'setup.log'}")
        info = json.loads(done.first_line)
        if Path(info["trotterlab"]).resolve().parent != SRC / "trotterlab":
            raise SetupError(f"child imported trotterlab from {info['trotterlab']}")
        if sorted(info["sizes"]) != self.provenance["schedule_sizes"]:
            raise SetupError("child built a different schedule than the harness")
        return done.wall_s

    # -- one run of the CLI -------------------------------------------------------

    def run_args(self, out: Path) -> list[str]:
        args = ["run", str(self.scenario_path), "--out", str(out), "--seed", str(self.seed)]
        if self.workload.schedule:
            args += ["--schedule", self.workload.schedule]
        return args

    def run_cli(self, tag: str, traced: bool = False) -> dict:
        out = self.work / tag
        out.mkdir()
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), "trace", str(out / "spans.npz"),
                   str(out / "meta.json"), "--"] + self.run_args(out)
        else:
            cmd = [sys.executable, "-m", "trotterlab.cli"] + self.run_args(out)
        done = launch(cmd, self.env, self.remaining(), out / "stdout.txt")
        if traced and done.exit_code == TRACER_BROKEN:
            raise SetupError(f"tracer could not wrap the package; see {out / 'stdout.txt'}")
        record = {"tag": tag, "traced": traced, "wall_s": done.wall_s,
                  "peak_rss_mb": done.peak_rss_mb, "exit_code": done.exit_code,
                  "problems": self.check_run(out, done)}
        record.update(self.verdicts(out))
        self.exit_code_agrees(record)
        record["csv_sha256"] = {p.name: sha256_file(p) for p in sorted(out.glob("*.csv"))}
        self.runs.append(record)
        return record

    def check_run(self, out: Path, done: Exited) -> list[str]:
        if done.timed_out:
            return [f"timed out after {done.wall_s:.1f} s"]
        if done.exit_code not in (EXIT_OK, EXIT_EXPECTATION):
            return [f"exit code {done.exit_code}; see {out / 'stdout.txt'}"]
        problems = []
        for name in self.scenario.expressions:
            for suffix in (".csv", ".json"):
                if not (out / f"{name}{suffix}").is_file():
                    problems.append(f"missing {name}{suffix}")
        if problems:
            return problems
        problems += checks.check_outputs(out, self.expected)
        if self.reference:
            problems += [f"reference: {p}" for p in
                         checks.check_outputs(out, self.reference["rows"])]
        return problems

    def verdicts(self, out: Path) -> dict:
        verdicts = {}
        for name in self.scenario.expressions:
            try:
                verdicts[name] = json.loads((out / f"{name}.json").read_text())["verdict"]
            except (OSError, ValueError, KeyError):
                verdicts[name] = None
        expect = self.scenario.expectations
        held = sum(verdicts.get(name) == verdict for name, verdict in expect.items())
        return {"verdicts": verdicts, "expected": dict(expect),
                "verdicts_ok": held / len(expect) if expect else 1.0}

    def exit_code_agrees(self, record: dict) -> None:
        """Exit code 0 exactly when every expectation held."""
        if record["problems"]:
            return
        want = EXIT_OK if record["verdicts_ok"] == 1.0 else EXIT_EXPECTATION
        if record["exit_code"] != want:
            record["problems"].append(f"exit code {record['exit_code']} but "
                                      f"verdicts_ok {record['verdicts_ok']}")

    # -- modes --------------------------------------------------------------------

    def measure(self) -> dict:
        setups = [self.probe_setup() for _ in range(SETUP_PROBES)]
        loop_start = time.perf_counter()
        while True:
            record = self.run_cli(f"run-{len(self.runs)}")
            if (time.perf_counter() - loop_start >= self.seconds
                    or record["problems"] or self.remaining() <= 1.0):
                break
        runs = self.runs
        walls = [r["wall_s"] for r in runs]
        self.describe = [
            f"wall_s       {statistics.median(walls):.4f} s   "
            f"(median of {len(walls)} runs; min {min(walls):.4f}, max {max(walls):.4f})",
            f"setup_s      {statistics.median(setups):.4f} s   "
            f"(median of {len(setups)} probes; min {min(setups):.4f}, max {max(setups):.4f})",
            f"peak_rss_mb  {statistics.median(r['peak_rss_mb'] for r in runs):.2f} MB",
        ]
        self.provenance["setup_probes_s"] = setups
        return {"wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}

    def trace(self) -> dict:
        samples = []
        loop_start = time.perf_counter()
        while True:
            k = len(samples)
            plain = self.run_cli(f"plain-{k}")
            traced = self.run_cli(f"traced-{k}", traced=True)
            if not traced["problems"] and traced["csv_sha256"] != plain["csv_sha256"]:
                traced["problems"].append("traced CSVs differ from the untraced run's")
            if plain["problems"] or traced["problems"]:
                break
            samples.append(self.layer_metrics(plain, traced))
            if time.perf_counter() - loop_start >= self.seconds or self.remaining() <= 1.0:
                break
        if not samples:
            return {}
        s = {k: statistics.median(x[k] for x in samples) for k in samples[0]}
        pairing = s["trotter.eval_pairing_s"]
        gate_norm = s["kernels.gate_s"] + s["algebra.superop_norm_s"]
        self.describe = [
            f"trace: {len(samples)} traced run(s); overhead {s['trace.overhead_s']:.3f} s",
            f"trotter.eval_pairing_s {pairing:.3f} s = "
            f"{pairing / s['trace.wall_s']:.1%} of traced wall time",
            f"kernels.gate_s + algebra.superop_norm_s {gate_norm:.3f} s = "
            f"{gate_norm / s['trace.in_process_s']:.1%} of in-process time",
        ]
        return s

    def layer_metrics(self, plain: dict, traced: dict) -> dict:
        out = self.work / traced["tag"]
        meta = json.loads((out / "meta.json").read_text())
        with numpy.load(out / "spans.npz") as z:
            summary = tracer.summarize(list(z["names"]), z["name"], z["start"], z["end"],
                                       z["parent"], z["flags"])
            counters = dict(zip(tracer.COUNTERS, z["counters"].tolist()))

        def span(name, field="total_s"):
            if name not in summary:
                raise SetupError(f"tracer recorded no span name {name!r}")
            return summary[name][field]

        entry_calls = span("kernels.CpdSemigroup.entry_rep", "calls")
        metrics = {
            "kernels.gate_calls": span("kernels.is_conditionally_cpd", "calls"),
            "kernels.gate_s": span("kernels.is_conditionally_cpd"),
            "kernels.entry_rep_calls": entry_calls,
            "kernels.entry_rep_repeat_ratio":
                counters["entry_rep_repeats"] / entry_calls if entry_calls else 0.0,
            "units.extend_generator_s": span("units.extend_generator"),
            "units.extend_generator_self_s": span("units.extend_generator", "self_s"),
            "trotter.eval_pairing_calls": span("trotter.eval_pairing", "calls"),
            "trotter.eval_pairing_s": span("trotter.eval_pairing"),
            "trotter.eval_pairing_uniform_calls": counters["uniform_pairings"],
            "trotter.pairing_intervals": counters["pairing_intervals"],
            "trotter.convergence_verdict_self_s": span("trotter.convergence_verdict", "self_s"),
            "trotter.report_write_s": (span("trotter.ConvergenceReport.write_csv")
                                       + span("trotter.ConvergenceReport.write_json")),
            "algebra.superop_norm_calls": span("algebra.superop_norm", "calls"),
            "algebra.superop_norm_s": span("algebra.superop_norm"),
            "algebra.expm_calls": span(tracer.EXPM, "calls"),
            "algebra.expm_matrices": counters["expm_matrices"],
            "algebra.expm_s": span(tracer.EXPM),
            "scenario.setup_s": meta["import_s"] + sum(
                span(f"scenario.{f}") for f in
                ("parse_scenario", "build_generator", "build_schedule")),
            "scenario.import_s": meta["import_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "trace.wall_s": traced["wall_s"],
            "trace.in_process_s": meta["in_process_s"],
            "verdicts_ok": plain["verdicts_ok"],
        }
        for layer in tracer.LAYERS:
            for kind in ("calls", "total_s", "self_s"):
                metrics[f"{layer}.{kind}"] = span(layer, kind)
        return metrics


def run_workload(name: str, seed: int | None, seconds: float, trace: bool) -> None:
    """Benchmark one workload and print its summary, ending with the JSON result."""
    bench = Bench(name, seed, seconds)
    warm = bench.probe_setup()  # compiles bytecode and fills the page cache
    metrics = bench.trace() if trace else bench.measure()

    failed = sum(bool(r["problems"]) for r in bench.runs)
    units = LAYER_METRICS if trace else E2E_METRICS
    correct = failed == 0 and set(metrics) == set(units)
    last = bench.runs[-1]
    print(f"{name} seed={bench.seed} trace={int(trace)}: {len(bench.runs)} runs, "
          f"{failed} failed, warm-up probe {warm:.3f} s")
    for line in bench.describe:
        print("  " + line)
    print(f"  verdicts_ok  {sum(r['verdicts_ok'] for r in bench.runs) / len(bench.runs):.3f} "
          f"share (last run: {last['verdicts']} against expected {last['expected']}; "
          f"exit codes {sorted({r['exit_code'] for r in bench.runs})})")
    for record in bench.runs:
        for problem in record["problems"]:
            print(f"  FAILED {record['tag']}: {problem}")
    bench.provenance["csv_sha256"] = last["csv_sha256"]
    print("  provenance " + json.dumps(bench.provenance, sort_keys=True))
    result = {"correct": correct, "attempted": len(bench.runs), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (bench.work / "result.json").write_text(json.dumps(
        {**result, "provenance": bench.provenance, "runs": bench.runs}, indent=1))
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=None,
                        help="default: the scenario's own seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit so that launch() reaps a running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_workload(name, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
