"""Child processes the benchmark harness launches besides ``trotterlab run``.

    python3 perfbench/child.py setup SCENARIO SEED [SCHEDULE]
        Do what ``trotterlab run`` does before its gate -- import the CLI,
        parse the scenario, build the generator and the schedule -- then
        print one JSON line (where trotterlab was imported from, and the
        schedule's sizes and norms) and exit.  The harness times launch to
        that line.

    python3 perfbench/child.py trace SPANS_NPZ META_JSON -- RUN_ARGS...
        Run ``trotterlab.cli.main(RUN_ARGS)`` with the tracer installed, save
        the spans to SPANS_NPZ and the import and in-process times to
        META_JSON, and exit with the CLI's exit code, or with 70 when the
        tracer cannot wrap a site it needs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

TRACER_BROKEN = 70


def setup(scenario_path: str, seed: str, schedule: str | None) -> int:
    from trotterlab import cli
    from trotterlab.scenario import build_generator, build_schedule, parse_scenario

    path = Path(scenario_path)
    scenario = parse_scenario(path.read_text())
    build_generator(scenario, base_dir=path.parent)
    partitions = build_schedule(scenario, schedule, seed=int(seed))
    print(json.dumps({"trotterlab": cli.__file__,
                      "sizes": [p.size for p in partitions],
                      "norms": [p.norm for p in partitions]}), flush=True)
    return 0


def trace(spans_path: str, meta_path: str, run_args: list[str]) -> int:
    t0 = time.perf_counter()
    from trotterlab import cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer, TracerError

    tracer = Tracer()
    try:
        tracer.install()
    except TracerError as exc:
        print(f"tracer: {exc}", file=sys.stderr)
        return TRACER_BROKEN
    t1 = time.perf_counter()
    code = cli.main(run_args)
    in_process_s = time.perf_counter() - t1
    tracer.save(spans_path)
    Path(meta_path).write_text(json.dumps({
        "exit_code": code, "import_s": import_s, "in_process_s": in_process_s,
        "wrapped_sites": tracer.wrapped_sites}))
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) in (3, 4):
        return setup(argv[1], argv[2], argv[3] if len(argv) == 4 else None)
    if argv[:1] == ["trace"] and len(argv) >= 4 and argv[3] == "--":
        return trace(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
