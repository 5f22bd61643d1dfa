"""One traced operation, run in a fresh process so no lru cache hides set-up.

The parent pickles a spec, runs `python bench/traced.py SPEC` through the same
accounting as an untraced operation, and reads back the record the child
writes when the operation has ended: spans, counters, the time its imports
finished and, for a library pass, the pass's own verdict.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from pathlib import Path

from tracing import Tracer, clear_program_caches
from workloads import BENCH, CliWorkload, Measured, run_child


def traced_operation(workload, state, seed: int, op_dir: Path):
    """Run one operation traced; return (Measured, record, CLI start-up seconds)."""
    op_dir.mkdir(parents=True)
    record_path = op_dir / "trace.json"
    spec = {"out": str(record_path), "seed": seed, "work": str(op_dir / "setup")}
    if isinstance(workload, CliWorkload):
        spec["argv"] = [str(arg) for arg in workload.cli_args(state, op_dir)]
    else:
        spec["argv"] = None
        spec["workload"] = workload
    spec_path = op_dir / "spec.pickle"
    spec_path.write_bytes(pickle.dumps(spec))
    child = run_child([sys.executable, str(BENCH / "traced.py"), str(spec_path)], op_dir)
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError) as exc:
        problem = f"no trace record (exit code {child.exit_code}): {exc}"
        return Measured(child.wall_s, child.cpu_s, child.peak_rss_mb, problem), None, 0.0
    if spec["argv"] is not None:
        problem = workload.judge(state, child, op_dir)
        wall = child.wall_s
        startup = record["imported_at"] - child.started_at
    else:
        problem = record["problem"] or (f"exit code {child.exit_code}" if child.exit_code else None)
        _, start, end, _ = record["spans"][0]
        wall = end - start
        startup = 0.0
    return Measured(wall, child.cpu_s, child.peak_rss_mb, problem), record, startup


def child_main(spec_path: str) -> int:
    spec = pickle.loads(Path(spec_path).read_bytes())  # written by traced_operation
    import doobmds.cli

    record = {"imported_at": time.perf_counter(), "problem": None}
    tracer = Tracer()
    exit_code = 0
    try:
        if spec["argv"] is not None:
            tracer.install()
            exit_code = doobmds.cli.main(spec["argv"])
        else:
            workload = spec["workload"]
            state = workload.setup(Path(spec["work"]), spec["seed"])
            clear_program_caches()
            tracer.install()
            with tracer.span("bench.pass"):
                try:
                    record["problem"] = workload.run_pass(state)
                except Exception as exc:  # a failed operation, reported as such
                    record["problem"] = f"{type(exc).__name__}: {exc}"
    finally:
        record["spans"] = tracer.spans
        record["counters"] = dict(tracer.counters)
        Path(spec["out"]).write_text(json.dumps(record))
    return exit_code


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1]))
