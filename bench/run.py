"""The doobmds benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.  The
workloads and why each was chosen are listed in BENCHMARK.json; workloads.py
defines them.  The seed orders the inputs (file names for classify, the input
list for reduce); no count or orbit size depends on it.

--trace 0 prints the end-to-end metrics: the medians over the run's
operations of wall time, CPU time and peak RSS of the process doing the work,
and the median of several set-ups.  --trace 1 prints the per-layer metrics:
after the untraced operations it runs one operation traced in a fresh
process, and reports each layer's self time and counters, the start-up of
the CLI, the residual that no layer accounts for, and the tracing overhead.
The spans go to .bench_out/ in the checkout.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics; the lines before it are for people.  The
exit code is 2, with no result, when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path
from statistics import median

from tracing import COUNTERS, clear_program_caches, layer_metrics
from traced import traced_operation
from workloads import ROOT, SRC, WORKLOADS, Count, SetupError

# Set-up is repeated so that setup_s is a median: at least three times, and
# cheap set-ups until a second has been spent.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 15

WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding path, from the mount table."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) >= 3 and len(fields[1]) > len(best) and path.is_relative_to(fields[1]):
                    best, fstype = fields[1], fields[2]
    except OSError:
        pass
    return fstype


def closed_loop(workload, state, seconds: float, work: Path):
    """Operations one after another until the run time is used; at least one."""
    ops = []
    started = time.perf_counter()
    while not ops or time.perf_counter() - started < seconds:
        op_dir = work / f"op{len(ops)}"
        ops.append(workload.operation(state, op_dir))
        shutil.rmtree(op_dir, ignore_errors=True)
    return ops


def set_up(workload, seed: int, work: Path, repeats: int, seconds: float = 0.0):
    """Set the workload up at least `repeats` times and until `seconds` have
    been spent; return the last state and each time taken."""
    times = []
    while len(times) < repeats or (sum(times) < seconds and len(times) < SETUP_MAX_REPEATS):
        clear_program_caches()
        target = work / f"setup{len(times)}"
        started = time.perf_counter()
        state = workload.setup(target, seed)
        times.append(time.perf_counter() - started)
        if len(times) > 1:
            shutil.rmtree(work / f"setup{len(times) - 2}", ignore_errors=True)
    return state, times


def end_to_end(ops, setup_times):
    return {
        "wall_s": (median(op.wall_s for op in ops), "s"),
        "cpu_s": (median(op.cpu_s for op in ops), "s"),
        "peak_rss_mb": (median(op.peak_rss_mb for op in ops), "MB"),
        "setup_s": (median(setup_times), "s"),
    }


def per_layer(workload, state, seed, ops, work: Path):
    """Trace one operation; return its metrics, the extra operations, and the record."""
    untraced = median(op.wall_s for op in ops)
    traced, record, startup = traced_operation(workload, state, seed, work / "traced")
    extra = [traced]
    layers = layer_metrics(record["spans"], record["counters"]) if record else layer_metrics([], {})
    layers["cli.startup_s"] = startup
    layer_total = sum(value for name, value in layers.items() if name.endswith("_s"))
    layers["trace.wall_s"] = untraced
    layers["trace.residual_s"] = untraced - layer_total
    layers["trace.overhead_s"] = traced.wall_s - untraced
    speedup = 0.0
    if isinstance(workload, Count):
        probe = replace(workload, jobs=2).operation(state, work / "jobs2")
        extra.append(probe)
        speedup = untraced / probe.wall_s
    layers["search.speedup_jobs2"] = speedup
    units = {name: "count" for name in COUNTERS}
    units["search.speedup_jobs2"] = "ratio"
    metrics = {name: (value, units.get(name, "s")) for name, value in layers.items()}
    return metrics, extra, record


def write_trace(workload, seed, record, metrics):
    """Spans as name, start, end, parent, workload; written once the run is over."""
    TRACES.mkdir(exist_ok=True)
    spans = [span + [workload.name] for span in (record or {}).get("spans", [])]
    payload = {
        "workload": workload.name,
        "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "workload"],
        "spans": spans,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    path = TRACES / f"trace-{workload.name}-seed{seed}.json.gz"
    with gzip.open(path, "wt", compresslevel=1) as handle:
        json.dump(payload, handle)
    return path


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Set up, run the closed loop, optionally trace; return (ops, metrics, notes)."""
    if trace:
        state, setup_times = set_up(workload, seed, work, 1)
    else:
        state, setup_times = set_up(workload, seed, work, SETUP_REPEATS, SETUP_SECONDS)
    ops = closed_loop(workload, state, seconds, work)
    notes = [
        f"operations: {len(ops)}, wall_s min {min(op.wall_s for op in ops):.3f} "
        f"max {max(op.wall_s for op in ops):.3f}; set-ups: "
        + ", ".join(f"{value:.3f}" for value in setup_times)
    ]
    if not trace:
        return ops, end_to_end(ops, setup_times), notes
    metrics, extra, record = per_layer(workload, state, seed, ops, work)
    notes.append(f"spans written to {write_trace(workload, seed, record, metrics)}")
    return ops + extra, metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one doobmds benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "doobmds" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'doobmds'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops, metrics, notes = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [op for op in ops if op.problem is not None]
    for op in failed:
        print(f"failed operation: {op.problem}", file=sys.stderr)
    print(
        f"workload {workload.name}, seed {args.seed}, trace {args.trace}, "
        f"python {sys.version.split()[0]}, filesystem {filesystem_of(work)}"
    )
    for note in notes:
        print(note)
    print(f"error_rate {len(failed) / len(ops):.4f} ({len(failed)} failed of {len(ops)} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
