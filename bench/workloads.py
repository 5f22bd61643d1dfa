"""Workloads of the doobmds benchmark: set-up, one operation, and its check.

Load shape: a closed loop with one client.  The next operation starts only
when the previous one has ended, and everything runs with one worker.  A CLI
operation is one `python -m doobmds.cli ...` child process, timed from spawn
to exit; its CPU time and peak RSS come from that child's own rusage
(os.wait4), never from RUSAGE_CHILDREN, whose peak is a high-water mark over
every child ever waited for.  A library operation is one pass of public calls
in the benchmark's own process, with the program's lru caches emptied first.

Every operation runs in a fresh directory of its own, with its own
DOOB_CACHE_DIR, inside the checkout.  An operation fails on a non-zero exit,
an exception, or an output that differs from the pinned one.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracing import clear_program_caches

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The program could not be prepared; no operation can be measured."""


@dataclass(frozen=True)
class Measured:
    """One operation: its cost, and why it failed (None when it did not)."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problem: Optional[str]


@dataclass(frozen=True)
class Child:
    started_at: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


def run_child(argv, op_dir: Path) -> Child:
    """Run one child in op_dir, with output to files there, and account its own rusage."""
    op_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), DOOB_CACHE_DIR=str(op_dir / "cache"))
    stdout_path = op_dir / "stdout"
    with open(stdout_path, "wb") as out, open(op_dir / "stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=op_dir, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        started,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        proc.returncode,
        stdout_path.read_text(),
    )


def cli_argv(*args) -> list[str]:
    return [sys.executable, "-m", "doobmds.cli", *(str(arg) for arg in args)]


def probe_program(op_dir: Path):
    """Check that the program in the checkout starts; raise SetupError if not."""
    child = run_child(cli_argv("--version"), op_dir)
    if child.exit_code or not child.stdout.strip():
        detail = (op_dir / "stderr").read_text().strip().splitlines()[-1:]
        raise SetupError(f"`doobmds --version` exited {child.exit_code}: {detail}")


def code_texts(params, codes):
    """The canonical .code file of each code, as `doobmds enumerate` writes it.

    Built here from one JSON string per vertex rather than by the program's
    serializer, so that classify's set-up does not move with that serializer.
    """
    from doobmds.codes import member_to_obj

    members = [
        json.dumps(member_to_obj(v, params), separators=(",", ":"))
        for v in range(params.vertex_count)
    ]
    head, tail = f'{{"m":{params.m},"members":[', f'],"n":{params.n}}}\n'
    return [head + ",".join(members[v] for v in code.members) + tail for code in codes]


class CliWorkload:
    """A workload whose operation is one CLI child process."""

    def cli_args(self, state, op_dir: Path) -> list:
        raise NotImplementedError

    def check(self, state, stdout: str, op_dir: Path) -> Optional[str]:
        raise NotImplementedError

    def setup(self, work: Path, seed: int):
        probe_program(work / "probe")
        return None

    def judge(self, state, child: Child, op_dir: Path) -> Optional[str]:
        if child.exit_code:
            return f"exit code {child.exit_code}"
        try:
            return self.check(state, child.stdout, op_dir)
        except OSError as exc:
            return f"unreadable output: {exc}"

    def operation(self, state, op_dir: Path) -> Measured:
        child = run_child(cli_argv(*self.cli_args(state, op_dir)), op_dir)
        problem = self.judge(state, child, op_dir)
        return Measured(child.wall_s, child.cpu_s, child.peak_rss_mb, problem)


@dataclass(frozen=True)
class Count(CliWorkload):
    """`doobmds enumerate M N --count-only`: the search alone."""

    name: str
    m: int
    n: int
    count: int
    jobs: int = 1

    def cli_args(self, state, op_dir):
        return ["enumerate", self.m, self.n, "--count-only", "--jobs", self.jobs]

    def check(self, state, stdout, op_dir):
        if stdout != f"{self.count}\n":
            return f"printed {stdout!r}, expected {self.count}"
        return None


@dataclass(frozen=True)
class Classify(CliWorkload):
    """`doobmds classify DIR` over every code of D(M,N), files named in seeded order."""

    name: str
    m: int
    n: int
    sizes: tuple

    def setup(self, work, seed):
        probe_program(work / "probe")
        from doobmds import DoobParams, enumerate_mds

        params = DoobParams(self.m, self.n)
        codes = enumerate_mds(params).codes
        labels = list(range(len(codes)))
        random.Random(seed).shuffle(labels)
        width = len(str(len(codes) - 1))
        directory = work / "codes"
        directory.mkdir(parents=True)
        for text, label in zip(code_texts(params, codes), labels):
            (directory / f"code_{label:0{width}d}.code").write_text(text)
        return directory

    def cli_args(self, directory, op_dir):
        return ["classify", directory]

    def check(self, directory, stdout, op_dir):
        expected = "orbits: " + ", ".join(str(size) for size in self.sizes) + "\n"
        if stdout != expected:
            return f"printed {stdout!r}, expected {expected!r}"
        return None


@dataclass(frozen=True)
class Reduce:
    """One in-process pass: reduce every code of each source graph to a Hamming
    graph and check the images are MDS and pairwise distinct (the injection);
    build and check the parity code of every representative rule."""

    name: str
    sources: tuple  # (m, n, number of codes)
    parity: tuple  # (m, n, number of representative rules)

    def setup(self, work, seed):
        probe_program(work / "probe")
        from doobmds import DoobParams, enumerate_mds, representative_rules

        rng = random.Random(seed)
        codes = [
            ((m, n), code)
            for m, n, _ in self.sources
            for code in enumerate_mds(DoobParams(m, n)).codes
        ]
        rules = [
            ((m, n), rule)
            for m, n, _ in self.parity
            for rule in representative_rules(DoobParams(m, n))
        ]
        rng.shuffle(codes)
        rng.shuffle(rules)
        return codes, rules

    def run_pass(self, state) -> Optional[str]:
        # Looked up at call time, so that a tracer's wrappers apply.
        from doobmds import build_parity_code, reduce_sh_coordinates

        codes, rules = state
        images = {}
        for key, code in codes:
            image = reduce_sh_coordinates(code)
            image.assert_mds(context="reduction image")
            images.setdefault(key, set()).add(image.members)
        built = {}
        for key, rule in rules:
            code = build_parity_code(rule)
            code.assert_mds(context="parity code")
            built.setdefault(key, set()).add(code.members)
        for label, found, expected in (
            ("images", images, self.sources),
            ("parity codes", built, self.parity),
        ):
            for m, n, count in expected:
                distinct = len(found.get((m, n), ()))
                if distinct != count:
                    return f"{distinct} distinct {label} from D({m},{n}), expected {count}"
        return None

    def operation(self, state, op_dir: Path) -> Measured:
        clear_program_caches()
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        try:
            problem = self.run_pass(state)
        except Exception as exc:  # a failed operation; the loop goes on
            problem = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        return Measured(wall, cpu, after.ru_maxrss / 1024, problem)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Count("count-d21", 2, 1, 3707136),
        Classify(
            "classify-d12",
            1,
            2,
            (144, 432, 432, 432, 864, 864, 864, 1728, 3456, 3456, 3456),
        ),
        Reduce(
            "reduce-wl4",
            sources=((1, 2, 16128), (2, 0, 5856)),
            parity=((2, 0, 256), (1, 2, 256), (0, 4, 256)),
        ),
    )
}
