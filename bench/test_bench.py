"""Tests of the benchmark itself, on tiny parameters.

    python -m pytest bench

Each workload's check path runs on D(1,0) or D(1,1); a corrupted output must
count as a failed operation; the printed metric names must be the ones in
BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from traced import traced_operation
from tracing import self_times
from workloads import (
    ROOT,
    Classify,
    Count,
    Reduce,
    cli_argv,
    run_child,
)

TINY = {
    "count-d11": Count("count-d11", 1, 1, 240),
    "classify-d10": Classify("classify-d10", 1, 0, (4, 12)),
    "classify-d11": Classify("classify-d11", 1, 1, (24, 72, 144)),
    "reduce-wl2": Reduce(
        "reduce-wl2", sources=((1, 0, 16), (1, 1, 240)), parity=((1, 0, 4), (0, 2, 4))
    ),
}

# Each tiny workload with one pinned value wrong.
WRONG = {
    "count-d11": replace(TINY["count-d11"], count=241),
    "classify-d11": replace(TINY["classify-d11"], sizes=(24, 72, 143)),
    "reduce-wl2": replace(TINY["reduce-wl2"], sources=((1, 1, 241),)),
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_check(name, tmp_path):
    workload = TINY[name]
    state = workload.setup(tmp_path / "setup", seed=3)
    op = workload.operation(state, tmp_path / "op")
    assert op.problem is None
    assert op.wall_s > 0 and op.cpu_s > 0 and op.peak_rss_mb > 0


@pytest.mark.parametrize("name", sorted(WRONG))
def test_wrong_output_is_a_failed_operation(name, tmp_path):
    workload = WRONG[name]
    state = workload.setup(tmp_path / "setup", seed=3)
    assert workload.operation(state, tmp_path / "op").problem is not None


@pytest.mark.parametrize("corrupt", ["missing", "changed"])
def test_corrupted_code_directory_fails(corrupt, tmp_path):
    workload = TINY["classify-d11"]
    directory = workload.setup(tmp_path / "setup", seed=3)
    victim = sorted(directory.iterdir())[7]
    if corrupt == "missing":
        victim.unlink()
    else:
        victim.write_text(victim.read_text().replace("[0,", "[1,", 1))
    assert workload.operation(directory, tmp_path / "op").problem is not None


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    workload = TINY["classify-d10"]
    op = workload.operation(tmp_path / "no-such-dir", tmp_path / "op")
    assert op.problem == "exit code 3"


def test_seed_orders_inputs_but_not_their_contents(tmp_path):
    workload = TINY["classify-d11"]
    one = workload.setup(tmp_path / "a", seed=1)
    two = workload.setup(tmp_path / "b", seed=2)
    files_one = {path.name: path.read_text() for path in one.iterdir()}
    files_two = {path.name: path.read_text() for path in two.iterdir()}
    assert files_one != files_two
    assert sorted(files_one.values()) == sorted(files_two.values())
    assert sorted(files_one) == sorted(files_two)


def test_classify_input_has_the_bytes_enumerate_writes(tmp_path):
    directory = TINY["classify-d11"].setup(tmp_path / "setup", seed=4)
    child = run_child(cli_argv("enumerate", 1, 1, "--out", tmp_path / "out"), tmp_path)
    assert child.exit_code == 0
    written = sorted(path.read_text() for path in (tmp_path / "out").glob("*.code"))
    assert sorted(path.read_text() for path in directory.iterdir()) == written


def test_peak_rss_is_the_childs_own(tmp_path):
    big = run_child([sys.executable, "-c", "x = bytearray(200_000_000)"], tmp_path / "big")
    small = run_child([sys.executable, "-c", "pass"], tmp_path / "small")
    assert big.peak_rss_mb > 150
    assert small.peak_rss_mb < 100


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["c", 3.0, 4.0, 1], ["b", 6.0, 7.0, 0]]
    assert dict(self_times(spans)) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_traced_count_records_the_search(tmp_path):
    workload = TINY["count-d11"]
    op, record, startup = traced_operation(workload, None, 3, tmp_path / "traced")
    assert op.problem is None and startup > 0
    counters = record["counters"]
    assert counters["search.leaves"] == 240
    assert counters["search.pair_tests"] == counters["search.subcodes"] ** 2 > 0
    names = {span[0] for span in record["spans"]}
    assert {"cli.main", "search.count", "search.subcodes", "graphs.doob_graph"} <= names
    assert record["spans"][0][0] == "cli.main"


def test_traced_pass_pays_for_emptied_caches(tmp_path):
    workload = TINY["reduce-wl2"]
    state = workload.setup(tmp_path / "setup", seed=3)
    workload.operation(state, tmp_path / "warm")
    op, record, _ = traced_operation(workload, state, 3, tmp_path / "traced")
    assert op.problem is None
    names = [span[0] for span in record["spans"]]
    assert names[0] == "bench.pass"
    assert "reduction.pairing" in names and "graphs.doob_graph" in names
    assert record["counters"]["reduction.codes"] == 256
    assert record["counters"]["parity.codes"] == 8


def run_main(monkeypatch, tmp_path, capsys, workload, trace):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "TRACES", tmp_path / "traces")
    monkeypatch.setitem(run.WORKLOADS, workload.name, workload)
    argv = ["--workload", workload.name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["count-d11", "classify-d11", "reduce-wl2"])
def test_printed_metrics_match_benchmark_json(name, trace, monkeypatch, tmp_path, capsys):
    result = run_main(monkeypatch, tmp_path, capsys, TINY[name], trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert (tmp_path / "traces" / f"trace-{name}-seed5.json.gz").is_file()


def test_failed_operations_reach_the_result(monkeypatch, tmp_path, capsys):
    result = run_main(monkeypatch, tmp_path, capsys, WRONG["count-d11"], 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_layers_and_residual_account_for_untraced_wall(monkeypatch, tmp_path, capsys):
    result = run_main(monkeypatch, tmp_path, capsys, TINY["classify-d11"], 1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    layer_sum = sum(
        value
        for name, value in metrics.items()
        if name.endswith("_s") and not name.startswith("trace.")
    )
    assert layer_sum + metrics["trace.residual_s"] == pytest.approx(metrics["trace.wall_s"])
    assert 0 < layer_sum < 2 * metrics["trace.wall_s"]
    assert metrics["symmetry.orbits"] == 3
    assert metrics["symmetry.images"] == 240 * metrics["symmetry.generators"]
    assert metrics["codes.parse_s"] > 0 and metrics["cli.startup_s"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "count-d21", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
