"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import answers  # noqa: E402
from tracer import self_times, union_length  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# ---------------------------------------------------------------------------
# known answers


def test_free_cell_count():
    assert answers.free_cell_count(3, 2, 5) == 59049
    assert answers.free_cell_count(2, 2, 1) == 4
    assert answers.free_cell_count(5, 3, 0) == 1


def test_bounded_terms():
    # lists over two labels: 2^(n+1) - 1
    assert [answers.bounded_terms(2, 1, n) for n in range(6)] == [1, 3, 7, 15, 31, 63]
    # binary trees over two labels: 1, 3, 19, 723
    assert [answers.bounded_terms(2, 2, d) for d in range(4)] == [1, 3, 19, 723]
    assert answers.bounded_terms(1, 3, 3) == 730


def test_perfect_tree_nodes():
    assert [answers.perfect_tree_nodes(2, k) for k in range(5)] == [0, 1, 3, 7, 15]
    assert [answers.perfect_tree_nodes(1, k) for k in range(4)] == [0, 1, 2, 3]
    assert answers.perfect_tree_nodes(3, 3) == 13


def test_chain_kept():
    chains = [(range(0, 4), False), (range(4, 7), True), (range(7, 8), True)]
    assert answers.chain_kept(chains) == [4, 5, 6, 7]


def test_pushout_classes_truth_example():
    classes = answers.pushout_classes(
        ["ta", "fa", "other"], ["T", "F"], ["T", "F"],
        {"T": "ta", "F": "fa"}, {"T": "F", "F": "T"})
    assert classes == {frozenset({("alg", "ta"), ("mon", "F")}),
                       frozenset({("alg", "fa"), ("mon", "T")}),
                       frozenset({("alg", "other")})}


def test_pushout_classes_merge_chain():
    # alpha(0) = alpha(1) = a, h(1) = h(2) = y: a, b and y fall in one class
    classes = answers.pushout_classes(
        ["a", "b"], [0, 1, 2], ["x", "y"],
        {0: "a", 1: "a", 2: "b"}, {0: "x", 1: "y", 2: "y"})
    assert classes == {frozenset({("alg", "a"), ("alg", "b"), ("mon", "x"), ("mon", "y")})}


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_union_length():
    assert union_length([]) == 0
    assert union_length([(0, 2), (1, 3)]) == 3
    assert union_length([(0, 1), (2, 3), (2.5, 2.75)]) == 2
    assert union_length([(5, 6), (0, 10)]) == 10


def _span(name, start, end, parent):
    return [name, name.split(".")[0], start, end, parent, 0]


def test_self_time_subtracts_children():
    spans = [_span("cli.main", 0.0, 10.0, -1),
             _span("dsl.parse", 1.0, 3.0, 0),
             _span("oracle.solve", 4.0, 8.0, 0),
             _span("kernel.fvalues", 5.0, 6.0, 2)]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a.x", 0.0, 10.0, -1),
             _span("b.y", 2.0, 6.0, 0),
             _span("b.z", 4.0, 7.0, 0),
             _span("b.w", 9.0, 12.0, 0)]  # clipped to the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


# ---------------------------------------------------------------------------
# end to end, on the smallest instances


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_instance_end_to_end(workload):
    result = _result(_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                            "--trace", "0", "--smallest"))
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == spec
    for m in result["metrics"].values():
        assert m["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [_result(_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                           "--trace", "1", "--smallest")) for _ in range(2)]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for run in runs:
        assert {k: m["unit"] for k, m in run["metrics"].items()} == spec
    counts = [{k: m["value"] for k, m in run["metrics"].items() if m["unit"] == "count"}
              for run in runs]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_full_search_counts_repeat_exactly():
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "search", "--seed", "3",
           "--workdir", str(ROOT / ".bench_work" / "test-search"), "--mode", "spans"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    counts = []
    for _ in range(2):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(proc.stdout)["layers"]
        counts.append({k: v for k, v in layers.items() if not k.endswith("_s")})
    shutil.rmtree(ROOT / ".bench_work" / "test-search", ignore_errors=True)
    assert counts[0] == counts[1]
    assert counts[0]["oracle.solutions_kept"] > 2 * answers.free_cell_count(3, 2, 5)


def test_fails_without_the_program():
    bare = ROOT / ".bench_work" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "gallery", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
