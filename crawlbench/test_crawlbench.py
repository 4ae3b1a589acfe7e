"""Tests of the benchmark itself, on a tiny generated crawl.

Run from the root of a checkout::

    python3 -m pytest crawlbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("CLUGP_KERNEL_CACHE", str(ROOT / ".bench_build" / "kernels"))
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 600  # vertices: about 4.8k edges


def _run(tmp_path, workload, trace, seed=3):
    return bench.run(workload, seed, 0.0, trace, tmp_path, num_vertices=TINY)["result"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result = _run(tmp_path, workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_every_crawl_gets_the_same_number_of_jobs(tmp_path):
    for workload in ("crawl-k32", "crawl-k512"):
        record = bench.run(workload, 3, 0.0, False, tmp_path, num_vertices=TINY)["record"]
        seeds = record["samples"]["graph_seeds"]
        rounds = bench.WORKLOADS[workload].min_rounds
        crawls = [bench.graph_seed(3, i) for i in range(bench.SETUP_REPEATS)]
        assert sorted(seeds) == sorted(rounds * crawls)
        assert len(record["samples"]["setup_s"]) == bench.SETUP_REPEATS


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = set(bench.WORKLOADS)
    for entry in layers.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) | set(entry.get("unchanged_on", [])) <= workloads


def _corrupt(monkeypatch):
    """Make the partitioner hand back an out-of-range partition id."""
    partition = bench.ClugpPartitioner.partition

    def bad_partition(self, stream):
        assignment = partition(self, stream)
        assignment.edge_partition = assignment.edge_partition.copy()
        assignment.edge_partition[0] = self.num_partitions
        return assignment

    monkeypatch.setattr(bench.ClugpPartitioner, "partition", bad_partition)


def test_bad_assignment_raises_error_rate(tmp_path, monkeypatch):
    _corrupt(monkeypatch)
    traced = _run(tmp_path, "crawl-k32", True)
    assert traced["metrics"]["error_rate"]["value"] > 0
    assert not traced["correct"]
    untraced = _run(tmp_path, "crawl-k32", False)
    assert untraced["failed"] > 0 and not untraced["correct"]


def test_checks_catch_overload_and_bad_shape():
    k, edges = 4, 100
    cap = bench.load_cap(edges, k)
    overloaded = np.zeros(edges, dtype=np.int64)
    overloaded[:edges - cap - 1] = 1
    assert bench.check_partition(overloaded, edges, k)
    assert bench.check_partition(np.zeros(edges - 1, dtype=np.int64), edges, k)
    balanced = np.arange(edges, dtype=np.int64) % k
    assert bench.check_partition(balanced, edges, k) == []


def test_repeat_runs_must_reproduce_outputs(tmp_path):
    first = {"partition_digest": "abc", "supersteps": 22}
    assert bench.check_repeatable(tmp_path, "w", first) == []
    assert bench.check_repeatable(tmp_path, "w", first) == []
    assert bench.check_repeatable(tmp_path, "w", dict(first, supersteps=23))


def test_traced_spans_cover_the_job(tmp_path):
    record = bench.run("crawl-k32", 3, 0.0, True, tmp_path, num_vertices=TINY)["record"]
    trace = json.loads((tmp_path.parent / record["trace_file"]).read_text())
    names = {e["name"] for e in trace["traceEvents"]}
    assert {"partition", "pagerank", "graph.io", "core.clustering", "core.game",
            "core.transform", "system.placement", "system.runtime"} <= names
    metrics = record["result"]["metrics"]
    assert metrics["trace.uncovered_share"]["value"] < 0.2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "crawl-k32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_no_process_outlives_a_run(tmp_path):
    # the distributed workload starts worker processes and, through its
    # shared-memory rings, multiprocessing's resource tracker; a forked
    # child still running holds the tracker's pipe and must be ended first
    code = (
        "import sys; from pathlib import Path\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "import multiprocessing, time, bench, run\n"
        f"bench.run('crawl-distributed', 3, 0.0, False, Path({str(tmp_path)!r}), "
        f"num_vertices={TINY})\n"
        "multiprocessing.get_context('fork').Process(target=time.sleep, args=(60,)).start()\n"
        "run.stop_children(grace=5.0)\n"
        "print(run._children())\n"
    )
    # well before the child's sleep ends: stop_children does not wait on it
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=45)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
