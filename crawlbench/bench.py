"""The crawl workloads: set-up, timed jobs, output checks and metrics.

Every workload partitions a seed-generated web crawl (about 1M edges,
written as a ``CLUGPED1`` file) with the library's default configuration,
then runs PageRank on the partitions:

* ``crawl-k32`` / ``crawl-k512`` — ``ClugpPartitioner`` at k=32 / k=512,
  deployed on ``LocalGasRuntime``;
* ``crawl-service`` — one closed-loop client feeds the stream to
  ``PartitionService`` in fixed-size batches (each sent when the previous
  one returns), then PageRank runs on the service's partition;
* ``crawl-distributed`` — ``distributed_clugp(merge_mode="merged")`` on a
  resident ``PersistentRuntime`` spawned at set-up, then PageRank on
  ``DistributedGasRuntime`` over the same workers.

Each of a run's set-ups generates its own crawl, from a graph seed derived
from the run's seed.  Jobs run in rounds, one job per crawl in a round, so
every crawl weighs the same in a run's metrics however fast the jobs are.
Untraced runs give the end-to-end metrics.  A traced run wraps the
layers' public calls (:mod:`tracing`) and gives the per-layer metrics;
its edge partition must be bit-identical to an untraced job's.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import kernels
from repro.config import ClugpConfig
from repro.core import distributed as core_distributed
from repro.core import partitioner as core_partitioner
from repro.core.clustering import ClusteringState
from repro.core.distributed import distributed_clugp
from repro.core.game import ClusterPartitioningGame
from repro.core.partitioner import ClugpPartitioner
from repro.core.transform import TransformState
from repro.distributed import DistributedGasRuntime, PersistentRuntime
from repro.distributed import gas as distributed_gas
from repro.graph.generators import web_crawl_graph
from repro.graph.io import read_edges_binary, write_edges_binary
from repro.graph.stream import EdgeStream
from repro.service import PartitionService
from repro.service import service as service_module
from repro.system import runtime as system_runtime
from repro.system.runtime import LocalGasRuntime
from repro.system.apps import LocalPageRankProgram

from tracing import Tracer, wrap_layers

#: the balance cap every partition must respect: load <= ceil(TAU*|E|/k)
TAU = 1.05
#: the crawl: web_crawl_graph(NUM_VERTICES, AVG_OUT_DEGREE, HOST_SIZE)
NUM_VERTICES = 125_000
AVG_OUT_DEGREE = 8
HOST_SIZE = 25
#: batches per pass over the stream; a round makes one pass per crawl, so
#: 3 x 35 = 105 latencies leave ten samples above their p90.
SERVICE_BATCHES = 35
MIGRATION_CAP = 256
#: resident workers on crawl-distributed (the 2-core reference machine)
WORKERS = 2
#: set-ups per run, each with its own crawl; a round runs one job on each
SETUP_REPEATS = 3
MAX_SUPERSTEPS = 100

#: the checkout: the program's source is under ROOT/src
ROOT = Path(__file__).resolve().parent.parent
#: the metric names and units are the ones BENCHMARK.json declares
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its pipeline kind, ``k`` and round floor."""

    kind: str  # "batch" | "service" | "distributed"
    k: int
    min_rounds: int = 1


WORKLOADS = {
    # the cheapest jobs: two rounds, so each crawl's median has two samples
    "crawl-k32": Workload("batch", 32, 2),
    "crawl-k512": Workload("batch", 512),
    "crawl-service": Workload("service", 32),
    "crawl-distributed": Workload("distributed", 32),
}


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Crawl:
    """One set-up's input: the edge file and the seed that generated it."""

    path: Path
    graph_seed: int
    num_edges: int


@dataclass
class Prepared:
    """The set-ups' products: one crawl each and, if any, the worker pool."""

    data: Path  # the crawls' files are <data>-c<i>.bin
    num_vertices: int
    crawls: list[Crawl] = field(default_factory=list)
    runtime: PersistentRuntime | None = None
    setup_seconds: list[float] = field(default_factory=list)

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None
        for crawl in self.crawls:
            crawl.path.unlink(missing_ok=True)


def graph_seed(seed: int, setup: int) -> int:
    """The crawl of a run's ``setup``-th set-up (the first is shared with
    the traced run of the same seed)."""
    return seed * SETUP_REPEATS + setup


def set_up(prep: Prepared, workload: Workload, seed: int) -> None:
    """Generate + write the next crawl, warm the kernels, spawn the pool.

    Each call is one complete set-up, timed into ``prep.setup_seconds``;
    the n-th call generates the crawl of ``graph_seed(seed, n)``.
    The jobs run on the first set-up's pool: a pool forked later would
    inherit a heap grown by earlier jobs, which would make the workers'
    peak memory depend on the job order.
    """
    index = len(prep.crawls)
    path = prep.data.with_name(f"{prep.data.name}-c{index}.bin")
    path.parent.mkdir(parents=True, exist_ok=True)
    gseed = graph_seed(seed, index)
    start = time.perf_counter()
    graph = web_crawl_graph(
        prep.num_vertices, avg_out_degree=AVG_OUT_DEGREE, host_size=HOST_SIZE, seed=gseed,
    )
    write_edges_binary(graph, path)
    prep.crawls.append(Crawl(path, gseed, graph.num_edges))
    del graph  # forked workers must not inherit the generator's heap
    kernels.warmup()
    pool = PersistentRuntime(WORKERS) if workload.kind == "distributed" else None
    prep.setup_seconds.append(time.perf_counter() - start)
    if prep.runtime is None:
        prep.runtime = pool
    elif pool is not None:
        pool.close()


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #


def load_cap(num_edges: int, k: int) -> int:
    """The tau balance cap of the paper: ceil(TAU * |E| / k)."""
    return max(1, math.ceil(TAU * num_edges / k))


def check_partition(edge_partition: np.ndarray, num_edges: int, k: int) -> list[str]:
    """Every edge in [0, k), every load within the tau cap."""
    ep = np.asarray(edge_partition)
    if ep.shape != (num_edges,):
        return [f"edge partition has shape {ep.shape}, expected ({num_edges},)"]
    if ep.size and (int(ep.min()) < 0 or int(ep.max()) >= k):
        return [f"partition id outside [0, {k}): min {ep.min()}, max {ep.max()}"]
    heaviest = int(np.bincount(ep, minlength=k).max()) if ep.size else 0
    if heaviest > load_cap(num_edges, k):
        return [f"partition load {heaviest} exceeds cap {load_cap(num_edges, k)}"]
    return []


def check_pagerank(values: np.ndarray, supersteps: int) -> list[str]:
    """Converged, finite, and a probability distribution."""
    problems = []
    if supersteps >= MAX_SUPERSTEPS:
        problems.append(f"PageRank did not converge in {MAX_SUPERSTEPS} supersteps")
    if not np.all(np.isfinite(values)):
        problems.append("PageRank values are not finite")
    elif abs(float(values.sum()) - 1.0) > 1e-6:
        problems.append(f"PageRank mass is {float(values.sum())!r}, not 1")
    return problems


def digest(edge_partition: np.ndarray) -> str:
    """A fingerprint of the edge partition, stable across processes."""
    return hashlib.sha256(np.asarray(edge_partition, dtype="<i8").tobytes()).hexdigest()


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def crash(self, what: str) -> None:
        """Count an operation that raised; the traceback goes to stderr."""
        traceback.print_exc(file=sys.stderr)
        self.record([f"{what} raised {sys.exc_info()[1]!r}"])


def check_repeatable(store: Path, key: str, observed: dict) -> list[str]:
    """Same seed, same outputs: compare with what earlier runs recorded.

    The first run of a (workload, size, program source, graph seed) in a
    checkout writes the record; later runs must reproduce it exactly.
    """
    path = store / f"{key}.json"
    if path.exists():
        expected = json.loads(path.read_text())
        return [
            f"{name} {observed[name]!r} differs from an earlier run's {value!r}"
            for name, value in expected.items()
            if observed.get(name) != value
        ]
    store.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(observed))
    os.replace(tmp, path)
    return []


# ---------------------------------------------------------------------- #
# jobs
# ---------------------------------------------------------------------- #


@dataclass
class Job:
    """One pass of a workload: partition the crawl, then run PageRank."""

    graph_seed: int = -1
    num_edges: int = 0
    partition_s: float = math.nan
    pagerank_s: float = math.nan
    batch_latencies: list[float] = field(default_factory=list)
    digest: str | None = None
    edge_partition: np.ndarray | None = None
    assignment: object = None
    values: np.ndarray | None = None
    supersteps: int = 0
    pagerank_bytes: int = 0
    replication_factor: float = math.nan
    relative_balance: float = math.nan
    layer: dict = field(default_factory=dict)  # program-reported counters

    def release(self) -> None:
        """Drop the outputs once checked, so later jobs start from the
        same memory baseline."""
        self.edge_partition = self.assignment = self.values = None


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _read(path: Path, tracer: Tracer | None) -> EdgeStream:
    with _span(tracer, "graph.io"):
        return EdgeStream.from_graph(read_edges_binary(path))


def _partition(workload: Workload, prep: Prepared, crawl: Crawl, job: Job,
               ledger: Ledger, tracer: Tracer | None) -> bool:
    """Time the partitioning phase; False when its output failed a check."""
    k, seed = workload.k, crawl.graph_seed
    if workload.kind == "service":
        return _feed_service(workload, prep, crawl, job, ledger, tracer)
    with _span(tracer, "partition"):
        start = time.perf_counter()
        stream = _read(crawl.path, tracer)
        if workload.kind == "batch":
            assignment = ClugpPartitioner(k, seed).partition(stream)
        else:
            with _span(tracer, "distributed.pipeline"):
                result = distributed_clugp(
                    stream, k, num_nodes=WORKERS, seed=seed, merge_mode="merged",
                    backend="persistent", runtime=prep.runtime,
                )
            assignment = result.assignment
        job.partition_s = time.perf_counter() - start
    if workload.kind == "distributed":
        job.layer.update(_distributed_counters(result, prep.runtime))
    return _accept_partition(assignment, crawl, k, job, ledger)


def _feed_service(workload: Workload, prep: Prepared, crawl: Crawl, job: Job,
                  ledger: Ledger, tracer: Tracer | None) -> bool:
    k = workload.k
    with _span(tracer, "partition"):
        start = time.perf_counter()
        stream = _read(crawl.path, tracer)
        edges = stream.edge_array()
        read_s = time.perf_counter() - start
        service = PartitionService(
            prep.num_vertices, ClugpConfig(num_partitions=k),
            migration_cap=MIGRATION_CAP, expected_edges=stream.num_edges,
        )
        size = -(-stream.num_edges // SERVICE_BATCHES)
        for lo in range(0, stream.num_edges, size):
            batch = edges[lo:lo + size]
            sent = time.perf_counter()
            try:
                with _span(tracer, "service.batch"):
                    stats = service.ingest(batch)
            except Exception:
                ledger.crash(f"service batch at edge {lo}")
                return False
            job.batch_latencies.append(time.perf_counter() - sent)
            problems = []
            if stats.applied_moves > MIGRATION_CAP:
                problems.append(
                    f"batch {stats.batch} applied {stats.applied_moves} moves, "
                    f"cap {MIGRATION_CAP}"
                )
            heaviest = int(service.loads.max())
            if heaviest > load_cap(stats.total_edges, k):
                problems.append(
                    f"batch {stats.batch} load {heaviest} exceeds cap "
                    f"{load_cap(stats.total_edges, k)}"
                )
            ledger.record(problems)
        assignment = service.assignment()
    job.partition_s = read_s + sum(job.batch_latencies)
    history = service.history
    job.layer.update({
        "service.batches": len(history),
        "service.frontier_share": _share(
            sum(s.frontier_clusters for s in history), sum(s.clusters for s in history)
        ),
        "service.applied_share": _share(
            sum(s.applied_moves for s in history), sum(s.candidate_moves for s in history)
        ),
        "service.game_moves": sum(s.game_moves for s in history),
        "service.churn_edges": sum(s.churn_edges for s in history),
    })
    return _accept_partition(assignment, crawl, k, job, ledger)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _accept_partition(assignment, crawl: Crawl, k: int, job: Job,
                      ledger: Ledger) -> bool:
    job.assignment = assignment
    job.edge_partition = np.asarray(assignment.edge_partition)
    job.digest = digest(job.edge_partition)
    problems = check_partition(job.edge_partition, crawl.num_edges, k)
    if not problems:
        job.replication_factor = assignment.replication_factor()
        job.relative_balance = assignment.relative_balance()
    return ledger.record(problems)


def _distributed_counters(result, runtime: PersistentRuntime) -> dict:
    """Program-reported distributed counters (``DistributedResult.to_dict``)."""
    report = result.to_dict()
    walls = report["stage_walls"]
    overlaps = report["stage_overlaps"]
    merge = report["merge"] or {}
    busy = sum(v for name, v in overlaps.items() if name.endswith("_busy"))
    idle = sum(v for name, v in overlaps.items() if name.endswith("_idle"))
    return {
        "distributed.shard_s": walls.get("shard", 0.0),
        "distributed.transform_s": walls.get("transform", 0.0),
        "distributed.critical_path_s": walls.get("critical_path", 0.0),
        "distributed.worker_busy_share": _share(busy, busy + idle),
        "distributed.merge_bytes": merge.get("merge_bytes", 0),
        "distributed.broadcast_bytes": merge.get("broadcast_bytes", 0),
        "distributed.quota_bytes": merge.get("quota_bytes", 0),
        "distributed.edge_pickle_bytes": runtime.edge_pickle_bytes,
    }


def _pagerank(workload: Workload, prep: Prepared, job: Job, ledger: Ledger,
              tracer: Tracer | None) -> None:
    with _span(tracer, "pagerank"):
        start = time.perf_counter()
        if workload.kind == "distributed":
            runtime = DistributedGasRuntime(job.assignment, prep.runtime)
        else:
            runtime = LocalGasRuntime(job.assignment)
        values, cost = runtime.run(LocalPageRankProgram(), max_supersteps=MAX_SUPERSTEPS)
        job.pagerank_s = time.perf_counter() - start
    job.values = values
    job.supersteps = cost.num_supersteps
    job.pagerank_bytes = cost.total_bytes
    job.layer.update({
        "system.runtime.supersteps": cost.num_supersteps,
        "system.runtime.messages": cost.total_messages,
        "system.runtime.bytes": cost.total_bytes,
    })
    if workload.kind == "distributed":
        job.layer.update({
            "distributed.gas.compute_s": cost.compute_seconds,
            "distributed.gas.comm_s": cost.comm_seconds,
            "distributed.gas.wire_bytes": runtime.wire_bytes,
        })
    ledger.record(check_pagerank(values, cost.num_supersteps))


def run_job(workload: Workload, prep: Prepared, crawl: Crawl, ledger: Ledger,
            tracer: Tracer | None = None) -> Job | None:
    """Partition ``crawl``, check, then PageRank; None when partitioning
    raised before it was timed."""
    job = Job(graph_seed=crawl.graph_seed, num_edges=crawl.num_edges)
    try:
        accepted = _partition(workload, prep, crawl, job, ledger, tracer)
    except Exception:
        ledger.crash("partitioning")
        accepted = False
    if not accepted:
        ledger.record(["PageRank skipped: no valid partition"])
        return job if not math.isnan(job.partition_s) else None
    try:
        _pagerank(workload, prep, job, ledger, tracer)
    except Exception:
        ledger.crash("PageRank")
    return job


# ---------------------------------------------------------------------- #
# tracing targets (public calls into each layer)
# ---------------------------------------------------------------------- #


def layer_targets(transforms: list) -> list[tuple]:
    """Every layer entry point the workloads reach, with its counters."""

    def clustering_counts(tracer, args, result):
        tracer.set("core.clustering.clusters", result.num_clusters)
        tracer.set("core.clustering.splits", result.splits)

    def cut_edges(tracer, args, result):
        tracer.set("core.cluster_graph.cut_edges", int(result.weights.sum()))

    def game_counts(tracer, args, result):
        tracer.add("core.game.rounds", result.rounds)
        tracer.add("core.game.moves", result.moves)

    def keep_transform(tracer, args, result):
        transforms.append(args[0])

    return [
        ("core.clustering", ClusteringState, "__init__", None),
        ("core.clustering", ClusteringState, "ingest_pair", None),
        ("core.clustering", ClusteringState, "snapshot", clustering_counts),
        ("core.clustering", ClusteringState, "finalize", clustering_counts),
        ("core.cluster_graph", core_partitioner, "build_cluster_graph", cut_edges),
        ("core.cluster_graph", service_module, "build_cluster_graph", cut_edges),
        ("core.cluster_graph", core_distributed, "cluster_graph_from_labels", None),
        ("core.game", ClusterPartitioningGame, "__init__", None),
        ("core.game", ClusterPartitioningGame, "run", game_counts),
        ("core.transform", TransformState, "__init__", keep_transform),
        ("core.transform", TransformState, "ingest_pair", None),
        ("system.placement", system_runtime, "build_placement", None),
        ("system.placement", system_runtime, "build_local_index", None),
        ("system.placement", distributed_gas, "build_placement", None),
        ("system.placement", distributed_gas, "build_local_index", None),
        ("system.runtime", LocalGasRuntime, "run", None),
        ("distributed.gas", DistributedGasRuntime, "run", None),
    ]


# ---------------------------------------------------------------------- #
# runs
# ---------------------------------------------------------------------- #


def _median(values: list[float]) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _latencies(workload: Workload, jobs: list[Job]) -> list[float]:
    """Service: each batch.  Batch workloads: the stream is one batch, and
    a job's latency runs from opening the file to converged PageRank."""
    if workload.kind == "service":
        return [t for job in jobs for t in job.batch_latencies]
    return [job.partition_s + job.pagerank_s for job in jobs
            if not math.isnan(job.pagerank_s)]


def _check_jobs(jobs: list[Job], store: Path, key: str, ledger: Ledger) -> None:
    """Digest and superstep count agree across the jobs and runs on a crawl."""
    for gseed in sorted({job.graph_seed for job in jobs if job.supersteps}):
        done = [job for job in jobs if job.supersteps and job.graph_seed == gseed]
        observed = {"partition_digest": done[0].digest, "supersteps": done[0].supersteps}
        problems = check_repeatable(store, f"{key}-g{gseed}", observed)
        for job in done[1:]:
            if job.digest != observed["partition_digest"]:
                problems.append(f"edge partition of crawl {gseed} differs between jobs")
            if job.supersteps != observed["supersteps"]:
                problems.append(f"PageRank superstep count of crawl {gseed} differs between jobs")
        ledger.record(problems)


def _peak_rss_mb(pid: int | str = "self") -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return math.nan


def _reset_peak_rss(pids: list) -> None:
    """Restart the peak-RSS counters so set-up's peak is not reported."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass  # the peak then includes set-up; still an upper bound


def _worker_pids(prep: Prepared) -> list[int]:
    if prep.runtime is None:
        return []
    return [h.process.pid for h in prep.runtime.workers if h.process is not None]


def _rss(prep: Prepared) -> tuple[float, float]:
    workers = [_peak_rss_mb(pid) for pid in _worker_pids(prep)]
    return _peak_rss_mb(), max(workers, default=0.0)


def run(workload_name: str, seed: int, seconds: float, trace: bool, build: Path,
        num_vertices: int = NUM_VERTICES) -> dict:
    """One benchmark run; returns the result object and the run's record."""
    workload = WORKLOADS[workload_name]
    env = environment(ROOT)
    # digests are compared only between runs of the same program source
    key = f"{workload_name}-n{num_vertices}-{env['source_sha256'][:12]}"
    # one set of files per process: concurrent runs in a checkout never share them
    prep = Prepared(build / "data" / f"{key}-s{seed}-{os.getpid()}", num_vertices)
    ledger = Ledger()
    try:
        if trace:
            set_up(prep, workload, seed)
            _reset_peak_rss(["self", *_worker_pids(prep)])
            metrics, extra = _traced_run(workload, prep, ledger, build, key)
        else:
            metrics, extra = _untraced_run(workload, prep, seed, seconds, ledger, build, key)
    finally:
        prep.close()
    result = {
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": metrics,
    }
    record = {"workload": workload_name, "seed": seed, "trace": trace,
              "num_vertices": num_vertices, "environment": env,
              "problems": ledger.problems, **extra, "result": result}
    return {"result": result, "record": record}


def _untraced_run(workload, prep, seed, seconds, ledger, build, key):
    """Run rounds of jobs, one job on each crawl per round, until
    ``seconds`` of job time have been measured and at least the workload's
    ``min_rounds`` are done.  Each crawl's set-up comes right before its
    first job, so set-ups and jobs are spread over the whole run.  Whole
    rounds give every crawl the same number of jobs."""
    jobs: list[Job] = []
    peaks: list[float] = []
    measured = 0.0
    rounds = 0
    while rounds < workload.min_rounds or measured < seconds:
        rounds += 1
        finished = len(jobs)
        for index in range(SETUP_REPEATS):
            if index == len(prep.crawls):
                set_up(prep, workload, seed)
            _reset_peak_rss(["self", *_worker_pids(prep)])
            start = time.perf_counter()
            job = run_job(workload, prep, prep.crawls[index], ledger)
            measured += time.perf_counter() - start
            peaks.append(sum(_rss(prep)))
            if job is not None:
                job.release()
                jobs.append(job)
        if len(jobs) == finished:
            break  # nothing partitions; stop rather than spin until the deadline
    _check_jobs(jobs, build / "digests", key, ledger)
    per_crawl = [[j for j in jobs if j.graph_seed == c.graph_seed] for c in prep.crawls]

    def each_crawl(attr: str) -> list[float]:
        """Per crawl, the median of ``attr`` over its jobs."""
        return [_median([getattr(j, attr) for j in crawl_jobs]) for crawl_jobs in per_crawl]

    latencies = _latencies(workload, jobs)
    units = dict(END_TO_END)
    values = {
        # each crawl counts once: its edges over its median partition time
        "partition_edges_per_s": (
            sum(c.num_edges for c in prep.crawls) / math.fsum(each_crawl("partition_s"))
        ),
        "pagerank_s": statistics.fmean(each_crawl("pagerank_s")),
        # fixed for a crawl (the digest check holds every job of a crawl to it)
        "replication_factor": _median(each_crawl("replication_factor")),
        "relative_balance": _median(each_crawl("relative_balance")),
        "pagerank_bytes": _median(each_crawl("pagerank_bytes")),
        # every crawl has the same number of jobs, so pooling weighs them alike
        "batch_latency_p50_s": _median(latencies),
        "batch_latency_p90_s": _p90(latencies),
        # the first job runs right after one set-up, as a user's process
        # would; later jobs start from a heap that repeated set-ups grew
        "peak_rss_mb": peaks[0] if peaks else math.nan,
        "setup_s": statistics.median(prep.setup_seconds),
    }
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in END_TO_END}
    extra = {
        "samples": {
            "jobs": len(jobs),
            "graph_seeds": [j.graph_seed for j in jobs],
            "num_edges": [j.num_edges for j in jobs],
            "batch_latency": len(latencies),
            "partition_s": [j.partition_s for j in jobs],
            "pagerank_s": [j.pagerank_s for j in jobs],
            "peak_rss_mb": peaks,
            "setup_s": prep.setup_seconds,
        },
        "partition_digests": [j.digest for j in jobs],
    }
    return metrics, extra


def _traced_run(workload, prep, ledger, build, key):
    crawl = prep.crawls[0]
    reference = run_job(workload, prep, crawl, ledger)
    tracer = Tracer()
    transforms: list = []
    with wrap_layers(tracer, layer_targets(transforms)):
        traced = run_job(workload, prep, crawl, ledger, tracer)
    coordinator_mb, worker_mb = _rss(prep)
    if reference is None or traced is None or traced.values is None:
        ledger.record(["traced run produced no PageRank result"])
    else:
        _check_trace_identity(workload, reference, traced, ledger)
    _check_jobs([j for j in (reference, traced) if j is not None],
                build / "digests", key, ledger)

    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update(tracer.counters)
    if traced is not None:
        values.update(traced.layer)
    spans = ("core.clustering", "core.cluster_graph", "core.game", "core.transform",
             "system.placement", "system.runtime", "distributed.gas")
    for name in spans:
        values[f"{name}.s"] = tracer.self_seconds(name)
    values["graph.io.read_s"] = tracer.self_seconds("graph.io")
    values["graph.io.bytes"] = crawl.path.stat().st_size
    values["service.s"] = tracer.self_seconds("service.batch")
    values["distributed.pipeline_s"] = tracer.self_seconds("distributed.pipeline")
    stats = [t.stats for t in transforms]
    for metric, attr in (("agree", "agreement"), ("mirror", "mirror_reuse"),
                         ("degree", "degree_cut"), ("spill", "balance_spill")):
        values[f"core.transform.{metric}"] = sum(getattr(s, attr) for s in stats)
    values["core.transform.spill_share"] = _share(
        values["core.transform.spill"], sum(s.total() for s in stats)
    )
    wall = tracer.seconds("partition") + tracer.seconds("pagerank")
    covered = tracer.children_seconds("partition") + tracer.children_seconds("pagerank")
    values["trace.uncovered_s"] = wall - covered
    values["trace.uncovered_share"] = _share(wall - covered, wall)
    if reference is not None and traced is not None:
        values["trace.overhead_s"] = (
            traced.partition_s + traced.pagerank_s
            - reference.partition_s - reference.pagerank_s
        )
    values["rss.coordinator_mb"] = coordinator_mb
    values["rss.worker_mb"] = worker_mb
    values["batch_latency_samples"] = len(
        _latencies(workload, [j for j in (traced,) if j is not None])
    )
    values["error_rate"] = _share(ledger.failed, ledger.attempted)

    traces = build / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_path = traces / f"{key}-g{crawl.graph_seed}.json"
    tracer.write_chrome(trace_path)
    units = dict(PER_LAYER)
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
    extra = {
        "trace_file": str(trace_path.relative_to(build.parent)),
        "layer_self_s": {
            name: tracer.self_seconds(name)
            for name in sorted({s.name for s in tracer.spans})
        },
    }
    return metrics, extra


def _check_trace_identity(workload, reference: Job, traced: Job, ledger: Ledger) -> None:
    """Tracing must not change outputs; distributed GAS must match local GAS."""
    problems = []
    if not np.array_equal(reference.edge_partition, traced.edge_partition):
        problems.append("traced edge partition differs from the untraced one")
    if workload.kind == "distributed":
        local_values, local_cost = LocalGasRuntime(traced.assignment).run(
            LocalPageRankProgram(), max_supersteps=MAX_SUPERSTEPS
        )
        if not np.array_equal(local_values, traced.values):
            problems.append("DistributedGasRuntime PageRank differs from LocalGasRuntime's")
        if local_cost.num_supersteps != traced.supersteps:
            problems.append("DistributedGasRuntime superstep count differs from local")
    ledger.record(problems)


# ---------------------------------------------------------------------- #
# environment
# ---------------------------------------------------------------------- #


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    """What the results depend on besides the code: machine and toolchain."""
    config = ClugpConfig()
    return {
        "nproc": os.cpu_count(),
        "kernel_backend": kernels.backend_name(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "chunk_impl": getattr(config, "chunk_impl", None),
        "game_impl": getattr(config.game, "game_impl", None),
        "kernel_backend_override": os.environ.get("CLUGP_KERNEL_BACKEND"),
    }
