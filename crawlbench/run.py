"""Run one crawl workload and print its metrics.

Usage, from the root of a checkout::

    python3 crawlbench/run.py --workload crawl-k32 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced jobs; ``--trace 1``
runs one untraced and one traced job and prints the per-layer metrics,
writing the spans as Chrome trace-event JSON under ``.bench_build/traces``.
The last line of standard output is the result object; the line before
it is the environment.  Everything the run writes (the edge file, the
compiled kernels, digests, traces, result records) stays under
``.bench_build`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _children() -> list[int]:
    """Pids of this process's live or unreaped child processes."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # the fields after the ")" that closes the command name:
                # state, ppid, ...
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def _end(pids: list[int], grace: float) -> None:
    """Terminate ``pids``, kill those left after ``grace`` seconds, reap all."""
    pending = list(pids)
    for pid in pending:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.remove(pid)
        if pending and time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = math.inf
        time.sleep(0.05 if pending else 0)


def stop_children(grace: float = 10.0) -> None:
    """Stop every process the run started and wait until each has ended.

    The worker pools are closed by the run itself; what remains is
    multiprocessing's resource tracker, which the first shared-memory
    segment starts and which would otherwise end only after this process
    has exited, unreaped.  The tracker ends when every holder of its pipe
    has closed it, and forked workers hold it too, so any other child
    still running is ended first.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    _end([pid for pid in _children() if pid != getattr(tracker, "_pid", None)], grace)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit
    _end(_children(), grace)  # the tracker ignores SIGTERM: killed after grace


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"crawlbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # compiled kernels and temporary files stay inside the checkout;
    # set before the program is imported so its workers inherit them
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["CLUGP_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"crawlbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), BUILD)
    finally:
        stop_children()
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(out["record"], indent=1))
    for problem in out["record"]["problems"]:
        print(f"crawlbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": out["record"]["environment"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
