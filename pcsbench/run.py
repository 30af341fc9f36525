"""Benchmark of the precubical library and its `pcs` command line.

Usage, from the root of a checkout:

    python3 pcsbench/run.py --workload cube-homology --seed 1 --seconds 40 --trace 0

Each workload is a single-client closed loop: one process, one thread, each
job starting after the previous one has finished and been checked.  A run
does whole rounds of jobs until --seconds have passed, setting up afresh
before the first round and then SETUPS - 1 more times spread over the run.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
every job untraced and traced in alternating order, replays the traced job
untimed to count work, and reports per-layer metrics.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

Besides that line, each run appends a record to .bench_out/runs.jsonl (host
speed before and after, seed, job counts, every job's wall time and every
set-up time, failures) and a traced run writes its spans to
.bench_out/spans-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

from tracing import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

SETUPS = 8
CAVEAT = "shared sandbox; no CPU pinning, cache or frequency control"
END_TO_END_UNITS = {
    "job_tail_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB", "setup_s": "s",
}


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic only,
    stored with the run and never used to scale a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def import_package() -> None:
    """Import precubical afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "precubical" or m.startswith("precubical.")]:
        del sys.modules[name]
    importlib.import_module("precubical")
    importlib.import_module("precubical.cli")


def set_up(workload_cls, workdir: Path, seed: int, tally: Tally):
    """Import the package, build, write and check the inputs, and run one
    untimed warm-up job; returns (seconds, workload)."""
    start = time.perf_counter()
    import_package()
    workload = workload_cls(workdir, seed)
    tally.attempt(workload.jobs(0)[0])
    return time.perf_counter() - start, workload


def tail(times: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten jobs beyond it
    (nearest rank): (job time, percentile, jobs beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100, 0


def measure(workload_cls, workdir: Path, seed: int, seconds: float, tally: Tally) -> dict:
    """Untraced closed loop of whole rounds for at least `seconds`, with a
    fresh set-up before the first round and then every 1/SETUPS of the run,
    so that set-ups sample the same host states as the jobs.

    Host speed drifts by up to 2x over seconds to minutes.  The loaded state
    recurs in nearly every run and at a steady speed, the quiet one does
    not; so the metrics are taken where the run was slowest: the job tail,
    throughput over the slowest quarter of jobs, and the slowest set-up."""
    setups, walls, cpus, items = [], [], [], []
    index = 0
    start = time.perf_counter()
    stop = start + seconds
    next_setup = start
    while True:
        if time.perf_counter() >= next_setup:
            seconds_taken, workload = set_up(workload_cls, workdir, seed, tally)
            setups.append(seconds_taken)
            next_setup = start + len(setups) * seconds / SETUPS
        for job in workload.jobs(index):
            wall, cpu = tally.attempt(job)
            walls.append(wall)
            cpus.append(cpu)
            items.append(job.items)
        index += 1
        if time.perf_counter() >= stop:
            break
    tail_value, tail_pct, beyond = tail(walls)
    slowest = sorted(range(len(walls)), key=walls.__getitem__)[-math.ceil(len(walls) / 4):]
    return {
        "metrics": {
            "job_tail_s": tail_value,
            "items_per_s": sum(items[i] for i in slowest) / sum(walls[i] for i in slowest),
            "setup_s": max(setups),
        },
        "jobs": len(walls), "rounds": index,
        "tail_percentile": tail_pct, "jobs_beyond_tail": beyond,
        "job_p50_s": statistics.median(walls),
        "items_per_s_all_jobs": sum(items) / sum(walls),
        "cpu_over_wall": sum(cpus) / sum(walls),
        "setup_runs_s": setups,
        "job_walls_s": [round(w, 6) for w in walls],
    }


def measure_traced(workload, seconds: float, tally: Tally, tracer: Tracer) -> dict:
    """Each job untraced and traced, alternating which goes first, then
    replayed untimed with counters; runs whole rounds for `seconds`."""
    ratios = []
    index = job_id = 0
    stop = time.perf_counter() + seconds
    while True:
        for job in workload.jobs(index):
            timed = {}
            for traced in ((False, True) if job_id % 2 == 0 else (True, False)):
                if traced:
                    tracer.job = job_id
                    with tracer.spanned:
                        timed[traced], _ = tally.attempt(job)
                else:
                    timed[traced], _ = tally.attempt(job)
            with tracer.counted:
                tally.attempt(job)
            ratios.append(timed[True] / timed[False])
            job_id += 1
        index += 1
        if time.perf_counter() >= stop:
            break
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.traced_jobs"] = job_id
    return {"metrics": metrics, "jobs": job_id, "rounds": index,
            "missing_probes": tracer.spanned.missing + tracer.counted.missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "precubical" / "__init__.py").is_file():
        print(f"error: no precubical package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "caveat": CAVEAT, "host_ref_before_s": reference_loop(),
    }
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            _, workload = set_up(WORKLOADS[args.workload], workdir, args.seed, tally)
            tracer = Tracer()
            result = measure_traced(workload, args.seconds, tally, tracer)
        else:
            result = measure(WORKLOADS[args.workload], workdir, args.seed, args.seconds, tally)
            result["metrics"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(result)
    record.update({
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "host_ref_after_s": reference_loop(),
    })
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    if args.trace:
        with open(OUT / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    units = metric_units() if args.trace else END_TO_END_UNITS
    print(
        f"{args.workload} seed {args.seed}: {record['jobs']} jobs, "
        f"{tally.failed}/{tally.attempted} failed, host loop "
        f"{record['host_ref_before_s']:.3f}/{record['host_ref_after_s']:.3f} s",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
