#!/usr/bin/env python3
"""The repository benchmark: one command, four named workloads.

    python3 perfbench/run.py --workload sweep64 --seed 1 --seconds 15 --trace 0

Run from the repository root (it imports ``repro`` from ``src/``).  An
untraced run (``--trace 0``) sets up several times for ``setup_s``, runs
rounds of the workload for ``--seconds``, re-verifies every equilibrium
it counts by exact regret and reports the end-to-end metrics.  A traced
run (``--trace 1``) runs the same rounds untraced and then traced, and
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object.  The exit code is 0
only when every check passed.  ``--out PATH`` also writes the metrics
and, for a traced run, every recorded span to ``PATH`` as JSON.

Workloads, metrics and the layers each should move are listed in
``catalogue.py``; ``BENCHMARK.json`` at the root repeats the names with
units and bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.dont_write_bytecode = True  # a run leaves the checkout as it found it

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Setup repetitions per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the results here (JSON)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print READY, wait for stdin to close")
    return parser.parse_args(argv)


def setup_probe(workload_cls, seed: int) -> int:
    """Child side of a ``setup_s`` sample: set up, signal, wait, tear down."""
    workload = workload_cls(seed)
    try:
        workload.setup()
        print("READY", flush=True)
        sys.stdin.read()
    finally:
        workload.close()
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from process start until a fresh workload can take timed work."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError(f"setup probe failed: {line!r}")
    finally:
        child.stdin.close()
        child.wait(timeout=120)
        child.stdout.close()
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live descendant."""
    total_kb, pending = 0, [os.getpid()]
    while pending:
        pid = pending.pop()
        try:
            with open(f"/proc/{pid}/status") as status:
                total_kb += next(int(line.split()[1]) for line in status
                                 if line.startswith("VmHWM"))
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as children:
                    pending.extend(int(child) for child in children.read().split())
        except (FileNotFoundError, ProcessLookupError, StopIteration):
            continue  # exited meanwhile
    return total_kb / 1024.0


def run_for(workload, seconds: float, min_rounds: int):
    """Rounds 0, 1, ... until ``seconds`` passed and ``min_rounds`` ran.

    Returns the jobs, the total wall clock and each round's wall clock.
    Between rounds each job is verified and slimmed (:func:`finish`) and
    the jobs kept so far move out of the garbage collector's reach, so
    later rounds neither pay to rescan them nor carry their memory.
    """
    from workloads import finish

    jobs, walls = [], []
    start = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        batch = workload.run_round(len(walls))
        walls.append(time.perf_counter() - round_start)
        for job in batch:
            finish(job, keep_game=job.round == 0)
        jobs.extend(batch)
        gc.collect()
        gc.freeze()
    return jobs, time.perf_counter() - start, walls


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def check_jobs(workload, jobs) -> List[str]:
    """Verify every job; a repeated seeded request must repeat its answer."""
    from workloads import finish

    problems, first = [], {}
    for job in jobs:
        finish(job)
        if job.error is not None:
            problems.append(f"job failed: {job.error}")
            continue
        if job.bad:
            problems.append(f"{job.key}: {job.bad} equilibria fail the exact check")
        if first.setdefault(job.key, job.digest) != job.digest:
            problems.append(f"{job.key}: a repeat of this seeded request gave another answer")
    problems.extend(workload.replay_check(jobs))
    return problems


def quality(workload, jobs) -> Dict[str, float]:
    """Quality metrics over the workload's fixed quality rounds (repeats once)."""
    seen, cnash_runs, verified, distinct, squbo_runs, squbo_ok = set(), 0, 0, 0, 0, 0.0
    for job in jobs:
        if job.error is not None or job.round >= workload.quality_rounds or job.key in seen:
            continue
        seen.add(job.key)
        if job.backend == "cnash":
            cnash_runs += job.num_runs
            verified += job.verified
            distinct += job.distinct - job.bad_equilibria
        else:
            squbo_runs += job.num_runs
            squbo_ok += job.verified
    return {
        "cnash_success_rate": verified / cnash_runs if cnash_runs else 0.0,
        "distinct_equilibria": distinct,
        "squbo_success_rate": squbo_ok / squbo_runs if squbo_runs else 0.0,
    }


def end_to_end(workload, jobs, walls: List[float], problems: List[str]) -> Dict[str, float]:
    """End-to-end metrics; rates are medians over rounds, so one slow
    round moves them less than a pooled mean would."""
    done = [job for job in jobs if job.error is None]
    rounds = [[job for job in done if job.round == index] for index in range(len(walls))]
    runs_per_s = [sum(job.num_runs for job in batch) / wall
                  for batch, wall in zip(rounds, walls)]
    jobs_per_s = [len(batch) / wall for batch, wall in zip(rounds, walls)]
    # Seconds per C-Nash run: in-process jobs run one at a time, so their
    # latencies add up to the C-Nash share of a round; service jobs
    # overlap and are all C-Nash, so the round's wall clock is the time.
    per_run = []
    for batch, wall in zip(rounds, walls):
        cnash = [job for job in batch if job.backend == "cnash"]
        runs = sum(job.num_runs for job in cnash)
        spent = wall if workload.concurrent else sum(job.latency_s for job in cnash)
        per_run.append(spent / runs)
    metrics = quality(workload, jobs)
    if not metrics["cnash_success_rate"]:
        problems.append("no C-Nash run returned a verified equilibrium")
    # Percentiles: per round and then the median over rounds where a
    # round holds enough jobs for its own p99, else over all jobs.
    if min(len(batch) for batch in rounds) >= 500:
        samples = [[job.latency_s * 1000.0 for job in batch] for batch in rounds]
    else:
        samples = [[job.latency_s * 1000.0 for job in done]]
    metrics.update({
        "runs_per_s": statistics.median(runs_per_s),
        "jobs_per_s": statistics.median(jobs_per_s),
        "job_latency_p50_ms": statistics.median(
            statistics.median(values) for values in samples),
        "job_latency_p99_ms": statistics.median(
            percentile(values, 0.99) for values in samples),
        # Time to a verified equilibrium = time per run / verified share.
        "cnash_tts_ms": 1000.0 * statistics.median(per_run)
                        / max(metrics["cnash_success_rate"], 1e-12),
        "peak_rss_mb": peak_rss_mb(),
    })
    return metrics


def layer_sum_problem(metrics: Dict[str, float], wall: float) -> List[str]:
    from catalogue import SELF_TIME_LAYERS

    total = sum(metrics[name] for name in SELF_TIME_LAYERS) + metrics["bench.unattributed_s"]
    if abs(total - wall) > 1e-6 + 1e-3 * wall:
        return [f"layer self times sum to {total:.6f}s, traced wall clock is {wall:.6f}s"]
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"cannot find the program's source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

    from catalogue import END_TO_END, PER_LAYER, check_manifest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload_cls, args.seed)
    problems = check_manifest(ROOT / "BENCHMARK.json")

    setup_samples = []
    if not args.trace:
        setup_samples = [measure_setup(args.workload, args.seed)
                         for _ in range(SETUP_SAMPLES)]
    workload = workload_cls(args.seed)
    spans_out = None
    try:
        workload.setup()
        if not args.trace:
            min_rounds = workload.quality_rounds + (1 if workload.repeats else 0)
            jobs, wall, walls = run_for(workload, args.seconds, min_rounds)
            problems.extend(check_jobs(workload, jobs))
            metrics = end_to_end(workload, jobs, walls, problems)
            metrics["setup_s"] = statistics.median(setup_samples)
            table = END_TO_END
        else:
            from spans import Tracer

            untraced, untraced_wall, walls = run_for(workload, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            if hasattr(workload, "install_wire_meter"):
                workload.install_wire_meter(tracer)
            before = workload.telemetry()
            start = time.perf_counter()
            traced = []
            for index in workload.traced_rounds(len(walls)):
                traced.extend(workload.run_round(index))
            wall = time.perf_counter() - start
            tracer.uninstall()
            after = workload.telemetry()
            jobs = untraced + traced
            problems.extend(check_jobs(workload, jobs))
            metrics = {name: 0.0 for name in PER_LAYER}
            metrics.update(workload.layer_metrics(tracer, wall, before, after, traced))
            metrics["bench.trace_overhead"] = wall / untraced_wall - 1.0
            problems.extend(layer_sum_problem(metrics, wall))
            spans_out = tracer.to_records()
            metrics["baselines.squbo_success_rate"] = quality(workload, traced)[
                "squbo_success_rate"]
            table = PER_LAYER
    finally:
        workload.close()

    failed = sum(1 for job in jobs if job.error is not None or job.bad)
    shares = {"failed_share": failed / len(jobs)}
    if args.trace:
        metrics["bench.failed_share"] = shares["failed_share"]
    else:
        shares["squbo_success_rate"] = metrics.pop("squbo_success_rate")
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} rounds, {len(jobs)} jobs"
          + (f", {len(setup_samples)} setups" if setup_samples else ""))
    for name, (unit, *_rest) in table.items():
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}")
    for name, value in shares.items():
        if name not in table:
            print(f"  {name:32s} {value:>16.6g} ratio  (not in BENCHMARK.json)")
    if getattr(workload, "shutdown_traceback", False):
        print("  note: the server printed an asyncio CancelledError traceback at "
              "shutdown (a second connection was still open)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "result": result,
             "problems": problems, "spans": spans_out}, indent=1))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
