"""Jobs-per-second throughput of the service scheduler.

Drives a burst of small, distinct C-Nash jobs through a
:class:`~repro.service.scheduler.SolveScheduler` on the thread executor
(no process startup noise, identical scheduling path) and reports
jobs/sec and the cache-hit fast path.  The point being tracked is
*serving* overhead — queueing, sharding, merging, caching — on top of
the solver itself, so the per-job solve budget is kept deliberately
tiny.
"""

from __future__ import annotations

import asyncio

from repro.core.config import CNashConfig
from repro.games.library import stag_hunt
from repro.service.jobs import SolveRequest
from repro.service.scheduler import SolveScheduler
from repro.telemetry import temporary_registry

#: Distinct jobs in the burst (seeds differ -> no two share a fingerprint).
NUM_JOBS = 24
FAST = CNashConfig(num_intervals=4, num_iterations=150)


def _requests():
    return [
        SolveRequest(game=stag_hunt(), policy="cnash", num_runs=4, seed=seed, config=FAST)
        for seed in range(NUM_JOBS)
    ]


def _run_burst(requests):
    """Returns the outcomes and the fresh registry the burst counted into."""

    async def body():
        async with SolveScheduler(max_workers=4, shard_size=4, executor="thread") as sched:
            return await asyncio.gather(*(sched.solve(r) for r in requests))

    with temporary_registry() as reg:
        return asyncio.run(body()), reg


def _run_cached_burst(requests):
    async def body():
        async with SolveScheduler(max_workers=4, shard_size=4, executor="thread") as sched:
            await asyncio.gather(*(sched.solve(r) for r in requests))
            # Second wave: every job is a cache hit.
            return await asyncio.gather(*(sched.solve(r) for r in requests))

    with temporary_registry() as reg:
        return asyncio.run(body()), reg


def test_scheduler_jobs_per_second(benchmark):
    """Cold burst: every job computes through the sharded worker pool."""
    requests = _requests()
    outcomes, reg = benchmark.pedantic(_run_burst, args=(requests,), rounds=1, iterations=1)
    assert len(outcomes) == NUM_JOBS
    assert reg.get("repro_scheduler_jobs_completed_total").value == NUM_JOBS
    assert reg.get("repro_scheduler_jobs_failed_total").value == 0
    elapsed = benchmark.stats["mean"]
    benchmark.extra_info["jobs_per_sec"] = NUM_JOBS / elapsed


def test_scheduler_cached_jobs_per_second(benchmark):
    """Warm burst: the second wave is pure cache hits (no recomputation)."""
    requests = _requests()
    outcomes, reg = benchmark.pedantic(
        _run_cached_burst, args=(requests,), rounds=1, iterations=1
    )
    assert len(outcomes) == NUM_JOBS
    assert reg.get("repro_cache_hits_total").value == NUM_JOBS
    # First wave only.
    assert reg.get("repro_scheduler_shards_executed_total").value == NUM_JOBS
    elapsed = benchmark.stats["mean"]
    benchmark.extra_info["jobs_per_sec_including_cached"] = 2 * NUM_JOBS / elapsed
