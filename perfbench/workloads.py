"""The four named workloads, driven through the public API only.

Every workload turns its seed into inputs with :func:`seeds_for`, runs
*rounds* of work (one round = one unit the timed loop repeats), and
returns one :class:`Job` per solve the caller saw.  Equilibria are
re-verified by exact regret after the timed region (:func:`verify`).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.api as api
from repro import telemetry
from repro.backends import SolveSpec
from repro.backends.adapters import verification_epsilon
from repro.core.config import CNashConfig
from repro.games.bimatrix import BimatrixGame
from repro.games.equilibrium import is_epsilon_equilibrium
from repro.games.spec import GameSpec
from repro.utils.rng import shard_seeds

from catalogue import SELF_TIME_LAYERS
from spans import Tracer, apportion, batch_phases, family_delta

ROOT = Path(__file__).resolve().parent.parent

#: Distinct service jobs of round 0 re-solved in-process per run, to
#: show a seeded request gives the same answer on every path.
REPLAY_JOBS = 4


def seeds_for(seed: int, *path: int) -> int:
    """A 31-bit seed derived from the workload seed and a path of indices."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


@dataclass
class Job:
    """One solve as the caller saw it, plus what is needed to verify it."""

    round: int
    backend: str
    game: Any                      # BimatrixGame or GameSpec
    latency_s: float
    key: str = ""                  # identical for identical seeded requests
    num_runs: int = 0
    success_rate: float = 0.0
    #: Verification tolerance; ``None`` = the C-Nash tolerance for ``config``.
    epsilon: Optional[float] = None
    config: Optional[CNashConfig] = None
    #: Profiles of the runs the backend counted as successes, when the
    #: result carries per-run data (``per_run``).  Without it, every
    #: counted run is one of ``equilibria``: the backends de-duplicate
    #: successful profiles, and grid profiles merge only when identical.
    claimed: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    per_run: bool = False
    equilibria: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    trace: Optional[List[Dict[str, Any]]] = None
    seed: Optional[int] = None
    started: float = 0.0
    error: Optional[str] = None
    verified: int = 0
    bad: int = 0                   # claimed or reported equilibria failing the check
    bad_equilibria: int = 0
    distinct: int = 0              # reported equilibria
    digest: str = ""               # set by finish(); what must repeat exactly

    def signature(self) -> str:
        """Digest of the answer; a repeated seeded request must repeat it."""
        digest = hashlib.sha256(repr((self.key, self.num_runs, self.success_rate,
                                      len(self.claimed), len(self.equilibria))).encode())
        for p, q in self.claimed + self.equilibria:
            digest.update(p.tobytes())
            digest.update(q.tobytes())
        return digest.hexdigest()


def _profiles_from_batch(batch) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Claimed-equilibrium profiles of a C-Nash batch (object or wire dict)."""
    if isinstance(batch, dict):
        return [
            (np.asarray(run["p_counts"], float) / run["num_intervals"],
             np.asarray(run["q_counts"], float) / run["num_intervals"])
            for run in batch["runs"] if run["is_equilibrium"]
        ]
    return [(run.profile.p, run.profile.q) for run in batch.runs if run.success]


def finish(job: Job, keep_game: bool = True) -> None:
    """Verify a job once, record its digest and drop its profiles.

    Jobs of later rounds also drop their game, so a run's memory holds
    what the program keeps, not every input the benchmark generated.
    """
    if job.digest or job.error is not None:
        return
    verify(job)
    job.digest = job.signature()
    job.distinct = len(job.equilibria)
    job.claimed, job.equilibria = [], []
    if not keep_game:
        job.game = None


def verify(job: Job) -> None:
    """Re-check every claimed and reported equilibrium by exact regret."""
    game = job.game if isinstance(job.game, BimatrixGame) else job.game.materialize()
    if job.epsilon is None:
        job.epsilon = verification_epsilon(game, "cnash", job.config)
    job.bad_equilibria = sum(
        not is_epsilon_equilibrium(game, p, q, job.epsilon) for p, q in job.equilibria
    )
    if job.per_run:
        job.verified = sum(
            is_epsilon_equilibrium(game, p, q, job.epsilon) for p, q in job.claimed
        )
        job.bad = len(job.claimed) - job.verified + job.bad_equilibria
    else:
        counted = round(job.success_rate * job.num_runs)
        job.verified = 0 if job.bad_equilibria else counted
        job.bad = job.bad_equilibria


class Workload:
    """Base class: ``setup`` / ``run_round`` / ``close`` plus layer metrics."""

    name = ""
    #: Rounds whose jobs give the quality metrics (fixed per seed).
    quality_rounds = 1
    #: Whether round ``r`` repeats round ``r % quality_rounds`` exactly.
    repeats = False
    #: Whether jobs overlap in time (service workloads).
    concurrent = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Start what the workload needs and make one warm-up call."""

    def close(self) -> None:
        pass

    def run_round(self, index: int) -> List[Job]:
        raise NotImplementedError

    def traced_rounds(self, count: int) -> List[int]:
        """Rounds for the traced pass: the untraced ones again where inputs allow."""
        return list(range(count))

    def telemetry(self) -> Dict[str, Any]:
        return telemetry.registry().snapshot()

    def replay_check(self, jobs: List[Job]) -> List[str]:
        """Re-solve a few jobs another way; mismatches are listed."""
        return []

    def layer_metrics(self, tracer: Tracer, wall: float, before, after,
                      jobs: List[Job]) -> Dict[str, float]:
        """Per-layer metrics of a traced pass (in-process: straight from the spans)."""
        return _in_process_layers(tracer, wall, before, after)


# ----------------------------------------------------------------------
# In-process workloads (table1, solve64)
# ----------------------------------------------------------------------
def _report_job(round_index: int, backend: str, game, report, latency: float,
                key: str) -> Job:
    job = Job(round=round_index, backend=backend, game=game, latency_s=latency, key=key,
              num_runs=report.num_runs, success_rate=report.success_rate)
    job.equilibria = [(profile.p, profile.q) for profile in report.equilibria]
    if backend == "cnash":
        job.epsilon = float(report.metadata["epsilon"])
        job.claimed = _profiles_from_batch(report.batch)
        job.per_run = True
    else:
        job.epsilon = 1e-6  # S-QUBO reports keep no per-sample batch
    return job


def _counter_layers(before, after, kernel_busy: float) -> Dict[str, float]:
    """Kernel and materialisation-cache counters between two telemetry snapshots.

    ``kernel_busy`` is the kernel's busy seconds, the base of
    ``annealing.proposals_per_s``.
    """
    proposals = family_delta(before, after, "repro_kernel_proposals_total")
    accepted = family_delta(before, after, "repro_kernel_accepted_total")
    hits = family_delta(before, after, "repro_matcache_hits_total")
    misses = family_delta(before, after, "repro_matcache_misses_total")
    return {
        "annealing.launches": family_delta(before, after, "repro_kernel_launches_total"),
        "annealing.proposals": proposals,
        "annealing.proposals_per_s": proposals / kernel_busy if kernel_busy else 0.0,
        "annealing.accept_ratio": accepted / proposals if proposals else 0.0,
        "annealing.resyncs": family_delta(before, after, "repro_kernel_resyncs_total"),
        "games.matcache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def _in_process_layers(tracer: Tracer, wall: float, before, after) -> Dict[str, float]:
    """Self times of the caller-side spans plus the process's kernel counters."""
    return {
        **_counter_layers(before, after,
                          family_delta(before, after, "repro_kernel_seconds", "sum")),
        "annealing.kernel_s": tracer.self_seconds(layer="annealing"),
        "annealing.fused_s": tracer.self_seconds("annealing.fused"),
        "annealing.legacy_s": tracer.self_seconds("annealing.legacy"),
        "hardware.program_s": tracer.self_seconds("hardware.program"),
        "hardware.evaluate_calls": tracer.count("hardware.evaluate"),
        "hardware.candidates": tracer.size("hardware.evaluate"),
        "hardware.evaluate_s": tracer.self_seconds("hardware.evaluate"),
        "qubo.build_s": tracer.self_seconds("qubo.build"),
        "baselines.sample_s": tracer.self_seconds("baselines.sample"),
        "baselines.samples": tracer.size("baselines.sample"),
        "games.materialize_calls": tracer.count("games.materialize"),
        "games.materialize_s": tracer.self_seconds("games.materialize"),
        "games.classify_calls": tracer.count("games.classify"),
        "games.classify_s": tracer.self_seconds("games.classify"),
        "games.distinct_s": tracer.self_seconds("games.distinct"),
        "core.self_s": tracer.self_seconds(layer="core"),
        "backends.self_s": tracer.self_seconds(layer="backends"),
        "api.self_s": tracer.self_seconds(layer="api"),
        "service.submit_s": tracer.self_seconds("service.submit"),
        "bench.unattributed_s": wall - sum(
            span.duration for span in tracer.spans if span.parent is None),
    }


class Table1(Workload):
    """Paper Table 1: C-Nash on the bi-crossbar model vs the S-QUBO baseline.

    Round ``r`` solves every game on both backends with seed set
    ``r % 3``; the three seed sets are the quality rounds.
    """

    name = "table1"
    repeats = True
    quality_rounds = 3
    GAMES = ("battle_of_the_sexes", "bird_game", "modified_prisoners_dilemma")
    CNASH = CNashConfig(use_hardware=True, num_iterations=1000)
    CNASH_RUNS = 64
    SQUBO_SAMPLES = 128

    def setup(self) -> None:
        game = GameSpec.library("battle_of_the_sexes")
        config = CNashConfig(use_hardware=True, num_iterations=20)
        api.solve(game, "cnash", SolveSpec(num_runs=2, seed=0, options={"config": config}))
        api.solve(game, "squbo", SolveSpec(num_runs=2, seed=0))

    def run_round(self, index: int) -> List[Job]:
        seeds = index % self.quality_rounds
        jobs = []
        for position, name in enumerate(self.GAMES):
            game = GameSpec.library(name)
            for backend, spec in (
                ("cnash", SolveSpec(num_runs=self.CNASH_RUNS,
                                    seed=seeds_for(self.seed, 1, seeds, position),
                                    options={"config": self.CNASH})),
                ("squbo", SolveSpec(num_runs=self.SQUBO_SAMPLES,
                                    seed=seeds_for(self.seed, 2, seeds, position))),
            ):
                start = time.perf_counter()
                report = api.solve(game, backend, spec)
                latency = time.perf_counter() - start
                jobs.append(_report_job(index, backend, game, report, latency,
                                        f"{backend}:{name}:{seeds}"))
        return jobs


class Solve64(Workload):
    """The single-game kernel: random 64x64 integer games, 1000 chains each."""

    name = "solve64"
    repeats = True
    quality_rounds = 9
    CONFIG = CNashConfig(num_intervals=32, num_iterations=1000)
    RUNS = 1000

    def setup(self) -> None:
        game = GameSpec.generator("random", seed=0, num_row_actions=64,
                                  integer_payoffs=True)
        config = CNashConfig(num_intervals=32, num_iterations=20)
        api.solve(game, "cnash", SolveSpec(num_runs=8, seed=0, options={"config": config}))

    def run_round(self, index: int) -> List[Job]:
        position = index % self.quality_rounds
        game = GameSpec.generator("random", seed=seeds_for(self.seed, 1, position),
                                  num_row_actions=64, integer_payoffs=True)
        spec = SolveSpec(num_runs=self.RUNS, seed=seeds_for(self.seed, 2, position),
                         options={"config": self.CONFIG})
        start = time.perf_counter()
        report = api.solve(game, "cnash", spec)
        latency = time.perf_counter() - start
        return [_report_job(index, "cnash", game, report, latency, f"game{position}")]


# ----------------------------------------------------------------------
# Service workloads (sweep64, tcp_mixed)
# ----------------------------------------------------------------------
def _service_layers(before, after, phases, wait_s: float, shares_extra=None,
                    kernel_busy: Optional[float] = None) -> Dict[str, float]:
    """Per-layer metrics shared by the two service workloads.

    ``wait_s`` is caller wall-clock time spent waiting on the service;
    it is split over the service-side layers in proportion to their
    busy seconds (``phases``: shared spans counted once per batch).
    """
    kernel = phases["kernel"] if kernel_busy is None else kernel_busy
    settle = phases["settle"] + phases["worker_settle"]
    unattributed = max(phases["run"] - kernel - phases["materialize"]
                       - phases["worker_settle"], 0.0)
    shares = {
        "annealing.kernel_s": kernel,
        "games.materialize_s": phases["materialize"],
        "service.coalesce_s": phases["coalesce"] + phases["shm"],
        "service.settle_s": settle,
        "service.run_unattributed_s": unattributed,
        **(shares_extra or {}),
    }
    metrics = apportion(wait_s, shares)
    metrics.update(_counter_layers(before, after, kernel))
    batches = family_delta(before, after, "repro_scheduler_batches_dispatched_total")
    batched = family_delta(before, after, "repro_scheduler_batched_jobs_total")
    cache_hits = family_delta(before, after, "repro_cache_hits_total")
    cache_misses = family_delta(before, after, "repro_cache_misses_total")
    queue_ms = phases["queue_ms"]
    metrics.update({
        "annealing.fused_s": metrics["annealing.kernel_s"],
        "games.materialize_calls": phases["materialize_calls"],
        "service.queue_wait_ms_p50": statistics.median(queue_ms) if queue_ms else 0.0,
        "service.batches": batches,
        "service.jobs_per_batch": batched / batches if batches else 0.0,
        "service.run_s": phases["run"],
        "service.retries": family_delta(before, after, "repro_resilience_retries_total"),
        "service.jobs_failed": family_delta(before, after,
                                            "repro_scheduler_jobs_failed_total"),
        "service.cache_hit_ratio": (cache_hits / (cache_hits + cache_misses)
                                    if cache_hits + cache_misses else 0.0),
        "service.cache_stores": family_delta(before, after, "repro_cache_stores_total"),
        "service.cache_evictions": family_delta(before, after,
                                                "repro_cache_evictions_total"),
        "service.coalesced_jobs": family_delta(before, after,
                                               "repro_scheduler_jobs_coalesced_total"),
        "service.shm_segments": family_delta(before, after, "repro_shm_segments_total"),
        "service.shm_bytes": family_delta(before, after, "repro_shm_bytes_total"),
    })
    return metrics


def _outcome_job(round_index: int, game, outcome, latency: float, config: CNashConfig,
                 num_runs: int, key: str, trace=None) -> Job:
    """A :class:`Job` from a service ``SolveOutcome`` or a sweep report."""
    job = Job(round=round_index, backend="cnash", game=game, latency_s=latency, key=key,
              num_runs=num_runs, success_rate=outcome.success_rate, config=config,
              trace=trace)
    if outcome.batch is not None:
        job.claimed = _profiles_from_batch(outcome.batch)
        job.per_run = True
    for profile in outcome.equilibria:
        if isinstance(profile, dict):
            job.equilibria.append((np.asarray(profile["p"], float),
                                   np.asarray(profile["q"], float)))
        else:
            job.equilibria.append((profile.p, profile.q))
    return job


def _replay(jobs: List[Job], config: CNashConfig) -> List[str]:
    """Re-solve the first few distinct jobs in-process; they must match exactly.

    A single-shard service request runs under ``shard_seeds(seed, 1)[0]``,
    so that is the seed the in-process solve gets.
    """
    problems = []
    seen = set()
    for job in jobs:
        if job.error is not None or job.key in seen:
            continue
        seen.add(job.key)
        spec = SolveSpec(num_runs=job.num_runs, seed=shard_seeds(job.seed, 1)[0],
                         options={"config": config})
        report = api.solve(job.game, "cnash", spec)
        replayed = _report_job(job.round, "cnash", job.game, report, 0.0, job.key)
        if not job.per_run:
            replayed.claimed = []
        if replayed.signature() != job.digest:
            problems.append(f"{job.key}: service result differs from the in-process replay")
        if len(seen) >= REPLAY_JOBS:
            break
    return problems


class Sweep64(Workload):
    """Spec-shipped 64x64 ensembles through InProcessClient (process workers)."""

    name = "sweep64"
    concurrent = True
    CONFIG = CNashConfig(num_intervals=4, num_iterations=120)
    GAMES_PER_ROUND = 1024
    WORKERS = 2

    client = None

    def setup(self) -> None:
        from repro.service.client import InProcessClient

        self.client = InProcessClient(executor="process", max_workers=self.WORKERS)
        self.sa_seed = seeds_for(self.seed, 0)
        self._sweep(self._ensemble(-1, 256))

    def _ensemble(self, index: int, size: int):
        from repro.workloads import EnsembleSpec

        first = seeds_for(self.seed, 1, index + 1) % 2**30
        return EnsembleSpec(generator="random", grid={}, seeds=range(first, first + size),
                            base_params={"num_row_actions": 64}, name="sweep64")

    def _sweep(self, ensemble):
        spec = SolveSpec(num_runs=2, seed=self.sa_seed, options={"config": self.CONFIG})
        return api.sweep(ensemble, "cnash", spec, client=self.client)

    def run_round(self, index: int) -> List[Job]:
        result = self._sweep(self._ensemble(index, self.GAMES_PER_ROUND))
        jobs = []
        for report in result.reports:
            # Submit-to-outcome latency of the job itself: its trace
            # phases run back to back from submit to the terminal state.
            # (The client hands outcomes back in chunks of
            # ``max_in_flight``, so caller-side clocks would give every
            # job of a chunk the chunk's slowest time.)
            trace = report.metadata["trace"]
            latency = max(phase["end_ms"] for phase in trace) / 1000.0
            game = GameSpec.from_dict(report.metadata["game_spec"])
            job = _outcome_job(index, game, report, latency, self.CONFIG, report.num_runs,
                               report.metadata["fingerprint"], trace)
            job.seed = self.sa_seed
            jobs.append(job)
        for failure in result.failed:
            jobs.append(Job(round=index, backend="cnash", game=None, latency_s=0.0,
                            error=f"{failure['error_type']}: {failure['error']}"))
        return jobs

    def traced_rounds(self, count: int) -> List[int]:
        # Repeated specs would be served from the result cache: the
        # traced pass takes fresh rounds of the same shape.
        return list(range(count, 2 * count))

    def telemetry(self) -> Dict[str, Any]:
        return self.client.telemetry()

    def replay_check(self, jobs: List[Job]) -> List[str]:
        return _replay([job for job in jobs if job.round == 0], self.CONFIG)

    def layer_metrics(self, tracer, wall, before, after, jobs):
        """Caller-side spans as in-process; the caller's wait in ``results``
        is split over the worker-side layers by their busy seconds."""
        metrics = _in_process_layers(tracer, wall, before, after)
        phases = batch_phases(job.trace for job in jobs if job.trace)
        service = _service_layers(before, after, phases,
                                  tracer.self_seconds("service.wait"))
        for name in SELF_TIME_LAYERS:
            service[name] = service.get(name, 0.0) + metrics.get(name, 0.0)
        service["games.materialize_calls"] += metrics["games.materialize_calls"]
        metrics.update(service)
        return metrics

    def close(self) -> None:
        if self.client is not None:
            self.client.close()


class TcpMixed(Workload):
    """A ``python -m repro.service`` server under a closed loop of 2 connections."""

    name = "tcp_mixed"
    concurrent = True
    CONFIG = CNashConfig(num_intervals=8, num_iterations=60)
    RUNS = 8
    REQUESTS_PER_ROUND = 500
    REPEAT_DISTANCE = 4
    CONNECTIONS = 2
    LIBRARY = ("battle_of_the_sexes", "bird_game", "chicken", "stag_hunt",
               "matching_pennies", "rock_paper_scissors", "coordination_game(4)",
               "modified_prisoners_dilemma")
    DENSE_SIZES = (32, 40, 48)
    server = None
    shutdown_traceback = False

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.stderr: List[str] = []
        self.wire = {"request": 0, "response": 0}
        self.clients = []
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1",
                   PYTHONDONTWRITEBYTECODE="1")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--workers", str(self.CONNECTIONS)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[3].rsplit(":", 1)[1])
        self.clients = self.loop.run_until_complete(self._connect())
        self.loop.run_until_complete(
            self._closed_loop(-1, self._requests(-1, 4 * self.CONNECTIONS)))

    def _read_stderr(self) -> None:
        for line in self.server.stderr:
            self.stderr.append(line)

    async def _connect(self):
        from repro.service.client import ServiceClient

        return [await ServiceClient.connect("127.0.0.1", self.port)
                for _ in range(self.CONNECTIONS)]

    def _requests(self, index: int, count: int):
        """The seeded request mix of one round: ``(key, game, seed, request)``.

        Every block of 20 requests holds, in seeded order, 9 repeats of
        an earlier (game, seed) pair of the round, 6 library games sent
        as spec strings and 5 dense uploads (32x32, 40x40 and 48x48 in
        turn), each fresh request with its own SA seed.  A repeat picks
        a request at least :data:`REPEAT_DISTANCE` positions back, so it
        is served from the result cache rather than coalesced.
        """
        from repro.service.jobs import SolveRequest

        rng = np.random.default_rng(seeds_for(self.seed, 1, index + 1))
        block = ["repeat"] * 9 + ["library"] * 6 + ["dense"] * 5
        kinds: List[str] = []
        while len(kinds) < count:
            kinds.extend(rng.permutation(block))
        mix: List[Tuple[str, Any, int]] = []
        dense = 0
        for position, kind in enumerate(kinds[:count]):
            older = mix[:max(position - self.REPEAT_DISTANCE, 0)]
            if kind == "repeat" and older:
                mix.append(older[int(rng.integers(len(older)))])
                continue
            seed = int(rng.integers(2**31))
            if kind == "dense":
                size = self.DENSE_SIZES[dense % len(self.DENSE_SIZES)]
                dense += 1
                game = BimatrixGame(rng.integers(0, 10, (size, size)).astype(float),
                                    rng.integers(0, 10, (size, size)).astype(float),
                                    name=f"dense{size}-{index}-{position}")
                key = f"{game.name}@{seed}"
            else:
                name = self.LIBRARY[int(rng.integers(len(self.LIBRARY)))]
                game = f"library:{name}"
                key = f"{name}@{seed}"
            mix.append((key, game, seed))
        return [(key, game, seed, SolveRequest(game=game, policy="cnash",
                                               num_runs=self.RUNS, seed=seed,
                                               config=self.CONFIG))
                for key, game, seed in mix]

    async def _closed_loop(self, index: int, requests) -> List[Job]:
        """Each connection sends its next request when the previous one returns."""
        jobs: List[Optional[Job]] = [None] * len(requests)
        cursor = iter(range(len(requests)))

        async def connection(client) -> None:
            for position in cursor:
                key, game, seed, request = requests[position]
                start = time.perf_counter()
                try:
                    outcome = await client.solve(request)
                except Exception as exc:  # noqa: BLE001 - counted as a failed job
                    jobs[position] = Job(round=index, backend="cnash", game=game,
                                         latency_s=time.perf_counter() - start,
                                         key=key, error=f"{type(exc).__name__}: {exc}")
                    continue
                job = _outcome_job(index, request.game, outcome,
                                   time.perf_counter() - start, self.CONFIG, self.RUNS,
                                   key, outcome.trace)
                job.seed = seed
                job.started = start
                jobs[position] = job

        await asyncio.gather(*(connection(client) for client in self.clients))
        return jobs

    def run_round(self, index: int) -> List[Job]:
        requests = self._requests(index, self.REQUESTS_PER_ROUND)
        return self.loop.run_until_complete(self._closed_loop(index, requests))

    def traced_rounds(self, count: int) -> List[int]:
        return list(range(count, 2 * count))

    def telemetry(self) -> Dict[str, Any]:
        return self.loop.run_until_complete(self.clients[0].telemetry())

    def replay_check(self, jobs: List[Job]) -> List[str]:
        return _replay([job for job in jobs if job.round == 0], self.CONFIG)

    def install_wire_meter(self, tracer: Tracer) -> None:
        """Count the bytes of every protocol line the traced pass sends and gets."""
        from repro.service.client import ServiceClient

        call = ServiceClient.call
        wire = self.wire

        async def metered(client, message):
            response = await call(client, message)
            wire["request"] += len(json.dumps(message)) + 1
            wire["response"] += len(json.dumps(response)) + 1
            return response

        tracer.patch(ServiceClient, "call", call, metered)

    def layer_metrics(self, tracer, wall, before, after, jobs):
        """Round trips overlap (two connections), so their covered time is split
        over wire and server-side layers in proportion to summed per-request time."""
        done = [job for job in jobs if job.error is None]
        phases = batch_phases(job.trace for job in done if job.trace)
        wire_ms = []
        for job in done:
            server = sum((phase["end_ms"] - phase["start_ms"]) / 1000.0
                         for phase in job.trace or [] if phase.get("depth", 0) == 0)
            wire_ms.append((job.latency_s - server) * 1000.0)
        busy = _union([(job.started, job.started + job.latency_s) for job in done])
        metrics = _service_layers(
            before, after, phases, busy,
            shares_extra={"service.wire_s": sum(wire_ms) / 1000.0,
                          "service.queue_s": sum(phases["queue_ms"]) / 1000.0},
            kernel_busy=family_delta(before, after, "repro_kernel_seconds", "sum"),
        )
        metrics.update({
            "service.wire_request_bytes": self.wire["request"],
            "service.wire_response_bytes": self.wire["response"],
            "service.wire_overhead_ms_p50": statistics.median(wire_ms) if wire_ms else 0.0,
            "bench.unattributed_s": wall - busy,
        })
        return metrics

    def close(self) -> None:
        """Stop the server with the ``shutdown`` op while a second connection is open.

        The server prints an asyncio ``CancelledError`` traceback for the
        connection that is still open; that is recorded
        (``shutdown_traceback``), not suppressed.
        """
        if self.server is None:
            return
        try:
            if self.clients and self.server.poll() is None:
                self.loop.run_until_complete(self.clients[0].shutdown())
                self.server.wait(timeout=60)
        finally:
            for client in self.clients:
                try:
                    self.loop.run_until_complete(client.close())
                except OSError:
                    pass
            self.loop.close()
            if self.server.poll() is None:
                # Its own session: the kill reaches the worker pool too.
                os.killpg(self.server.pid, signal.SIGKILL)
                self.server.wait(timeout=30)
            self._drain.join(timeout=10)
            self.server.stdout.close()
            self.server.stderr.close()
        self.shutdown_traceback = any("CancelledError" in line for line in self.stderr)


def _union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


WORKLOADS = {cls.name: cls for cls in (Table1, Solve64, Sweep64, TcpMixed)}
