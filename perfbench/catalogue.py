"""The benchmark's named workloads and metrics, as data.

``BENCHMARK.json`` at the repository root lists the same names with
their units and bounds; :func:`check_manifest` keeps the two in step.
This module adds what that file has no room for: for every workload the
layers it loads and bypasses, and for every per-layer metric the layer
it reads and the end-to-end metric (on which workload) it should move.
Later performance work cites these names instead of prose.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

#: Layers each workload loads and bypasses (why it was chosen is its
#: ``why`` in ``BENCHMARK.json``).
WORKLOADS: Dict[str, Dict[str, List[str]]] = {
    "table1": {
        "loads": ["api", "backends", "core", "annealing (legacy engine for C-Nash, "
                  "fused for S-QUBO)", "hardware", "qubo", "baselines", "games"],
        "bypasses": ["service", "wire"],
    },
    "solve64": {
        "loads": ["api", "backends", "core", "annealing (fused, delta)", "games"],
        "bypasses": ["service", "wire", "hardware", "qubo", "baselines"],
    },
    "sweep64": {
        "loads": ["api.sweep", "service scheduler (batch path)", "service cache "
                  "(writes)", "games (worker materialise)", "annealing (fused "
                  "multi-game)"],
        "bypasses": ["wire", "hardware", "qubo", "baselines"],
    },
    "tcp_mixed": {
        "loads": ["service wire", "server dispatch", "service scheduler (solo "
                  "path)", "service cache (reads and writes)", "shm",
                  "annealing"],
        "bypasses": ["hardware", "qubo", "baselines", "api.sweep"],
    },
}

#: name -> (unit, better).  Reported by every untraced run.
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower"),
    "runs_per_s": ("runs/s", "higher"),
    "jobs_per_s": ("jobs/s", "higher"),
    "job_latency_p50_ms": ("ms", "lower"),
    "job_latency_p99_ms": ("ms", "lower"),
    "cnash_tts_ms": ("ms", "lower"),
    "cnash_success_rate": ("ratio", "higher"),
    "distinct_equilibria": ("count", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better, layer entry points, should move).  Reported by
#: every traced run; a layer a workload bypasses reads 0.
PER_LAYER: Dict[str, tuple] = {
    "annealing.kernel_s": ("s", "lower", "FusedAnnealer.run/.run_multi, "
                           "VectorizedAnnealer.run; worker kernel spans",
                           "runs_per_s, cnash_tts_ms on solve64; jobs_per_s on sweep64"),
    "annealing.fused_s": ("s", "lower", "FusedAnnealer.run/.run_multi",
                          "runs_per_s on solve64"),
    "annealing.legacy_s": ("s", "lower", "VectorizedAnnealer.run",
                           "runs_per_s on table1"),
    "annealing.launches": ("count", "lower", "repro_kernel_launches_total",
                           "jobs_per_s on sweep64"),
    "annealing.proposals": ("count", "higher", "repro_kernel_proposals_total",
                            "runs_per_s on solve64"),
    "annealing.proposals_per_s": ("1/s", "higher", "proposals / kernel busy seconds",
                                  "runs_per_s on solve64; jobs_per_s on sweep64"),
    "annealing.accept_ratio": ("ratio", "higher", "repro_kernel_accepted_total",
                               "cnash_success_rate on solve64"),
    "annealing.resyncs": ("count", "lower", "repro_kernel_resyncs_total",
                          "runs_per_s on solve64"),
    "hardware.program_s": ("s", "lower", "BiCrossbar(...) inside CNashSolver",
                           "runs_per_s on table1"),
    "hardware.evaluate_calls": ("count", "lower", "BiCrossbar.evaluate_batch",
                                "runs_per_s on table1"),
    "hardware.candidates": ("count", "higher", "BiCrossbar.evaluate_batch rows",
                            "runs_per_s on table1"),
    "hardware.evaluate_s": ("s", "lower", "BiCrossbar.evaluate_batch",
                            "runs_per_s, cnash_tts_ms on table1"),
    "qubo.build_s": ("s", "lower", "build_s_qubo", "runs_per_s on table1"),
    "baselines.sample_s": ("s", "lower", "DWaveLikeSolver.sample_batch",
                           "runs_per_s on table1"),
    "baselines.samples": ("count", "higher", "DWaveLikeSolver.sample_batch",
                          "runs_per_s on table1"),
    "baselines.squbo_success_rate": ("ratio", "higher", "S-QUBO reports, verified",
                                     "none; the baseline's quality (paper Table 1)"),
    "games.materialize_calls": ("count", "lower", "GameSpec.materialize; worker spans",
                                "jobs_per_s on sweep64"),
    "games.materialize_s": ("s", "lower", "GameSpec.materialize; worker spans",
                            "jobs_per_s on sweep64"),
    "games.matcache_hit_ratio": ("ratio", "higher", "repro_matcache_*",
                                 "jobs_per_s on sweep64"),
    "games.classify_calls": ("count", "lower", "classify_profile",
                             "runs_per_s on solve64"),
    "games.classify_s": ("s", "lower", "classify_profile", "runs_per_s on solve64"),
    "games.distinct_s": ("s", "lower", "EquilibriumSet.from_profiles",
                         "runs_per_s on table1"),
    "core.self_s": ("s", "lower", "CNashSolver.solve_batch, solve_shards_fused",
                    "runs_per_s on solve64"),
    "backends.self_s": ("s", "lower", "Backend.solve", "jobs_per_s on sweep64"),
    "api.self_s": ("s", "lower", "api.solve, api.sweep", "jobs_per_s on sweep64"),
    "service.submit_s": ("s", "lower", "InProcessClient.submit_many",
                         "jobs_per_s, job_latency_p50_ms on sweep64"),
    "service.queue_s": ("s", "lower", "trace phase queue (tcp_mixed)",
                        "job_latency_p99_ms on tcp_mixed"),
    "service.queue_wait_ms_p50": ("ms", "lower", "trace phase queue",
                                  "job_latency_p50_ms on sweep64"),
    "service.coalesce_s": ("s", "lower", "trace phases coalesce and shm",
                           "jobs_per_s on sweep64"),
    "service.batches": ("count", "lower", "repro_scheduler_batches_dispatched_total",
                        "jobs_per_s on sweep64"),
    "service.jobs_per_batch": ("count", "higher", "repro_scheduler_batch_jobs",
                               "jobs_per_s on sweep64"),
    "service.run_s": ("s", "lower", "trace phase run, once per batch",
                      "jobs_per_s on sweep64; job_latency_p99_ms on tcp_mixed"),
    "service.run_unattributed_s": ("s", "lower", "run minus its worker sub-spans",
                                   "jobs_per_s on sweep64"),
    "service.settle_s": ("s", "lower", "trace phase settle",
                         "job_latency_p50_ms on sweep64"),
    "service.retries": ("count", "lower", "repro_resilience_retries_total",
                        "failed_share everywhere"),
    "service.jobs_failed": ("count", "lower", "repro_scheduler_jobs_failed_total",
                            "failed_share everywhere"),
    "service.cache_hit_ratio": ("ratio", "higher", "repro_cache_*",
                                "jobs_per_s, job_latency_p50_ms on tcp_mixed"),
    "service.cache_stores": ("count", "lower", "repro_cache_stores_total",
                             "jobs_per_s on tcp_mixed"),
    "service.cache_evictions": ("count", "lower", "repro_cache_evictions_total",
                                "jobs_per_s on tcp_mixed"),
    "service.coalesced_jobs": ("count", "higher", "repro_scheduler_jobs_coalesced_total",
                               "jobs_per_s on tcp_mixed"),
    "service.shm_segments": ("count", "lower", "repro_shm_segments_total",
                             "job_latency_p50_ms on tcp_mixed"),
    "service.shm_bytes": ("bytes", "lower", "repro_shm_bytes_total",
                          "job_latency_p50_ms on tcp_mixed"),
    "service.wire_request_bytes": ("bytes", "lower", "ServiceClient.call request lines",
                                   "job_latency_p50_ms on tcp_mixed"),
    "service.wire_response_bytes": ("bytes", "lower", "ServiceClient.call response lines",
                                    "job_latency_p50_ms on tcp_mixed"),
    "service.wire_overhead_ms_p50": ("ms", "lower", "round trip minus server trace total",
                                     "job_latency_p50_ms on tcp_mixed"),
    "service.wire_s": ("s", "lower", "round trip minus server trace total, summed",
                       "jobs_per_s on tcp_mixed"),
    "bench.trace_overhead": ("ratio", "lower", "traced / untraced wall clock - 1",
                             "none; guards the traced numbers"),
    "bench.unattributed_s": ("s", "lower", "traced wall clock minus all layer self time",
                             "none; guards the traced numbers"),
    "bench.failed_share": ("ratio", "lower", "failed / attempted operations",
                           "none; any failure also fails the run"),
}

#: The per-layer self times that, with ``bench.unattributed_s``, sum to
#: the traced wall clock (the layer-sum check).
SELF_TIME_LAYERS: List[str] = [
    "api.self_s", "backends.self_s", "core.self_s", "annealing.kernel_s",
    "hardware.program_s", "hardware.evaluate_s", "qubo.build_s",
    "baselines.sample_s", "games.materialize_s", "games.classify_s",
    "games.distinct_s", "service.submit_s", "service.queue_s", "service.coalesce_s",
    "service.run_unattributed_s", "service.settle_s", "service.wire_s",
]


def check_manifest(path: Path) -> List[str]:
    """Differences between ``BENCHMARK.json`` and this catalogue (empty = in step)."""
    manifest = json.loads(path.read_text())
    problems = []
    workloads = [item["name"] for item in manifest["workloads"]]
    if workloads != list(WORKLOADS):
        problems.append(f"workloads {workloads} != {list(WORKLOADS)}")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {item["name"]: (item["unit"], item["better"]) for item in manifest[key]}
        expected = {name: row[:2] for name, row in table.items()}
        if listed != expected:
            problems.append(f"{key} differs: {sorted(set(listed) ^ set(expected))} "
                            f"or a unit/direction changed")
    return problems
