"""Byte-compatibility of registry dispatch with the pre-registry solvers.

The unified backend API re-implements ``service/portfolio.py`` on top of
the registry.  These tests pin the contract that the redesign promised:
for a fixed seed, :func:`execute_request` under each built-in policy
string (and the shard-level :func:`solve_cnash`) produces
**byte-identical** ``SolveOutcome`` wire dicts to the pre-registry
implementations, which are re-created inline here from the original
code.  Wall-clock fields are execution-time measurements and are zeroed
on both sides before comparison; everything else must match
byte-for-byte after canonical JSON encoding.
"""

from __future__ import annotations

import time

from repro.backends import profiles_from_wire
from repro.baselines.dwave_like import DWaveLikeSolver
from repro.core.config import CNashConfig
from repro.core.solver import CNashSolver
from repro.games.equilibrium import is_epsilon_equilibrium
from repro.games.library import battle_of_the_sexes, bird_game
from repro.games.support_enumeration import support_enumeration
from repro.service.jobs import SolveOutcome, SolveRequest, canonical_json
from repro.service.portfolio import (
    execute_request,
    execute_request_payload,
    outcome_from_batch,
    solve_cnash,
)

FAST = CNashConfig(num_intervals=4, num_iterations=300)


def request_for(game, policy="cnash", **overrides) -> SolveRequest:
    params = dict(game=game, policy=policy, num_runs=10, seed=0, config=FAST)
    params.update(overrides)
    return SolveRequest(**params)


def normalised_wire(outcome: SolveOutcome) -> str:
    """Canonical JSON of an outcome with timing fields zeroed."""
    payload = outcome.to_dict()
    payload["wall_clock_seconds"] = 0.0
    if payload.get("batch") is not None:
        payload["batch"] = dict(payload["batch"])
        payload["batch"]["wall_clock_seconds"] = 0.0
    return canonical_json(payload)


# ----------------------------------------------------------------------
# The pre-registry implementations, verbatim from the old module
# ----------------------------------------------------------------------
def legacy_profiles_to_wire(profiles):
    return [
        {"p": [float(x) for x in profile.p], "q": [float(x) for x in profile.q]}
        for profile in profiles
    ]


def legacy_cnash_outcome(request: SolveRequest) -> SolveOutcome:
    solver = CNashSolver(request.game, request.config, seed=request.seed)
    batch = solver.solve_batch(num_runs=request.num_runs, seed=request.seed)
    return outcome_from_batch(request, batch, backend="cnash")


def legacy_squbo_outcome(request: SolveRequest) -> SolveOutcome:
    solver = DWaveLikeSolver(request.game, seed=request.seed)
    start = time.perf_counter()
    batch = solver.sample_batch(request.num_runs, seed=request.seed)
    distinct = solver.distinct_solutions(batch)
    return SolveOutcome(
        fingerprint=request.fingerprint(),
        policy=request.policy,
        backend=f"squbo/{solver.machine.name}",
        success_rate=batch.success_rate,
        equilibria=legacy_profiles_to_wire(list(distinct)),
        batch=None,
        shards=1,
        wall_clock_seconds=time.perf_counter() - start,
    )


def legacy_exact_outcome(request: SolveRequest) -> SolveOutcome:
    profiles = list(support_enumeration(request.game))
    return SolveOutcome(
        fingerprint=request.fingerprint(),
        policy=request.policy,
        backend="exact/support-enumeration",
        success_rate=1.0 if profiles else 0.0,
        equilibria=legacy_profiles_to_wire(profiles),
        batch=None,
        shards=1,
        wall_clock_seconds=0.0,
    )


class TestShimByteCompatibility:
    def test_cnash_policy_and_shim(self):
        request = request_for(battle_of_the_sexes())
        expected = normalised_wire(legacy_cnash_outcome(request))
        assert normalised_wire(execute_request(request)) == expected
        # The batch-level shim feeds the same construction path.
        shim_outcome = outcome_from_batch(request, solve_cnash(request), backend="cnash")
        assert normalised_wire(shim_outcome) == expected

    def test_squbo_policy_and_shim(self):
        request = request_for(battle_of_the_sexes(), policy="squbo")
        expected = normalised_wire(legacy_squbo_outcome(request))
        assert normalised_wire(execute_request(request)) == expected

    def test_exact_policy_and_shim(self):
        request = request_for(bird_game(), policy="exact")
        expected = normalised_wire(legacy_exact_outcome(request))
        assert normalised_wire(execute_request(request)) == expected

    def test_portfolio_policy_and_shim(self):
        # On the benchmark games exact wins immediately, so the legacy
        # portfolio outcome is the exact outcome re-labelled as the
        # portfolio request's policy/fingerprint.
        request = request_for(battle_of_the_sexes(), policy="portfolio")
        expected = normalised_wire(legacy_exact_outcome(request))
        assert normalised_wire(execute_request(request)) == expected

    def test_worker_payload_round_trip_matches(self):
        request = request_for(battle_of_the_sexes(), num_runs=4)
        outcome = SolveOutcome.from_dict(execute_request_payload(request.to_dict()))
        assert normalised_wire(outcome) == normalised_wire(legacy_cnash_outcome(
            request_for(battle_of_the_sexes(), num_runs=4)
        ))

    def test_seeded_policies_are_self_deterministic(self):
        for policy in ("cnash", "squbo", "exact", "portfolio"):
            request = request_for(battle_of_the_sexes(), policy=policy, num_runs=5)
            first = normalised_wire(execute_request(request))
            second = normalised_wire(execute_request(request))
            assert first == second, policy

    def test_shim_equilibria_verify(self):
        request = request_for(battle_of_the_sexes(), policy="exact")
        outcome = execute_request(request)
        for profile in profiles_from_wire(outcome.equilibria):
            assert is_epsilon_equilibrium(request.game, profile.p, profile.q, 1e-6)

    def test_squbo_ignores_cnash_config_epsilon(self):
        # Legacy contract: the C-Nash config's epsilon is a C-Nash knob;
        # the pre-registry S-QUBO path always classified at
        # DWaveLikeSolver's default tolerance.  (A backend-agnostic tolerance is the new
        # explicit SolveRequest.epsilon field instead.)
        from repro.games.library import matching_pennies

        loose = CNashConfig(num_intervals=4, num_iterations=300, epsilon=2.5)
        request = request_for(matching_pennies(), policy="squbo", config=loose)
        expected = normalised_wire(legacy_squbo_outcome(request))
        assert normalised_wire(execute_request(request)) == expected

    def test_request_fingerprints_stable_without_epsilon(self):
        # The epsilon field joined the schema later; unset it must leave
        # historical fingerprints (= persisted cache keys) unchanged.
        request = request_for(battle_of_the_sexes())
        assert request.fingerprint() == request_for(battle_of_the_sexes()).fingerprint()
        import dataclasses

        with_epsilon = dataclasses.replace(request, epsilon=0.5)
        assert with_epsilon.fingerprint() != request.fingerprint()
