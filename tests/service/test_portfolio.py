"""Tests for multi-backend dispatch and the shard plan."""

from __future__ import annotations

import pytest

from repro.backends import profiles_from_wire
from repro.core.config import CNashConfig
from repro.games.equilibrium import is_epsilon_equilibrium
from repro.games.library import battle_of_the_sexes, paper_benchmark_games
from repro.service.jobs import SolveRequest
from repro.service.portfolio import (
    execute_request,
    execute_request_payload,
    shard_payloads,
    solve_shard_payload,
)

FAST = CNashConfig(num_intervals=4, num_iterations=300)


def request_for(game, policy="cnash", **overrides) -> SolveRequest:
    params = dict(game=game, policy=policy, num_runs=10, seed=0, config=FAST)
    params.update(overrides)
    return SolveRequest(**params)


class TestExactBackend:
    def test_exact_finds_all_bos_equilibria(self):
        outcome = execute_request(request_for(battle_of_the_sexes(), policy="exact"))
        assert outcome.backend == "exact/support-enumeration"
        assert outcome.num_equilibria == 3
        assert outcome.batch is None

    def test_exact_profiles_verify(self):
        game = battle_of_the_sexes()
        outcome = execute_request(request_for(game, policy="exact"))
        for profile in profiles_from_wire(outcome.equilibria):
            assert is_epsilon_equilibrium(game, profile.p, profile.q, 1e-6)


class TestCnashBackend:
    def test_outcome_carries_the_batch(self):
        request = request_for(battle_of_the_sexes(), num_runs=8)
        outcome = execute_request(request)
        batch = outcome.batch_result()
        assert batch is not None
        assert batch.num_runs == 8
        assert outcome.success_rate == batch.success_rate
        assert outcome.fingerprint == request.fingerprint()

    def test_payload_entry_point_round_trips(self):
        request = request_for(battle_of_the_sexes(), num_runs=4)
        outcome_dict = execute_request_payload(request.to_dict())
        assert outcome_dict["policy"] == "cnash"
        assert len(outcome_dict["batch"]["runs"]) == 4


class TestPortfolioPolicy:
    @pytest.mark.parametrize("game", paper_benchmark_games(), ids=lambda g: g.name)
    def test_returns_a_verified_equilibrium_for_every_paper_game(self, game):
        request = request_for(game, policy="portfolio", num_runs=6)
        outcome = execute_request(request)
        assert outcome.policy == "portfolio"
        assert outcome.num_equilibria >= 1
        profiles = profiles_from_wire(outcome.equilibria)
        # At least one reported profile must verify at a tolerance
        # matching the backend that produced it.
        epsilon = 1e-6 if outcome.backend.startswith("exact/") else 1.5
        assert any(
            is_epsilon_equilibrium(game, profile.p, profile.q, epsilon)
            for profile in profiles
        )

    def test_portfolio_prefers_exact_on_small_games(self):
        outcome = execute_request(request_for(battle_of_the_sexes(), policy="portfolio"))
        assert outcome.backend.startswith("exact/")
        # The outcome is reported under the *requested* policy and fingerprint.
        assert outcome.policy == "portfolio"
        assert outcome.fingerprint == request_for(
            battle_of_the_sexes(), policy="portfolio"
        ).fingerprint()


class TestShardPlan:
    def test_sizes_cover_the_budget_exactly(self):
        request = request_for(battle_of_the_sexes(), num_runs=10)
        payloads = shard_payloads(request, shard_size=4)
        assert [p["shard_runs"] for p in payloads] == [4, 4, 2]

    def test_seeds_depend_only_on_request_and_index(self):
        request = request_for(battle_of_the_sexes(), num_runs=10)
        first = shard_payloads(request, shard_size=4)
        second = shard_payloads(request, shard_size=4)
        assert [p["shard_seed"] for p in first] == [p["shard_seed"] for p in second]
        # Distinct shards get distinct derived seeds.
        seeds = [p["shard_seed"] for p in first]
        assert len(set(seeds)) == len(seeds)

    def test_unseeded_requests_stay_unseeded(self):
        request = request_for(battle_of_the_sexes(), seed=None, use_cache=False, num_runs=5)
        payloads = shard_payloads(request, shard_size=2)
        assert all(p["shard_seed"] is None for p in payloads)

    def test_shard_execution_matches_direct_solve(self):
        request = request_for(battle_of_the_sexes(), num_runs=6)
        payloads = shard_payloads(request, shard_size=6)
        assert len(payloads) == 1
        shard_batch = solve_shard_payload(payloads[0])
        assert len(shard_batch["runs"]) == 6

    def test_invalid_shard_size_rejected(self):
        with pytest.raises(ValueError, match="shard_size"):
            shard_payloads(request_for(battle_of_the_sexes()), shard_size=0)
