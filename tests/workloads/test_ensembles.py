"""Tests for EnsembleSpec and the api.sweep streaming path."""

from __future__ import annotations

import json
import pickle

import pytest

import repro.api as api
from repro.backends import SolveSpec
from repro.core.config import CNashConfig
from repro.games.spec import GameSpec
from repro.service.client import InProcessClient
from repro.telemetry import set_enabled
from repro.workloads import EnsembleSpec, ensemble_or_specs

FAST = CNashConfig(num_intervals=4, num_iterations=120)


class TestEnsembleSpec:
    def test_length_is_grid_times_seeds(self):
        ensemble = EnsembleSpec(
            generator="random",
            grid={"num_row_actions": [2, 3, 4], "num_col_actions": [2, 3]},
            seeds=5,
        )
        assert len(ensemble) == 3 * 2 * 5

    def test_specs_enumerate_deterministically(self):
        ensemble = EnsembleSpec(
            generator="random",
            grid={"num_row_actions": [2, 3]},
            seeds=range(2),
        )
        specs = list(ensemble)
        assert len(specs) == len(ensemble)
        assert len(set(spec.fingerprint() for spec in specs)) == len(specs)
        # Insertion order of grid keys must not matter.
        swapped = EnsembleSpec(
            generator="random",
            grid={"num_row_actions": [2, 3]},
            seeds=[0, 1],
        )
        assert [s.fingerprint() for s in swapped] == [s.fingerprint() for s in specs]

    def test_specs_are_lazy(self):
        huge = EnsembleSpec(
            generator="random",
            grid={"num_row_actions": list(range(2, 102))},
            seeds=1000,
        )
        assert len(huge) == 100_000
        iterator = iter(huge)
        first = next(iterator)
        assert isinstance(first, GameSpec)  # no other spec was built yet

    def test_base_params_and_transforms_propagate(self):
        ensemble = EnsembleSpec(
            generator="random",
            grid={"num_row_actions": [3]},
            seeds=1,
            base_params={"integer_payoffs": True},
            transforms=(("shifted", {}),),
        )
        spec = next(iter(ensemble))
        assert spec.params["integer_payoffs"] is True
        assert spec.transforms[0].op == "shifted"

    def test_grid_base_param_overlap_rejected(self):
        with pytest.raises(ValueError, match="both grid and base_params"):
            EnsembleSpec(
                generator="random",
                grid={"num_row_actions": [2]},
                base_params={"num_row_actions": 4},
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            EnsembleSpec(generator="random", grid={"num_row_actions": []})

    def test_unknown_generator_rejected(self):
        with pytest.raises(KeyError, match="unknown generator"):
            EnsembleSpec(generator="nope", grid={})

    def test_missing_required_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="requires parameter.*num_row_actions"):
            EnsembleSpec(generator="random", grid={"integer_payoffs": [True]})

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            EnsembleSpec(generator="zero_sum", grid={"num_actions": [2]},
                         base_params={"payoff_floor": 0.0})

    def test_wire_round_trip(self):
        ensemble = EnsembleSpec(
            generator="zero_sum",
            grid={"num_actions": [2, 4]},
            seeds=[7, 8],
            name="zs",
        )
        rebuilt = EnsembleSpec.from_dict(json.loads(json.dumps(ensemble.to_dict())))
        assert rebuilt == ensemble
        assert [s.fingerprint() for s in rebuilt] == [s.fingerprint() for s in ensemble]

    def test_pickle_round_trip(self):
        ensemble = EnsembleSpec(generator="random", grid={"num_row_actions": [2]}, seeds=2)
        assert pickle.loads(pickle.dumps(ensemble)) == ensemble

    def test_ensemble_or_specs_accepts_mixed_iterables(self):
        specs = list(ensemble_or_specs(["library:chicken", GameSpec.library("stag_hunt")]))
        assert [spec.name for spec in specs] == ["chicken", "stag_hunt"]


class _RecordingClient:
    """Fake submit/result client that records the in-flight window."""

    def __init__(self):
        self.unresolved = 0
        self.max_unresolved = 0
        self.submitted = []

    def submit(self, request):
        self.unresolved += 1
        self.max_unresolved = max(self.max_unresolved, self.unresolved)
        job_id = f"job-{len(self.submitted)}"
        self.submitted.append((job_id, request))
        return job_id

    def result(self, job_id):
        from repro.service.jobs import SolveOutcome

        self.unresolved -= 1
        return SolveOutcome(
            fingerprint="0" * 64, policy="exact", backend="exact/fake",
            success_rate=1.0, equilibria=[],
        )


class _BulkRecordingClient(_RecordingClient):
    """The recording client with the bulk submit/collect calls sweep prefers."""

    def submit_many(self, requests):
        return [self.submit(request) for request in requests]

    def results(self, job_ids, return_exceptions=False):
        return [self.result(job_id) for job_id in job_ids]


class TestSweep:
    def test_sweep_through_scheduler_with_cache(self):
        ensemble = EnsembleSpec(
            generator="random",
            grid={"num_row_actions": [2, 3]},
            seeds=3,
        )
        spec = SolveSpec(num_runs=4, seed=5, options={"config": FAST})
        with InProcessClient(executor="thread", max_workers=2, shard_size=4) as client:
            first = api.sweep(ensemble, backends="cnash", spec=spec, client=client,
                              max_in_flight=3)
            second = api.sweep(ensemble, backends="cnash", spec=spec, client=client,
                               max_in_flight=3)
            # With telemetry off the registry counts nothing, so the
            # sweep reports the hit count as unknown rather than zero.
            set_enabled(False)
            try:
                blind = api.sweep(ensemble, backends="cnash", spec=spec, client=client,
                                  max_in_flight=3)
            finally:
                set_enabled(True)
        assert first.num_games == len(ensemble)
        assert first.num_jobs == len(ensemble)
        assert first.cache_hits == 0
        assert all(report.success_rate >= 0.0 for report in first.reports)
        # Spec-keyed cache: the identical repeat recomputes nothing.
        assert second.cache_hits == len(ensemble)
        assert second.cache_hit_rate == 1.0
        assert blind.cache_hits is None
        assert blind.cache_hit_rate is None
        assert blind.num_jobs == len(ensemble)
        # Results are identical across the two passes.
        for a, b in zip(first.reports, second.reports):
            assert [p.p.tolist() for p in a.equilibria] == [p.p.tolist() for p in b.equilibria]

    def test_sweep_cache_hits_follow_the_serving_registry(self):
        # A remote client's counts come from the server's registry, so
        # the snapshot's own switch and families decide, not this
        # process's switch.
        ensemble = EnsembleSpec(generator="random", grid={"num_row_actions": [2]}, seeds=2)
        spec = SolveSpec(num_runs=4, seed=5, options={"config": FAST})

        class _ServerSnapshotClient:
            def __init__(self, inner, edit):
                self._inner, self._edit = inner, edit

            def submit(self, *args, **kwargs):
                return self._inner.submit(*args, **kwargs)

            def result(self, *args, **kwargs):
                return self._inner.result(*args, **kwargs)

            def telemetry(self):
                return self._edit(self._inner.telemetry())

        def server_disabled(snapshot):
            return {**snapshot, "enabled": False}

        def old_server(snapshot):
            return {"families": {}}

        with InProcessClient(executor="thread", max_workers=2, shard_size=4) as inner:
            for edit in (server_disabled, old_server):
                result = api.sweep(ensemble, backends="cnash", spec=spec,
                                   client=_ServerSnapshotClient(inner, edit))
                assert result.num_jobs == len(ensemble)
                assert result.cache_hits is None

    def test_sweep_multiple_backends(self):
        ensemble = EnsembleSpec(generator="random", grid={"num_row_actions": [2]}, seeds=2)
        spec = SolveSpec(num_runs=4, seed=1, options={"config": FAST})
        with InProcessClient(executor="thread", max_workers=2, shard_size=4) as client:
            result = api.sweep(ensemble, backends=["cnash", "exact"], spec=spec,
                               client=client, max_in_flight=4)
        assert result.num_games == 2
        assert result.num_jobs == 4
        assert len(result.reports_for("cnash")) == 2
        assert len(result.reports_for("exact")) == 2

    def test_sweep_bounds_in_flight_jobs(self):
        ensemble = EnsembleSpec(generator="random", grid={"num_row_actions": [2]}, seeds=20)
        for client_type in (_RecordingClient, _BulkRecordingClient):
            for max_in_flight in (1, 4, 5):
                client = client_type()
                api.sweep(ensemble, backends="exact", spec=SolveSpec(seed=0),
                          client=client, max_in_flight=max_in_flight)
                assert len(client.submitted) == 20
                assert client.max_unresolved <= max_in_flight

    def test_sweep_reports_independent_of_window(self):
        ensemble = EnsembleSpec(generator="random", grid={"num_row_actions": [8]},
                                seeds=64)
        spec = SolveSpec(num_runs=2, seed=3, options={"config": FAST})

        def canon(report):
            data = report.to_dict()
            data.pop("wall_clock_seconds")
            data["metadata"].pop("trace", None)
            data["batch"].pop("wall_clock_seconds")
            return data

        sweeps = {}
        for max_in_flight in (1, 32):
            with InProcessClient(executor="thread", max_workers=2) as client:
                sweeps[max_in_flight] = api.sweep(
                    ensemble, backends="cnash", spec=spec, client=client,
                    max_in_flight=max_in_flight, keep_batches=True,
                )
        assert sweeps[1].num_jobs == sweeps[32].num_jobs == 64
        assert [canon(r) for r in sweeps[1].reports] == [canon(r) for r in sweeps[32].reports]

    def test_sweep_ships_specs_not_matrices(self):
        client = _RecordingClient()
        ensemble = EnsembleSpec(generator="random", grid={"num_row_actions": [16]}, seeds=3)
        api.sweep(ensemble, backends="exact", spec=SolveSpec(seed=0), client=client)
        for _, request in client.submitted:
            wire = request.to_dict()
            assert "game" not in wire
            assert wire["game_spec"]["name"] == "random"
            assert len(json.dumps(wire["game_spec"])) < 150

    def test_sweep_drops_batches_by_default(self):
        ensemble = EnsembleSpec(generator="random", grid={"num_row_actions": [2]}, seeds=1)
        spec = SolveSpec(num_runs=4, seed=2, options={"config": FAST})
        with InProcessClient(executor="thread", max_workers=1, shard_size=4) as client:
            slim = api.sweep(ensemble, backends="cnash", spec=spec, client=client)
            fat = api.sweep(ensemble, backends="cnash", spec=spec, client=client,
                            keep_batches=True)
        assert slim.reports[0].batch is None
        assert fat.reports[0].batch is not None

    def test_sweep_accepts_plain_iterables_and_owns_client(self):
        result = api.sweep(
            ["library:chicken", "library:stag_hunt"],
            backends="exact",
            spec=SolveSpec(seed=0),
            max_in_flight=2,
        )
        assert result.num_games == 2
        assert all(report.num_equilibria >= 1 for report in result.reports)

    def test_sweep_rejects_solve_only_clients(self):
        class SolveOnly:
            def solve(self, request):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(TypeError, match="submit/result-capable"):
            api.sweep([], client=SolveOnly())

    def test_sweep_validates_arguments(self):
        with pytest.raises(ValueError, match="at least one backend"):
            api.sweep([], backends=[])
        with pytest.raises(ValueError, match="max_in_flight"):
            api.sweep([], max_in_flight=0)
