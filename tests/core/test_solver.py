"""Tests for CNashConfig, the two-phase SA controller and CNashSolver."""

import numpy as np
import pytest

from repro.core import (
    CNashConfig,
    CNashSolver,
    IdealEvaluator,
    PAPER_ITERATIONS,
    PAPER_NUM_RUNS,
    QuantizedStrategyPair,
    TwoPhaseAnnealingProblem,
    run_two_phase_sa,
)
from repro.games import battle_of_the_sexes, prisoners_dilemma, support_enumeration
from repro.hardware import IDEAL_VARIABILITY


class TestCNashConfig:
    def test_defaults_valid(self):
        config = CNashConfig()
        assert config.num_intervals == 8
        assert config.schedule().temperature(0, 10) == pytest.approx(config.initial_temperature)

    def test_validation(self):
        with pytest.raises(ValueError):
            CNashConfig(num_intervals=0)
        with pytest.raises(ValueError):
            CNashConfig(num_iterations=0)
        with pytest.raises(ValueError):
            CNashConfig(initial_temperature=0.0)
        with pytest.raises(ValueError):
            CNashConfig(initial_temperature=0.1, final_temperature=1.0)
        with pytest.raises(ValueError):
            CNashConfig(pure_start_bias=2.0)
        with pytest.raises(ValueError):
            CNashConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            CNashConfig(adc_bits=0)

    def test_effective_epsilon_explicit_wins(self):
        config = CNashConfig(epsilon=0.123)
        assert config.effective_epsilon(payoff_scale=100.0) == 0.123

    def test_effective_epsilon_scales_with_payoff_and_intervals(self):
        coarse = CNashConfig(num_intervals=4).effective_epsilon(2.0)
        fine = CNashConfig(num_intervals=16).effective_epsilon(2.0)
        assert coarse > fine

    def test_paper_constants(self):
        assert PAPER_NUM_RUNS == 5000
        assert PAPER_ITERATIONS["Battle of the Sexes"] == 10_000


class TestTwoPhaseSA:
    def test_run_returns_low_objective_on_bos(self, bos):
        config = CNashConfig(num_intervals=4, num_iterations=1500)
        run = run_two_phase_sa(IdealEvaluator(bos), config, seed=0)
        assert run.best_objective <= 0.5
        assert run.best_state.p_counts.sum() == 4

    def test_initial_state_respected(self, bos):
        config = CNashConfig(num_intervals=4, num_iterations=1)
        start = QuantizedStrategyPair(np.array([4, 0]), np.array([4, 0]), 4)
        run = run_two_phase_sa(IdealEvaluator(bos), config, seed=0, initial_state=start)
        # The starting state is already the equilibrium, so the best cannot be worse.
        assert run.best_objective == pytest.approx(0.0, abs=1e-12)

    def test_problem_energy_matches_evaluator(self, bos):
        evaluator = IdealEvaluator(bos)
        problem = TwoPhaseAnnealingProblem(evaluator, num_intervals=4)
        state = QuantizedStrategyPair(np.array([2, 2]), np.array([2, 2]), 4)
        assert problem.energy(state) == pytest.approx(evaluator.evaluate(state))

    def test_problem_initial_state_shape(self, bird, rng):
        problem = TwoPhaseAnnealingProblem(IdealEvaluator(bird), num_intervals=6)
        state = problem.initial_state(rng)
        assert state.p_counts.shape == (3,)
        assert state.q_counts.shape == (3,)


class TestCNashSolver:
    def test_solve_returns_classified_result(self, bos, fast_config):
        solver = CNashSolver(bos, fast_config)
        result = solver.solve(seed=0)
        assert result.classification in ("pure", "mixed", "error")
        assert result.iterations == fast_config.num_iterations
        assert 0.0 <= result.acceptance_rate <= 1.0

    def test_solve_batch_success_rate_high_on_bos(self, bos):
        solver = CNashSolver(bos, CNashConfig(num_intervals=4, num_iterations=1000))
        batch = solver.solve_batch(num_runs=20, seed=0)
        assert batch.success_rate >= 0.9
        assert batch.num_runs == 20
        assert batch.wall_clock_seconds > 0

    def test_batch_reproducible_from_seed(self, bos, fast_config):
        solver = CNashSolver(bos, fast_config)
        a = solver.solve_batch(num_runs=5, seed=3)
        b = solver.solve_batch(num_runs=5, seed=3)
        assert [run.best_objective for run in a.runs] == [run.best_objective for run in b.runs]

    def test_invalid_num_runs(self, bos, fast_config):
        solver = CNashSolver(bos, fast_config)
        with pytest.raises(ValueError, match="num_runs"):
            solver.solve_batch(num_runs=0)
        with pytest.raises(ValueError, match="num_runs"):
            solver.solve_batch(num_runs=-5)
        with pytest.raises(ValueError, match="num_runs"):
            solver.solve_batch(num_runs=2.5)
        with pytest.raises(ValueError, match="num_runs"):
            solver.solve_batch(num_runs=True)
        with pytest.raises(ValueError, match="num_runs"):
            solver.solve_batch(num_runs="10")

    def test_finds_all_bos_equilibria_including_mixed(self, bos):
        solver = CNashSolver(bos, CNashConfig(num_intervals=6, num_iterations=2000))
        batch = solver.solve_batch(num_runs=40, seed=1)
        found = solver.distinct_solutions(batch)
        ground_truth = support_enumeration(bos)
        assert ground_truth.count_found(list(found), atol=0.1) == 3
        fractions = batch.classification_fractions()
        assert fractions["mixed"] > 0.0

    def test_prisoners_dilemma_unique_solution(self, pd):
        solver = CNashSolver(pd, CNashConfig(num_intervals=4, num_iterations=800))
        batch = solver.solve_batch(num_runs=10, seed=2)
        assert batch.success_rate == 1.0
        found = solver.distinct_solutions(batch)
        assert len(found) == 1
        np.testing.assert_allclose(found.profiles[0].p, [0.0, 1.0])

    def test_hardware_solver_also_succeeds(self, bos):
        config = CNashConfig(num_intervals=4, num_iterations=800, use_hardware=True)
        solver = CNashSolver(bos, config, variability=IDEAL_VARIABILITY, seed=5)
        batch = solver.solve_batch(num_runs=5, seed=0)
        assert batch.success_rate >= 0.8

    def test_verify_uses_solver_epsilon(self, bos, fast_config):
        solver = CNashSolver(bos, fast_config)
        from repro.games import StrategyProfile

        assert solver.verify(StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        assert not solver.verify(
            StrategyProfile(np.array([1.0, 0.0]), np.array([0.0, 1.0])), epsilon=1e-6
        )

    def test_time_to_solution_positive_when_successful(self, bos, fast_config):
        solver = CNashSolver(bos, fast_config)
        batch = solver.solve_batch(num_runs=10, seed=0)
        time_to_solution = solver.time_to_solution_s(batch)
        assert time_to_solution is not None
        assert time_to_solution > 0

    def test_time_to_solution_none_without_successes(self, bos, fast_config):
        solver = CNashSolver(bos, fast_config)
        batch = solver.solve_batch(num_runs=3, seed=0)
        for run in batch.runs:
            run.is_equilibrium = False
            run.classification = "error"
        assert solver.time_to_solution_s(batch) is None

    def test_timing_model_shape(self, bird, fast_config):
        solver = CNashSolver(bird, fast_config)
        model = solver.timing_model()
        assert model.num_row_actions == 3
        assert model.num_col_actions == 3


class TestSolverResultTypes:
    def test_classification_fractions_sum_to_one(self, bos, fast_config):
        solver = CNashSolver(bos, fast_config)
        batch = solver.solve_batch(num_runs=8, seed=0)
        fractions = batch.classification_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_mean_iterations_to_solution(self, bos, fast_config):
        solver = CNashSolver(bos, fast_config)
        batch = solver.solve_batch(num_runs=8, seed=0)
        mean_iterations = batch.mean_iterations_to_solution()
        assert mean_iterations is None or mean_iterations >= 0

    def test_successful_profiles_only_contains_equilibria(self, bos, fast_config):
        solver = CNashSolver(bos, fast_config)
        batch = solver.solve_batch(num_runs=8, seed=0)
        for profile in batch.successful_profiles:
            assert solver.verify(profile)


class TestDeviceSeed:
    """The hardware instance and the SA chains never share a bitstream."""

    def test_device_stream_differs_from_chain_stream(self):
        from repro.core.solver import _device_generator

        for seed in (0, 7, 2**40):
            assert _device_generator(seed).random() != np.random.default_rng(seed).random()
        sequence = np.random.SeedSequence(7)
        assert _device_generator(sequence).random() == _device_generator(7).random()

    def test_same_seed_programs_identical_hardware(self, bos):
        from repro.hardware import BiCrossbar

        config = CNashConfig(num_intervals=4, use_hardware=True)
        a, b = (CNashSolver(bos, config, seed=3).evaluator.bicrossbar for _ in "ab")
        aliased = BiCrossbar(bos, num_intervals=4, seed=3)
        for name in ("row_crossbar", "col_crossbar"):
            tensor = getattr(a, name)._block_cumulative
            np.testing.assert_array_equal(tensor, getattr(b, name)._block_cumulative)
            assert not np.array_equal(tensor, getattr(aliased, name)._block_cumulative)

    def test_generator_seed_used_as_is(self, bos):
        rng = np.random.default_rng(5)
        config = CNashConfig(num_intervals=4, use_hardware=True)
        solver = CNashSolver(bos, config, seed=rng)
        assert solver.evaluator.bicrossbar._rng is rng
