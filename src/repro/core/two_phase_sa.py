"""The two-phase simulated-annealing controller (Alg. 1).

Each SA iteration consists of two hardware phases (Sec. 3.4):

* **Phase 1** — the crossbars compute the matrix-vector products ``Mq``
  and ``N^T p`` with unit row/column inputs and the WTA trees extract
  ``max(Mq)`` and ``max(N^T p)``;
* **Phase 2** — the crossbars compute the VMV products ``p^T M q`` and
  ``p^T N q`` with the WTA trees deactivated.

The SA logic combines the three terms into the MAX-QUBO objective,
compares it with the recorded value, and accepts or rejects the new
strategy pair with the Metropolis rule at the current temperature
(Alg. 1, lines 8–13).  In this reproduction both phases are performed by
the :class:`~repro.core.max_qubo.ObjectiveEvaluator` (either exact or
through the bi-crossbar model), and this module supplies the annealing
problem definition plus a convenience runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.annealing.engine import AnnealingConfig, AnnealingResult, AnnealingProblem, SimulatedAnnealer
from repro.annealing.vectorized import (
    BatchAnnealingProblem,
    BatchAnnealingResult,
    FusedAnnealer,
    MultiFusedBatchProblem,
    VectorizedAnnealer,
)
from repro.core.config import CNashConfig
from repro.core.max_qubo import IdealEvaluator, ObjectiveEvaluator, TwoPlaneDeltaState
from repro.core.strategy import (
    BatchedStrategyState,
    QuantizedStrategyPair,
    StrategyMoveGenerator,
    TransferSampler,
)
from repro.utils.rng import SeedLike


class TwoPhaseAnnealingProblem(AnnealingProblem[QuantizedStrategyPair]):
    """The MAX-QUBO minimisation over the quantised strategy grid."""

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        num_intervals: int,
        move_generator: Optional[StrategyMoveGenerator] = None,
        pure_start_bias: float = 0.5,
    ) -> None:
        self.evaluator = evaluator
        self.num_intervals = num_intervals
        self.move_generator = move_generator or StrategyMoveGenerator()
        self.pure_start_bias = pure_start_bias
        self._shape = evaluator.game.shape

    def initial_state(self, rng: np.random.Generator) -> QuantizedStrategyPair:
        n, m = self._shape
        return self.move_generator.random_state(
            n, m, self.num_intervals, rng, pure_bias=self.pure_start_bias
        )

    def propose(
        self, state: QuantizedStrategyPair, rng: np.random.Generator
    ) -> QuantizedStrategyPair:
        return self.move_generator.propose(state, rng)

    def energy(self, state: QuantizedStrategyPair) -> float:
        return self.evaluator.evaluate(state)


class BatchTwoPhaseAnnealingProblem(BatchAnnealingProblem[BatchedStrategyState]):
    """Chain-parallel MAX-QUBO minimisation over stacked strategy batches.

    The batched counterpart of :class:`TwoPhaseAnnealingProblem`: all
    chains propose interval-transfer moves and evaluate the objective
    (exactly, or through the batched bi-crossbar datapath) as whole-batch
    array operations.
    """

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        num_intervals: int,
        move_both_players: bool = False,
        pure_start_bias: float = 0.5,
    ) -> None:
        self.evaluator = evaluator
        self.num_intervals = num_intervals
        self.move_both_players = move_both_players
        self.pure_start_bias = pure_start_bias
        self._shape = evaluator.game.shape

    def initial_states(
        self, batch_size: int, rng: np.random.Generator
    ) -> BatchedStrategyState:
        n, m = self._shape
        return BatchedStrategyState.random(
            batch_size, n, m, self.num_intervals, rng, pure_bias=self.pure_start_bias
        )

    def propose_batch(
        self, states: BatchedStrategyState, rng: np.random.Generator
    ) -> BatchedStrategyState:
        return states.transfer_moves(rng, move_both_players=self.move_both_players)

    def energies(self, states: BatchedStrategyState) -> np.ndarray:
        return self.evaluator.evaluate_batch(states)

    def select(
        self,
        mask: np.ndarray,
        accepted: BatchedStrategyState,
        rejected: BatchedStrategyState,
    ) -> BatchedStrategyState:
        return BatchedStrategyState.where(mask, accepted, rejected)

    def unstack(self, states: BatchedStrategyState, index: int) -> QuantizedStrategyPair:
        return states.state(index)


class FusedTwoPhaseProblem(MultiFusedBatchProblem[BatchedStrategyState]):
    """MAX-QUBO minimisation on the fused in-place kernel.

    The chains' interval counts live in a
    :class:`~repro.core.strategy.TransferSampler`'s two-plane buffer;
    every iteration stages one interval-transfer move per chain (sampled
    from pre-drawn block uniforms) and computes candidate energies either

    * ``evaluation="delta"`` — through a
      :class:`~repro.core.max_qubo.TwoPlaneDeltaState` rank-1 cache,
      ``O(B·(n+m))`` per iteration, periodically resynced; or
    * ``evaluation="full"`` — through ``evaluator.evaluate_batch`` on a
      double-buffered candidate state, ``O(B·n·m)`` per iteration.

    Both modes consume identical randomness, so at exactly representable
    payoffs (integer payoffs, power-of-two ``I``) they produce identical
    accept/reject sequences and equilibria.

    ``evaluator`` may also be a sequence of same-shape evaluators, one
    per launch of :meth:`FusedAnnealer.run_multi
    <repro.annealing.vectorized.FusedAnnealer.run_multi>`: launch ``j``'s
    chains anneal against ``evaluators[j]``'s game, drawing from their
    own generator in the exact solo order (initial states, then per block
    proposal uniforms followed by acceptance uniforms), so each launch is
    bit-identical to a solo :meth:`FusedAnnealer.run` with its seed.  A
    solo run is the one-game case of the same state.  Several games need
    delta evaluation: full evaluation would batch the ``O(n·m)`` products
    per game, changing BLAS summation shapes; callers gate on
    :func:`fused_multi_supported`.

    Rank-1 updates only pay off once a full ``O(n·m)`` product costs more
    than the delta bookkeeping, so ``evaluation="delta"`` falls back to
    full products for games with fewer than ``min_incremental_cells``
    payoff cells (the measured crossover; pass ``0`` to force incremental
    updates regardless of size, e.g. in equivalence tests).
    """

    #: Payoff-cell count below which delta evaluation uses full products.
    MIN_INCREMENTAL_CELLS = 36

    def __init__(
        self,
        evaluator: Union[ObjectiveEvaluator, Sequence[ObjectiveEvaluator]],
        num_intervals: int,
        pure_start_bias: float = 0.5,
        evaluation: str = "delta",
        min_incremental_cells: Optional[int] = None,
    ) -> None:
        if evaluation not in ("delta", "full"):
            raise ValueError(f"evaluation must be 'delta' or 'full', got {evaluation!r}")
        evaluators = (
            [evaluator] if isinstance(evaluator, ObjectiveEvaluator) else list(evaluator)
        )
        if not evaluators:
            raise ValueError("need at least one evaluator")
        if evaluation == "delta":
            for candidate in evaluators:
                if not candidate.supports_incremental():
                    raise ValueError(
                        f"{type(candidate).__name__} does not support incremental "
                        "(delta) evaluation; use evaluation='full', which "
                        "run_two_phase_sa_batch selects for it"
                    )
        self.evaluators = evaluators
        self.evaluator = evaluators[0]
        self.num_intervals = num_intervals
        self.pure_start_bias = pure_start_bias
        self.evaluation = evaluation
        self._shape = self.evaluator.game.shape
        if min_incremental_cells is None:
            min_incremental_cells = self.MIN_INCREMENTAL_CELLS
        n, m = self._shape
        self._use_incremental = evaluation == "delta" and n * m >= min_incremental_cells
        if len(evaluators) > 1 and not self._use_incremental:
            raise ValueError(
                "several games fuse only on the incremental (delta) path; "
                "gate on fused_multi_supported()"
            )
        self._incremental: Optional[TwoPlaneDeltaState] = None

    # ------------------------------------------------------------------
    # FusedBatchProblem interface
    # ------------------------------------------------------------------
    def begin(
        self,
        batch_size: int,
        rng: np.random.Generator,
        initial_states: Optional[BatchedStrategyState] = None,
    ) -> np.ndarray:
        if len(self.evaluators) != 1:
            raise ValueError("a multi-game problem is driven via run_multi()")
        if initial_states is None:
            initial_states = self._random_states(batch_size, rng)
        return self._start(initial_states.p_counts, initial_states.q_counts, [batch_size])

    def begin_multi(
        self, launches: Sequence[Tuple[int, np.random.Generator]]
    ) -> np.ndarray:
        if len(launches) != len(self.evaluators):
            raise ValueError(
                f"expected {len(self.evaluators)} launches (one per game), "
                f"got {len(launches)}"
            )
        # The solo initial draw of begin(), from each launch's own generator.
        starts = [self._random_states(size, rng) for size, rng in launches]
        return self._start(
            np.concatenate([states.p_counts for states in starts]),
            np.concatenate([states.q_counts for states in starts]),
            [size for size, _ in launches],
        )

    def _random_states(self, batch_size: int, rng: np.random.Generator) -> BatchedStrategyState:
        n, m = self._shape
        return BatchedStrategyState.random(
            batch_size, n, m, self.num_intervals, rng, pure_bias=self.pure_start_bias
        )

    def _start(self, p_counts: np.ndarray, q_counts: np.ndarray, sizes: List[int]) -> np.ndarray:
        """Allocate the two-plane buffers for launches of ``sizes`` chains."""
        self._sampler = TransferSampler(p_counts, q_counts)
        self._state_view = BatchedStrategyState(
            self._sampler.p_counts, self._sampler.q_counts, self.num_intervals
        )
        self._sizes = sizes
        if self._use_incremental:
            chain_games = np.repeat(np.arange(len(sizes)), sizes)
            self._incremental = TwoPlaneDeltaState(
                self.evaluators, chain_games, self._state_view
            )
            return self._incremental.energies()
        self._candidates = self._sampler.counts.copy()
        n, m = self._shape
        self._candidate_view = BatchedStrategyState(
            self._candidates[0, :, :n], self._candidates[1, :, :m], self.num_intervals
        )
        return np.array(self.evaluator.evaluate_batch(self._state_view), dtype=float)

    def draw_block(self, num_steps: int, rng: np.random.Generator) -> None:
        # One generator call per block: player choice, donor pick and
        # receiver pick for every chain and step.
        self._sampler.draw_block(rng.random((3, num_steps, self._sampler.batch_size)))

    def draw_block_multi(
        self, num_steps: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        blocks: List[np.ndarray] = []
        accepts: List[np.ndarray] = []
        for size, rng in zip(self._sizes, rngs):
            # Solo consumption order per launch: proposal block first,
            # acceptance uniforms second.
            blocks.append(rng.random((3, num_steps, size)))
            accepts.append(rng.random((num_steps, size)))
        self._sampler.draw_block(np.concatenate(blocks, axis=2))
        return np.concatenate(accepts, axis=1)

    def propose(self, step: int) -> np.ndarray:
        rows, source, target = self._sampler.sample(step)
        if self._incremental is not None:
            return self._incremental.candidate_energies(rows, source, target)
        np.copyto(self._candidates, self._sampler.counts)
        self._sampler.apply(counts=self._candidates)
        return np.asarray(self.evaluator.evaluate_batch(self._candidate_view), dtype=float)

    def commit(self, accept: np.ndarray) -> None:
        chains = accept.nonzero()[0]
        if chains.size:
            moved = self._sampler.apply(chains)
            if self._incremental is not None:
                self._incremental.commit(chains, *moved)

    def resync(self) -> Optional[np.ndarray]:
        if self._incremental is None:
            return None
        return self._incremental.resync(self._state_view)

    def make_snapshot(self) -> np.ndarray:
        return self._sampler.counts.copy()

    def update_snapshot(self, snapshot: np.ndarray, mask: np.ndarray) -> None:
        # Few chains improve per step: copy their rows, not the whole buffer.
        chains = mask.nonzero()[0]
        snapshot[:, chains] = self._sampler.counts[:, chains]

    def export_snapshot(self, snapshot: np.ndarray) -> BatchedStrategyState:
        n, m = self._shape
        return BatchedStrategyState(
            np.ascontiguousarray(snapshot[0, :, :n]),
            np.ascontiguousarray(snapshot[1, :, :m]),
            self.num_intervals,
        )

    def export_states(self) -> BatchedStrategyState:
        return self.export_snapshot(self.make_snapshot())

    def current_states(self) -> BatchedStrategyState:
        return self._state_view

    def unstack(self, states: BatchedStrategyState, index: int) -> QuantizedStrategyPair:
        return states.state(index)


def _annealing_config(config: CNashConfig) -> AnnealingConfig:
    """The engine configuration of a C-Nash solver configuration."""
    return AnnealingConfig(
        num_iterations=config.num_iterations,
        schedule=config.schedule(),
        acceptance=config.acceptance,
        record_history=config.record_history,
    )


def fused_multi_supported(config: CNashConfig, shape: Tuple[int, int]) -> bool:
    """Whether a multi-game fused launch reproduces the solo kernel bit-for-bit.

    True exactly when the solo :func:`run_two_phase_sa_batch` would take
    the fused incremental (delta) path with an exact evaluator: the
    multi launch replays each launch's RNG stream through the same
    per-chain math, so any configuration outside that path (hardware
    noise, both-player moves, full evaluation, games below the
    incremental crossover) must keep solo dispatch.
    """
    n, m = shape
    return (
        config.execution == "vectorized"
        and config.evaluation == "delta"
        and not config.move_both_players
        and not config.use_hardware
        and n * m >= FusedTwoPhaseProblem.MIN_INCREMENTAL_CELLS
    )


def run_two_phase_sa_multi(
    evaluators: Sequence[IdealEvaluator],
    config: CNashConfig,
    launches: Sequence[Tuple[int, SeedLike]],
    callback=None,
) -> BatchAnnealingResult[BatchedStrategyState]:
    """Run several games' chain batches as one fused kernel launch.

    ``launches[j] = (num_runs, seed)`` pairs with ``evaluators[j]``; the
    stacked result holds launch ``j``'s chains at offset
    ``sum(num_runs[:j])``, each bit-identical to
    ``run_two_phase_sa_batch(evaluators[j], config, num_runs, seed)``.
    Callers must check :func:`fused_multi_supported` first.
    """
    if len(evaluators) != len(launches):
        raise ValueError(
            f"got {len(evaluators)} evaluators but {len(launches)} launches"
        )
    # Fused launches always take the delta path; fused_multi_supported
    # keeps games below the crossover out of them.
    problem = FusedTwoPhaseProblem(
        evaluators,
        num_intervals=config.num_intervals,
        pure_start_bias=config.pure_start_bias,
        min_incremental_cells=0,
    )
    annealer = FusedAnnealer(problem, _annealing_config(config))
    return annealer.run_multi(launches, callback=callback)


@dataclass
class TwoPhaseSARun:
    """Raw outcome of one two-phase SA run (before NE classification)."""

    result: AnnealingResult[QuantizedStrategyPair]

    @property
    def best_state(self) -> QuantizedStrategyPair:
        """The lowest-objective state visited."""
        return self.result.best_state

    @property
    def best_objective(self) -> float:
        """The lowest objective value observed."""
        return self.result.best_energy


def run_two_phase_sa(
    evaluator: ObjectiveEvaluator,
    config: CNashConfig,
    seed: SeedLike = None,
    initial_state: Optional[QuantizedStrategyPair] = None,
) -> TwoPhaseSARun:
    """Run Alg. 1 once and return the raw annealing result.

    The temperature starts at ``config.initial_temperature`` and decays
    geometrically to ``config.final_temperature`` over
    ``config.num_iterations`` iterations; each iteration proposes a
    neighbouring strategy pair, evaluates the objective via the two
    hardware phases, and applies the Metropolis acceptance rule.
    """
    problem = TwoPhaseAnnealingProblem(
        evaluator=evaluator,
        num_intervals=config.num_intervals,
        move_generator=StrategyMoveGenerator(move_both_players=config.move_both_players),
        pure_start_bias=config.pure_start_bias,
    )
    annealer = SimulatedAnnealer(problem, _annealing_config(config))
    result = annealer.run(seed=seed, initial_state=initial_state)
    return TwoPhaseSARun(result=result)


def run_two_phase_sa_batch(
    evaluator: ObjectiveEvaluator,
    config: CNashConfig,
    num_runs: int,
    seed: SeedLike = None,
    initial_states: Optional[BatchedStrategyState] = None,
    callback=None,
) -> BatchAnnealingResult[BatchedStrategyState]:
    """Run ``num_runs`` independent Alg.-1 chains in lockstep.

    The vectorized counterpart of calling :func:`run_two_phase_sa`
    ``num_runs`` times: every iteration proposes one move per chain and
    evaluates all objectives as a single stacked computation.  The whole
    batch is reproducible from a single ``seed``.

    Single-player batches run on the fused in-place kernel
    (:class:`~repro.annealing.vectorized.FusedAnnealer` driving
    :class:`FusedTwoPhaseProblem`).  ``config.evaluation`` applies where
    the evaluator advertises :meth:`ObjectiveEvaluator.supports_incremental`;
    the hardware evaluator (whose objective is a physical two-phase read)
    and custom evaluators run the same kernel with ``evaluation="full"``.
    Only ``move_both_players`` runs keep the
    :class:`~repro.annealing.vectorized.VectorizedAnnealer` path.
    """
    annealing_config = _annealing_config(config)
    if not config.move_both_players:
        problem = FusedTwoPhaseProblem(
            evaluator=evaluator,
            num_intervals=config.num_intervals,
            pure_start_bias=config.pure_start_bias,
            evaluation=config.evaluation if evaluator.supports_incremental() else "full",
        )
        annealer = FusedAnnealer(problem, annealing_config)
        return annealer.run(
            num_runs, seed=seed, initial_states=initial_states, callback=callback
        )
    legacy_problem = BatchTwoPhaseAnnealingProblem(
        evaluator=evaluator,
        num_intervals=config.num_intervals,
        move_both_players=config.move_both_players,
        pure_start_bias=config.pure_start_bias,
    )
    legacy_annealer = VectorizedAnnealer(legacy_problem, annealing_config)
    return legacy_annealer.run(
        num_runs, seed=seed, initial_states=initial_states, callback=callback
    )
