"""Vectorized chain-parallel simulated-annealing engine.

The paper's evaluation protocol runs thousands of *independent* SA chains
per game (5000 runs in Table 1).  :class:`SimulatedAnnealer` executes one
chain at a time, which makes every iteration a handful of tiny NumPy
operations dominated by Python overhead.  :class:`VectorizedAnnealer`
instead runs all ``B`` chains in lockstep: per iteration it proposes one
move per chain, evaluates all candidate energies as a single stacked
array operation, and applies the Metropolis rule to the whole batch at
once.  This is the same array-level parallelism a crossbar accelerator
exploits physically — one analog evaluation per chain per cycle, many
chains per array.

Problems plug in through the :class:`BatchAnnealingProblem` interface,
whose states are *stacked* batch objects (e.g. ``(B, n)`` count arrays)
rather than lists of per-chain states.  The per-chain results can be
unstacked into ordinary :class:`~repro.annealing.engine.AnnealingResult`
objects for drop-in compatibility with the sequential engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.annealing.engine import AnnealingConfig, AnnealingResult
from repro.utils.rng import SeedLike, as_generator

BatchStateT = TypeVar("BatchStateT")


class BatchAnnealingProblem(ABC, Generic[BatchStateT]):
    """A problem whose whole chain batch is one stacked state object.

    Implementations must treat batch states as immutable: ``propose_batch``
    and ``select`` return new objects (or fresh arrays) so that the engine
    can keep current/candidate/best batches alive simultaneously.
    """

    @abstractmethod
    def initial_states(self, batch_size: int, rng: np.random.Generator) -> BatchStateT:
        """Produce the stacked initial states of ``batch_size`` chains."""

    @abstractmethod
    def propose_batch(self, states: BatchStateT, rng: np.random.Generator) -> BatchStateT:
        """Propose one neighbouring candidate per chain, stacked."""

    @abstractmethod
    def energies(self, states: BatchStateT) -> np.ndarray:
        """Per-chain objective values as a ``(B,)`` float array."""

    @abstractmethod
    def select(
        self, mask: np.ndarray, accepted: BatchStateT, rejected: BatchStateT
    ) -> BatchStateT:
        """Merge two batches: chain ``b`` takes ``accepted`` where ``mask[b]``."""

    @abstractmethod
    def unstack(self, states: BatchStateT, index: int):
        """Extract chain ``index``'s state as a per-chain object."""


@dataclass
class BatchAnnealingResult(Generic[BatchStateT]):
    """Outcome of one lockstep run of ``B`` chains.

    Per-chain quantities are stored as stacked arrays; :meth:`per_chain`
    unstacks them into the sequential engine's result type.
    """

    best_states: BatchStateT
    best_energies: np.ndarray
    final_states: BatchStateT
    final_energies: np.ndarray
    num_iterations: int
    num_accepted: np.ndarray
    iterations_to_best: np.ndarray
    energy_history: Optional[np.ndarray] = None
    """``(num_records, B)`` energy trajectories when history was recorded
    (one row per ``history_stride`` iterations)."""
    num_resyncs: int = 0
    """Times the fused runner rebuilt its incremental energy caches
    (always ``0`` for the non-fused lockstep runner)."""

    @property
    def batch_size(self) -> int:
        """Number of chains in the batch."""
        return int(self.best_energies.shape[0])

    @property
    def acceptance_rates(self) -> np.ndarray:
        """Per-chain fraction of accepted proposals."""
        if self.num_iterations == 0:
            return np.zeros_like(self.best_energies)
        return self.num_accepted / self.num_iterations

    def chain_history(self, index: int) -> List[float]:
        """Chain ``index``'s energy trajectory (empty when not recorded)."""
        if self.energy_history is None:
            return []
        return self.energy_history[:, index].tolist()

    def per_chain(
        self, problem: BatchAnnealingProblem[BatchStateT]
    ) -> List[AnnealingResult]:
        """Unstack into one :class:`AnnealingResult` per chain."""
        results: List[AnnealingResult] = []
        for index in range(self.batch_size):
            history = self.chain_history(index)
            results.append(
                AnnealingResult(
                    best_state=problem.unstack(self.best_states, index),
                    best_energy=float(self.best_energies[index]),
                    final_state=problem.unstack(self.final_states, index),
                    final_energy=float(self.final_energies[index]),
                    num_iterations=self.num_iterations,
                    num_accepted=int(self.num_accepted[index]),
                    iterations_to_best=int(self.iterations_to_best[index]),
                    energy_history=history,
                )
            )
        return results


def run_scaled_progress_callback(
    progress: Callable[[int, int], None],
    total_iterations: int,
    total_runs: int,
    updates: int = 100,
) -> Callable[[int, object, np.ndarray], None]:
    """Adapt a ``progress(completed, total)`` hook to an engine callback.

    In lockstep execution every chain finishes at the same time, so run
    counts are reported as the completed fraction of the iteration
    budget scaled to ``total_runs``, throttled to roughly ``updates``
    invocations and guaranteed to end at ``(total_runs, total_runs)``.
    """
    stride = max(1, total_iterations // updates)

    def callback(iteration: int, states, energies) -> None:
        done = iteration + 1
        if done % stride == 0 or done == total_iterations:
            progress(total_runs * done // total_iterations, total_runs)

    return callback


class VectorizedAnnealer(Generic[BatchStateT]):
    """Runs ``B`` independent SA chains in lockstep over stacked arrays.

    Shares :class:`~repro.annealing.engine.AnnealingConfig` with the
    sequential engine: the same schedule, acceptance rule and iteration
    budget apply to every chain; only the execution strategy differs.
    """

    def __init__(
        self,
        problem: BatchAnnealingProblem[BatchStateT],
        config: Optional[AnnealingConfig] = None,
    ) -> None:
        self.problem = problem
        self.config = config or AnnealingConfig()

    def run(
        self,
        batch_size: int,
        seed: SeedLike = None,
        initial_states: Optional[BatchStateT] = None,
        callback: Optional[Callable[[int, BatchStateT, np.ndarray], None]] = None,
    ) -> BatchAnnealingResult[BatchStateT]:
        """Anneal all chains and return the stacked batch result.

        Parameters
        ----------
        batch_size:
            Number of chains ``B`` (must match ``initial_states`` when
            that is provided).
        seed:
            One seed drives the whole batch; chains draw from a shared
            generator, so a batch is reproducible from a single seed.
        callback:
            Optional ``callback(iteration, states, energies)`` invoked
            after every iteration with the stacked batch state (the
            batched counterpart of the sequential engine's callback;
            used e.g. for progress reporting on long batches).
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        config = self.config
        problem = self.problem
        rng = as_generator(seed)

        states = (
            initial_states
            if initial_states is not None
            else problem.initial_states(batch_size, rng)
        )
        # An owned copy: problems may hand out views of internal buffers
        # (e.g. piggybacked energy caches) and the loop below updates the
        # array in place.
        energies = np.array(problem.energies(states), dtype=float)
        if energies.shape != (batch_size,):
            raise ValueError(
                f"problem.energies returned shape {energies.shape}, "
                f"expected ({batch_size},)"
            )
        best_states = states
        best_energies = energies.copy()
        iterations_to_best = np.zeros(batch_size, dtype=int)
        accepted_counts = np.zeros(batch_size, dtype=int)
        improved = np.empty(batch_size, dtype=bool)
        stride = config.history_stride
        history = (
            np.empty((config.num_iterations // stride, batch_size))
            if config.record_history
            else None
        )
        # One schedule evaluation per run instead of one per iteration
        # (values are bit-identical to per-iteration calls).
        temperatures = config.schedule.temperatures(config.num_iterations)

        for iteration in range(config.num_iterations):
            temperature = temperatures[iteration]
            candidates = problem.propose_batch(states, rng)
            candidate_energies = np.asarray(problem.energies(candidates), dtype=float)
            delta = candidate_energies - energies
            accept = config.acceptance.accept_batch(delta, temperature, rng)
            if accept.any():
                states = problem.select(accept, candidates, states)
                # In-place merges: no fresh per-iteration arrays for the
                # energy/best-tracking state.
                np.copyto(energies, candidate_energies, where=accept)
                np.add(accepted_counts, accept, out=accepted_counts, casting="unsafe")
                np.less(energies, best_energies, out=improved)
                improved &= accept
                if improved.any():
                    best_states = problem.select(improved, states, best_states)
                    np.copyto(best_energies, energies, where=improved)
                    np.copyto(iterations_to_best, iteration + 1, where=improved)
            done = iteration + 1
            if history is not None and done % stride == 0:
                history[done // stride - 1] = energies
            if callback is not None:
                callback(iteration, states, energies)

        return BatchAnnealingResult(
            best_states=best_states,
            best_energies=best_energies,
            final_states=states,
            final_energies=energies,
            num_iterations=config.num_iterations,
            num_accepted=accepted_counts,
            iterations_to_best=iterations_to_best,
            energy_history=history,
        )


class FusedBatchProblem(ABC, Generic[BatchStateT]):
    """A problem driven by the fused in-place annealing kernel.

    :class:`BatchAnnealingProblem` treats batch states as immutable
    objects, which costs a full candidate-state allocation and several
    merge copies per iteration.  This interface inverts the contract:
    the *problem* owns mutable state buffers (and whatever evaluation
    caches it keeps alongside them), the engine drives them through a
    stage/commit cycle, and proposal randomness is consumed from blocks
    of pre-drawn uniforms rather than per-iteration generator calls.

    Per iteration the engine calls :meth:`propose` (stage one move per
    chain and return the candidate energies), decides acceptance, then
    :meth:`commit` (fold the staged move into the accepted chains, in
    place).  Incremental problems update rank-1 caches in ``commit`` and
    periodically rebuild them in :meth:`resync`.
    """

    @abstractmethod
    def begin(
        self,
        batch_size: int,
        rng: np.random.Generator,
        initial_states: Optional[BatchStateT] = None,
    ) -> np.ndarray:
        """Allocate state buffers and return the live energies array.

        The returned ``(B,)`` float array is *shared*: the engine updates
        it in place on acceptance/resync and the problem may read it
        between calls.  ``initial_states`` (a stacked batch-state object)
        seeds the chains when provided; otherwise the problem samples its
        own initial states from ``rng``.
        """

    @abstractmethod
    def draw_block(self, num_steps: int, rng: np.random.Generator) -> None:
        """Pre-draw proposal randomness for the next ``num_steps`` iterations."""

    @abstractmethod
    def propose(self, step: int) -> np.ndarray:
        """Stage the ``step``-th proposal of the block; return candidate energies."""

    @abstractmethod
    def commit(self, accept: np.ndarray) -> None:
        """Apply the staged proposal to the chains where ``accept`` is set."""

    def resync(self) -> Optional[np.ndarray]:
        """Rebuild evaluation caches from the authoritative state.

        Called every ``resync_interval`` iterations; returns refreshed
        energies (copied into the live buffer by the engine) or ``None``
        when the problem keeps no drifting caches.
        """
        return None

    @abstractmethod
    def make_snapshot(self) -> object:
        """A preallocated copy of the current per-chain states."""

    @abstractmethod
    def update_snapshot(self, snapshot: object, mask: np.ndarray) -> None:
        """Overwrite ``snapshot`` with the current state where ``mask`` is set."""

    @abstractmethod
    def export_snapshot(self, snapshot: object) -> BatchStateT:
        """Convert a snapshot into a stacked batch-state object."""

    @abstractmethod
    def export_states(self) -> BatchStateT:
        """The current states as a stacked batch-state object (a copy)."""

    @abstractmethod
    def current_states(self) -> BatchStateT:
        """A zero-copy view of the current states (for callbacks only)."""

    @abstractmethod
    def unstack(self, states: BatchStateT, index: int):
        """Extract chain ``index``'s state as a per-chain object."""


class MultiFusedBatchProblem(FusedBatchProblem[BatchStateT]):
    """A fused problem whose chains belong to several independent launches.

    The batched dispatch path coalesces many scheduler jobs (one
    same-shape game each) into a single fused kernel launch.  To keep
    each job's result *bit-identical* to a solo
    :meth:`FusedAnnealer.run`, every launch keeps its own generator and
    consumes it in exactly the solo order — initial states first, then
    per block the problem's proposal uniforms followed by the engine's
    acceptance uniforms.  Chains are concatenated along the batch axis
    in launch order, so launch ``j``'s chains occupy one contiguous
    slice of every stacked array.

    Multi problems are driven through :meth:`FusedAnnealer.run_multi`;
    the single-generator :meth:`~FusedBatchProblem.begin` /
    :meth:`~FusedBatchProblem.draw_block` entry points raise unless a
    subclass also supports solo :meth:`FusedAnnealer.run` launches.
    """

    @abstractmethod
    def begin_multi(
        self, launches: Sequence[Tuple[int, np.random.Generator]]
    ) -> np.ndarray:
        """Allocate buffers for all launches and return the live energies.

        ``launches`` is one ``(batch_size, rng)`` pair per launch; each
        launch's initial states are drawn from its own generator exactly
        as a solo :meth:`~FusedBatchProblem.begin` would draw them.
        Returns the concatenated ``(B_total,)`` energies array (shared
        with the engine, like ``begin``).
        """

    @abstractmethod
    def draw_block_multi(
        self, num_steps: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Pre-draw proposal *and* acceptance randomness per launch.

        For each launch ``j`` (in order) draws the problem's proposal
        block from ``rngs[j]`` first and the acceptance uniforms second
        — the solo consumption order.  Returns the acceptance uniforms
        concatenated along the chain axis as a ``(num_steps, B_total)``
        array; the engine indexes it exactly like its own block.
        """

    def begin(
        self,
        batch_size: int,
        rng: np.random.Generator,
        initial_states: Optional[BatchStateT] = None,
    ) -> np.ndarray:
        raise NotImplementedError("multi-launch problems are driven via run_multi()")

    def draw_block(self, num_steps: int, rng: np.random.Generator) -> None:
        raise NotImplementedError("multi-launch problems are driven via run_multi()")


class FusedAnnealer(Generic[BatchStateT]):
    """Fused lockstep SA: block-sampled randomness, in-place accept/reject.

    Runs the same Markov chains as :class:`VectorizedAnnealer` — one
    proposal per chain per iteration, Metropolis (or configured)
    acceptance at the scheduled temperature — but drives a
    :class:`FusedBatchProblem` whose state lives in preallocated buffers:

    * the whole temperature trajectory is precomputed as one array;
    * proposal and acceptance uniforms are drawn in blocks of
      ``block_size`` iterations (the problem's block first, then the
      engine's acceptance block, so the stream is a deterministic
      function of the seed);
    * accept/reject, best-state tracking and energy bookkeeping are
      in-place ``np.copyto`` merges on double-buffered arrays — no fresh
      per-iteration state allocations;
    * every ``resync_interval`` iterations the problem may rebuild its
      evaluation caches from the authoritative state, bounding float
      drift of incremental (delta) evaluation.

    The RNG block layout makes this kernel's random stream different
    from :class:`VectorizedAnnealer`'s per-iteration stream: the two
    engines sample identical distributions but are not flip-for-flip
    reproductions of each other.  Within this kernel, however, the
    stream is independent of the problem's evaluation strategy, so delta
    and full evaluation see identical proposals and uniforms.
    """

    def __init__(
        self,
        problem: FusedBatchProblem[BatchStateT],
        config: Optional[AnnealingConfig] = None,
        block_size: int = 128,
        resync_interval: int = 1024,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if resync_interval < 0:
            raise ValueError(
                f"resync_interval must be >= 0 (0 disables), got {resync_interval}"
            )
        self.problem = problem
        self.config = config or AnnealingConfig()
        self.block_size = block_size
        self.resync_interval = resync_interval

    def run(
        self,
        batch_size: int,
        seed: SeedLike = None,
        initial_states: Optional[BatchStateT] = None,
        callback: Optional[Callable[[int, BatchStateT, np.ndarray], None]] = None,
    ) -> BatchAnnealingResult[BatchStateT]:
        """Anneal all chains and return the stacked batch result.

        Mirrors :meth:`VectorizedAnnealer.run`; ``callback`` receives a
        zero-copy view of the live states and must not mutate or retain
        it across iterations.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        rng = as_generator(seed)
        energies = self.problem.begin(batch_size, rng, initial_states)
        if energies.shape != (batch_size,):
            raise ValueError(
                f"problem.begin returned energies of shape {energies.shape}, "
                f"expected ({batch_size},)"
            )

        def draw(steps: int) -> np.ndarray:
            # The solo RNG stream contract: the problem's proposal block
            # first, the engine's acceptance block second.
            self.problem.draw_block(steps, rng)
            return rng.random((steps, batch_size))

        return self._anneal(batch_size, energies, draw, callback)

    def run_multi(
        self,
        launches: Sequence[Tuple[int, SeedLike]],
        callback: Optional[Callable[[int, BatchStateT, np.ndarray], None]] = None,
    ) -> BatchAnnealingResult[BatchStateT]:
        """Anneal several independent launches as one fused batch.

        ``launches`` is one ``(batch_size, seed)`` pair per launch; the
        problem must be a :class:`MultiFusedBatchProblem`.  Each launch
        owns a generator seeded exactly as :meth:`run` would seed it and
        consumes it in the solo order, so chain ``b`` of launch ``j``
        evolves flip-for-flip identically to the same chain of a solo
        ``run(batch_size_j, seed_j)`` on that launch's problem — the
        fusion only amortises the per-iteration Python/kernel overhead
        across launches.  Results come back as a single stacked
        :class:`BatchAnnealingResult` with launch ``j``'s chains at
        offset ``sum(sizes[:j])``.
        """
        problem = self.problem
        if not isinstance(problem, MultiFusedBatchProblem):
            raise TypeError(
                f"run_multi requires a MultiFusedBatchProblem, got {type(problem).__name__}"
            )
        if not launches:
            raise ValueError("need at least one launch")
        sizes = [int(size) for size, _ in launches]
        if any(size <= 0 for size in sizes):
            raise ValueError(f"launch batch sizes must be positive, got {sizes}")
        batch_size = sum(sizes)
        rngs = [as_generator(seed) for _, seed in launches]
        energies = problem.begin_multi(list(zip(sizes, rngs)))
        if energies.shape != (batch_size,):
            raise ValueError(
                f"problem.begin_multi returned energies of shape {energies.shape}, "
                f"expected ({batch_size},)"
            )

        def draw(steps: int) -> np.ndarray:
            return problem.draw_block_multi(steps, rngs)

        return self._anneal(batch_size, energies, draw, callback)

    def _anneal(
        self,
        batch_size: int,
        energies: np.ndarray,
        draw: Callable[[int], np.ndarray],
        callback: Optional[Callable[[int, BatchStateT, np.ndarray], None]],
    ) -> BatchAnnealingResult[BatchStateT]:
        """The fused accept/commit loop shared by :meth:`run` and :meth:`run_multi`.

        ``draw(steps)`` refills the problem's proposal block and returns
        the ``(steps, batch_size)`` acceptance uniforms.
        """
        config = self.config
        problem = self.problem
        num_iterations = config.num_iterations
        best_snapshot = problem.make_snapshot()
        best_energies = energies.copy()
        iterations_to_best = np.zeros(batch_size, dtype=int)
        accepted_counts = np.zeros(batch_size, dtype=int)
        improved = np.empty(batch_size, dtype=bool)
        stride = config.history_stride
        history = (
            np.empty((num_iterations // stride, batch_size))
            if config.record_history
            else None
        )
        temperatures = config.schedule.temperatures(num_iterations)
        acceptance = config.acceptance
        block_size = min(self.block_size, num_iterations)
        accept_uniforms: Optional[np.ndarray] = None
        num_resyncs = 0

        for iteration in range(num_iterations):
            step = iteration % block_size
            if step == 0:
                steps = min(block_size, num_iterations - iteration)
                accept_uniforms = draw(steps)
            candidate_energies = problem.propose(step)
            delta = candidate_energies - energies
            accept = acceptance.accept_batch_given(
                delta, temperatures[iteration], accept_uniforms[step]
            )
            problem.commit(accept)
            np.copyto(energies, candidate_energies, where=accept)
            np.add(accepted_counts, accept, out=accepted_counts, casting="unsafe")
            np.less(energies, best_energies, out=improved)
            improved &= accept
            if improved.any():
                problem.update_snapshot(best_snapshot, improved)
                np.copyto(best_energies, energies, where=improved)
                np.copyto(iterations_to_best, iteration + 1, where=improved)
            done = iteration + 1
            if (
                self.resync_interval
                and done % self.resync_interval == 0
                and done < num_iterations
            ):
                refreshed = problem.resync()
                num_resyncs += 1
                if refreshed is not None:
                    np.copyto(energies, refreshed)
            if history is not None and done % stride == 0:
                history[done // stride - 1] = energies
            if callback is not None:
                callback(iteration, problem.current_states(), energies)

        return BatchAnnealingResult(
            best_states=problem.export_snapshot(best_snapshot),
            best_energies=best_energies,
            final_states=problem.export_states(),
            final_energies=energies,
            num_iterations=num_iterations,
            num_accepted=accepted_counts,
            iterations_to_best=iterations_to_best,
            energy_history=history,
            num_resyncs=num_resyncs,
        )
