"""The MAX-QUBO transformation and its evaluators.

Sec. 3.1 of the paper converts the Mangasarian–Stone quadratic program
for Nash equilibria into the *lossless* MAX-QUBO form

    min_{p, q}  f(p, q) = max(Mq) + max(N^T p) - p^T (M + N) q        (Eq. 9)

with the simplex constraints enforced structurally.  The objective is
non-negative for every strategy pair and equals zero exactly at the Nash
equilibria, so minimising it (over the quantised strategy grid) searches
for equilibria without any slack variables or penalty weights.

Two evaluators are provided behind a common interface:

* :class:`IdealEvaluator` — exact floating-point evaluation, used for the
  large statistical sweeps and as the reference in tests;
* :class:`HardwareEvaluator` — evaluation through the FeFET bi-crossbar,
  WTA trees and ADCs (:class:`~repro.hardware.bicrossbar.BiCrossbar`),
  i.e. what the silicon would compute, with device variability and
  quantisation included.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.games.bimatrix import BimatrixGame
from repro.core.strategy import BatchedStrategyState, QuantizedStrategyPair
from repro.hardware.bicrossbar import BiCrossbar, ObjectiveBreakdown


def max_qubo_objective(game: BimatrixGame, p: np.ndarray, q: np.ndarray) -> float:
    """Exact MAX-QUBO objective value for probability vectors ``p, q``.

    ``f(p, q) = max(Mq) + max(N^T p) - p^T (M + N) q``; non-negative, and
    zero exactly when ``(p, q)`` is a Nash equilibrium.
    """
    row_values = game.row_action_values(q)
    col_values = game.col_action_values(p)
    bilinear = float(p @ (game.payoff_row + game.payoff_col) @ q)
    return float(row_values.max() + col_values.max() - bilinear)


def max_qubo_breakdown(game: BimatrixGame, p: np.ndarray, q: np.ndarray) -> ObjectiveBreakdown:
    """Exact values of the three MAX-QUBO components."""
    row_values = game.row_action_values(q)
    col_values = game.col_action_values(p)
    bilinear = float(p @ (game.payoff_row + game.payoff_col) @ q)
    return ObjectiveBreakdown(
        max_row_value=float(row_values.max()),
        max_col_value=float(col_values.max()),
        vmv_value=bilinear,
    )


class ObjectiveEvaluator(ABC):
    """Evaluates the MAX-QUBO objective for quantised strategy pairs."""

    @abstractmethod
    def evaluate(self, state: QuantizedStrategyPair) -> float:
        """Objective value (lower is better, zero at an equilibrium)."""

    def evaluate_batch(self, states: BatchedStrategyState) -> np.ndarray:
        """Objective values for a stacked batch of states, shape ``(B,)``.

        The default unstacks and calls :meth:`evaluate` per chain, so any
        custom evaluator works with the vectorized execution engine; the
        built-in evaluators override it with true array-level paths.
        """
        return np.array(
            [self.evaluate(states.state(index)) for index in range(states.batch_size)]
        )

    @property
    @abstractmethod
    def game(self) -> BimatrixGame:
        """The game whose objective is being evaluated."""

    def evaluate_breakdown(self, state: QuantizedStrategyPair) -> ObjectiveBreakdown:
        """The three objective components (default: exact recomputation)."""
        return max_qubo_breakdown(self.game, state.p, state.q)

    def supports_incremental(self) -> bool:
        """Whether a :class:`TwoPlaneDeltaState` can evaluate this objective.

        Incremental (delta) evaluation computes candidate energies for
        interval-transfer moves via rank-1 cache updates instead of full
        ``O(B·n·m)`` products.  The base class answers ``False`` —
        custom evaluators and the hardware path (which performs physical
        two-phase reads of the whole objective) keep the full-evaluation
        code path.
        """
        return False


class IdealEvaluator(ObjectiveEvaluator):
    """Exact (noise-free, infinite-precision) MAX-QUBO evaluation."""

    def __init__(self, game: BimatrixGame):
        self._game = game
        # Pre-compute the combined payoff for the bilinear term.
        self._combined = game.payoff_row + game.payoff_col

    @property
    def game(self) -> BimatrixGame:
        return self._game

    def evaluate(self, state: QuantizedStrategyPair) -> float:
        p = state.p
        q = state.q
        row_values = self._game.payoff_row @ q
        col_values = self._game.payoff_col.T @ p
        bilinear = float(p @ self._combined @ q)
        return float(row_values.max() + col_values.max() - bilinear)

    def evaluate_batch(self, states: BatchedStrategyState) -> np.ndarray:
        """Exact objectives for all chains as one stacked computation.

        ``max(M Q^T, axis=rows) + max(N^T P^T, axis=cols) - diag(P C Q^T)``
        evaluated as two matrix products plus one einsum over the whole
        ``(B, n)`` / ``(B, m)`` probability stack.
        """
        p = states.p
        q = states.q
        row_values = q @ self._game.payoff_row.T
        col_values = p @ self._game.payoff_col
        bilinear = np.einsum("bi,ij,bj->b", p, self._combined, q)
        return row_values.max(axis=1) + col_values.max(axis=1) - bilinear

    def supports_incremental(self) -> bool:
        return True


class TwoPlaneDeltaState:
    """Rank-1 energy caches for the chains of one or several same-shape games.

    The MAX-QUBO objective of chain ``b`` is

        ``f = max(M q) + max(N^T p) - p^T C q``,  ``C = M + N``,

    and an interval-transfer move shifts ``1/I`` of probability mass
    between two actions of *one* player, so the candidate objective is a
    rank-1 perturbation of cached quantities rather than a fresh
    ``O(n·m)`` product.  The caches are laid out like the counts of
    :class:`~repro.core.strategy.TransferSampler` — ``(2, B, L)`` planes
    indexed by the moving player, ``L = max(n, m)`` — so one gather per
    quantity serves every chain whichever player it moves:

    ======  ==========================  ===========================
    plane   action values ``values``    helper products ``helpers``
    ======  ==========================  ===========================
    0 (p)   ``N^T p`` (``m`` wide)       ``C q`` (``n`` wide)
    1 (q)   ``M q`` (``n`` wide)         ``p^T C`` (``m`` wide)
    ======  ==========================  ===========================

    A move ``i -> j`` of player ``k`` shifts ``values[k]`` by a payoff
    row difference over ``I`` (``N[j] - N[i]`` for the row player,
    ``M[:, j] - M[:, i]`` for the column player) and the bilinear term
    by ``(helpers[k][j] - helpers[k][i]) / I``; committing it also
    shifts the *other* player's helper plane by a row difference of
    ``C`` (or ``C^T``).  ``maxes`` caches ``max(values)`` per plane; the
    padding of the narrower plane holds ``-inf`` values and zero payoff
    rows, so it never wins a max.

    Chain ``b`` anneals against game ``chain_games[b]`` (sorted, one
    contiguous block per game); a solo launch is the one-game case.  The
    per-step math is purely per-chain — elementwise arithmetic, row
    gathers and row-wise maxima — and :meth:`resync` rebuilds every
    cache per game block with the full products of
    :meth:`IdealEvaluator.evaluate_batch` on the same array layouts, so
    a chain advances flip-for-flip identically whichever games share its
    launch.  With payoffs and ``1/I`` exactly representable (integer
    payoffs, power-of-two ``I``) every update is exact dyadic
    arithmetic and the delta path is bit-identical to full evaluation;
    otherwise it agrees to float rounding and the periodic resync bounds
    the drift.
    """

    def __init__(
        self,
        evaluators: Sequence["IdealEvaluator"],
        chain_games: np.ndarray,
        states: BatchedStrategyState,
    ) -> None:
        if not evaluators:
            raise ValueError("need at least one evaluator")
        shape = evaluators[0].game.shape
        for evaluator in evaluators:
            if not evaluator.supports_incremental():
                raise ValueError(
                    f"{type(evaluator).__name__} does not support incremental (delta) "
                    "evaluation"
                )
            if evaluator.game.shape != shape:
                raise ValueError(
                    f"all fused games must share one shape, got {shape} "
                    f"and {evaluator.game.shape}"
                )
        batch_size = states.batch_size
        chain_games = np.asarray(chain_games, dtype=np.int64)
        if chain_games.shape != (batch_size,):
            raise ValueError(
                f"chain_games must have shape ({batch_size},), got {chain_games.shape}"
            )
        if np.any(np.diff(chain_games) < 0):
            raise ValueError("chain_games must be sorted (contiguous per-game blocks)")
        num_games = len(evaluators)
        if chain_games.size and not (0 <= chain_games[0] and chain_games[-1] < num_games):
            raise ValueError("chain_games indexes outside the game stack")
        n, m = shape
        width = max(n, m)
        self._width = width
        self._inv_intervals = 1.0 / states.num_intervals
        # Gather tables, one (L, L) payoff block per (moving player, game):
        # row ``a`` of block (k, g) is what a move onto action ``a`` of
        # player k adds to ``values[k]`` / the other helper plane.
        value_table = np.zeros((2, num_games, width, width))
        helper_table = np.zeros((2, num_games, width, width))
        #: Per game, the resync operands in the layouts the full
        #: evaluation uses (C-contiguous M, N, C and C^T).
        self._resync_operands = []
        for index, evaluator in enumerate(evaluators):
            game = evaluator.game
            value_table[0, index, :n, :m] = game.payoff_col
            value_table[1, index, :m, :n] = game.payoff_row.T
            helper_table[0, index, :n, :m] = evaluator._combined
            helper_table[1, index, :m, :n] = evaluator._combined.T
            self._resync_operands.append((
                np.ascontiguousarray(game.payoff_row),
                np.ascontiguousarray(game.payoff_col),
                np.ascontiguousarray(evaluator._combined),
                np.ascontiguousarray(helper_table[1, index, :m, :n]),
            ))
        self._value_table = value_table.reshape(-1, width)
        self._helper_table = helper_table.reshape(-1, width)
        # Flattened-row bookkeeping: row ``k * B + b`` of a (2B, L) view
        # is chain b's plane k; its table block starts at ``row_base``.
        plane_games = np.arange(2)[:, None] * num_games + chain_games[None, :]
        self._row_base = (plane_games * width).reshape(-1)
        chains = np.arange(batch_size)
        self._other_row = np.concatenate([chains + batch_size, chains])
        starts = np.searchsorted(chain_games, np.arange(num_games), side="left")
        stops = np.searchsorted(chain_games, np.arange(num_games), side="right")
        self._blocks = [slice(int(a), int(b)) for a, b in zip(starts, stops)]
        self.values = np.full((2, batch_size, width), -np.inf)
        self.helpers = np.zeros((2, batch_size, width))
        self.maxes = np.empty((2, batch_size))
        self.bilinear = np.empty(batch_size)
        self._values_rows = self.values.reshape(2 * batch_size, width)
        self._helpers_rows = self.helpers.reshape(2 * batch_size, width)
        self._helpers_flat = self.helpers.reshape(-1)
        self._maxes_flat = self.maxes.reshape(-1)
        self.resync(states)

    def resync(self, states: BatchedStrategyState) -> np.ndarray:
        """Rebuild every cache from ``states`` via full products.

        Returns the refreshed energies; each game block uses the exact
        expressions (and layouts) of :meth:`IdealEvaluator.evaluate_batch`,
        so a resynced cache and a full evaluation agree bit-for-bit.
        """
        p = states.p
        q = states.q
        n = p.shape[1]
        m = q.shape[1]
        for block, (payoff_row, payoff_col, combined, combined_t) in zip(
            self._blocks, self._resync_operands
        ):
            if block.start == block.stop:
                continue
            p_block = p[block]
            q_block = q[block]
            self.values[0, block, :m] = p_block @ payoff_col
            self.values[1, block, :n] = q_block @ payoff_row.T
            self.helpers[0, block, :n] = q_block @ combined_t
            self.helpers[1, block, :m] = p_block @ combined
            self.bilinear[block] = np.einsum("bi,ij,bj->b", p_block, combined, q_block)
        np.max(self.values, axis=2, out=self.maxes)
        return self.energies()

    def energies(self) -> np.ndarray:
        """Current per-chain objectives from the cached components."""
        return self.maxes[1] + self.maxes[0] - self.bilinear

    def candidate_energies(
        self, rows: np.ndarray, source: np.ndarray, target: np.ndarray
    ) -> np.ndarray:
        """Objective of every chain's staged move ``source -> target`` on plane ``rows``.

        ``rows``, ``source`` and ``target`` are the per-chain outputs of
        :meth:`~repro.core.strategy.TransferSampler.sample`; the caches
        stay untouched until :meth:`commit`.
        """
        inv = self._inv_intervals
        base = self._row_base[rows]
        table = self._value_table
        shift = table[base + target]
        shift -= table[base + source]
        shift *= inv
        candidate_values = self._values_rows[rows]
        candidate_values += shift
        candidate_max = np.maximum.reduce(candidate_values, axis=1)
        helpers = self._helpers_flat
        offsets = rows * self._width
        candidate_bilinear = self.bilinear + (
            helpers[offsets + target] - helpers[offsets + source]
        ) * inv
        self._staged = (base, shift, candidate_max, candidate_bilinear)
        return candidate_max + self._maxes_flat[self._other_row[rows]] - candidate_bilinear

    def commit(
        self, chains: np.ndarray, rows: np.ndarray, source: np.ndarray, target: np.ndarray
    ) -> None:
        """Fold the staged candidates of the accepted ``chains`` into the caches.

        ``rows``, ``source`` and ``target`` are the staged move restricted
        to ``chains`` (what :meth:`TransferSampler.apply
        <repro.core.strategy.TransferSampler.apply>` returns).
        """
        base, shift, candidate_max, candidate_bilinear = self._staged
        base = base[chains]
        self._values_rows[rows] += shift[chains]
        table = self._helper_table
        helper_shift = table[base + target]
        helper_shift -= table[base + source]
        helper_shift *= self._inv_intervals
        self._helpers_rows[self._other_row[rows]] += helper_shift
        self._maxes_flat[rows] = candidate_max[chains]
        self.bilinear[chains] = candidate_bilinear[chains]


class HardwareEvaluator(ObjectiveEvaluator):
    """MAX-QUBO evaluation through the FeFET bi-crossbar datapath.

    The evaluator owns a :class:`~repro.hardware.bicrossbar.BiCrossbar`
    configured for the game; every evaluation performs the two-phase
    computation (crossbar MV reads + WTA for the max terms, crossbar VMV
    reads for the bilinear term) including device variability, read noise
    and ADC quantisation.

    Note that the bi-crossbar operates on the *shifted* (non-negative)
    payoffs; shifting changes the objective by a constant only at fixed
    ``p``/``q`` sums, so the annealer's accept/reject decisions — which
    depend on objective differences — are unaffected.
    """

    def __init__(self, game: BimatrixGame, bicrossbar: BiCrossbar):
        expected = game.shape
        actual = bicrossbar.game.shape
        if expected != actual:
            raise ValueError(
                f"bicrossbar shape {actual} does not match game shape {expected}"
            )
        self._game = game
        self.bicrossbar = bicrossbar

    @property
    def game(self) -> BimatrixGame:
        return self._game

    @property
    def num_intervals(self) -> int:
        """The strategy quantisation of the underlying hardware."""
        return self.bicrossbar.num_intervals

    def evaluate(self, state: QuantizedStrategyPair) -> float:
        if state.num_intervals != self.bicrossbar.num_intervals:
            raise ValueError(
                f"state quantised with I={state.num_intervals} but hardware uses "
                f"I={self.bicrossbar.num_intervals}"
            )
        return self.bicrossbar.evaluate(state.p_counts, state.q_counts).objective

    def evaluate_breakdown(self, state: QuantizedStrategyPair) -> ObjectiveBreakdown:
        return self.bicrossbar.evaluate(state.p_counts, state.q_counts)

    def evaluate_batch(self, states: BatchedStrategyState) -> np.ndarray:
        """Objectives for all chains through the batched bi-crossbar path.

        Read noise is sampled and ADC quantisation applied over the whole
        chain batch in one pass, so hardware-in-the-loop sweeps scale the
        same way as the ideal evaluator.
        """
        if states.num_intervals != self.bicrossbar.num_intervals:
            raise ValueError(
                f"states quantised with I={states.num_intervals} but hardware uses "
                f"I={self.bicrossbar.num_intervals}"
            )
        return self.bicrossbar.evaluate_batch(states.p_counts, states.q_counts).objective


@dataclass(frozen=True)
class GridOptimum:
    """Result of exhaustively scanning the quantised strategy grid."""

    best_state: QuantizedStrategyPair
    best_objective: float
    num_states: int


def composition_grid(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` as a stacked count array.

    Shape ``(C(total+parts-1, parts-1), parts)``, every row summing to
    ``total``, in the deterministic enumeration order the scalar grid
    scan used (so tie-breaking in :func:`enumerate_grid_optimum` is
    unchanged).
    """
    from itertools import combinations_with_replacement

    dividers = np.array(
        list(combinations_with_replacement(range(parts), total)), dtype=np.int64
    ).reshape(-1, total)
    grid = np.zeros((dividers.shape[0], parts), dtype=int)
    rows = np.repeat(np.arange(dividers.shape[0]), total)
    np.add.at(grid, (rows, dividers.ravel()), 1)
    return grid


def enumerate_grid_optimum(
    game: BimatrixGame,
    num_intervals: int,
    evaluator: Optional[ObjectiveEvaluator] = None,
    chunk_size: int = 4096,
) -> GridOptimum:
    """Exhaustively minimise the MAX-QUBO objective over the strategy grid.

    Only practical for small games / coarse grids (the grid has
    ``C(I+n-1, n-1) * C(I+m-1, m-1)`` points); used in tests to verify
    that the annealer reaches the grid optimum.

    The scan stacks the composition grids of both players and scores the
    cross product through :meth:`ObjectiveEvaluator.evaluate_batch` in
    chunks of ``chunk_size`` states, so the built-in evaluators process
    the whole grid as a handful of array operations (custom evaluators
    without a batch override fall back to per-state evaluation inside
    ``evaluate_batch`` and still see identical results).  The first grid
    point attaining the minimum — in row-player-major order, as the old
    per-state loop visited them — is returned.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    evaluator = evaluator or IdealEvaluator(game)
    n, m = game.shape
    p_grid = composition_grid(num_intervals, n)
    q_grid = composition_grid(num_intervals, m)
    num_q = q_grid.shape[0]
    num_states = p_grid.shape[0] * num_q
    best_objective = np.inf
    best_flat = 0
    for start in range(0, num_states, chunk_size):
        flat = np.arange(start, min(start + chunk_size, num_states))
        states = BatchedStrategyState(
            p_grid[flat // num_q], q_grid[flat % num_q], num_intervals
        )
        values = np.asarray(evaluator.evaluate_batch(states), dtype=float)
        index = int(np.argmin(values))
        if values[index] < best_objective:
            best_objective = float(values[index])
            best_flat = int(flat[index])
    best_state = QuantizedStrategyPair(
        p_grid[best_flat // num_q].copy(), q_grid[best_flat % num_q].copy(), num_intervals
    )
    return GridOptimum(
        best_state=best_state, best_objective=float(best_objective), num_states=num_states
    )
