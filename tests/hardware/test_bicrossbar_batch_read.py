"""The one-pass batched bi-crossbar read against the per-phase reference.

``BiCrossbar.evaluate_batch`` gathers all four crossbar reads, draws the
read noise once and converts once.  :func:`per_phase_evaluate_batch`
below is the earlier read it replaced: Phase 1 (two MV reads, two WTA
trees, two ADC conversions) then Phase 2 (two VMV reads, two
conversions), every read drawing its own noise.  The one-pass read must
return the same bits and leave the device generator in the same state.
"""

import numpy as np
import pytest

from repro.core import BatchedStrategyState
from repro.games.generators import random_game
from repro.hardware import IDEAL_VARIABILITY, PAPER_VARIABILITY, BiCrossbar


def _noisy(crossbar, currents):
    return currents * crossbar.variability.sample_read_noise(currents.shape, seed=crossbar._rng)


def _parent_layout(crossbar):
    """The cumulative tensor as a transposed view of ``(n, I+1, m, I+1)``."""
    padded = np.ascontiguousarray(np.transpose(crossbar._block_cumulative, (0, 2, 1, 3)))
    return np.transpose(padded, (0, 2, 1, 3))


def _mv_batch(crossbar, col_counts):
    layout = crossbar.layout
    n, m, intervals = layout.num_row_actions, layout.num_col_actions, layout.num_intervals
    col_counts = crossbar._validate_batch_counts(col_counts, m, "col_counts")
    block = _parent_layout(crossbar)[
        np.arange(n)[None, :, None], np.arange(m)[None, None, :], intervals, col_counts[:, None, :]
    ]
    return _noisy(crossbar, block.sum(axis=2))


def _vmv_batch(crossbar, row_counts, col_counts):
    layout = crossbar.layout
    n, m = layout.num_row_actions, layout.num_col_actions
    row_counts = crossbar._validate_batch_counts(row_counts, n, "row_counts")
    col_counts = crossbar._validate_batch_counts(col_counts, m, "col_counts")
    block = _parent_layout(crossbar)[
        np.arange(n)[None, :, None],
        np.arange(m)[None, None, :],
        row_counts[:, :, None],
        col_counts[:, None, :],
    ]
    return _noisy(crossbar, block.sum(axis=(1, 2)))


def _wta(tree, currents):
    # Chain by chain through the scalar cells, independent of the batched tree.
    return np.array([tree.output_current_a(chain) for chain in currents])


def _decode(crossbar, currents):
    intervals = crossbar.layout.num_intervals
    scale = crossbar.unit_current_a * intervals * intervals / crossbar.value_per_cell
    return np.asarray(currents, dtype=float) / scale


def per_phase_evaluate_batch(bicrossbar, p_counts, q_counts):
    """The per-phase batched read: ``(max(Mq), max(N^T p), p^T (M+N) q)``."""
    row, col, adc = bicrossbar.row_crossbar, bicrossbar.col_crossbar, bicrossbar.adc
    row_max = _wta(bicrossbar.row_wta, _mv_batch(row, q_counts))
    col_max = _wta(bicrossbar.col_wta, _mv_batch(col, p_counts))
    max_rows = _decode(row, adc.convert(row_max))
    max_cols = _decode(col, adc.convert(col_max))
    vmv = _decode(row, adc.convert(_vmv_batch(row, p_counts, q_counts))) + _decode(
        col, adc.convert(_vmv_batch(col, q_counts, p_counts))
    )
    return max_rows, max_cols, vmv


SHAPES = [(2, 2), (3, 5), (5, 3), (1, 4), (16, 16)]


def _pair(shape, intervals, variability, seed):
    game = random_game(*shape, seed=seed)
    return [
        BiCrossbar(game, num_intervals=intervals, variability=variability, seed=seed)
        for _ in range(2)
    ]


def _states(shape, intervals, batch_size, seed):
    rng = np.random.default_rng(seed)
    return BatchedStrategyState.random(batch_size, *shape, intervals, rng)


@pytest.mark.parametrize("intervals", [4, 8, 16])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_one_pass_read_bit_identical_to_per_phase_reads(shape, intervals):
    one_pass, reference = _pair(shape, intervals, PAPER_VARIABILITY, seed=7)
    np.testing.assert_array_equal(one_pass.row_crossbar._block_cumulative,
                                  reference.row_crossbar._block_cumulative)
    for call in range(3):
        states = _states(shape, intervals, 33 + call, seed=call)
        got = one_pass.evaluate_batch(states.p_counts, states.q_counts)
        want = per_phase_evaluate_batch(reference, states.p_counts, states.q_counts)
        np.testing.assert_array_equal(got.max_row_values, want[0])
        np.testing.assert_array_equal(got.max_col_values, want[1])
        np.testing.assert_array_equal(got.vmv_values, want[2])
        assert one_pass._rng.bit_generator.state == reference._rng.bit_generator.state


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_ideal_variability_consumes_no_draw(shape):
    one_pass, reference = _pair(shape, 8, IDEAL_VARIABILITY, seed=3)
    states = _states(shape, 8, 16, seed=4)
    before = one_pass._rng.bit_generator.state
    got = one_pass.evaluate_batch(states.p_counts, states.q_counts)
    assert one_pass._rng.bit_generator.state == before
    want = per_phase_evaluate_batch(reference, states.p_counts, states.q_counts)
    np.testing.assert_array_equal(got.objective, want[0] + want[1] - want[2])


def test_cumulative_tensor_read_through_a_flat_view():
    bicrossbar = BiCrossbar(random_game(3, 5, seed=0), num_intervals=4, seed=0)
    for crossbar in (bicrossbar.row_crossbar, bicrossbar.col_crossbar):
        assert crossbar._block_cumulative.flags.c_contiguous
        assert np.shares_memory(crossbar._block_cumulative.reshape(-1),
                                crossbar._block_cumulative)


class TestOperandValidation:
    @pytest.fixture
    def bicrossbar(self):
        return BiCrossbar(random_game(2, 3, seed=0), num_intervals=4, seed=0)

    def test_shape(self, bicrossbar):
        with pytest.raises(ValueError, match=r"row_counts must have shape \(batch, 2\)"):
            bicrossbar.evaluate_batch(np.full((4, 3), 1), np.full((4, 3), 1))
        with pytest.raises(ValueError, match=r"col_counts must have shape \(batch, 3\)"):
            bicrossbar.evaluate_batch(np.full((4, 2), 2), np.full(3, 1))

    def test_range(self, bicrossbar):
        with pytest.raises(ValueError, match=r"row_counts must be within \[0, 4\]"):
            bicrossbar.evaluate_batch(np.array([[5, -1]]), np.array([[2, 1, 1]]))
        with pytest.raises(ValueError, match=r"col_counts must be within \[0, 4\]"):
            bicrossbar.evaluate_batch(np.array([[2, 2]]), np.array([[6, -1, -1]]))

    def test_batch_mismatch(self, bicrossbar):
        with pytest.raises(ValueError, match="disagree on batch size: 2 vs 3"):
            bicrossbar.evaluate_batch(np.full((2, 2), 2), np.array([[2, 1, 1]] * 3))
