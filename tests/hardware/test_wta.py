"""Tests for the WTA cell and tree."""

import numpy as np
import pytest

from repro.hardware import FF, SS, TT, WTACell, WTAParameters, WTATree, wta_cells_required


class TestWTACell:
    def test_output_is_maximum(self):
        cell = WTACell(WTAParameters(output_offset_fraction=0.0), seed=0)
        assert cell.output_current_a(3e-6, 7e-6) == pytest.approx(7e-6)
        assert cell.output_current_a(7e-6, 3e-6) == pytest.approx(7e-6)

    def test_offset_is_small(self):
        errors = []
        for seed in range(50):
            cell = WTACell(WTAParameters(), seed=seed)
            output = cell.output_current_a(5e-6, 10e-6)
            errors.append(abs(output - 10e-6) / 10e-6)
        # Paper reports a 0.25 % output offset; individual cells stay within a few sigma.
        assert max(errors) < 0.02
        assert np.mean(errors) < 0.005

    def test_negative_input_rejected(self):
        cell = WTACell(seed=0)
        with pytest.raises(ValueError):
            cell.output_current_a(-1e-6, 1e-6)

    def test_latency_scales_with_corner(self):
        nominal = WTACell(corner=TT, seed=0).latency_ns
        assert WTACell(corner=SS, seed=0).latency_ns > nominal
        assert WTACell(corner=FF, seed=0).latency_ns < nominal

    def test_paper_latency_default(self):
        assert WTACell(corner=TT, seed=0).latency_ns == pytest.approx(0.08)

    def test_transient_settles_to_static_value(self):
        cell = WTACell(WTAParameters(output_offset_fraction=0.0), seed=0)
        final = cell.output_current_a(4e-6, 9e-6)
        waveform = cell.transient_output_a(4e-6, 9e-6, np.array([0.0, 0.04, 0.08, 1.0]))
        assert waveform[0] == pytest.approx(0.0)
        assert waveform[-1] == pytest.approx(final, rel=1e-3)
        assert np.all(np.diff(waveform) >= 0)

    def test_transient_rejects_negative_times(self):
        cell = WTACell(seed=0)
        with pytest.raises(ValueError):
            cell.transient_output_a(1e-6, 2e-6, np.array([-1.0]))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WTAParameters(output_offset_fraction=-0.1)
        with pytest.raises(ValueError):
            WTAParameters(latency_ns=0.0)


class TestWTATree:
    def test_cells_required_formula(self):
        assert wta_cells_required(1) == 0
        assert wta_cells_required(2) == 1
        assert wta_cells_required(4) == 3
        assert wta_cells_required(8) == 7
        assert wta_cells_required(5) == 7  # padded to 8 inputs
        with pytest.raises(ValueError):
            wta_cells_required(0)

    def test_tree_structure_matches_formula(self):
        for num_inputs in (1, 2, 3, 4, 6, 8):
            tree = WTATree(num_inputs, seed=0)
            assert tree.num_cells == wta_cells_required(num_inputs)

    def test_output_close_to_maximum(self):
        tree = WTATree(4, WTAParameters(output_offset_fraction=0.0), seed=0)
        inputs = np.array([2e-6, 9e-6, 5e-6, 1e-6])
        assert tree.output_current_a(inputs) == pytest.approx(9e-6)

    def test_relative_error_small_with_offsets(self):
        tree = WTATree(8, WTAParameters(), seed=1)
        inputs = np.linspace(1e-6, 8e-6, 8)
        assert tree.relative_error(inputs) < 0.02

    def test_single_input_tree(self):
        tree = WTATree(1, seed=0)
        assert tree.output_current_a(np.array([3e-6])) == pytest.approx(3e-6)
        assert tree.latency_ns == 0.0

    def test_wrong_input_count_rejected(self):
        tree = WTATree(4, seed=0)
        with pytest.raises(ValueError):
            tree.output_current_a(np.array([1e-6, 2e-6]))

    def test_negative_inputs_rejected(self):
        tree = WTATree(2, seed=0)
        with pytest.raises(ValueError):
            tree.output_current_a(np.array([-1e-6, 2e-6]))

    def test_latency_grows_with_depth(self):
        assert WTATree(8, seed=0).latency_ns > WTATree(2, seed=0).latency_ns

    def test_invalid_input_count(self):
        with pytest.raises(ValueError):
            WTATree(0)

    def test_paper_tree_of_four_inputs_uses_three_cells(self):
        # Fig. 5(a): three 2-input WTA cells for four inputs.
        assert WTATree(4, seed=0).num_cells == 3

    @pytest.mark.parametrize("corner", [TT, SS, FF], ids=lambda c: c.name)
    @pytest.mark.parametrize("num_inputs", [1, 2, 3, 5, 8])
    def test_batch_bit_identical_to_scalar_tree(self, num_inputs, corner):
        tree = WTATree(num_inputs, corner=corner, seed=1)
        inputs = np.random.default_rng(2).random((16, num_inputs)) * 1e-5
        batched = tree.output_currents_batch_a(inputs)
        np.testing.assert_array_equal(
            batched, [tree.output_current_a(chain) for chain in inputs]
        )
        assert not np.shares_memory(batched, inputs)
