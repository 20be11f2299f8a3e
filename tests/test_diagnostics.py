"""Routing quality metrics and their CSV outputs."""
import csv

import numpy as np
import pytest

from semroute.diagnostics import (
    read_heatmap_csv,
    routing_sharpness,
    routing_variance,
    selection_heatmap,
    sim_score,
    write_diagnostics_csv,
    write_heatmap_csv,
)
from semroute.errors import InvalidInputError, InvalidRoutingError


def topk_mask(topks, n_experts):
    """(N, E) boolean mask from per-sample Top-K index tuples."""
    mask = np.zeros((len(topks), n_experts), dtype=bool)
    for row, topk in enumerate(topks):
        mask[row, list(topk)] = True
    return mask


class TestSim:
    def test_parallel_direction(self, rng):
        h = rng.standard_normal(5)
        assert sim_score([h], np.array([1.0]), 2.0 * h) == pytest.approx(1.0,
                                                                         abs=1e-12)

    def test_weighted_combination(self, rng):
        outputs = [rng.standard_normal(5) for _ in range(2)]
        gate = np.array([0.3, 0.7])
        reference = 0.3 * outputs[0] + 0.7 * outputs[1]
        assert sim_score(outputs, gate, reference) == pytest.approx(1.0, abs=1e-12)

    def test_misaligned_lengths(self, rng):
        with pytest.raises(InvalidInputError):
            sim_score([rng.standard_normal(5)], np.array([0.5, 0.5]),
                      rng.standard_normal(5))

    def test_rows_match_single_samples(self, rng):
        outputs = rng.standard_normal((6, 3, 5))
        gate = rng.dirichlet(np.ones(3), size=6)
        reference = rng.standard_normal((6, 5))
        rows = sim_score(outputs, gate, reference)
        assert rows.shape == (6,)
        for i in range(6):
            assert rows[i] == pytest.approx(
                sim_score(list(outputs[i]), gate[i], reference[i]), rel=1e-12)


class TestSharpness:
    def test_uniform_gate_zero(self):
        assert routing_sharpness(np.full(4, 0.25), topk_mask([(0, 1)], 4)[0]) == \
            pytest.approx(0.0)

    def test_one_hot_selected(self):
        assert routing_sharpness(np.array([1.0, 0, 0, 0]), topk_mask([(0,)], 4)[0]) == 1.0

    def test_all_selected_rejected(self):
        with pytest.raises(InvalidRoutingError):
            routing_sharpness(np.full(4, 0.25), topk_mask([(0, 1, 2, 3)], 4)[0])

    def test_range(self, rng):
        g = rng.dirichlet(np.ones(6), size=20)
        v = routing_sharpness(g, topk_mask([(0, 1)] * 20, 6))
        assert v.shape == (20,)
        assert np.all((-1.0 < v) & (v <= 1.0))

    def test_rows_match_single_samples(self, rng):
        g = rng.dirichlet(np.ones(5), size=8)
        mask = topk_mask([tuple(rng.choice(5, size=2, replace=False)) for _ in range(8)], 5)
        rows = routing_sharpness(g, mask)
        for i in range(8):
            assert rows[i] == pytest.approx(
                g[i][mask[i]].mean() - g[i][~mask[i]].mean(), rel=1e-12, abs=1e-15)


class TestVariance:
    def test_identical_gates_zero(self):
        gates = [np.array([0.3, 0.7])] * 3
        assert routing_variance({"cat": gates})["cat"] == pytest.approx(0.0,
                                                                        abs=1e-30)

    def test_reference_value(self):
        # two samples, opposite one-hot gates over 2 experts:
        # per-expert unbiased variance is 0.5, mean 0.5, reported x10 = 5.0
        out = routing_variance({"cat": [np.array([1.0, 0.0]),
                                        np.array([0.0, 1.0])]})
        assert out["cat"] == pytest.approx(0.5, abs=1e-15)
        assert 10.0 * out["cat"] == pytest.approx(5.0, abs=1e-12)

    def test_singleton_category_rejected(self):
        with pytest.raises(InvalidInputError):
            routing_variance({"cat": [np.array([1.0, 0.0])]})


class TestHeatmap:
    def test_single_decision(self):
        categories, matrix = selection_heatmap(["a"], topk_mask([(0, 1)], 4))
        assert categories == ["a"]
        np.testing.assert_array_equal(matrix, [[1, 1, 0, 0]])

    def test_rows_sum_to_k(self, rng):
        topks = [tuple(sorted(rng.choice(6, size=2, replace=False))) for _ in range(50)]
        categories, matrix = selection_heatmap([f"cat{i % 3}" for i in range(50)],
                                               topk_mask(topks, 6))
        assert categories == sorted(categories)
        np.testing.assert_allclose(matrix.sum(axis=1), 2.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            selection_heatmap([], np.zeros((0, 4), dtype=bool))

    def test_csv_round_trip_bit_exact(self, tmp_path, rng):
        categories, matrix = selection_heatmap(
            [f"c{i % 2}" for i in range(7)],
            topk_mask([(int(i % 3), 3) for i in range(7)], 4))
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, categories, matrix)
        loaded_categories, loaded = read_heatmap_csv(path)
        assert loaded_categories == categories
        np.testing.assert_array_equal(loaded, matrix)


class TestDiagnosticsCSV:
    def test_columns_and_x10(self, tmp_path):
        path = tmp_path / "diagnostics.csv"
        write_diagnostics_csv(path, "run0", {"a": 0.05, "b": 0.02}, 0.4,
                              {"a": 0.3, "b": 0.1})
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["category"] for r in rows] == ["a", "b"]
        for row in rows:
            assert row["run_id"] == "run0"
            assert float(row["variance_x10"]) == pytest.approx(
                10 * float(row["variance_raw"]), rel=1e-15)
        assert float(rows[0]["variance_x10"]) == pytest.approx(0.5)
