"""Loss terms: weighted main loss, contrastive pull/push, distillation."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from semroute.errors import InvalidInputError
from semroute.graph import WEIGHT_CLIP
from semroute.numerics import binary_cross_entropy, softmax
from semroute.scoring import (
    contrastive_loss,
    distill_loss,
    main_loss,
    option_weight,
    wrong_representation,
)


class TestOptionWeight:
    def test_zero_uncertainty_full_weight(self):
        assert option_weight(0.0) == 1.0

    def test_clipped_at_floor(self):
        # 1/(1+19) = 0.05 clips up to 0.1
        assert option_weight(19.0) == WEIGHT_CLIP[0] == 0.1

    def test_midrange(self):
        assert option_weight(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            option_weight(-0.01)


class TestMainLoss:
    def test_zero_uncertainty_is_plain_sum(self, rng):
        scores = rng.uniform(-1, 1, size=4)
        label = 2
        loss, weights = main_loss(scores, label, [0.0] * 4, 5.0)
        expected = sum(binary_cross_entropy(s, 1 if j == label else 0, 5.0)
                       for j, s in enumerate(scores))
        assert weights == [1.0] * 4
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_reference_two_option_value(self):
        # oracle: hand evaluation, both options contribute -ln sigmoid(4.5)
        expected = 2 * -math.log(1.0 / (1.0 + math.exp(-4.5)))
        loss, _ = main_loss([0.9, -0.9], 0, [0.0, 0.0], 5.0)
        assert loss == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0221, abs=5e-5)

    def test_weights_scale_terms(self):
        full, _ = main_loss([0.5, -0.5], 0, [0.0, 0.0], 5.0)
        halved, weights = main_loss([0.5, -0.5], 0, [1.0, 1.0], 5.0)
        assert weights == [0.5, 0.5]
        assert halved == pytest.approx(full / 2, rel=1e-12)

    def test_label_guard(self):
        with pytest.raises(InvalidInputError):
            main_loss([0.1, 0.2], 2, [0.0, 0.0], 5.0)

    def test_alignment_guard(self):
        with pytest.raises(InvalidInputError):
            main_loss([0.1, 0.2], 0, [0.0], 5.0)


class TestContrastive:
    def test_reference_value(self):
        h_c = np.array([2.0, 0.0])
        c_pos = np.array([5.0, 0.0])       # parallel -> cos 1
        h_w = np.array([0.0, 1.0])
        c_neg = np.array([1.0, 0.0])       # orthogonal -> cos 0
        assert contrastive_loss(h_c, h_w, c_pos, c_neg, 0.3) == pytest.approx(-0.3)

    def test_lambda_scaling(self, rng):
        args = [rng.standard_normal(4) for _ in range(4)]
        assert contrastive_loss(*args, 0.6) == pytest.approx(
            2 * contrastive_loss(*args, 0.3), rel=1e-12)


class TestWrongRepresentation:
    def rep(self, score, vec):
        return SimpleNamespace(score=score, aggregated=np.asarray(vec, dtype=float))

    def test_single_wrong_option(self):
        reps = [self.rep(0.9, [1, 0]), self.rep(0.1, [0, 1])]
        np.testing.assert_allclose(wrong_representation(reps, 0), [0, 1], atol=1e-15)

    def test_equal_scores_average(self):
        reps = [self.rep(0.9, [9, 9]), self.rep(0.3, [1, 0]), self.rep(0.3, [0, 1])]
        np.testing.assert_allclose(wrong_representation(reps, 0), [0.5, 0.5],
                                   atol=1e-15)

    def test_softmax_pooling_weights(self):
        reps = [self.rep(0.0, [9, 9]), self.rep(0.8, [1, 0]), self.rep(0.2, [0, 1])]
        w = softmax([0.8, 0.2])
        np.testing.assert_allclose(wrong_representation(reps, 0), [w[0], w[1]],
                                   atol=1e-12)

    def test_needs_a_wrong_option(self):
        with pytest.raises(InvalidInputError):
            wrong_representation([self.rep(0.5, [1, 0])], 0)


class TestDistill:
    def test_identical_gates_zero(self):
        g = softmax([0.3, -0.2, 1.0])
        assert distill_loss(g, g) == 0.0

    def test_positive_otherwise(self):
        assert distill_loss(softmax([1, 0]), softmax([0, 1])) > 0.0
