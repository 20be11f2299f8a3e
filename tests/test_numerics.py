"""Scalar numeric primitives and the finite-difference oracle."""
import math

import numpy as np
import pytest

from semroute.errors import (
    DegenerateVectorError,
    InvalidDistributionError,
    InvalidInputError,
    ProbeFailureError,
    ShapeError,
)
from semroute.numerics import (
    binary_cross_entropy,
    cosine,
    finite_difference_gradient,
    kl_divergence,
    seeded_rng,
    sigmoid,
    softmax,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0, 0, 0, 0]), [0.25] * 4, rtol=0, atol=0)

    def test_reference_values(self):
        # oracle: direct evaluation of exp(z_i)/sum exp(z_j)
        z = np.array([1.0, 2.0, 3.0])
        expected = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(expected, [0.09003057, 0.24472847, 0.66524096],
                                   atol=5e-9)
        np.testing.assert_allclose(softmax(z), expected, rtol=1e-14)

    def test_normalized_and_positive(self, rng):
        for _ in range(50):
            g = softmax(rng.standard_normal(8) * 10)
            assert abs(g.sum() - 1.0) <= 1e-12
            assert np.all(g > 0)

    def test_shift_invariance(self, rng):
        z = rng.standard_normal(6)
        np.testing.assert_allclose(softmax(z), softmax(z + 123.0), atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            softmax([1.0, np.nan])
        with pytest.raises(InvalidInputError):
            softmax([1.0, np.inf])


class TestCosine:
    def test_identity_and_antipodal(self, rng):
        v = rng.standard_normal(5)
        assert cosine(v, v) == 1.0
        assert cosine(v, -v) == -1.0

    def test_reference_value(self):
        assert cosine([1, 0], [1, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert cosine([1, 0], [1, 1]) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine([0, 0], [1, 0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cosine([1, 0], [1, 0, 0])


class TestKL:
    def test_identical_is_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_reference_value(self):
        assert kl_divergence([1, 0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_times_log_zero(self):
        # p has a zero entry; that term contributes exactly 0
        assert kl_divergence([0.0, 1.0], [0.2, 0.8]) == pytest.approx(
            math.log(1 / 0.8), abs=1e-12)

    def test_non_normalized_rejected(self):
        with pytest.raises(InvalidDistributionError):
            kl_divergence([0.6, 0.6], [0.5, 0.5])

    def test_zero_q_rejected(self):
        with pytest.raises(InvalidDistributionError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_nonnegative(self, rng):
        for _ in range(50):
            p = softmax(rng.standard_normal(5))
            q = softmax(rng.standard_normal(5))
            assert kl_divergence(p, q) >= 0.0


class TestBCE:
    def test_zero_score_is_ln2(self):
        for tau in (1.0, 5.0, 7.3):
            assert binary_cross_entropy(0.0, 1, tau) == pytest.approx(math.log(2),
                                                                      abs=1e-12)

    def test_reference_value(self):
        # oracle: -ln(sigmoid(5)) computed independently
        expected = -math.log(1.0 / (1.0 + math.exp(-5.0)))
        assert expected == pytest.approx(0.00671535, abs=5e-9)
        assert binary_cross_entropy(1.0, 1, 5.0) == pytest.approx(expected, rel=1e-10)

    def test_label_symmetry(self):
        assert binary_cross_entropy(0.4, 0, 5.0) == pytest.approx(
            binary_cross_entropy(-0.4, 1, 5.0), rel=1e-12)

    def test_no_clamp_at_large_logits(self):
        # log(1 + exp(100)) is 100 to double precision; a clamped sigmoid
        # stopped at -log(1e-12), about 27.6
        assert binary_cross_entropy(1.0, 0, 100.0) == 100.0
        assert binary_cross_entropy(-1.0, 1, 100.0) == 100.0
        assert binary_cross_entropy(1.0, 1, 800.0) == 0.0

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            binary_cross_entropy(0.5, 2, 5.0)
        with pytest.raises(InvalidInputError):
            binary_cross_entropy(0.5, 1, 0.0)
        with pytest.raises(InvalidInputError):
            binary_cross_entropy(float("nan"), 1, 5.0)


class TestSigmoid:
    def test_extreme_stability(self):
        assert sigmoid(np.array([800.0])) == pytest.approx(1.0)
        assert sigmoid(np.array([-800.0])) == pytest.approx(0.0)
        assert np.all(np.isfinite(sigmoid(np.array([-800.0, 0.0, 800.0]))))


class TestFiniteDifference:
    def test_quadratic(self):
        grads = finite_difference_gradient(
            lambda p: float(p["x"][0] ** 2), {"x": np.array([3.0])})
        assert grads["x"][0] == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        grads = finite_difference_gradient(lambda p: 1.5, {"x": np.ones((2, 3))})
        assert np.all(grads["x"] == 0.0)

    def test_probe_failure_names_parameter(self):
        def bad(params):
            return float("nan")

        with pytest.raises(ProbeFailureError) as exc:
            finite_difference_gradient(bad, {"weights": np.array([1.0])})
        assert "weights" in str(exc.value)

    def test_matches_analytic_on_multivariate(self, rng):
        a = rng.standard_normal((3, 2))

        def loss(p):
            return float(np.sum(np.tanh(p["w"]) * a))

        w = rng.standard_normal((3, 2))
        grads = finite_difference_gradient(loss, {"w": w})
        np.testing.assert_allclose(grads["w"], a / np.cosh(w) ** 2, atol=1e-8)

    def test_bad_step_rejected(self):
        with pytest.raises(InvalidInputError):
            finite_difference_gradient(lambda p: 0.0, {"x": np.ones(1)}, step=0.0)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(42).standard_normal(100)
        b = seeded_rng(42).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_rng(1).standard_normal(10)
        b = seeded_rng(2).standard_normal(10)
        assert not np.array_equal(a, b)
