"""Option-aware reweighting, aggregation and per-sample prediction."""
import numpy as np
import pytest

from semroute.cues import CueSet
from semroute.data import Sample
from semroute.errors import (
    InvalidInputError,
    InvalidRoutingError,
    MissingCueError,
    ShapeError,
)
from semroute.model import Model
from semroute.numerics import seeded_rng, softmax
from semroute.scoring import (
    aggregate,
    option_gate,
    predict,
    score_all_options,
    score_option,
)


def make_sample(model, rng, with_cues=True, correct=0, n_options=3):
    d = model.d
    options = []
    for _ in range(n_options):
        cues = None
        if with_cues:
            pos = rng.standard_normal(d)
            neg = rng.standard_normal(d)
            cues = CueSet(np.stack([pos, neg, *(pos + 0.01 * rng.standard_normal(d)
                                                for _ in range(3))]))
        options.append((rng.standard_normal(d), cues))
    return Sample(sample_id="s0", input_emb=rng.standard_normal(d),
                  options=options, correct=correct, category="c0")


@pytest.fixture
def model():
    return Model.init(6, 4, 2, 5, seed=0)


class TestOptionGate:
    def test_distribution_over_topk(self, rng):
        g = option_gate(rng.standard_normal(5), (1, 3), rng.standard_normal(5), 0.5)
        assert g.shape == (2,)
        assert abs(g.sum() - 1.0) <= 1e-12
        assert np.all(g > 0)

    def test_zero_lambda_matches_restricted_softmax(self, rng):
        z = rng.standard_normal(5)
        topk = (0, 2, 4)
        expected = softmax(z[list(topk)])
        for _ in range(3):
            g = option_gate(z, topk, rng.standard_normal(5), 0.0)
            np.testing.assert_allclose(g, expected, atol=1e-15)

    def test_empty_topk_rejected(self, rng):
        with pytest.raises(InvalidRoutingError):
            option_gate(rng.standard_normal(5), (), rng.standard_normal(5), 0.5)

    def test_shape_and_sign_guards(self, rng):
        with pytest.raises(ShapeError):
            option_gate(rng.standard_normal(5), (0, 1), rng.standard_normal(4), 0.5)
        with pytest.raises(InvalidInputError):
            option_gate(rng.standard_normal(5), (0, 1), rng.standard_normal(5), -0.1)


class TestAggregate:
    def test_one_hot_selects_exactly(self, rng):
        outputs = [rng.standard_normal(6) for _ in range(3)]
        np.testing.assert_array_equal(aggregate([0.0, 1.0, 0.0], outputs),
                                      outputs[1])

    def test_uniform_is_mean(self, rng):
        outputs = [rng.standard_normal(6) for _ in range(2)]
        np.testing.assert_allclose(aggregate([0.5, 0.5], outputs),
                                   (outputs[0] + outputs[1]) / 2, atol=1e-15)

    def test_length_guard(self, rng):
        with pytest.raises(ShapeError):
            aggregate([0.5, 0.5], [rng.standard_normal(6)])


class TestScoreAndPredict:
    def test_parallel_and_orthogonal(self):
        v = np.array([1.0, 2.0, 0.0])
        assert score_option(v, 3.0 * v) == pytest.approx(1.0, abs=1e-12)
        assert score_option(v, np.array([-2.0, 1.0, 0.0])) == pytest.approx(0.0,
                                                                            abs=1e-15)

    def test_predict_argmax_and_tie(self):
        assert predict([0.1, 0.9, 0.3, 0.2]) == 1
        assert predict([0.5, 0.5, 0.5]) == 0

    def test_predict_empty(self):
        with pytest.raises(InvalidInputError):
            predict([])


class TestScoreAllOptions:
    def test_topk_shared_across_options(self, model):
        from semroute.scoring import select_topk
        rng = seeded_rng(1)
        for _ in range(20):
            sample = make_sample(model, rng)
            t_decision, t_reps = score_all_options(sample, model, "teacher")
            s_decision, s_reps = score_all_options(sample, model, "student")
            # one selection per sample per mode, from that mode's gate
            assert t_decision.topk == select_topk(t_decision.teacher_gate, model.k)
            assert s_decision.topk == select_topk(s_decision.student_gate, model.k)
            for reps in (t_reps, s_reps):
                assert len(reps) == len(sample.options)
                for rep in reps:
                    assert abs(rep.option_gate.sum() - 1.0) <= 1e-12

    def test_teacher_requires_cues(self, model):
        sample = make_sample(model, seeded_rng(2), with_cues=False)
        with pytest.raises(MissingCueError):
            score_all_options(sample, model, "teacher")
        # student mode never touches cues
        decision, reps = score_all_options(sample, model, "student")
        assert len(reps) == 3

    def test_unknown_mode(self, model):
        sample = make_sample(model, seeded_rng(3))
        with pytest.raises(InvalidInputError):
            score_all_options(sample, model, "oracle")

    def test_teacher_student_agree_when_injection_off(self, model):
        sample = make_sample(model, seeded_rng(4))
        t_decision, t_reps = score_all_options(sample, model, "teacher",
                                               lambda_a=0.0, lambda_o=0.0)
        s_decision, s_reps = score_all_options(sample, model, "student",
                                               lambda_a=0.0, lambda_o=0.0)
        np.testing.assert_allclose(t_decision.teacher_gate, s_decision.student_gate,
                                   atol=1e-15)
        for t, s in zip(t_reps, s_reps):
            np.testing.assert_allclose(t.option_gate, s.option_gate, atol=1e-15)
            assert t.score == pytest.approx(s.score, abs=1e-15)

    def test_deterministic(self, model):
        sample = make_sample(model, seeded_rng(5))
        a = score_all_options(sample, model, "teacher")
        b = score_all_options(sample, model, "teacher")
        for ra, rb in zip(a[1], b[1]):
            assert ra.score == rb.score
