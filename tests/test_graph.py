"""Batched differentiable forward/loss vs. the per-sample numpy path."""
import gc

import numpy as np
import pytest
from dataclasses import replace

from conftest import small_config
from semroute import graph
from semroute.data import Sample, generate_dataset
from semroute.losses import (
    contrastive_loss,
    distill_loss,
    main_loss,
    wrong_representation,
)
from semroute.model import Model
from semroute.scoring import score_all_options


@pytest.fixture(scope="module")
def setup():
    config = small_config()
    train_set, _ = generate_dataset(config, seed=config.seed)
    model = Model.init(config.d, config.n_experts, config.k, config.hidden,
                       config.seed)
    return config, model, train_set[:6]


def run_batch(config, model, batch, frozen=None):
    tensors = graph.parameter_tensors(model)
    return graph.batch_loss(tensors, batch, config, frozen=frozen), tensors


class TestParityWithPerSamplePath:
    def test_scores_match(self, setup):
        config, model, batch = setup
        (_, _, aux), _ = run_batch(config, model, batch)
        for row, sample in enumerate(batch):
            _, reps = score_all_options(sample, model, "teacher",
                                        lambda_a=config.lambda_a,
                                        lambda_o=config.lambda_o)
            np.testing.assert_allclose(aux["scores"][row],
                                       [r.score for r in reps], atol=1e-10)

    def test_loss_terms_match(self, setup):
        config, model, batch = setup
        (_, breakdown, _), _ = run_batch(config, model, batch)

        mains, contrasts, distills = [], [], []
        for sample in batch:
            decision, reps = score_all_options(sample, model, "teacher",
                                               lambda_a=config.lambda_a,
                                               lambda_o=config.lambda_o)
            uncs = [opt[1].uncertainty for opt in sample.options]
            m, _ = main_loss([r.score for r in reps], sample.correct, uncs,
                             config.temperature)
            mains.append(m)
            cue_set = sample.options[sample.correct][1]
            contrasts.append(contrastive_loss(
                reps[sample.correct].aggregated,
                wrong_representation(reps, sample.correct),
                cue_set.positive, cue_set.negative, config.lambda_c))
            distills.append(distill_loss(decision.teacher_gate,
                                         decision.student_gate))

        assert breakdown.main == pytest.approx(np.mean(mains), rel=1e-9)
        assert breakdown.contrast == pytest.approx(np.mean(contrasts), rel=1e-9)
        assert breakdown.distill == pytest.approx(np.mean(distills), rel=1e-9)
        assert breakdown.total == pytest.approx(
            breakdown.main + breakdown.contrast + breakdown.distill, rel=1e-12)

    def test_option_gates_match_masked_rows(self, setup):
        config, model, batch = setup
        tensors = graph.parameter_tensors(model)
        scores, reps, routing = graph.forward_options(tensors, batch, config)
        mask = routing["topk_mask"]
        for row, sample in enumerate(batch):
            decision, sreps = score_all_options(sample, model, "teacher",
                                                lambda_a=config.lambda_a,
                                                lambda_o=config.lambda_o)
            assert tuple(np.flatnonzero(mask[row])) == decision.topk
            for oid, srep in enumerate(sreps):
                np.testing.assert_allclose(reps.value[row, oid],
                                           srep.aggregated, atol=1e-10)


class TestSpanProperty:
    def test_representations_lie_in_selected_span(self, setup):
        config, model, batch = setup
        tensors = graph.parameter_tensors(model)
        _, reps, routing = graph.forward_options(tensors, batch, config)
        stacked = routing["experts"]  # (B, E, d)
        mask = routing["topk_mask"]
        for oid in range(len(batch[0].options)):
            for row in range(len(batch)):
                basis = stacked[row][mask[row]].T  # (d, K)
                target = reps.value[row, oid]
                coeffs = np.linalg.lstsq(basis, target, rcond=None)[0]
                misfit = basis @ coeffs - target
                assert np.linalg.norm(misfit) < 1e-9


class TestAblationWiring:
    def test_no_distill_exact_zero(self, setup):
        config, model, batch = setup
        (_, breakdown, _), _ = run_batch(replace(config, no_distill=True),
                                         model, batch)
        assert breakdown.distill == 0.0
        assert breakdown.total == breakdown.main + breakdown.contrast

    def test_no_contrast_exact_zero(self, setup):
        config, model, batch = setup
        (_, breakdown, _), _ = run_batch(replace(config, no_contrast=True),
                                         model, batch)
        assert breakdown.contrast == 0.0
        assert breakdown.total == breakdown.main + breakdown.distill

    def test_no_unc_unit_weights(self, setup):
        config, model, batch = setup
        (_, breakdown, _), _ = run_batch(replace(config, no_unc=True),
                                         model, batch)
        assert all(w == 1.0 for row in breakdown.option_weights for w in row)

    def test_no_sa_teacher_equals_student(self, setup):
        config, model, batch = setup
        (_, _, aux), _ = run_batch(replace(config, no_sa=True), model, batch)
        np.testing.assert_array_equal(aux["teacher_gate"], aux["student_gate"])

    def test_prompt_only_ignores_cues(self, setup):
        config, model, batch = setup
        stripped = [Sample(sample_id=s.sample_id, input_emb=s.input_emb,
                           options=[(t, None) for t, _ in s.options],
                           correct=s.correct, category=s.category)
                    for s in batch]
        (_, breakdown, aux), _ = run_batch(replace(config, prompt_only=True),
                                           model, stripped)
        np.testing.assert_array_equal(aux["teacher_gate"], aux["student_gate"])
        assert breakdown.contrast == 0.0
        assert breakdown.distill == 0.0
        assert all(w == 1.0 for row in breakdown.option_weights for w in row)


class TestFreezing:
    def test_frozen_rerun_reproduces_loss(self, setup):
        config, model, batch = setup
        (total_a, _, aux), _ = run_batch(config, model, batch)
        frozen = {"topk_mask": aux["topk_mask"],
                  "distill_target": aux["distill_target"]}
        (total_b, _, _), _ = run_batch(config, model, batch, frozen=frozen)
        assert total_a.value == total_b.value

    def test_distill_target_detached(self, setup):
        # distillation target is a plain array copy, not a live tape node
        config, model, batch = setup
        (_, _, aux), _ = run_batch(config, model, batch)
        assert isinstance(aux["distill_target"], np.ndarray)


class TestGradients:
    def test_backward_produces_finite_grads(self, setup):
        config, model, batch = setup
        (total, _, _), tensors = run_batch(config, model, batch)
        total.backward()
        for name, t in tensors.items():
            assert np.all(np.isfinite(t.grad)), name
        # at least the routing parameters must receive signal
        assert np.any(tensors["gating"].grad != 0.0)
        assert np.any(tensors["semantic"].grad != 0.0)

    def test_tape_freed_without_cycle_collector(self, setup):
        # a tape with reference cycles waits for the garbage collector,
        # whose pauses land in arbitrary training steps
        config, model, batch = setup
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            (total, _, _), _ = run_batch(config, model, batch)
            total.backward()
            del total
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, graph.ad.Tensor)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []

    def test_determinism(self, setup):
        config, model, batch = setup
        (a, _, _), _ = run_batch(config, model, batch)
        (b, _, _), _ = run_batch(config, model, batch)
        assert a.value == b.value
