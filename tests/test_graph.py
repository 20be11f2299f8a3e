"""Batched differentiable forward/loss vs. the per-sample numpy path."""
import gc

import numpy as np
import pytest
from dataclasses import replace

from conftest import load_round_trip, patchy_cue_table, small_config
from semroute import graph
from semroute.cues import CueSet
from semroute.data import Sample, Split, generate_dataset
from semroute.errors import DataError, MissingCueError
from semroute.gradcheck import REL_TOL, gradient_check, relative_error
from semroute.model import Model, block_shapes
from semroute.numerics import finite_difference_gradient
from semroute.scoring import (
    contrastive_loss,
    distill_loss,
    main_loss,
    score_all_options,
    wrong_representation,
)
from semroute.trainer import ABLATION_FLAGS, evaluate


@pytest.fixture(scope="module")
def setup():
    config = small_config()
    train_set, _ = generate_dataset(config, seed=config.seed)
    model = Model.init(config.d, config.n_experts, config.k, config.hidden,
                       config.seed)
    return config, model, train_set[:6]


def run_batch(config, model, batch, frozen=None):
    tensors = graph.parameter_tensors(model)
    return graph.batch_loss(tensors, Split.of(batch).batch, config, frozen=frozen), tensors


def tape_nodes(root):
    """Every node reachable from `root`, the set `Tensor.backward` visits."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return list(seen.values())


def strip_cues(sample, options):
    return Sample(sample_id=sample.sample_id, input_emb=sample.input_emb,
                  options=[(t, None if oid in options else cs)
                           for oid, (t, cs) in enumerate(sample.options)],
                  correct=sample.correct, category=sample.category)


def assert_same_batch(a, b):
    """Every field of two `Batch`es equal in dtype, shape and bytes."""
    for name, u, v in zip(graph.Batch._fields, a, b):
        assert (u.dtype, u.shape) == (v.dtype, v.shape), name
        assert np.ascontiguousarray(u).tobytes() == np.ascontiguousarray(v).tobytes(), name


class TestBatch:
    def test_take_equals_gathering_the_rows(self, setup):
        _, _, samples = setup
        rows = np.array([4, 0, 2])
        taken = Split.of(samples).batch.take(rows)
        assert_same_batch(taken, Split.of([samples[i] for i in rows]).batch)
        assert taken.text.shape == (3, len(samples[0].options), samples[0].input_emb.size)
        np.testing.assert_array_equal(taken.pos[1, 2], samples[0].options[2][1].positive)
        assert taken.unc[2, 1] == samples[2].options[1][1].uncertainty

    @pytest.mark.parametrize("sliced", [False, True])
    def test_empty_list_is_data_error(self, setup, sliced):
        config, model, samples = setup
        with pytest.raises(DataError, match="^the dataset holds no samples$"):
            if sliced:  # an empty slice of a split has a batch of no rows
                evaluate(model, samples[2:2], "student", config)
            else:
                Split.of([])

    def test_cue_free_record_holds_no_cues(self, setup):
        _, _, samples = setup
        batch = Split.of([strip_cues(s, range(len(s.options))) for s in samples]).batch
        assert not batch.has_cue.any()
        assert not (batch.pos.any() or batch.neg.any() or batch.unc.any())
        assert batch.pos.shape == batch.neg.shape == batch.text.shape

    def test_absent_cue_marked_and_zero(self, setup):
        _, _, samples = setup
        batch = Split.of([samples[0], strip_cues(samples[1], {1})]).batch
        assert batch.has_cue.sum() == batch.has_cue.size - 1 and not batch.has_cue[1, 1]
        assert not batch.pos[1, 1].any() and batch.unc[1, 1] == 0.0

    @pytest.mark.parametrize("strip_correct", [False, True])
    def test_missing_cue_names_sample_and_option(self, setup, strip_correct):
        config, model, samples = setup
        wrong = (samples[1].correct + 1) % len(samples[1].options)
        stripped = [samples[0], strip_cues(samples[1], {wrong}), samples[2]]
        expected = (samples[1].sample_id, wrong)
        if strip_correct:
            # the correct answer's cue direction is read before the options'
            stripped[2] = strip_cues(samples[2], {samples[2].correct})
            expected = (samples[2].sample_id, samples[2].correct)
        tensors = graph.parameter_tensors(model)
        with pytest.raises(MissingCueError) as exc:
            graph.forward_options(tensors, Split.of(stripped).batch, config)
        assert (exc.value.sample_id, exc.value.option_id) == expected
        assert type(exc.value.sample_id) is str
        # student mode reads no cue
        graph.forward_options(tensors, Split.of(stripped).batch, config, mode="student")


class TestSplit:
    @pytest.fixture(scope="class")
    def generated(self):
        return generate_dataset(small_config(), seed=3)

    @pytest.mark.parametrize("rows", [slice(None), slice(3, 9), slice(None, None, -2),
                                      slice(-5, None)])
    def test_generated_batch_is_the_gather(self, generated, rows):
        for split in generated:
            part = split[rows]
            assert type(part) is Split
            assert_same_batch(part.batch, Split.of(list(part)).batch)

    def test_generated_batch_views_the_samples_arrays(self, generated):
        for split in generated:
            first = split[0]
            assert np.shares_memory(split.batch.x, first.input_emb)
            assert np.shares_memory(split.batch.text, first.options[0][0])
            for cues in (split.batch.pos, split.batch.neg, split[:3].batch.pos):
                assert np.shares_memory(cues, first.options[0][1].block)

    @pytest.mark.parametrize("cues", ["patchy", "none"])
    def test_loaded_batch_is_the_gather(self, generated, tmp_path, cues):
        samples = generated[0]
        table = patchy_cue_table(samples, samples.batch.x.shape[1]) if cues == "patchy" else None
        loaded = load_round_trip(samples, tmp_path, table)
        assert type(loaded) is Split
        for part in (loaded, loaded[2:7]):
            assert_same_batch(part.batch, Split.of(list(part)).batch)
        if table is None:
            assert not loaded.batch.has_cue.any()
        else:
            assert np.flatnonzero(~loaded.batch.has_cue) == [1 * len(samples[1].options)
                                                             + samples[1].correct]
            assert {len(cs.variants) for s in loaded for _, cs in s.options
                    if cs is not None} == {2, 3, 4}

    def test_reads_as_a_sequence_of_samples(self, generated):
        train, held_out = generated
        assert type(train[0]) is Sample and train[-1] is list(train)[-1]
        joined = train + held_out
        assert type(joined) is list
        assert [id(s) for s in joined] == [id(s) for s in (*train, *held_out)]
        collected = [train[0]]
        collected += held_out
        assert [id(s) for s in collected] == [id(train[0])] + [id(s) for s in held_out]
        assert [id(s) for s in [train[0]] + held_out] == [id(s) for s in collected]

    @pytest.mark.parametrize("change", ["input_dim", "option_count", "option_dim", "cue_dim"])
    def test_ragged_samples_are_data_error(self, setup, change):
        config, model, samples = setup
        odd, options = samples[1], list(samples[1].options)
        text, cs = options[1]
        if change == "input_dim":
            odd = replace(odd, input_emb=odd.input_emb[:2])
        elif change == "option_count":
            odd = replace(odd, options=options[:2], correct=0)
        elif change == "option_dim":
            options[1] = (text[:2], cs)
            odd = replace(odd, options=options)
        else:
            options[1] = (text, CueSet(cs.block[:, :2]))
            odd = replace(odd, options=options)
        with pytest.raises(DataError, match=f"^sample {odd.sample_id!r} differs"):
            Split.of([samples[0], odd, samples[2]])
        with pytest.raises(DataError, match=f"^sample {odd.sample_id!r} differs"):
            evaluate(model, [samples[0], odd], "teacher", config)


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
        scores, reps, routing = graph.forward_options(tensors, Split.of(batch).batch, config)
        mask = routing["topk_mask"]
        for row, sample in enumerate(batch):
            decision, sreps = score_all_options(sample, model, "teacher",
                                                lambda_a=config.lambda_a,
                                                lambda_o=config.lambda_o)
            assert tuple(np.flatnonzero(mask[row])) == decision.topk
            for oid, srep in enumerate(sreps):
                np.testing.assert_allclose(reps[row, oid],
                                           srep.aggregated, atol=1e-10)


class TestSpanProperty:
    def test_representations_lie_in_selected_span(self, setup):
        config, model, batch = setup
        tensors = graph.parameter_tensors(model)
        _, reps, routing = graph.forward_options(tensors, Split.of(batch).batch, config)
        mask = routing["topk_mask"]
        for row in range(len(batch)):
            # the (B, K) expert ids are ascending and are the mask's columns
            np.testing.assert_array_equal(routing["topk"][row], np.flatnonzero(mask[row]))
            assert (np.diff(routing["topk"][row]) > 0).all()
        for oid in range(len(batch[0].options)):
            for row in range(len(batch)):
                basis = routing["experts"][row].T  # (d, K): the selected experts' outputs
                target = reps[row, oid]
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

    def test_gradients_are_views_of_one_flat_vector(self, setup):
        config, model, batch = setup
        grad = np.zeros_like(model.vector)
        tensors = graph.parameter_tensors(model, grad)
        assert list(tensors) == list(block_shapes(model.d, model.n_experts, model.hidden))
        total, _, _ = graph.batch_loss(tensors, Split.of(batch).batch, config)
        total.backward()
        assert all(np.shares_memory(t.grad, grad) for t in tensors.values())
        assert all(np.shares_memory(t.value, model.vector) for t in tensors.values())
        np.testing.assert_array_equal(
            grad, np.concatenate([t.grad.ravel() for t in tensors.values()]))

    @pytest.mark.parametrize("n_experts", [2, 4, 8])
    def test_tape_size_independent_of_expert_count(self, setup, n_experts):
        # the whole forward is one fused node, so the tape does not grow with E
        config, _, batch = setup
        config = replace(config, n_experts=n_experts)
        model = Model.init(config.d, n_experts, config.k, config.hidden, 0)
        (total, _, _), _ = run_batch(config, model, batch)
        nodes = tape_nodes(total)
        # batch arrays are plain operands: every node can carry a gradient
        assert all(parent.grad is not None for node in nodes for parent in node._parents)
        assert len(nodes) == 7  # the six parameter blocks and the loss

    @pytest.mark.parametrize("flag", ABLATION_FLAGS)
    def test_tape_size_under_every_ablation(self, setup, flag):
        config, model, batch = setup
        (total, _, _), _ = run_batch(replace(config, **{flag: True}), model, batch)
        assert len(tape_nodes(total)) == 7

    def test_ablated_loss_terms_are_not_built(self, setup, monkeypatch):
        # one cosine for the option scores and two for the contrastive
        # term; no distillation gates reach the loss
        config, model, batch = setup
        cosines, distill_gates = [], []
        cosine, loss_forward = graph._cosine, graph.loss_forward

        def counted_cosine(*args):
            cosines.append(None)
            return cosine(*args)

        def spied_loss_forward(*args):
            distill_gates.append(args[-1])
            return loss_forward(*args)

        monkeypatch.setattr(graph, "_cosine", counted_cosine)
        monkeypatch.setattr(graph, "loss_forward", spied_loss_forward)
        run_batch(config, model, batch)
        assert len(cosines) == 3 and distill_gates[0] is not None
        cosines.clear()
        ablated = replace(config, no_contrast=True, no_distill=True)
        (_, breakdown, _), _ = run_batch(ablated, model, batch)
        assert len(cosines) == 1 and distill_gates[1] is None
        assert breakdown.contrast == breakdown.distill == 0.0
        assert breakdown.total == breakdown.main

    @pytest.mark.parametrize("n_experts, hidden", [(3, 4), (1, 4), (3, 1), (1, 1)])
    def test_experts_backward_matches_finite_differences(self, n_experts, hidden):
        rng = np.random.default_rng(n_experts * 10 + hidden)
        b, d, k = 5, 4, min(2, n_experts)
        topk = np.sort([rng.permutation(n_experts)[:k] for _ in range(b)], axis=1)
        x = rng.standard_normal((b, d))
        blocks = {"w1": rng.standard_normal((n_experts, d, hidden)),
                  "b1": rng.standard_normal((n_experts, hidden)),
                  "w2": rng.standard_normal((n_experts, hidden, d)),
                  "b2": rng.standard_normal((n_experts, d))}
        coeff = rng.standard_normal((b, k, d))

        def loss(p):
            out, _ = graph._experts(x, p["w1"], p["b1"], p["w2"], p["b2"], topk)
            return float(np.sum(coeff * out))

        _, cache = graph._experts(x, *blocks.values(), topk)
        analytic = graph._experts_backward(cache, coeff)
        numeric = finite_difference_gradient(loss, blocks)
        for (name, want), got in zip(numeric.items(), analytic, strict=True):
            assert relative_error(got, want) <= REL_TOL, name

    def test_gradient_check_probes_the_blocks(self, setup):
        config, _, _ = setup
        errors = gradient_check(config)
        assert list(errors) == list(block_shapes(config.d, config.n_experts, config.hidden))
        assert max(errors.values()) <= REL_TOL

    def test_gradient_check_passes_at_high_temperature(self):
        # a BCE on a clamped sigmoid is flat where temperature * |score|
        # passes log(1 / PROB_EPS), while its gradient is not: at temperature
        # 40 the worst error was 3.8e-2 at seed 7 and 1.5 at seed 1
        for seed in (1, 7):
            config = small_config(train_size=8, eval_size=2, temperature=40.0, seed=seed)
            assert max(gradient_check(config).values()) <= REL_TOL, seed

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
