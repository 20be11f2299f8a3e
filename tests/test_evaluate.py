"""Batched, tape-free `trainer.evaluate`/`diagnose` against the per-sample
reference path in `scoring`."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_round_trip, patchy_cue_table, random_sample_factory, small_config
from semroute import graph
from semroute.data import (Sample, Split, cue_table_from_samples, generate_dataset, load_dataset,
                           save_dataset)
from semroute.errors import InvalidRoutingError, MissingCueError
from semroute.model import Model
from semroute.numerics import cosine
from semroute.scoring import expert_forward, predict, score_all_options
from semroute.trainer import diagnose, evaluate, train


def reference(model, samples, mode, config):
    """The per-sample evaluation: accuracy, Sim over the samples whose
    correct option has cues, each sample's Top-K set and full gate."""
    lambda_a = 0.0 if config.no_sa else config.lambda_a
    lambda_o = 0.0 if config.no_sj else config.lambda_o
    hits, sims, topks, gates = 0, [], [], []
    for s in samples:
        decision, reps = score_all_options(s, model, mode, lambda_a=lambda_a, lambda_o=lambda_o)
        hits += predict([r.score for r in reps]) == s.correct
        gate = decision.teacher_gate if mode == "teacher" else decision.student_gate
        cue_set = s.options[s.correct][1]
        if cue_set is not None:
            weights = gate[list(decision.topk)] / gate[list(decision.topk)].sum()
            outputs = expert_forward(s.input_emb, model, decision.topk)
            h_topk = sum(w * h for w, h in zip(weights, outputs))
            sims.append(cosine(h_topk, cue_set.positive - cue_set.negative))
        topks.append(decision.topk)
        gates.append(gate)
    sim = float(np.mean(sims)) if sims else float("nan")
    return hits / len(samples), sim, topks, np.stack(gates)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_experts=st.integers(2, 6), data=st.data(), n_options=st.integers(2, 5),
       mode=st.sampled_from(["teacher", "student"]), no_sa=st.booleans(),
       no_sj=st.booleans(), seed=st.integers(0, 2**16))
def test_batched_matches_per_sample(n_experts, data, n_options, mode, no_sa, no_sj, seed):
    k = data.draw(st.integers(1, n_experts - 1), label="k")
    # n_concepts only keeps the config valid: the samples are not generated
    config = small_config(n_experts=n_experts, k=k, option_count=n_options,
                          n_concepts=max(4, n_options), no_sa=no_sa, no_sj=no_sj)
    model = Model.init(config.d, n_experts, k, config.hidden, seed)
    make = random_sample_factory(model, np.random.default_rng(seed), n_options)
    samples = [make() for _ in range(10)]

    metrics = evaluate(model, samples, mode, config)
    accuracy, sim, topks, gates = reference(model, samples, mode, config)

    assert metrics["accuracy"] == accuracy
    assert metrics["sim_mean"] == pytest.approx(sim, rel=1e-12, abs=0.0)
    assert [tuple(np.flatnonzero(row)) for row in metrics["topk_mask"]] == topks
    np.testing.assert_allclose(metrics["gate"], gates, rtol=0.0, atol=1e-12)


@pytest.fixture(scope="module")
def split():
    config = small_config(eval_size=100)
    _, eval_set = generate_dataset(config, seed=config.seed)
    model = Model.init(config.d, config.n_experts, config.k, config.hidden, seed=3)
    return config, model, eval_set


def strip_cues(sample):
    return Sample(sample_id=sample.sample_id, input_emb=sample.input_emb,
                  options=[(t, None) for t, _ in sample.options],
                  correct=sample.correct, category=sample.category)


class TestCueFree:
    def test_student_without_cue_table(self, split, tmp_path):
        config, model, eval_set = split
        save_dataset(eval_set, tmp_path / "eval.jsonl")
        loaded = load_dataset(tmp_path / "eval.jsonl")
        assert all(cs is None for s in loaded for _, cs in s.options)

        metrics = evaluate(model, loaded, "student", config)
        cued = evaluate(model, eval_set, "student", config)
        assert metrics["accuracy"] == cued["accuracy"]
        np.testing.assert_array_equal(metrics["topk_mask"], cued["topk_mask"])
        assert math.isnan(metrics["sim_mean"])
        with pytest.raises(MissingCueError):
            evaluate(model, loaded, "teacher", config)

    def test_sim_averages_over_cued_samples(self, split):
        config, model, eval_set = split
        partial = [strip_cues(s) if i % 3 == 0 else s for i, s in enumerate(eval_set)]
        _, sim, _, _ = reference(model, partial, "student", config)
        full = evaluate(model, eval_set, "student", config)["sim_mean"]
        assert evaluate(model, partial, "student", config)["sim_mean"] == \
            pytest.approx(sim, rel=1e-12)
        assert sim != pytest.approx(full, rel=1e-9)


class TestAblationSwitches:
    def test_prompt_only_teacher_routes_like_training(self, split):
        config, model, eval_set = split
        config = replace(config, prompt_only=True)
        metrics = evaluate(model, eval_set, "teacher", config)
        _, _, aux = graph.batch_loss(graph.parameter_tensors(model), eval_set.batch,
                                     config)
        np.testing.assert_array_equal(metrics["topk_mask"], aux["topk_mask"])
        np.testing.assert_array_equal(metrics["gate"], aux["teacher_gate"])


class TestDiagnose:
    def test_matches_per_sample_reference(self, split):
        config, model, eval_set = split
        report = diagnose(model, eval_set, "student", config)
        _, _, topks, gates = reference(model, eval_set, "student", config)
        by_category = {}
        for s, topk, gate in zip(eval_set, topks, gates):
            selected = np.isin(np.arange(config.n_experts), topk)
            sharpness = gate[selected].mean() - gate[~selected].mean()
            by_category.setdefault(s.category, []).append((selected, gate, sharpness))

        assert report["heatmap_categories"] == sorted(by_category)
        for row, category in enumerate(report["heatmap_categories"]):
            entries = by_category[category]
            np.testing.assert_allclose(report["heatmap"][row],
                                       np.mean([e[0] for e in entries], axis=0), atol=1e-15)
            assert report["sharpness"][category] == pytest.approx(
                np.mean([e[2] for e in entries]), rel=1e-12)
            assert report["variance"][category] == pytest.approx(
                np.var([e[1] for e in entries], axis=0, ddof=1).mean(), rel=1e-9)

    def test_every_expert_selected_rejected(self, split):
        config, model, eval_set = split
        full = replace(config, k=config.n_experts)
        model = Model(model.d, model.n_experts, full.k, model.hidden, model.vector)
        with pytest.raises(InvalidRoutingError):
            diagnose(model, eval_set, "student", full)


class TestSplitRecord:
    """A `Split` evaluates with the batch it was made with, exactly as its
    samples do when gathered from a list."""

    @pytest.fixture(scope="class")
    def splits(self, split, tmp_path_factory):
        config, _, eval_set = split
        full, patchy = (tmp_path_factory.mktemp(name) for name in ("full", "patchy"))
        return {"generated": eval_set, "slice": eval_set[10:70:3],
                "loaded": load_round_trip(eval_set, full, cue_table_from_samples(eval_set,
                                                                                 config.d)),
                "patchy": load_round_trip(eval_set, patchy, patchy_cue_table(eval_set, config.d)),
                "cue-free": load_round_trip(eval_set, tmp_path_factory.mktemp("bare"))}

    @pytest.mark.parametrize("mode", ["teacher", "student"])
    @pytest.mark.parametrize("name", ["generated", "slice", "loaded", "patchy", "cue-free"])
    def test_evaluate_and_diagnose_equal_the_list_form(self, split, splits, name, mode):
        config, model, _ = split
        dataset = splits[name]
        assert type(dataset) is Split
        for run in (evaluate, diagnose):
            if mode == "teacher" and name in ("patchy", "cue-free"):
                errors = []
                for form in (dataset, list(dataset)):
                    with pytest.raises(MissingCueError) as exc:
                        run(model, form, mode, config)
                    errors.append((exc.value.sample_id, exc.value.option_id))
                assert errors[0] == errors[1]
            else:
                np.testing.assert_equal(run(model, dataset, mode, config),
                                        run(model, list(dataset), mode, config))


def test_splits_are_never_gathered_again(tmp_path, monkeypatch):
    """`generate_dataset` and `load_dataset` make each split's batch, and
    `evaluate`, `diagnose` and `train` use it, for slices too."""
    def refuse(cls, samples):
        raise AssertionError("a split was gathered again")

    monkeypatch.setattr(Split, "of", classmethod(refuse))
    config = small_config(eval_size=40, total_steps=3)
    train_set, eval_set = generate_dataset(config, config.seed)
    loaded = load_round_trip(eval_set, tmp_path, cue_table_from_samples(eval_set, config.d))
    model = Model.init(config.d, config.n_experts, config.k, config.hidden, seed=3)
    for dataset in (train_set, eval_set, train_set[2:20], loaded, loaded[::2]):
        for mode in ("teacher", "student"):
            evaluate(model, dataset, mode, config)
            diagnose(model, dataset, mode, config)
        train(config, dataset, dataset[:5])
    with pytest.raises(AssertionError, match="gathered again"):
        evaluate(model, list(eval_set), "student", config)
