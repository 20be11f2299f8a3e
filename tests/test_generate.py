"""`data.generate_dataset` against the per-option generator in
`oracle_data`, bit for bit: every array and every cue score, on the
default config, the benchmark's wide shape and three configs whose cue sets
regenerate. A regeneration changes only its own cue set: lowering
`unc_threshold` or scoring by variance alone leaves every other array as it
was."""
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle_data
from semroute import cues, data
from semroute.trainer import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402

# 80 samples, 320 options
SMALL = dict(train_size=64, eval_size=16)
REGENERATING = {
    "one_regeneration": dict(SMALL, unc_threshold=0.01),          # 1 extra cue draw
    "noisy_cues": dict(SMALL, unc_threshold=0.02, cue_noise=0.3),  # 78 extra draws
    "only_variance": dict(SMALL, unc_threshold=0.005, only_variance=True),  # 26
}
CONFIGS = {
    "default": {},
    # the shape of the benchmark's eval_wide workload
    "eval_wide": dict(n_experts=16, k=4, option_count=8, n_concepts=16, train_size=256,
                      eval_size=500, seed=1),
    **REGENERATING,
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_matches_the_per_option_oracle(name):
    config = TrainConfig(**CONFIGS[name])
    want = oracle_data.generate_dataset_oracle(config, config.seed)
    got = data.generate_dataset(config, config.seed)
    assert [len(split) for split in got] == [config.train_size, config.eval_size]
    assert checks.samples_mismatch(want[0] + want[1], got[0] + got[1]) is None
    assert checks.samples_digest(got[0] + got[1]) == checks.samples_digest(want[0] + want[1])


@pytest.mark.parametrize("name", ["default", "noisy_cues"])
def test_cue_sets_are_views_of_one_cues_array(name):
    # every option's block, regenerated ones included, is a slice of the
    # (N, J, 2+V, d) cues array, not a copy
    config = TrainConfig(**{**SMALL, **CONFIGS[name]})
    train, held_out = data.generate_dataset(config, config.seed)
    blocks = [cs.block for s in train + held_out for _, cs in s.options]
    cues = blocks[0].base
    assert cues.shape == (80, config.option_count, 2 + config.variant_count, config.d)
    assert all(block.base is cues and np.shares_memory(block, cues) for block in blocks)
    assert len({block.ctypes.data for block in blocks}) == cues.shape[0] * cues.shape[1]


def counting(monkeypatch, owner):
    """Count the calls of `owner.synthesize_cues`."""
    calls = []
    synthesize = owner.synthesize_cues

    def counted(*args, **kwargs):
        calls.append(None)
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(owner, "synthesize_cues", counted)
    return calls


@pytest.mark.parametrize("name", list(REGENERATING))
def test_regeneration_draws_what_the_oracle_draws(name, monkeypatch):
    # the first pass draws every option's cue block into the preallocated
    # array, so each synthesize_cues call is one of the oracle's
    # regeneration draws
    config = TrainConfig(**REGENERATING[name])
    drawn = counting(monkeypatch, data)
    data.generate_dataset(config, config.seed)
    per_option = counting(monkeypatch, oracle_data)
    oracle_data.generate_dataset_oracle(config, config.seed)
    n_options = (config.train_size + config.eval_size) * config.option_count
    assert len(drawn) == len(per_option) - n_options > 0


def test_a_regeneration_round_scores_once(monkeypatch):
    # the uncertain cue set arrives scored by the first pass; only each
    # round's candidate is scored again
    config = TrainConfig(**REGENERATING["one_regeneration"])
    scored = []
    score_cue_set = cues.score_cue_set

    def counted(*args, **kwargs):
        scored.append(None)
        return score_cue_set(*args, **kwargs)

    monkeypatch.setattr(cues, "score_cue_set", counted)
    drawn = counting(monkeypatch, data)
    data.generate_dataset(config, config.seed)
    assert len(drawn) == len(scored) == 1


def arrays(samples):
    """Inputs, option texts, labels, categories, cue blocks and cue scores."""
    return (np.array([s.input_emb for s in samples]),
            np.array([[t for t, _ in s.options] for s in samples]),
            [s.correct for s in samples], [s.category for s in samples],
            np.array([[cs.block for _, cs in s.options] for s in samples]),
            np.array([[(cs.agreement, cs.variance, cs.uncertainty) for _, cs in s.options]
                      for s in samples]))


def generated(**fields):
    config = TrainConfig(**SMALL, **fields)
    return arrays(sum(data.generate_dataset(config, config.seed), []))


def test_regeneration_changes_only_the_uncertain_cue_sets():
    # nothing regenerates at the default threshold, so its scores are the
    # first pass's
    x, text, labels, categories, blocks, scores = generated()
    x2, text2, labels2, categories2, blocks2, scores2 = generated(unc_threshold=0.01)
    uncertain = scores[..., 2] > 0.01
    assert uncertain.any()
    assert np.array_equal(x, x2) and np.array_equal(text, text2)
    assert labels == labels2 and categories == categories2
    assert np.array_equal(blocks[~uncertain], blocks2[~uncertain])
    assert np.array_equal(scores[~uncertain], scores2[~uncertain])
    assert not np.array_equal(blocks[uncertain], blocks2[uncertain])
    assert (scores2[uncertain, 2] <= scores[uncertain, 2]).all()


def test_the_only_variance_arm_draws_the_full_arms_samples():
    # the two arms score, and so regenerate, different cue sets; their
    # samples must stay the same, or the ablation compares two datasets
    full = generated(unc_threshold=0.005)
    variance_only = generated(unc_threshold=0.005, only_variance=True)
    for want, got in zip(full[:4], variance_only[:4]):
        assert np.array_equal(want, got)
    assert not np.array_equal(full[4], variance_only[4])


def test_no_draws_when_no_cue_set_regenerates(monkeypatch):
    config = TrainConfig(**SMALL)
    drawn = counting(monkeypatch, data)
    train_set, eval_set = data.generate_dataset(config, config.seed)
    assert drawn == []
    scores = [(cs.agreement, cs.variance, cs.uncertainty)
              for s in train_set + eval_set for _, cs in s.options]
    assert all(type(v) is float for row in scores for v in row)
    assert max(unc for *_, unc in scores) <= config.unc_threshold
