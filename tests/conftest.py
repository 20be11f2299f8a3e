"""Shared fixtures and helpers for the semroute test suite."""
import numpy as np
import pytest

from semroute.trainer import TrainConfig


def small_config(**overrides) -> TrainConfig:
    """A tiny configuration that keeps unit tests fast."""
    base = dict(
        d=8, n_experts=4, k=2, hidden=6, option_count=3, n_concepts=4,
        train_size=24, eval_size=12, total_steps=6, warmup_steps=2,
        eval_every=3, batch=8, seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


def random_sample_factory(model, rng, n_options=4):
    """A maker of random cue-scored samples at the model's dimension."""
    from semroute.cues import CueSet, score_cue_set
    from semroute.data import Sample

    def make():
        d = model.d
        input_emb = rng.standard_normal(d)
        options = []
        for _ in range(n_options):
            pos = rng.standard_normal(d)
            neg = rng.standard_normal(d)
            cues = CueSet(positive=pos, negative=neg,
                          variants=[pos + 0.05 * rng.standard_normal(d)
                                    for _ in range(3)])
            options.append((rng.standard_normal(d), score_cue_set(cues, input_emb)))
        return Sample(sample_id="r", input_emb=input_emb, options=options,
                      correct=int(rng.integers(n_options)), category="r")
    return make


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def config():
    return small_config()
