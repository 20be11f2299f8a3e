"""Shared fixtures and helpers for the semroute test suite."""
import json

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
            cues = CueSet(np.stack([pos, neg, *(pos + 0.05 * rng.standard_normal(d)
                                                for _ in range(3))]))
            options.append((rng.standard_normal(d), score_cue_set(cues, input_emb)))
        return Sample(sample_id="r", input_emb=input_emb, options=options,
                      correct=int(rng.integers(n_options)), category="r")
    return make


def load_round_trip(samples, directory, cue_table=None):
    """`samples` saved to `directory` and loaded back, with `cue_table`
    saved and loaded beside them, or with no cues if it is None."""
    from semroute.cues import load_cue_table, save_cue_table
    from semroute.data import load_dataset, save_dataset

    save_dataset(samples, directory / "split.jsonl")
    if cue_table is not None:
        save_cue_table(cue_table, directory / "cues.jsonl")
        cue_table = load_cue_table(directory / "cues.jsonl")
    return load_dataset(directory / "split.jsonl", cue_table)


def patchy_cue_table(samples, dim):
    """The samples' cue table with 2, 3 and 4 variants per cue set in turn
    and without the cue set of the second sample's correct option; the
    samples must have at least 4 variants."""
    from semroute.cues import CueSet, CueTable
    from semroute.data import cue_table_from_samples

    table = CueTable(dim)
    missing = (samples[1].sample_id, samples[1].correct)
    for n, (key, cs) in enumerate(sorted(cue_table_from_samples(samples, dim).items())):
        if key != missing:
            table.put(*key, CueSet(cs.block[:4 + n % 3]))
    return table


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def config():
    return small_config()


def read_archive(path):
    """The header dict and the vector of a checkpoint archive, to edit."""
    with np.load(path, allow_pickle=False) as archive:
        return json.loads(str(archive["header"][()])), archive["vector"]


def write_archive(path, header, vector):
    """Write a checkpoint archive from (edited) members; a member given as
    None is left out."""
    members = {"header": None if header is None else np.array(json.dumps(header)),
               "vector": vector}
    with open(path, "wb") as fh:
        np.savez(fh, **{name: v for name, v in members.items() if v is not None})
