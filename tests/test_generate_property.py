"""`data.generate_dataset` against the per-option generator in
`oracle_data`, bit for bit, on small random valid configs: few and many
concepts and options, short and long variant lists, zero and non-zero
noises, thresholds that regenerate cue sets, and scoring by variance alone."""
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_data
from semroute import data
from semroute.trainer import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402


def noises():
    return st.one_of(st.just(0.0), st.floats(0.01, 2.0))


@st.composite
def generator_configs(draw):
    n_concepts = draw(st.integers(2, 9))
    return TrainConfig(
        d=draw(st.integers(2, 8)), n_concepts=n_concepts,
        option_count=draw(st.integers(2, n_concepts)),
        variant_count=draw(st.integers(2, 5)),
        train_size=draw(st.integers(1, 12)), eval_size=draw(st.integers(1, 6)),
        input_scale=draw(st.floats(0.5, 6.0)), cue_scale=draw(st.floats(0.5, 6.0)),
        input_noise=draw(noises()), option_noise=draw(noises()), cue_noise=draw(noises()),
        # the low thresholds regenerate some cue sets, 0.5 rarely any
        unc_threshold=draw(st.sampled_from([1e-4, 1e-3, 0.01, 0.5])),
        max_regen_rounds=draw(st.integers(1, 3)), only_variance=draw(st.booleans()),
        seed=draw(st.integers(0, 10_000)))


def batch_bytes(batch):
    return [(a.dtype, a.shape, a.tobytes()) for a in batch]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(generator_configs())
def test_matches_the_per_option_oracle(config):
    want = oracle_data.generate_dataset_oracle(config, config.seed)
    got = data.generate_dataset(config, config.seed)
    assert checks.samples_mismatch(want[0] + want[1], got[0] + got[1]) is None
    assert checks.samples_digest(got[0] + got[1]) == checks.samples_digest(want[0] + want[1])
    for want_split, got_split in zip(want, got):
        assert batch_bytes(got_split.batch) == batch_bytes(data.Split.of(want_split).batch)
