"""`data.generate_dataset` against the per-option generator in
`oracle_data`, bit for bit: every array and every cue score, on the
default config, the benchmark's wide shape and three configs whose cue sets
regenerate."""
import sys
from pathlib import Path

import pytest

import oracle_data
from semroute import data
from semroute.trainer import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402

# 80 samples, 320 options
SMALL = dict(train_size=64, eval_size=16)
REGENERATING = {
    "one_regeneration": dict(SMALL, unc_threshold=0.01),          # 1 extra cue draw
    "noisy_cues": dict(SMALL, unc_threshold=0.02, cue_noise=0.3),  # 75 extra draws
    "only_variance": dict(SMALL, unc_threshold=0.005, only_variance=True),  # 23
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
def test_regeneration_replays_the_per_option_path(name, monkeypatch):
    # the replay starts at the first sample holding a cue set to regenerate,
    # so it draws the oracle's extra cue sets and every option from there on
    config = TrainConfig(**REGENERATING[name])
    replayed = counting(monkeypatch, data)
    data.generate_dataset(config, config.seed)
    per_option = counting(monkeypatch, oracle_data)
    oracle_data.generate_dataset_oracle(config, config.seed)
    n_options = (config.train_size + config.eval_size) * config.option_count
    assert len(per_option) > n_options
    assert 0 < len(replayed) <= len(per_option)
    assert (len(per_option) - len(replayed)) % config.option_count == 0
    if name == "noisy_cues":
        # it regenerates early enough to redraw more than one cue set per option
        assert len(replayed) > n_options


def test_no_replay_when_no_cue_set_regenerates(monkeypatch):
    config = TrainConfig(**SMALL)
    replayed = counting(monkeypatch, data)
    train_set, eval_set = data.generate_dataset(config, config.seed)
    assert replayed == []
    scores = [(cs.agreement, cs.variance, cs.uncertainty)
              for s in train_set + eval_set for _, cs in s.options]
    assert all(type(v) is float for row in scores for v in row)
    assert max(unc for *_, unc in scores) <= config.unc_threshold
