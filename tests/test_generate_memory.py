"""`data.generate_dataset` transforms its arrays in place, one option column
at a time, so no whole-array temporary reaches the benchmark's
`peak_rss_mb`. At the default config its peak memory exceeds what it
returns by less than one (N, J, d) float64 array, and before scoring, when
the arrays are filled but no object is built yet, its draws and transforms
hold at most two (N, d) arrays more than those arrays."""
import tracemalloc

from semroute import data
from semroute.trainer import TrainConfig


def test_peak_exceeds_the_result_by_less_than_one_option_array(monkeypatch):
    config = TrainConfig(seed=0)
    data.generate_dataset(TrainConfig(train_size=8, eval_size=4), 0)  # warm caches
    # (current, peak) when the first option column is scored
    transformed = []
    score_cues = data.score_cues

    def scored_after_the_transforms(*args, **kwargs):
        if not transformed:
            transformed.append(tracemalloc.get_traced_memory())
        return score_cues(*args, **kwargs)

    monkeypatch.setattr(data, "score_cues", scored_after_the_transforms)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        splits = data.generate_dataset(config, config.seed)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = config.train_size + config.eval_size
    column = n * config.d * 8  # 0.64 MB
    option_array = config.option_count * column  # 2.56 MB
    assert [len(split) for split in splits] == [config.train_size, config.eval_size]
    assert retained - before > 8 * option_array  # the result is held, not freed
    assert peak - retained <= option_array
    # the objects are built last, so the whole-call peak cannot see an
    # earlier temporary; a whole-array centroid gather (one option array)
    # shows here
    filled, transform_peak = transformed[0]
    assert transform_peak - filled <= 2 * column
