"""Any `TrainConfig` either is rejected up front with `InvalidInputError`
(CLI exit 2) or generates a dataset and trains: no fault may surface from
deep inside generation or training instead."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from semroute.data import generate_dataset
from semroute.errors import DivergenceError, InvalidInputError
from semroute.trainer import ABLATION_FLAGS, TrainConfig, train

# Values a config file may hold in any field: boundaries, signs, non-finite
# numbers, a float in an integer field and a bool in a numeric one. Integer
# fields accept only the small integers among them, so runs stay tiny.
EDGE_VALUES = st.sampled_from([-1, 0, 1, 2, -1e-9, 0.0, 0.5, 1.0, 1.5, 1e6,
                               math.nan, math.inf, True])
FIELDS = list(TrainConfig.__dataclass_fields__)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def tiny_configs(draw):
    """A valid tiny config with up to three fields overwritten by edge
    values."""
    n_experts = draw(st.integers(1, 5))
    option_count = draw(st.integers(2, 4))
    lr_min = draw(floats(1e-8, 1e-2))
    raw = dict(
        d=draw(st.integers(1, 6)), n_experts=n_experts, k=draw(st.integers(1, n_experts)),
        hidden=draw(st.integers(1, 5)), option_count=option_count,
        lambda_a=draw(floats(0.0, 10.0)), lambda_o=draw(floats(0.0, 10.0)),
        lambda_c=draw(floats(0.0, 10.0)), temperature=draw(floats(1e-3, 100.0)),
        lr=lr_min * draw(floats(1.01, 1e5)), lr_min=lr_min,
        warmup_steps=draw(st.integers(0, 3)), total_steps=draw(st.integers(1, 2)),
        batch=draw(st.integers(1, 6)), grad_clip_norm=draw(floats(1e-3, 10.0)),
        weight_decay=draw(floats(0.0, 1.0)), beta1=draw(floats(0.0, 0.999)),
        beta2=draw(floats(0.0, 0.999)), adam_eps=draw(floats(1e-12, 1.0)),
        n_concepts=draw(st.integers(option_count, 6)), train_size=draw(st.integers(1, 6)),
        eval_size=draw(st.integers(1, 4)), input_scale=draw(floats(-100.0, 100.0)),
        cue_scale=draw(floats(1e-3, 100.0)), input_noise=draw(floats(0.0, 10.0)),
        option_noise=draw(floats(0.0, 10.0)), cue_noise=draw(floats(0.0, 10.0)),
        variant_count=draw(st.integers(2, 4)), unc_threshold=draw(floats(1e-6, 10.0)),
        max_regen_rounds=draw(st.integers(1, 3)), seed=draw(st.integers(0, 10_000)),
        eval_every=draw(st.integers(1, 3)),
        **{flag: draw(st.booleans()) for flag in ABLATION_FLAGS},
    )
    raw.update(draw(st.dictionaries(st.sampled_from(FIELDS), EDGE_VALUES, max_size=3)))
    return raw


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tiny_configs())
def test_config_is_rejected_up_front_or_trains(raw):
    try:
        config = TrainConfig(**raw)
    except InvalidInputError:
        return
    train_set, eval_set = generate_dataset(config, config.seed)
    try:
        train(config, train_set, eval_set)
    except DivergenceError:
        pass
