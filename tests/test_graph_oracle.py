"""`graph.batch_loss`'s one fused node for the option stage and the loss
against the op-by-op composition in `oracle_graph`, bit for bit: the loss
terms, the flat gradient and 300 AdamW steps. The option stage's own
backward is checked against finite differences."""

import numpy as np
import pytest

import oracle_graph
from semroute import graph
from semroute.data import generate_dataset
from semroute.model import Model
from semroute.numerics import finite_difference_gradient
from semroute.trainer import AdamW, TrainConfig, clip_global_norm, lr_at

SMALL = dict(train_size=64, eval_size=16)
CONFIGS = {
    "default": {},
    **{flag: {flag: True} for flag in ("no_sa", "no_sj", "no_unc", "no_contrast",
                                       "no_distill", "prompt_only")},
    "k1": dict(k=1),
    "k3": dict(k=3),
    "wide": dict(n_experts=16, k=4, option_count=8, n_concepts=16),
}


def loss_and_grad(loss, model, batch, config):
    grad = np.zeros_like(model.vector)
    total, breakdown = loss(graph.parameter_tensors(model, grad), batch, config)[:2]
    total.backward()
    return breakdown, grad


@pytest.mark.parametrize("name", list(CONFIGS))
def test_fused_node_equals_the_oracle(name):
    config = TrainConfig(**SMALL, **CONFIGS[name])
    train_set, _ = generate_dataset(config, config.seed)
    model = Model.init(config.d, config.n_experts, config.k, config.hidden, config.seed)
    for rows in (slice(0, 32), slice(32, 64)):
        batch = train_set.batch.take(rows)
        want, want_grad = loss_and_grad(oracle_graph.batch_loss_oracle, model, batch, config)
        got, got_grad = loss_and_grad(graph.batch_loss, model, batch, config)
        assert got == want
        assert got_grad.tobytes() == want_grad.tobytes()
        model.vector -= 0.1 * got_grad  # a second batch at other parameters


def test_training_steps_leave_equal_vectors():
    config = TrainConfig(train_size=256, eval_size=16)
    train_set, _ = generate_dataset(config, config.seed)
    models = [Model.init(config.d, config.n_experts, config.k, config.hidden, config.seed)
              for _ in range(2)]
    optimizers = [AdamW(m.vector.size, config) for m in models]
    rng = np.random.default_rng(0)
    for step in range(300):
        batch = train_set.batch.take(rng.integers(0, config.train_size, config.batch))
        losses = []
        for loss, model, optimizer in zip((graph.batch_loss, oracle_graph.batch_loss_oracle),
                                          models, optimizers):
            breakdown, grad = loss_and_grad(loss, model, batch, config)
            clip_global_norm(grad, config.grad_clip_norm)
            optimizer.step(model.vector, grad, lr_at(step, config))
            losses.append(breakdown)
        assert losses[0] == losses[1], step
    assert models[0].vector.tobytes() == models[1].vector.tobytes()


def random_option_stage(rng, b=3, j=4, e=5, k=2, d=4):
    topk = np.sort(np.stack([rng.choice(e, k, replace=False) for _ in range(b)]), axis=1)
    return ({"z_route": rng.standard_normal((b, e)), "semantic": rng.standard_normal((d, e)),
             "experts": rng.standard_normal((b, k, d))},
            rng.standard_normal((b, j, d)), rng.standard_normal((b, j, d)), topk)


def test_option_gates_are_the_softmax_of_the_selected_columns():
    # the gates over each sample's K picked columns equal a softmax over all
    # E columns of the (B, J, E) option logits, masked to the Top-K set
    rng = np.random.default_rng(5)
    arrays, direction, text, topk = random_option_stage(rng)
    logits = arrays["z_route"][:, None, :] + 0.5 * (direction @ arrays["semantic"])
    mask = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(mask, topk[:, None, :], True, axis=-1)
    masked = np.where(mask, np.exp(logits - logits.max(axis=-1, keepdims=True)), 0.0)
    gates = np.take_along_axis(masked / masked.sum(axis=-1, keepdims=True), topk[:, None, :],
                               axis=-1)
    _, reps, _ = graph.option_forward(arrays["z_route"], arrays["semantic"], arrays["experts"],
                                      direction, text, topk, 0.5)
    np.testing.assert_allclose(reps, gates @ arrays["experts"], atol=1e-12)


def test_option_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    arrays, direction, text, topk = random_option_stage(rng)
    g_scores, g_reps = rng.standard_normal(text.shape[:2]), rng.standard_normal(text.shape)
    for direction in (direction, None):
        def loss(a):
            scores, reps, _ = graph.option_forward(a["z_route"], a["semantic"], a["experts"],
                                                   direction, text, topk, 0.5)
            return float(np.sum(g_scores * scores) + np.sum(g_reps * reps))

        _, _, cache = graph.option_forward(arrays["z_route"], arrays["semantic"],
                                           arrays["experts"], direction, text, topk, 0.5)
        g_z, g_semantic, g_experts = graph.option_backward(cache, g_scores, g_reps)
        numeric = finite_difference_gradient(loss, arrays)
        np.testing.assert_allclose(g_z, numeric["z_route"], atol=1e-7)
        np.testing.assert_allclose(g_experts, numeric["experts"], atol=1e-7)
        if direction is None:
            assert g_semantic is None and not numeric["semantic"].any()
        else:
            np.testing.assert_allclose(g_semantic, numeric["semantic"], atol=1e-7)
