"""The option stage and the loss as a composition of autodiff ops, one tape
node per op: the reference that `graph.batch_loss`'s single fused node is
checked against bit for bit (`test_graph_oracle`).

`batch_loss_oracle` builds the routing and the experts as `graph` does and
then the option stage and the three loss terms op by op, so the tape runs
every gradient rule in its own order: distillation, then the contrastive
term, then the main term. Two ops exist only here: `expand`, which repeats
the routing logits over the option axis, and `softmax_picked`, the softmax
over each sample's K selected columns of the (B, J, E) option logits.
"""
import numpy as np

from semroute import autodiff as ad
from semroute import graph


def expand(a, n):
    """Repeat a (B, ...) tensor n times along a new axis 1: (B, n, ...)."""
    return ad.fused(np.repeat(a.value[:, None], n, axis=1), (a,),
                    lambda g: (g.sum(axis=1),))


def softmax_picked(z, index):
    """Softmax over the entries of the (B, J, E) logits z that the (B, 1, K)
    `index` picks in every row, (B, J, K); the gradient flows back to them."""
    b, j, _ = z.value.shape
    pick = (np.arange(b)[:, None, None], np.arange(j)[:, None], index)
    logits = z.value[pick]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        gz = np.zeros(z.value.shape)
        gz[pick] = y * (g - inner)
        return (gz,)

    return ad.fused(y, (z,), backward)


def batch_loss_oracle(tensors, batch, config, frozen=None):
    """`graph.batch_loss` op by op: the total loss tensor and the
    LossBreakdown."""
    frozen = frozen or {}
    n = batch.correct.size
    use_sa = not (config.no_sa or config.prompt_only)
    use_unc = not (config.no_unc or config.prompt_only)
    use_contrast = not (config.no_contrast or config.prompt_only)
    use_distill = not (config.no_distill or config.prompt_only)

    z_base = ad.matmul(batch.x, tensors["gating"])
    z_route = z_base
    if use_sa:
        correct_diff = np.subtract(*graph._cue_pairs(batch, correct_only=True))
        s_a = ad.matmul(correct_diff, tensors["semantic"])
        z_route = ad.add(z_base, ad.scale(s_a, config.lambda_a))
    g_route = ad.softmax_rows(z_route)
    g_student = ad.softmax_rows(z_base) if use_sa else g_route
    mask = frozen.get("topk_mask")
    if mask is None:
        mask = graph._topk_mask(g_route.value, config.k)
    topk = np.nonzero(mask)[1].reshape(mask.shape[0], -1)
    experts = ad.experts(batch.x, tensors["experts_w1"], tensors["experts_b1"],
                         tensors["experts_w2"], tensors["experts_b2"], topk)

    logits = expand(z_route, batch.text.shape[1])
    if not config.no_sj:
        direction = batch.text if config.prompt_only else np.subtract(*graph._cue_pairs(batch))
        s_j = ad.matmul(direction, tensors["semantic"])
        logits = ad.add(logits, ad.scale(s_j, config.lambda_o))
    gates = softmax_picked(logits, topk[:, None, :])
    reps = ad.mix(gates, experts)
    scores = ad.cosine_rows(reps, batch.text)

    onehot = np.zeros(scores.shape)
    onehot[np.arange(n), batch.correct] = 1.0
    if use_unc:
        weights = np.clip(1.0 / (1.0 + batch.unc), *graph.WEIGHT_CLIP)
    else:
        weights = np.ones(scores.shape)
    bce = ad.bce_logistic(scores, onehot, config.temperature)
    loss_main = ad.sum_all(ad.mul(bce, weights / n))
    total = loss_main
    contrast = distill = 0.0

    if use_contrast:
        c_pos, c_neg = graph._cue_pairs(batch, correct_only=True)
        h_correct = ad.mix(onehot, reps)
        omega = ad.masked_softmax_rows(scores, onehot == 0.0)
        h_wrong = ad.mix(omega, reps)
        margin = ad.sub(ad.cosine_rows(h_correct, c_pos), ad.cosine_rows(h_wrong, c_neg))
        loss_contrast = ad.mean_all(ad.scale(margin, -config.lambda_c))
        total = ad.add(total, loss_contrast)
        contrast = float(loss_contrast.value)

    if use_distill:
        target = frozen.get("distill_target", g_route.value)
        loss_distill = ad.mean_all(ad.kl_rows(target, g_student))
        total = ad.add(total, loss_distill)
        distill = float(loss_distill.value)

    breakdown = graph.LossBreakdown(main=float(loss_main.value), contrast=contrast,
                                    distill=distill, total=float(total.value),
                                    option_weights=weights.tolist())
    return total, breakdown
