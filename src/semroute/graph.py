"""Batched differentiable forward pass and loss for one training step.

Builds the routing/scoring/loss graph of a `Batch`, the columnar record of
a split of samples, on the autodiff tape. The routing is one tape node per
op; the E experts are one fused node over the stacked expert blocks, each
run only on the rows routed to it. The option stage and the loss are plain
numpy functions with a hand-written backward, put on the tape as one node.
The same forward, run over plain parameter arrays, evaluates whole splits
in either routing mode. Values agree with the per-sample reference in
`scoring`; gradients are validated against the finite-difference oracle in
`numerics`, and bit for bit against a tape of one node per op in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError, MissingCueError
from .model import split_blocks
from .numerics import PROB_EPS, sigmoid

WEIGHT_CLIP = (0.1, 1.0)  # per-option weight range after clipping


@dataclass
class LossBreakdown:
    main: float
    contrast: float
    distill: float
    total: float
    option_weights: list


class Batch(NamedTuple):
    """N samples with J options each, as arrays: `ids` (N,), `x` (N, d),
    `text` (N, J, d), `correct` (N,), the `pos`/`neg` cue embeddings
    (N, J, d) and their `unc` uncertainty (N, J), both zero where an option
    has no cue set, and `has_cue` (N, J), which marks the options whose cues
    are present. `data.Split` makes it; `data.Split.of` gathers it from a
    list of samples."""

    ids: np.ndarray
    x: np.ndarray
    text: np.ndarray
    correct: np.ndarray
    has_cue: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    unc: np.ndarray

    def take(self, rows) -> "Batch":
        """The samples at the index array or slice `rows`."""
        return Batch._make(a[rows] for a in self)


def parameter_tensors(model, grad=None) -> dict:
    """The model's six parameter blocks as tape parameters. Their gradients
    are views into `grad`, one flat vector the size of `model.vector`."""
    if grad is None:
        grad = np.zeros_like(model.vector)
    grads = split_blocks(grad, model.d, model.n_experts, model.hidden)
    return {name: ad.parameter(value, grad=grads[name]) for name, value in model.blocks.items()}


def _topk_mask(gate_values: np.ndarray, k: int) -> np.ndarray:
    """Boolean (B, E) mask of each row's K largest entries, ties to the
    lower index (stable argsort on the negated gate)."""
    order = np.argsort(-gate_values, axis=1, kind="stable")
    mask = np.zeros_like(gate_values, dtype=bool)
    rows = np.arange(gate_values.shape[0])[:, None]
    mask[rows, order[:, :k]] = True
    return mask


def _cue_pairs(batch, correct_only=False):
    """Positive and negative cue embeddings of every option, (B, J, d), or
    of each sample's correct option, (B, d). An absent cue set raises
    MissingCueError for the first sample and option that lacks one."""
    index = (np.arange(batch.correct.size), batch.correct) if correct_only else ...
    present = batch.has_cue[index]
    if not present.all():
        row = np.argwhere(~present)[0]
        option = batch.correct[row[0]] if correct_only else row[1]
        raise MissingCueError(str(batch.ids[row[0]]), int(option))
    return batch.pos[index], batch.neg[index]


def _cosine(a, b):
    """Cosine over the last axis of `a` and `b` under any leading axes, with
    the `a` and `b` norms that its gradient reads."""
    # the sums of `np.linalg.norm(v, axis=-1, keepdims=True)`, without its dispatch
    na, nb = (np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True)) for v in (a, b))
    if not (na.all() and nb.all()):
        raise InvalidInputError("cosine of a zero-norm row")
    c = np.einsum("...d,...d->...", a, b)[..., None] / (na * nb)
    return c[..., 0], (c, na, nb)


def _cosine_grad(g, a, b, cache):
    """The gradient into `a` of the cosines `_cosine(a, b)` given theirs, `g`."""
    c, na, nb = cache
    return g * (b / (na * nb) - c * a / (na * na))


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g, y):
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def option_forward(z_route, semantic, experts, direction, text, topk, lambda_o):
    """The option stage over plain arrays. Each option's gates are a softmax
    over its sample's K selected columns of the (B, E) routing logits
    `z_route`, plus lambda_o times the option's semantic logits
    `direction @ semantic` if the (B, J, d) `direction` is given; they mix
    the (B, K, d) outputs of the selected `experts` into the option's
    representation, whose cosine with the option's `text` is its score.
    `topk` holds the (B, K) selected expert ids. Returns the (B, J)
    scores, the (B, J, d) representations and the cache that
    `option_backward` reads."""
    n, n_options, _ = text.shape
    rows = np.arange(n)[:, None]
    pick = (rows[:, :, None], np.arange(n_options)[:, None], topk[:, None, :])  # (B, J, K)
    logits = z_route[rows, topk][:, None, :]  # (B, 1, K)
    if direction is None:
        logits = np.broadcast_to(logits, (n, n_options, topk.shape[1]))
    else:
        logits = logits + (direction @ semantic)[pick] * lambda_o
    gates = _softmax(logits)  # (B, J, K)
    reps = gates @ experts
    scores, cos = _cosine(reps, text)
    cache = (z_route.shape, semantic.shape, experts, direction, text, rows, topk, pick,
             lambda_o, gates, reps, cos)
    return scores, reps, cache


def option_backward(cache, g_scores, g_reps=None):
    """The gradients into `option_forward`'s z_route, semantic (None
    without a direction) and experts, given those of its (B, J) scores and,
    if any, of its (B, J, d) representations."""
    (z_shape, semantic_shape, experts, direction, text, rows, topk, pick, lambda_o, gates, reps,
     cos) = cache
    g_cos = _cosine_grad(g_scores[..., None], reps, text, cos)
    g_reps = g_cos if g_reps is None else g_reps + g_cos
    g_experts = np.swapaxes(gates, -1, -2) @ g_reps
    g_logits = _softmax_grad(g_reps @ np.swapaxes(experts, -1, -2), gates)  # (B, J, K)
    g_z = np.zeros(z_shape)
    g_z[rows, topk] = g_logits.sum(axis=1)
    g_semantic = None
    if direction is not None:
        # all E columns, zeros included: the (B*J, E) product sums in the
        # order of the one-node-per-op tape's matmul
        g_s = np.zeros(g_logits.shape[:2] + z_shape[1:])
        g_s[pick] = g_logits * lambda_o
        g_semantic = (direction.reshape(-1, semantic_shape[0]).T
                      @ g_s.reshape(-1, semantic_shape[1]))
    return g_z, g_semantic, g_experts


def loss_forward(scores, reps, batch, config, correct_pair=None, distill_gates=None):
    """The three loss terms over `option_forward`'s (B, J) scores and (B, J, d)
    representations: the main term, a BCE per option weighted by cue
    confidence, summed per sample and averaged over the batch; the
    contrastive term, given the correct options' (pos, neg) cues
    `correct_pair`, on the correct and the pooled wrong representations;
    and distillation, given the (target, student) `distill_gates`, the KL
    from the constant target to the student gate. Returns the LossBreakdown
    and the cache that `loss_backward` reads."""
    n = batch.correct.size
    rows = np.arange(n)
    onehot = np.zeros(scores.shape)
    onehot[rows, batch.correct] = 1.0
    if config.no_unc or config.prompt_only:
        weights = np.ones(scores.shape)
    else:
        weights = np.clip(1.0 / (1.0 + batch.unc), *WEIGHT_CLIP)
    p_raw = sigmoid(config.temperature * scores)
    p = np.clip(p_raw, PROB_EPS, 1.0 - PROB_EPS)
    bce = -(onehot * np.log(p) + (1.0 - onehot) * np.log(1.0 - p))
    main = total = (bce * (weights / n)).sum()  # the weights carry the 1/B
    cache = {"n": n, "correct": batch.correct, "onehot": onehot, "weights": weights,
             "p_raw": p_raw, "temperature": config.temperature, "lambda_c": config.lambda_c}
    contrast = distill = 0.0

    if correct_pair is not None:
        c_pos, c_neg = correct_pair
        if scores.shape[1] < 2:
            raise InvalidInputError("the contrastive term needs a wrong option in every sample")
        h_correct = reps[rows, batch.correct]
        omega = _softmax(np.where(onehot == 0.0, scores, -np.inf))
        h_wrong = (omega[:, None, :] @ reps)[:, 0]
        cos_c, cache_c = _cosine(h_correct, c_pos)
        cos_w, cache_w = _cosine(h_wrong, c_neg)
        contrast = ((cos_c - cos_w) * -config.lambda_c).mean()
        total = total + contrast
        cache["contrast"] = (reps, c_pos, c_neg, h_correct, cache_c, omega, h_wrong, cache_w)

    if distill_gates is not None:
        target, student = distill_gates
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(target > 0.0, target * (np.log(np.maximum(target, PROB_EPS))
                                                     - np.log(student)), 0.0)
        distill = terms.sum(axis=-1).mean()
        total = total + distill
        cache["distill"] = distill_gates

    breakdown = LossBreakdown(main=float(main), contrast=float(contrast),
                              distill=float(distill), total=float(total),
                              option_weights=weights.tolist())
    return breakdown, cache


def loss_backward(cache, g):
    """The gradients into `loss_forward`'s student gate (None without
    distillation), scores and representations (None without the
    contrastive term), given the total loss's, `g`."""
    n, onehot = cache["n"], cache["onehot"]
    g_student = g_reps = g_scores = None

    if "distill" in cache:
        target, student = cache["distill"]
        with np.errstate(divide="ignore", invalid="ignore"):
            g_student = g / n * np.where(target > 0.0, -target / student, 0.0)

    if "contrast" in cache:
        reps, c_pos, c_neg, h_correct, cache_c, omega, h_wrong, cache_w = cache["contrast"]
        g_margin = g / n * -cache["lambda_c"]
        g_wrong = _cosine_grad(0.0 - g_margin, h_wrong, c_neg, cache_w)  # (B, d)
        g_reps = omega[:, :, None] * g_wrong[:, None, :]
        g_scores = _softmax_grad((g_wrong.reshape(n, 1, -1) @ np.swapaxes(reps, -1, -2))[:, 0],
                                 omega)
        g_reps[np.arange(n), cache["correct"]] += _cosine_grad(g_margin, h_correct, c_pos,
                                                               cache_c)

    g_main = g * (cache["weights"] / n) * cache["temperature"] * (cache["p_raw"] - onehot)
    g_scores = g_main if g_scores is None else g_scores + g_main
    return g_student, g_scores, g_reps


def _route(tensors, batch, config, frozen, mode):
    """The routing half of the forward, on the tape: the routing logits and
    gates, the Top-K choice and the selected experts' outputs. Teacher mode
    routes on the base logits plus the correct answer's cue direction and
    takes each option's direction from its cue difference; student mode
    routes on the base logits and takes it from the option's text, and
    never reads a cue. Returns `routing` (see `forward_options`), the
    routing logits, the option directions (None when `no_sj` drops them)
    and the correct options' (pos, neg) cues if they were read."""
    if mode not in ("teacher", "student"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    teacher = mode == "teacher"
    use_sa = teacher and not (config.no_sa or config.prompt_only)
    x = batch.x

    z_base = z_route = ad.matmul(x, tensors["gating"])
    correct_pair = None
    if use_sa:
        correct_pair = _cue_pairs(batch, correct_only=True)
        s_a = ad.matmul(np.subtract(*correct_pair), tensors["semantic"])
        z_route = ad.add(z_base, ad.scale(s_a, config.lambda_a))
    g_route = ad.softmax_rows(z_route)
    g_student = ad.softmax_rows(z_base) if use_sa else g_route

    mask = frozen.get("topk_mask")
    if mask is None:
        mask = _topk_mask(g_route.value, config.k)
    topk = np.nonzero(mask)[1].reshape(mask.shape[0], -1)  # (B, K), ascending per row
    experts = ad.experts(x, tensors["experts_w1"], tensors["experts_b1"],
                         tensors["experts_w2"], tensors["experts_b2"], topk)  # (B, K, d)

    direction = None
    if not config.no_sj:
        cue_directions = teacher and not config.prompt_only
        direction = np.subtract(*_cue_pairs(batch)) if cue_directions else batch.text
    routing = {"topk": topk, "topk_mask": mask, "teacher_gate": g_route,
               "student_gate": g_student, "experts": experts}
    return routing, z_route, direction, correct_pair


def _option_stage(tensors, batch, config, routing, z_route, direction):
    semantic = tensors["semantic"]
    return option_forward(z_route.value, getattr(semantic, "value", semantic),
                          routing["experts"].value, direction, batch.text, routing["topk"],
                          config.lambda_o)


def forward_options(tensors, batch, config, frozen=None, mode="teacher"):
    """Routing, option gates, representations and scores for a `Batch` of
    B samples with J options, over the six parameter blocks `tensors`
    (tape parameters or plain arrays). Returns the (B, J) scores tensor,
    the (B, J, d) option representations array and `routing`.

    The routing (`_route`) is on the tape, one node per op, with each
    expert run only on the rows whose Top-K set holds it
    (`autodiff.experts`). The option stage (`option_forward`) is one node
    whose value is the scores. The ablation flags of `config` act in
    `_route`, `batch_loss` and `loss_forward` only. Over plain arrays
    nothing is put on the tape.

    `routing` holds the (B, K) Top-K expert ids, ascending per row, the
    same choice as a (B, E) mask, the teacher and student gates (the same
    tensor when routing is unguided) and the (B, K, d) outputs of the
    selected experts. `frozen` optionally pins {"topk_mask", "distill_target"}
    so a finite-difference probe differentiates the same function the
    analytic backward pass sees (Top-K selection is discrete; the
    distillation target is a constant within a step by definition).
    """
    routing, z_route, direction, _ = _route(tensors, batch, config, frozen or {}, mode)
    scores, reps, cache = _option_stage(tensors, batch, config, routing, z_route, direction)
    scores = ad.fused(scores, (z_route, tensors["semantic"], routing["experts"]),
                      lambda g: option_backward(cache, g))
    routing["experts"] = routing["experts"].value
    return scores, reps, routing


def batch_loss(tensors, batch, config, frozen=None):
    """Total loss Tensor plus a LossBreakdown and auxiliary arrays for a
    `Batch`.

    The routing is on the tape as in `forward_options`; the option stage
    and the three loss terms are one node over the routing logits, the
    semantic block, the experts' outputs and, with distillation, the
    student gate. Its backward runs the loss's gradient rules from
    distillation to the main term, and then the option stage's. A loss
    term that an ablation switches off is not computed."""
    frozen = frozen or {}
    use_contrast = not (config.no_contrast or config.prompt_only)
    use_distill = not (config.no_distill or config.prompt_only)

    routing, z_route, direction, correct_pair = _route(tensors, batch, config, frozen,
                                                        "teacher")
    g_teacher, g_student = routing["teacher_gate"], routing["student_gate"]
    scores, reps, option_cache = _option_stage(tensors, batch, config, routing, z_route,
                                               direction)
    if use_contrast and correct_pair is None:
        correct_pair = _cue_pairs(batch, correct_only=True)
    target = frozen.get("distill_target", g_teacher.value)
    breakdown, loss_cache = loss_forward(
        scores, reps, batch, config, correct_pair if use_contrast else None,
        (target, g_student.value) if use_distill else None)

    def backward(g):
        g_gate, g_scores, g_reps = loss_backward(loss_cache, g)
        terms = option_backward(option_cache, g_scores, g_reps)
        return terms + ((g_gate,) if use_distill else ())

    operands = (z_route, tensors["semantic"], routing["experts"])
    total = ad.fused(breakdown.total, operands + ((g_student,) if use_distill else ()),
                     backward)
    aux = {
        "scores": scores,
        "topk_mask": routing["topk_mask"],
        "teacher_gate": g_teacher.value,
        "student_gate": g_student.value,
        "distill_target": target,
    }
    return total, breakdown, aux
