"""Batched differentiable forward pass and loss for one training step.

Builds the whole routing/scoring/loss graph on the autodiff tape for a
`Batch`, the columnar record of a split of samples. The E experts are one
fused tape node over the stacked expert blocks, each run only on the rows
routed to it. The same forward, run over plain parameter arrays,
evaluates whole splits in either routing mode. Values agree with the
per-sample reference in `scoring`; gradients are validated against the
finite-difference oracle in `numerics`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError, MissingCueError
from .model import split_blocks

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


def forward_options(tensors, batch, config, frozen=None, mode="teacher"):
    """Routing, option gates, representations and scores for a `Batch` of
    B samples with J options, over the six parameter blocks `tensors`
    (tape parameters or plain arrays). Returns the (B, J) scores, the
    (B, J, d) option representations and `routing`.

    Teacher mode is the training graph: it routes on the base logits plus
    the correct answer's cue direction and takes each option's direction
    from its cue difference. Student mode is cue-free inference: it routes
    on the base logits and takes each option's direction from its text
    embedding; it never reads a cue. The ablation flags of `config` act
    here and in `batch_loss` only. Over plain arrays nothing is put on the
    tape. Each expert runs only on the rows whose Top-K set holds it
    (`autodiff.experts`), and each option's gates are a softmax over the
    sample's K selected logits, (B, J, K), that mix the (B, K, d) outputs.

    `routing` holds the (B, K) Top-K expert ids, ascending per row, the
    same choice as a (B, E) mask, the teacher and student gates (the same
    tensor when routing is unguided) and the (B, K, d) outputs of the
    selected experts. `frozen` optionally pins {"topk_mask", "distill_target"}
    so a finite-difference probe differentiates the same function the
    analytic backward pass sees (Top-K selection is discrete; the
    distillation target is a constant within a step by definition).
    """
    if mode not in ("teacher", "student"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    frozen = frozen or {}
    teacher = mode == "teacher"

    use_sa = teacher and not (config.no_sa or config.prompt_only)
    use_sj = not config.no_sj
    cue_directions = teacher and not config.prompt_only

    x, text = batch.x, batch.text
    n_options = text.shape[1]

    z_base = ad.matmul(x, tensors["gating"])
    z_route = z_base
    if use_sa:
        correct_diff = np.subtract(*_cue_pairs(batch, correct_only=True))
        s_a = ad.matmul(correct_diff, tensors["semantic"])
        z_route = ad.add(z_base, ad.scale(s_a, config.lambda_a))

    g_route = ad.softmax_rows(z_route)
    g_student = ad.softmax_rows(z_base) if use_sa else g_route

    mask = frozen.get("topk_mask")
    if mask is None:
        mask = _topk_mask(g_route.value, config.k)
    topk = np.nonzero(mask)[1].reshape(mask.shape[0], -1)  # (B, K), ascending per row

    experts = ad.experts(x, tensors["experts_w1"], tensors["experts_b1"],
                         tensors["experts_w2"], tensors["experts_b2"], topk)  # (B, K, d)

    # every option reweights the same Top-K experts with its own direction
    logits = ad.expand(z_route, n_options)  # (B, J, E)
    if use_sj:
        direction = np.subtract(*_cue_pairs(batch)) if cue_directions else text
        s_j = ad.matmul(direction, tensors["semantic"])
        logits = ad.add(logits, ad.scale(s_j, config.lambda_o))
    gates = ad.softmax_rows(logits, index=topk[:, None, :])  # (B, J, K)
    reps = ad.mix(gates, experts)
    scores = ad.cosine_rows(reps, text)

    routing = {
        "topk": topk,
        "topk_mask": mask,
        "teacher_gate": g_route,
        "student_gate": g_student,
        "experts": experts.value,
    }
    return scores, reps, routing


def batch_loss(tensors, batch, config, frozen=None):
    """Total loss Tensor plus a LossBreakdown and auxiliary arrays for a
    `Batch`."""
    frozen = frozen or {}
    n = batch.correct.size

    use_unc = not (config.no_unc or config.prompt_only)
    use_contrast = not (config.no_contrast or config.prompt_only)
    use_distill = not (config.no_distill or config.prompt_only)

    scores, reps, routing = forward_options(tensors, batch, config, frozen)
    g_teacher = routing["teacher_gate"]
    g_student = routing["student_gate"]
    onehot = np.zeros(scores.shape)
    onehot[np.arange(n), batch.correct] = 1.0

    # main loss: per-option BCE weighted by cue confidence, summed per sample
    # and averaged over the batch (the weights carry the 1/B)
    if use_unc:
        weights = np.clip(1.0 / (1.0 + batch.unc), *WEIGHT_CLIP)
    else:
        weights = np.ones(scores.shape)
    bce = ad.bce_logistic(scores, onehot, config.temperature)
    loss_main = ad.sum_all(ad.mul(bce, weights / n))
    total = loss_main
    contrast = distill = 0.0

    # contrastive loss on correct vs pooled-wrong representations
    if use_contrast:
        c_pos, c_neg = _cue_pairs(batch, correct_only=True)
        h_correct = ad.mix(onehot, reps)
        omega = ad.masked_softmax_rows(scores, onehot == 0.0)
        h_wrong = ad.mix(omega, reps)
        margin = ad.sub(ad.cosine_rows(h_correct, c_pos), ad.cosine_rows(h_wrong, c_neg))
        loss_contrast = ad.mean_all(ad.scale(margin, -config.lambda_c))
        total = ad.add(total, loss_contrast)
        contrast = float(loss_contrast.value)

    # distillation: teacher distribution is a constant target
    target = frozen.get("distill_target", g_teacher.value)
    if use_distill:
        loss_distill = ad.mean_all(ad.kl_rows(target, g_student))
        total = ad.add(total, loss_distill)
        distill = float(loss_distill.value)

    breakdown = LossBreakdown(
        main=float(loss_main.value),
        contrast=contrast,
        distill=distill,
        total=float(total.value),
        option_weights=weights.tolist(),
    )
    aux = {
        "scores": scores.value,
        "topk_mask": routing["topk_mask"],
        "teacher_gate": g_teacher.value,
        "student_gate": g_student.value,
        "distill_target": target,
    }
    return total, breakdown, aux
