"""Batched differentiable forward pass and loss for one training step.

Builds the whole routing/scoring/loss graph on the autodiff tape for a
batch of samples. The same forward, run over constants, evaluates whole
splits in either routing mode. Values agree with the per-sample numpy
reference in `scoring`/`losses`; gradients are validated against the
finite-difference oracle in `numerics`.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError, MissingCueError
from .losses import WEIGHT_CLIP, LossBreakdown


def parameter_tensors(model) -> dict:
    return {name: ad.parameter(value) for name, value in model.params.items()}


def _topk_mask(gate_values: np.ndarray, k: int) -> np.ndarray:
    """Boolean (B, E) mask of each row's K largest entries, ties to the
    lower index (stable argsort on the negated gate)."""
    order = np.argsort(-gate_values, axis=1, kind="stable")
    mask = np.zeros_like(gate_values, dtype=bool)
    rows = np.arange(gate_values.shape[0])[:, None]
    mask[rows, order[:, :k]] = True
    return mask


def _expert_outputs(x_const, tensors, n_experts):
    outs = []
    for i in range(n_experts):
        hidden = ad.tanh(ad.add(ad.matmul(x_const, tensors[f"expert{i}_w1"]),
                                tensors[f"expert{i}_b1"]))
        outs.append(ad.add(ad.matmul(hidden, tensors[f"expert{i}_w2"]),
                           tensors[f"expert{i}_b2"]))
    return outs


def forward_options(tensors, batch, config, frozen=None, mode="teacher"):
    """Routing, option gates, aggregated representations and scores for a
    batch. Returns (option_scores, option_reps, routing).

    Teacher mode is the training graph: it routes on the base logits plus
    the correct answer's cue direction and takes each option's direction
    from its cue difference. Student mode is cue-free inference: it routes
    on the base logits and takes each option's direction from its text
    embedding; it never reads a cue. The ablation flags of `config` act
    here and in `batch_loss` only. Over `ad.constant` parameters nothing
    is put on the tape.

    `routing` holds the (B, E) Top-K mask, the teacher and student gates
    (the same tensor in student mode) and the (B, E, d) stacked expert
    outputs. `frozen` optionally pins {"topk_mask", "distill_target"} so a
    finite-difference probe differentiates the same function the analytic
    backward pass sees (Top-K selection is discrete; the distillation
    target is a constant within a step by definition).
    """
    if mode not in ("teacher", "student"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    frozen = frozen or {}
    n_experts = tensors["gating"].shape[1]
    teacher = mode == "teacher"

    use_sa = teacher and not (config.no_sa or config.prompt_only)
    use_sj = not config.no_sj
    cue_directions = teacher and not config.prompt_only

    x = ad.constant(np.stack([s.input_emb for s in batch]))
    n_options = len(batch[0].options)

    def cue_diff(sample, oid):
        cs = sample.options[oid][1]
        if cs is None:
            raise MissingCueError(sample.sample_id, oid)
        return cs.positive - cs.negative

    z_base = ad.matmul(x, tensors["gating"])
    if use_sa:
        correct_diff = ad.constant(np.stack([cue_diff(s, s.correct) for s in batch]))
        s_a = ad.matmul(correct_diff, tensors["semantic"])
        z_route = ad.add(z_base, ad.scale(s_a, config.lambda_a))
    else:
        z_route = z_base

    g_route = ad.softmax_rows(z_route)
    g_student = ad.softmax_rows(z_base) if teacher else g_route

    mask = frozen.get("topk_mask")
    if mask is None:
        mask = _topk_mask(g_route.value, config.k)

    experts = _expert_outputs(x, tensors, n_experts)
    stacked = np.stack([e.value for e in experts], axis=1)  # (B, E, d)

    option_reps = []
    option_scores = []
    for oid in range(n_options):
        text = ad.constant(np.stack([s.options[oid][0] for s in batch]))
        if use_sj:
            if cue_directions:
                direction = ad.constant(np.stack([cue_diff(s, oid) for s in batch]))
            else:
                direction = text
            s_j = ad.matmul(direction, tensors["semantic"])
            logits = ad.add(z_route, ad.scale(s_j, config.lambda_o))
        else:
            logits = z_route
        gate = ad.masked_softmax_rows(logits, mask)
        rep = ad.mix(gate, experts, stacked)
        option_reps.append(rep)
        option_scores.append(ad.cosine_rows(rep, text))

    routing = {
        "topk_mask": mask,
        "teacher_gate": g_route,
        "student_gate": g_student,
        "experts": stacked,
    }
    return option_scores, option_reps, routing


def batch_loss(tensors, batch, config, frozen=None):
    """Total loss Tensor plus a LossBreakdown and auxiliary arrays."""
    frozen = frozen or {}
    n = len(batch)
    n_options = len(batch[0].options)
    labels = np.array([s.correct for s in batch])

    use_unc = not (config.no_unc or config.prompt_only)
    use_contrast = not (config.no_contrast or config.prompt_only)
    use_distill = not (config.no_distill or config.prompt_only)

    option_scores, option_reps, routing = forward_options(tensors, batch, config, frozen)
    g_teacher = routing["teacher_gate"]
    g_student = routing["student_gate"]
    mask = routing["topk_mask"]

    # main loss: per-option BCE weighted by cue confidence
    if use_unc:
        uncs = np.array([
            [s.options[oid][1].uncertainty if s.options[oid][1] is not None else 0.0
             for oid in range(n_options)]
            for s in batch
        ])
        weights = np.clip(1.0 / (1.0 + uncs), *WEIGHT_CLIP)
    else:
        weights = np.ones((n, n_options))

    per_sample = None
    for oid in range(n_options):
        y = (labels == oid).astype(np.float64)
        term = ad.mul(ad.bce_logistic(option_scores[oid], y, config.temperature),
                      ad.constant(weights[:, oid]))
        per_sample = term if per_sample is None else ad.add(per_sample, term)
    loss_main = ad.mean_all(per_sample)

    # contrastive loss on correct vs pooled-wrong representations
    if use_contrast and n_options >= 2:
        onehot = np.zeros((n, n_options))
        onehot[np.arange(n), labels] = 1.0
        h_correct = ad.mix(ad.constant(onehot), option_reps)
        scores_mat = ad.stack_cols(option_scores)
        omega = ad.masked_softmax_rows(scores_mat, ~onehot.astype(bool))
        h_wrong = ad.mix(omega, option_reps)
        c_pos = ad.constant(np.stack([s.options[s.correct][1].positive for s in batch]))
        c_neg = ad.constant(np.stack([s.options[s.correct][1].negative for s in batch]))
        margin = ad.sub(ad.cosine_rows(h_correct, c_pos), ad.cosine_rows(h_wrong, c_neg))
        loss_contrast = ad.mean_all(ad.scale(margin, -config.lambda_c))
    else:
        loss_contrast = ad.constant(0.0)

    # distillation: teacher distribution is a constant target
    if use_distill:
        target = frozen.get("distill_target")
        if target is None:
            target = g_teacher.value.copy()
        loss_distill = ad.mean_all(ad.kl_rows(target, g_student))
    else:
        loss_distill = ad.constant(0.0)

    total = ad.add(ad.add(loss_main, loss_contrast), loss_distill)
    breakdown = LossBreakdown(
        main=float(loss_main.value),
        contrast=float(loss_contrast.value),
        distill=float(loss_distill.value),
        total=float(total.value),
        option_weights=weights.tolist(),
    )
    aux = {
        "scores": np.stack([s.value for s in option_scores], axis=1),
        "topk_mask": mask,
        "teacher_gate": g_teacher.value,
        "student_gate": g_student.value,
        "distill_target": frozen.get("distill_target", g_teacher.value.copy()),
    }
    return total, breakdown, aux
