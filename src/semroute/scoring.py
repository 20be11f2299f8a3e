"""The per-sample numpy reference that `graph.py` is checked against:
routing, experts, option-aware reweighting, scoring and the loss terms.

One Top-K set is selected per sample; every option reuses it and only
reweights within it. Teacher mode derives each option's direction from its
cue difference; student mode derives it from the option text embedding via
the same semantic projection (cue-free inference).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidRoutingError, MissingCueError, ShapeError
from .graph import WEIGHT_CLIP
from .model import Model
from .numerics import binary_cross_entropy, cosine, kl_divergence, softmax


@dataclass
class GatingDecision:
    base_logits: np.ndarray      # length E
    teacher_logits: np.ndarray   # base + lambda_a * s_a
    teacher_gate: np.ndarray     # softmax(teacher_logits)
    student_gate: np.ndarray     # softmax(base_logits)
    topk: tuple                  # ascending indices of the K selected experts


@dataclass
class OptionRepresentation:
    option_gate: np.ndarray   # distribution over the K selected experts
    aggregated: np.ndarray    # gate-weighted sum of expert outputs (dim d)
    score: float              # cosine against the option text embedding


def base_logits(x, gating_matrix) -> np.ndarray:
    """Expert scores from the input representation alone."""
    x = np.asarray(x, dtype=np.float64)
    gating_matrix = np.asarray(gating_matrix, dtype=np.float64)
    if x.shape[-1] != gating_matrix.shape[0]:
        raise ShapeError(f"input dim {x.shape[-1]} != gating rows {gating_matrix.shape[0]}")
    return x @ gating_matrix


def semantic_direction(positive, negative, semantic_projection) -> np.ndarray:
    """Projected difference of positive and negative cue embeddings."""
    positive = np.asarray(positive, dtype=np.float64)
    negative = np.asarray(negative, dtype=np.float64)
    if positive.shape != negative.shape:
        raise ShapeError("cue embeddings differ in dimension")
    return base_logits(positive - negative, semantic_projection)


def teacher_gate(z_base, s_a, lambda_a: float):
    """Concept-guided logits and gate: softmax(z_base + lambda_a * s_a)."""
    z_base = np.asarray(z_base, dtype=np.float64)
    s_a = np.asarray(s_a, dtype=np.float64)
    if z_base.shape != s_a.shape:
        raise ShapeError("logit and direction lengths differ")
    if lambda_a < 0.0:
        raise InvalidInputError("lambda_a must be non-negative")
    logits = z_base + lambda_a * s_a
    return logits, softmax(logits)


def student_gate(z_base) -> np.ndarray:
    """Cue-free gate: softmax of the base logits, nothing else."""
    return softmax(z_base)


def select_topk(gate, k: int) -> tuple:
    """Indices of the K largest gate entries, ties to the lower index,
    returned sorted ascending."""
    gate = np.asarray(gate, dtype=np.float64)
    if not 1 <= k <= gate.size:
        raise InvalidRoutingError(f"K={k} out of range for {gate.size} experts")
    # stable sort on descending value; stability gives ties to lower index
    order = np.argsort(-gate, kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


def expert_forward_one(x, params: dict, index: int) -> np.ndarray:
    w1 = params[f"expert{index}_w1"]
    b1 = params[f"expert{index}_b1"]
    w2 = params[f"expert{index}_w2"]
    b2 = params[f"expert{index}_b2"]
    return np.tanh(x @ w1 + b1) @ w2 + b2


def expert_forward(x, model: Model, topk) -> list:
    """Outputs of only the selected experts, in topk order."""
    x = np.asarray(x, dtype=np.float64)
    for i in topk:
        if not 0 <= i < model.n_experts:
            raise InvalidRoutingError(f"expert index {i} out of range")
    return [expert_forward_one(x, model.params, i) for i in topk]


def route(x, model: Model, s_a, lambda_a: float, mode: str = "teacher") -> GatingDecision:
    """Full gating decision for one input; topk follows the mode's gate."""
    z_base = base_logits(x, model.params["gating"])
    if mode == "teacher":
        t_logits, g_t = teacher_gate(z_base, s_a, lambda_a)
    elif mode == "student":
        t_logits, g_t = teacher_gate(z_base, np.zeros_like(z_base), 0.0)
    else:
        raise InvalidInputError(f"unknown mode {mode!r}")
    g_s = student_gate(z_base)
    reference = g_t if mode == "teacher" else g_s
    return GatingDecision(
        base_logits=z_base,
        teacher_logits=t_logits,
        teacher_gate=g_t,
        student_gate=g_s,
        topk=select_topk(reference, model.k),
    )


def option_gate(routing_logits, topk, s_j, lambda_o: float) -> np.ndarray:
    """Softmax over the Top-K entries of (routing_logits + lambda_o * s_j).

    Only the topk components of s_j are read; the result is a distribution
    over exactly K entries, ordered like `topk`.
    """
    if len(topk) == 0:
        raise InvalidRoutingError("empty Top-K set")
    routing_logits = np.asarray(routing_logits, dtype=np.float64)
    s_j = np.asarray(s_j, dtype=np.float64)
    if s_j.shape != routing_logits.shape:
        raise ShapeError("direction length must match logits length")
    if lambda_o < 0.0:
        raise InvalidInputError("lambda_o must be non-negative")
    idx = list(topk)
    return softmax(routing_logits[idx] + lambda_o * s_j[idx])


def aggregate(gate, expert_outputs) -> np.ndarray:
    """Convex combination of the selected expert outputs."""
    gate = np.asarray(gate, dtype=np.float64)
    if gate.size != len(expert_outputs):
        raise ShapeError(f"{gate.size} weights for {len(expert_outputs)} outputs")
    return sum(w * h for w, h in zip(gate, expert_outputs))


def score_option(aggregated, option_text_emb) -> float:
    return cosine(aggregated, option_text_emb)


def predict(scores) -> int:
    """Highest-scoring option; ties go to the lower index."""
    if len(scores) == 0:
        raise InvalidInputError("no scores to predict from")
    return int(np.argmax(scores))


def score_all_options(sample, model: Model, mode: str,
                      lambda_a: float = 0.5, lambda_o: float = 0.5):
    """Score every option of a sample under one shared Top-K selection.

    Returns (GatingDecision, list of OptionRepresentation).
    """
    if mode not in ("teacher", "student"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    w_sem = model.params["semantic"]

    if mode == "teacher":
        correct_cues = sample.options[sample.correct][1]
        if correct_cues is None:
            raise MissingCueError(sample.sample_id, sample.correct)
        s_a = semantic_direction(correct_cues.positive, correct_cues.negative, w_sem)
        decision = route(sample.input_emb, model, s_a, lambda_a, mode="teacher")
        routing_logits = decision.teacher_logits
    else:
        decision = route(sample.input_emb, model, None, 0.0, mode="student")
        routing_logits = decision.base_logits

    outputs = expert_forward(sample.input_emb, model, decision.topk)

    reps = []
    for oid, (text_emb, cue_set) in enumerate(sample.options):
        if mode == "teacher":
            if cue_set is None:
                raise MissingCueError(sample.sample_id, oid)
            s_j = semantic_direction(cue_set.positive, cue_set.negative, w_sem)
        else:
            s_j = base_logits(text_emb, w_sem)
        gate = option_gate(routing_logits, decision.topk, s_j, lambda_o)
        agg = aggregate(gate, outputs)
        reps.append(OptionRepresentation(
            option_gate=gate,
            aggregated=agg,
            score=score_option(agg, text_emb),
        ))
    return decision, reps


def option_weight(unc: float) -> float:
    """1/(1+unc), clipped to [0.1, 1.0]."""
    if unc < 0.0:
        raise InvalidInputError("uncertainty must be non-negative")
    return float(np.clip(1.0 / (1.0 + unc), *WEIGHT_CLIP))


def main_loss(scores, label: int, uncs, temperature: float):
    """Per-option BCE, each option weighted by its cue confidence."""
    if not 0 <= label < len(scores):
        raise InvalidInputError(f"label {label} out of range for {len(scores)} options")
    if len(uncs) != len(scores):
        raise InvalidInputError("scores and uncertainties misaligned")
    weights = [option_weight(u) for u in uncs]
    loss = sum(
        w * binary_cross_entropy(s, 1 if j == label else 0, temperature)
        for j, (w, s) in enumerate(zip(weights, scores))
    )
    return float(loss), weights


def contrastive_loss(h_correct, h_wrong, c_pos, c_neg, lambda_c: float) -> float:
    """Pull the correct option's representation toward the positive cues,
    push the pooled wrong representation toward higher negative-cue cost."""
    return -lambda_c * (cosine(h_correct, c_pos) - cosine(h_wrong, c_neg))


def wrong_representation(reps, label: int) -> np.ndarray:
    """Score-weighted pooling of the incorrect options' representations.

    Weights are a softmax over the incorrect options' scores, so the result
    is always a convex combination.
    """
    wrong = [(r.score, r.aggregated) for j, r in enumerate(reps) if j != label]
    if not wrong:
        raise InvalidInputError("need at least one incorrect option")
    scores = np.array([s for s, _ in wrong])
    e = np.exp(scores - scores.max())
    omega = e / e.sum()
    return sum(w * h for w, h in zip(omega, (h for _, h in wrong)))


def distill_loss(g_teacher, g_student) -> float:
    """KL(teacher || student); the teacher side is a fixed target."""
    return kl_divergence(g_teacher, g_student)
