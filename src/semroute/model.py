"""Experts, routers and Top-K selection.

The model is a bank of E two-layer tanh perceptrons (d -> hidden -> d)
behind a linear gating matrix. A semantic projection maps cue differences
into expert-logit space; the teacher router adds that direction to the
base logits, the student router never sees it.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidInputError, InvalidRoutingError, ShapeError
from .numerics import seeded_rng, softmax


@dataclass
class GatingDecision:
    base_logits: np.ndarray      # length E
    teacher_logits: np.ndarray   # base + lambda_a * s_a
    teacher_gate: np.ndarray     # softmax(teacher_logits)
    student_gate: np.ndarray     # softmax(base_logits)
    topk: tuple                  # ascending indices of the K selected experts


class Model:
    """Parameter container. Names are stable; the trainer updates in place."""

    def __init__(self, d: int, n_experts: int, k: int, hidden: int, params: dict):
        if not 1 <= k <= n_experts:
            raise InvalidInputError(f"need 1 <= K <= E, got K={k}, E={n_experts}")
        self.d = d
        self.n_experts = n_experts
        self.k = k
        self.hidden = hidden
        self.params = params  # name -> float64 ndarray

    @classmethod
    def init(cls, d: int, n_experts: int, k: int, hidden: int, seed: int) -> "Model":
        rng = seeded_rng(seed)
        scale = 1.0 / np.sqrt(d)
        params = {
            "gating": scale * rng.standard_normal((d, n_experts)),
            "semantic": scale * rng.standard_normal((d, n_experts)),
        }
        hscale = 1.0 / np.sqrt(hidden)
        for i in range(n_experts):
            params[f"expert{i}_w1"] = scale * rng.standard_normal((d, hidden))
            params[f"expert{i}_b1"] = np.zeros(hidden)
            params[f"expert{i}_w2"] = hscale * rng.standard_normal((hidden, d))
            params[f"expert{i}_b2"] = np.zeros(d)
        return cls(d, n_experts, k, hidden, params)

    def copy(self) -> "Model":
        return Model(self.d, self.n_experts, self.k, self.hidden,
                     {k: v.copy() for k, v in self.params.items()})

    # -- checkpoint -------------------------------------------------------

    def save(self, path, config_hash: str = ""):
        payload = {
            "dims": {"d": self.d, "E": self.n_experts, "K": self.k, "hidden": self.hidden},
            "config_hash": config_hash,
            "params": {k: v.ravel().tolist() for k, v in self.params.items()},
            "shapes": {k: list(v.shape) for k, v in self.params.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "Model":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        try:
            dims = payload["dims"]
            params = {
                name: np.asarray(flat, dtype=np.float64).reshape(payload["shapes"][name])
                for name, flat in payload["params"].items()
            }
            return cls(dims["d"], dims["E"], dims["K"], dims["hidden"], params)
        except (KeyError, ValueError) as exc:
            raise DataError(f"malformed checkpoint {path}: {exc}") from exc


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(config_dict, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


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
