"""Optimization loop: warmup + cosine LR, AdamW with global-norm gradient
clipping, ablation wiring, evaluation, and the (n, K) sweep harness.
"""
from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import graph
from .data import generate_dataset
from .diagnostics import (
    routing_sharpness,
    routing_variance,
    selection_heatmap,
    sim_score,
)
from .errors import DataError, DivergenceError, InvalidInputError
from .model import Model
from .model import expert_forward  # noqa: F401  traced by perfbench/tracing.py
from .numerics import seeded_rng
from .scoring import score_all_options  # noqa: F401  traced by perfbench/tracing.py

ABLATION_FLAGS = ("no_sa", "no_sj", "no_unc", "no_contrast", "no_distill",
                  "prompt_only", "only_variance")

METRIC_COLUMNS = ("step", "lr", "L_main", "L_contrast", "L_distill", "L_total",
                  "train_acc", "eval_acc_teacher", "eval_acc_student", "sim")


@dataclass
class TrainConfig:
    # architecture
    d: int = 32
    n_experts: int = 8
    k: int = 2
    hidden: int = 32
    option_count: int = 4
    # routing / loss strengths
    lambda_a: float = 0.5
    lambda_o: float = 0.5
    lambda_c: float = 0.3
    temperature: float = 5.0
    # optimizer
    lr: float = 1e-4
    lr_min: float = 1e-6
    warmup_steps: int = 100
    total_steps: int = 2000
    batch: int = 32
    grad_clip_norm: float = 1.0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # synthetic task
    n_concepts: int = 8
    train_size: int = 2000
    eval_size: int = 500
    input_scale: float = 4.0
    cue_scale: float = 3.0
    input_noise: float = 0.9
    option_noise: float = 0.3
    cue_noise: float = 0.05
    variant_count: int = 4
    unc_threshold: float = 0.5
    max_regen_rounds: int = 3
    # bookkeeping
    seed: int = 0
    eval_every: int = 200
    # ablations
    no_sa: bool = False
    no_sj: bool = False
    no_unc: bool = False
    no_contrast: bool = False
    no_distill: bool = False
    prompt_only: bool = False
    only_variance: bool = False

    def __post_init__(self):
        if not 1 <= self.k <= self.n_experts:
            raise InvalidInputError(f"need 1 <= K <= E, got K={self.k}, E={self.n_experts}")
        for name in ("lambda_a", "lambda_o", "lambda_c"):
            if getattr(self, name) < 0.0:
                raise InvalidInputError(f"{name} must be non-negative")
        if not self.lr > self.lr_min > 0.0:
            raise InvalidInputError("need lr > lr_min > 0")
        if self.option_count < 2:
            raise InvalidInputError("option_count must be at least 2")
        for name in ("eval_every", "batch", "train_size", "total_steps"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be at least 1")
        if self.warmup_steps < 0:
            raise InvalidInputError("warmup_steps must be non-negative")
        if not self.temperature > 0.0:
            raise InvalidInputError("temperature must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DataError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    def with_ablations(self, names) -> "TrainConfig":
        bad = set(names) - set(ABLATION_FLAGS)
        if bad:
            raise DataError(f"unknown ablation flags: {sorted(bad)}")
        return replace(self, **{name: True for name in names})


def lr_at(step: int, config: TrainConfig) -> float:
    """Linear warmup to `lr`, then cosine decay to `lr_min` at total_steps.
    With `warmup_steps=0` the decay starts at step 0."""
    if step < 0:
        raise InvalidInputError("step must be non-negative")
    if config.warmup_steps and step <= config.warmup_steps:
        return config.lr * step / config.warmup_steps
    span = max(1, config.total_steps - config.warmup_steps)
    progress = min(1.0, (step - config.warmup_steps) / span)
    return config.lr_min + 0.5 * (config.lr - config.lr_min) * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay."""

    def __init__(self, param_names, shapes, config: TrainConfig):
        self.config = config
        self.t = 0
        self.m = {n: np.zeros(shapes[n]) for n in param_names}
        self.v = {n: np.zeros(shapes[n]) for n in param_names}

    def step(self, params: dict, grads: dict, lr: float):
        cfg = self.config
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for name, p in params.items():
            g = grads[name]
            self.m[name] = cfg.beta1 * self.m[name] + (1.0 - cfg.beta1) * g
            self.v[name] = cfg.beta2 * self.v[name] + (1.0 - cfg.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p -= lr * (m_hat / (np.sqrt(v_hat) + cfg.adam_eps) + cfg.weight_decay * p)


def clip_global_norm(grads: dict, max_norm: float) -> float:
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def train_step(model: Model, batch, config: TrainConfig, step: int, optimizer: AdamW):
    """One forward/backward/update; returns the LossBreakdown and batch scores."""
    tensors = graph.parameter_tensors(model)
    total, breakdown, aux = graph.batch_loss(tensors, batch, config)
    if not np.isfinite(total.value):
        raise DivergenceError(step, breakdown)
    total.backward()
    grads = {name: t.grad for name, t in tensors.items()}
    clip_global_norm(grads, config.grad_clip_norm)
    optimizer.step(model.params, grads, lr_at(step, config))
    return breakdown, aux


def evaluate(model: Model, dataset, mode: str, config: TrainConfig):
    """Accuracy, mean Sim and the routing decisions over a dataset.

    One tape-free run of `graph.forward_options` scores the whole split.
    Sim pairs the mode's full gate, restricted to the Top-K mask, with the
    expert outputs of the same forward; it averages over the samples whose
    correct option has cues and is NaN when none has. `topk_mask` and
    `gate` are the (N, E) routing decisions.
    """
    if not dataset:
        raise DataError("cannot evaluate on an empty dataset")
    tensors = {name: ad.constant(value) for name, value in model.params.items()}
    option_scores, _, routing = graph.forward_options(tensors, dataset, config, mode=mode)
    scores = np.stack([s.value for s in option_scores], axis=1)
    labels = np.array([s.correct for s in dataset])
    mask = routing["topk_mask"]
    gate = routing[f"{mode}_gate"].value

    correct_cues = [s.options[s.correct][1] for s in dataset]
    cued = [i for i, cs in enumerate(correct_cues) if cs is not None]
    sim_mean = float("nan")
    if cued:
        directions = np.stack([correct_cues[i].positive - correct_cues[i].negative
                               for i in cued])
        restricted = np.where(mask[cued], gate[cued], 0.0)
        restricted /= restricted.sum(axis=1, keepdims=True)
        sim_mean = float(np.mean(sim_score(routing["experts"][cued], restricted, directions)))
    return {
        "accuracy": int(np.count_nonzero(np.argmax(scores, axis=1) == labels)) / len(dataset),
        "sim_mean": sim_mean,
        "topk_mask": mask,
        "gate": gate,
    }


def diagnose(model: Model, dataset, mode: str, config: TrainConfig):
    """Per-category sharpness/variance plus the selection heatmap, computed
    from the (N, E) routing decisions of `evaluate`."""
    metrics = evaluate(model, dataset, mode, config)
    gate, mask = metrics["gate"], metrics["topk_mask"]
    categories = [s.category for s in dataset]
    sharpness_rows = routing_sharpness(gate, mask)
    names, heatmap = selection_heatmap(categories, mask)
    labels = np.array(categories)
    rows = {c: labels == c for c in names}
    variance = routing_variance({c: gate[rows[c]] for c in names})
    return {
        "accuracy": metrics["accuracy"],
        "sim_mean": metrics["sim_mean"],
        "variance": variance,
        "sharpness": {c: float(np.mean(sharpness_rows[rows[c]])) for c in names},
        "sharpness_overall": float(np.mean(sharpness_rows)),
        "variance_overall": float(np.mean(list(variance.values()))),
        "heatmap_categories": names,
        "heatmap": heatmap,
    }


def train(config: TrainConfig, train_set, eval_set, metrics_path=None):
    """Full training run; returns (model, list of per-step metric rows)."""
    model = Model.init(config.d, config.n_experts, config.k, config.hidden, config.seed)
    optimizer = AdamW(model.params.keys(),
                      {n: p.shape for n, p in model.params.items()}, config)
    batch_rng = seeded_rng(config.seed + 1)
    order = np.arange(len(train_set))
    batch_rng.shuffle(order)
    cursor = 0

    eval_teacher = eval_student = sim = float("nan")
    rows = []
    for step in range(config.total_steps):
        if cursor + config.batch > len(order):
            batch_rng.shuffle(order)
            cursor = 0
        batch = [train_set[i] for i in order[cursor:cursor + config.batch]]
        cursor += config.batch

        breakdown, aux = train_step(model, batch, config, step, optimizer)
        labels = np.array([s.correct for s in batch])
        train_acc = float(np.mean(np.argmax(aux["scores"], axis=1) == labels))

        if step % config.eval_every == 0 or step == config.total_steps - 1:
            teacher_metrics = evaluate(model, eval_set, "teacher", config)
            student_metrics = evaluate(model, eval_set, "student", config)
            eval_teacher = teacher_metrics["accuracy"]
            eval_student = student_metrics["accuracy"]
            sim = student_metrics["sim_mean"]

        rows.append({
            "step": step, "lr": lr_at(step, config),
            "L_main": breakdown.main, "L_contrast": breakdown.contrast,
            "L_distill": breakdown.distill, "L_total": breakdown.total,
            "train_acc": train_acc,
            "eval_acc_teacher": eval_teacher, "eval_acc_student": eval_student,
            "sim": sim,
        })
    if metrics_path is not None:
        write_metrics_csv(metrics_path, rows)
    return model, rows


def write_metrics_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(METRIC_COLUMNS))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def sweep(n_values, k_values, config: TrainConfig, out_path=None):
    """Fresh seeded run per (n, K) cell; infeasible or diverging cells are
    marked failed and the sweep continues."""
    rows = []
    for n in n_values:
        for k in k_values:
            row = {"n": n, "K": k, "acc": "", "sim": "", "status": "ok"}
            try:
                cell_config = replace(config, n_experts=n, k=k)
                train_set, eval_set = generate_dataset(cell_config, cell_config.seed)
                model, _ = train(cell_config, train_set, eval_set)
                metrics = evaluate(model, eval_set, "student", cell_config)
                row["acc"] = repr(metrics["accuracy"])
                row["sim"] = repr(metrics["sim_mean"])
            except (InvalidInputError, DivergenceError, DataError) as exc:
                row["status"] = f"failed: {type(exc).__name__}"
            rows.append(row)
    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["n", "K", "acc", "sim", "status"])
            writer.writeheader()
            writer.writerows(rows)
    return rows
