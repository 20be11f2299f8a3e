"""Optimization loop: warmup + cosine LR, AdamW with global-norm gradient
clipping, ablation wiring, evaluation, and the (n, K) sweep harness.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import graph
from .data import Split, generate_dataset
from .diagnostics import (
    routing_sharpness,
    routing_variance,
    selection_heatmap,
    sim_score,
)
from .errors import DataError, DivergenceError, InvalidInputError
from .fileio import write_csv
from .model import Model
from .numerics import seeded_rng
from .scoring import expert_forward, score_all_options  # noqa: F401 traced by perfbench/tracing.py

ABLATION_FLAGS = ("no_sa", "no_sj", "no_unc", "no_contrast", "no_distill",
                  "prompt_only", "only_variance")

# Smallest magnitude of the scales that embeddings are built from.
MIN_SCALE = 1e-100

METRIC_COLUMNS = ("step", "lr", "L_main", "L_contrast", "L_distill", "L_total",
                  "grad_norm", "clipped", "train_acc", "eval_acc_teacher",
                  "eval_acc_student", "sim")


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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, numbers.Integral)):
                raise InvalidInputError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real)):
                raise InvalidInputError(f"{f.name} must be a number, got {value!r}")
            if f.type == "bool" and not isinstance(value, bool):
                raise InvalidInputError(f"{f.name} must be true or false, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidInputError(f"{f.name} must be finite, got {value}")
        if not 1 <= self.k <= self.n_experts:
            raise InvalidInputError(f"need 1 <= K <= E, got K={self.k}, E={self.n_experts}")
        if not self.lr > self.lr_min > 0.0:
            raise InvalidInputError("need lr > lr_min > 0")
        if self.lr * self.weight_decay >= 1.0:
            # decoupled decay would zero or flip every weight at the peak rate
            raise InvalidInputError("need lr * weight_decay < 1")
        if self.option_count < 2:
            raise InvalidInputError("option_count must be at least 2")
        if self.option_count > self.n_concepts:
            raise InvalidInputError(f"option_count {self.option_count} exceeds "
                                    f"n_concepts {self.n_concepts}")
        if self.variant_count < 2:
            raise InvalidInputError("variant_count must be at least 2")
        if self.d < 2:
            # in one dimension every unit concept centroid is +1 or -1, so
            # distinct concepts coincide and cue differences vanish
            raise InvalidInputError("d must be at least 2")
        for name in ("hidden", "eval_every", "batch", "train_size", "eval_size",
                     "total_steps", "max_regen_rounds"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be at least 1")
        for name in ("seed", "warmup_steps", "lambda_a", "lambda_o", "lambda_c", "weight_decay",
                     "input_noise", "option_noise", "cue_noise"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be non-negative")
        for name in ("temperature", "adam_eps", "grad_clip_norm", "unc_threshold"):
            if not getattr(self, name) > 0.0:
                raise InvalidInputError(f"{name} must be positive")
        # embeddings are compared by cosine, whose squared norms must not
        # underflow to zero
        if max(abs(self.input_scale), self.input_noise) < MIN_SCALE:
            raise InvalidInputError(f"input_scale or input_noise must be at least "
                                    f"{MIN_SCALE:g} in magnitude")
        if self.cue_scale < MIN_SCALE:
            raise InvalidInputError(f"cue_scale must be at least {MIN_SCALE:g}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise InvalidInputError(f"{name} must be in [0, 1)")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        if not isinstance(data, dict):
            raise DataError(f"a config must be a JSON object of fields, got {data!r:.40}")
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
    """Adaptive-moment optimizer with decoupled weight decay over one flat
    parameter vector of `size` entries."""

    def __init__(self, size: int, config: TrainConfig):
        self.config = config
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, p: np.ndarray, g: np.ndarray, lr: float):
        """Update the flat parameters `p` in place from their gradient `g`:
        p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p), each
        operation into a reused buffer, in the order of that formula."""
        cfg = self.config
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        m, v = self.m, self.v
        a, b = self._scratch
        m *= cfg.beta1
        m += np.multiply(g, 1.0 - cfg.beta1, out=a)
        v *= cfg.beta2
        np.multiply(g, 1.0 - cfg.beta2, out=a)
        v += np.multiply(a, g, out=a)
        np.sqrt(np.divide(v, bc2, out=a), out=a)
        a += cfg.adam_eps
        np.divide(np.divide(m, bc1, out=b), a, out=b)
        b += np.multiply(p, cfg.weight_decay, out=a)
        b *= lr
        p -= b


def clip_global_norm(g: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient `g` in place to norm `max_norm` if its norm
    is larger; returns the norm before clipping."""
    total = math.sqrt(float(g @ g))
    if total > max_norm and total > 0.0:
        g *= max_norm / total
    return total


def train_step(model: Model, batch: graph.Batch, config: TrainConfig, step: int,
               optimizer: AdamW):
    """One forward/backward/update of `model.vector`; returns the
    LossBreakdown and the auxiliary arrays of `graph.batch_loss`, plus the
    pre-clip gradient norm and whether it was clipped."""
    grad = np.zeros_like(model.vector)
    tensors = graph.parameter_tensors(model, grad)
    total, breakdown, aux = graph.batch_loss(tensors, batch, config)
    if not np.isfinite(total.value):
        raise DivergenceError(step, breakdown)
    total.backward()
    aux["grad_norm"] = clip_global_norm(grad, config.grad_clip_norm)
    aux["clipped"] = aux["grad_norm"] > config.grad_clip_norm
    optimizer.step(model.vector, grad, lr_at(step, config))
    return breakdown, aux


def _records(dataset, d: int) -> graph.Batch:
    """The dataset's `graph.Batch`: a `Split`'s own, or else one gathered by
    `Split.of`. Its embeddings must have dimension d."""
    if not len(dataset):
        raise DataError("the dataset holds no samples")
    batch = (dataset if isinstance(dataset, Split) else Split.of(dataset)).batch
    if batch.x.shape[1] != d:
        raise DataError(f"dataset embeddings have dimension {batch.x.shape[1]}, the model {d}")
    return batch


def evaluate(model: Model, dataset, mode: str, config: TrainConfig):
    """Accuracy, mean Sim and the routing decisions over a dataset, a
    `Split` or a list of samples.

    One tape-free run of `graph.forward_options` scores the whole split.
    Sim pairs the mode's gate over the K selected experts, renormalised,
    with their (N, K, d) outputs from the same forward and the correct
    option's cue difference; it averages over the samples whose correct
    option has cues and is NaN when none has. `topk_mask` and `gate` are
    the (N, E) routing decisions.
    """
    dims = (model.d, model.n_experts, model.k, model.hidden)
    if dims != (config.d, config.n_experts, config.k, config.hidden):
        raise InvalidInputError(f"model (d, E, K, hidden) = {dims} differ from the config's "
                                f"{(config.d, config.n_experts, config.k, config.hidden)}")
    batch = _records(dataset, model.d)
    scores, _, routing = graph.forward_options(model.blocks, batch, config, mode=mode)
    gate = routing[f"{mode}_gate"]

    rows = np.arange(batch.correct.size)
    cued = batch.has_cue[rows, batch.correct]
    sim_mean = float("nan")
    if cued.any():
        at = rows[cued], batch.correct[cued]
        directions = batch.pos[at] - batch.neg[at]
        selected = np.take_along_axis(gate[cued], routing["topk"][cued], axis=1)
        selected /= selected.sum(axis=1, keepdims=True)
        sim_mean = float(np.mean(sim_score(routing["experts"][cued], selected, directions)))
    return {
        "accuracy": (int(np.count_nonzero(np.argmax(scores.value, axis=1) == batch.correct))
                     / rows.size),
        "sim_mean": sim_mean,
        "topk_mask": routing["topk_mask"],
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
    records = _records(train_set, config.d)
    model = Model.init(config.d, config.n_experts, config.k, config.hidden, config.seed)
    optimizer = AdamW(model.vector.size, config)
    batch_rng = seeded_rng(config.seed + 1)
    order = np.arange(len(train_set))
    batch_rng.shuffle(order)
    cursor = 0

    eval_teacher = eval_student = sim = float("nan")
    rows = []
    try:
        for step in range(config.total_steps):
            if cursor + config.batch > len(order):
                batch_rng.shuffle(order)
                cursor = 0
            batch = records.take(order[cursor:cursor + config.batch])
            cursor += config.batch

            breakdown, aux = train_step(model, batch, config, step, optimizer)
            train_acc = float(np.mean(np.argmax(aux["scores"], axis=1) == batch.correct))

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
                "grad_norm": aux["grad_norm"], "clipped": int(aux["clipped"]),
                "train_acc": train_acc,
                "eval_acc_teacher": eval_teacher, "eval_acc_student": eval_student,
                "sim": sim,
            })
    finally:  # keep the finished steps' rows when a step diverges
        if metrics_path is not None:
            write_metrics_csv(metrics_path, rows)
    return model, rows


def write_metrics_csv(path, rows):
    write_csv(path, METRIC_COLUMNS, ([row[c] for c in METRIC_COLUMNS] for row in rows))


def sweep(n_values, k_values, config: TrainConfig, out_path=None):
    """Fresh seeded run per (n, K) cell on one dataset, which depends on
    neither; infeasible or diverging cells are marked failed and the sweep
    continues. `out_path` is opened before the first cell and gets each
    row as its cell finishes."""
    rows = []

    def cells():
        train_set, eval_set = generate_dataset(config, config.seed)
        for n in n_values:
            for k in k_values:
                row = {"n": n, "K": k, "acc": "", "sim": "", "status": "ok"}
                try:
                    cell_config = replace(config, n_experts=n, k=k)
                    model, _ = train(cell_config, train_set, eval_set)
                    metrics = evaluate(model, eval_set, "student", cell_config)
                    row["acc"] = repr(metrics["accuracy"])
                    row["sim"] = repr(metrics["sim_mean"])
                except (InvalidInputError, DivergenceError, DataError) as exc:
                    row["status"] = f"failed: {type(exc).__name__}"
                rows.append(row)
                yield row.values()

    if out_path is None:
        list(cells())
    else:
        write_csv(out_path, ("n", "K", "acc", "sim", "status"), cells())
    return rows
