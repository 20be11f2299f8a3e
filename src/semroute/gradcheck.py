"""Analytic-vs-numeric gradient verification for the full training loss.

Top-K selection is discrete and the distillation target is a constant
within a step, so both are pinned while probing; the finite-difference
oracle then differentiates exactly the function the backward pass sees.
"""
from __future__ import annotations

import numpy as np

from . import graph
from .data import generate_dataset
from .model import Model
from .numerics import finite_difference_gradient
from .trainer import TrainConfig, _records

REL_TOL = 1e-4
REL_FLOOR = 1e-8


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_check(config: TrainConfig, batch=None, step: float = 1e-5):
    """Compare tape gradients of the total loss against central differences.

    Returns {parameter block name: max relative error}. Uses a freshly
    generated batch from the config's synthetic task unless a `Split` or a
    list of samples is supplied.
    """
    if batch is None:
        train_set, _ = generate_dataset(config, config.seed)
        batch = train_set[:4]
    batch = _records(batch, config.d)
    model = Model.init(config.d, config.n_experts, config.k, config.hidden, config.seed)

    tensors = graph.parameter_tensors(model)
    total, _, aux = graph.batch_loss(tensors, batch, config)
    total.backward()
    analytic = {name: t.grad.copy() for name, t in tensors.items()}
    frozen = {"topk_mask": aux["topk_mask"], "distill_target": aux["distill_target"]}

    def loss_fn(blocks):
        value, _, _ = graph.batch_loss(blocks, batch, config, frozen=frozen)
        return float(value.value)

    numeric = finite_difference_gradient(loss_fn, model.blocks, step=step)
    return {name: relative_error(analytic[name], numeric[name]) for name in analytic}
