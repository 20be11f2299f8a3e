"""Routing-quality metrics: semantic-alignment score, routing sharpness,
per-category routing variance, and expert selection-frequency heatmaps.

All outputs are plain CSV; plotting is left to external tools.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateVectorError, InvalidInputError, InvalidRoutingError
from .fileio import write_csv
from .numerics import cosine  # noqa: F401  counted by perfbench/tracing.py


def sim_score(expert_outputs, gate, reference_direction):
    """Cosine between the gate-weighted Top-K representation and the
    reference semantic direction (the correct answer's cue difference).

    Leading axes are batch axes: K outputs of dimension d (..., K, d) pair
    with a (..., K) gate and a (..., d) direction, one score per row.
    """
    outputs = np.asarray(expert_outputs, dtype=np.float64)
    gate = np.asarray(gate, dtype=np.float64)
    reference = np.asarray(reference_direction, dtype=np.float64)
    if outputs.shape[:-1] != gate.shape:
        raise InvalidInputError("gate and expert outputs misaligned")
    h_topk = np.einsum("...k,...kd->...d", gate, outputs)
    norms = np.linalg.norm(h_topk, axis=-1) * np.linalg.norm(reference, axis=-1)
    if np.any(norms == 0.0):
        raise DegenerateVectorError("cosine of a zero-norm vector is undefined")
    return np.clip(np.einsum("...d,...d->...", h_topk, reference) / norms, -1.0, 1.0)


def routing_sharpness(gate, topk_mask):
    """Mean gate weight of selected experts minus the unselected mean, for
    each row of (..., E) gates and their boolean Top-K masks."""
    gate = np.asarray(gate, dtype=np.float64)
    mask = np.asarray(topk_mask, dtype=bool)
    if gate.shape != mask.shape:
        raise InvalidInputError("gate and Top-K mask shapes differ")
    k = mask.sum(axis=-1)
    if np.any(k == 0):
        raise InvalidRoutingError("empty Top-K set")
    if np.any(k == gate.shape[-1]):
        raise InvalidRoutingError("sharpness undefined when every expert is selected")
    selected = np.where(mask, gate, 0.0).sum(axis=-1) / k
    unselected = np.where(mask, 0.0, gate).sum(axis=-1) / (gate.shape[-1] - k)
    return selected - unselected


def routing_variance(gates_by_category) -> dict:
    """Per-category mean (over experts) of the across-sample variance of
    each expert's gate weight. Returns raw values; report x10 for display."""
    out = {}
    for category, gates in gates_by_category.items():
        if len(gates) < 2:
            raise InvalidInputError(f"category {category!r} needs >= 2 samples")
        g = np.asarray(gates, dtype=np.float64)
        out[category] = float(np.var(g, axis=0, ddof=1).mean())
    return out


def selection_heatmap(categories, topk_mask):
    """Fraction of each category's samples whose Top-K contains each expert.

    `categories` labels the rows of the (N, E) boolean `topk_mask`. Returns
    (categories, matrix) with rows in sorted category order; every row
    sums to K.
    """
    mask = np.asarray(topk_mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] == 0:
        raise InvalidInputError("empty decision log")
    labels = np.asarray(categories)
    if labels.shape != mask.shape[:1]:
        raise InvalidInputError("one category per decision required")
    names = sorted(set(categories))
    matrix = np.stack([mask[labels == c].mean(axis=0) for c in names])
    return names, matrix


def write_heatmap_csv(path, categories, matrix):
    write_csv(path, ["category"] + [f"expert{i}" for i in range(matrix.shape[1])],
              ([c] + [repr(float(v)) for v in row] for c, row in zip(categories, matrix)))


def write_diagnostics_csv(path, run_id, per_category, sim_mean, sharpness_by_category):
    """One row per category: run_id, category, sharpness, variance raw/x10, sim."""
    write_csv(path, ["run_id", "category", "sharpness", "variance_raw", "variance_x10",
                     "sim_mean"],
              ([run_id, c, repr(float(sharpness_by_category[c])), repr(float(var)),
                repr(float(10.0 * var)), repr(float(sim_mean))]
               for c, var in sorted(per_category.items())))
