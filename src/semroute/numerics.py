"""Dense-vector primitives: softmax, cosine, KL, BCE, a finite-difference
gradient oracle, and the seeded RNG used everywhere determinism matters.

All arithmetic is 64-bit. These functions are the independent reference
implementations that the tape-based training path is checked against.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateVectorError,
    InvalidDistributionError,
    InvalidInputError,
    ProbeFailureError,
    ShapeError,
)

PROB_EPS = 1e-12  # floor of the distillation target under its log


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array or raise."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"expected a non-empty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("vector contains non-finite entries")
    return v


def numeric_array(value) -> np.ndarray:
    """A float64 array from nested lists of JSON numbers; ValueError if the
    nesting is ragged or an entry is not a number (a string or null)."""
    try:
        arr = np.array(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError("expected a rectangular array of numbers")
    return arr.astype(np.float64, copy=False)


def squared_norms(a) -> np.ndarray:
    """The squared norm of every vector along the last axis of `a`, each its
    own (1, d) @ (d, 1) matmul: the dot that a 1-D `v @ v` and
    `np.linalg.norm` use, so the cosines built from it equal the scalar
    ones bit for bit (einsum and `norm(axis=-1)` sum in other orders). A
    square too large for float64 gives inf, without a warning."""
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.matmul(a[..., None, :], a[..., :, None])[..., 0, 0]


def softmax(logits) -> np.ndarray:
    """Max-subtracted softmax; output is strictly positive and sums to 1."""
    z = as_vector(logits)
    e = np.exp(z - z.max())
    return e / e.sum()


def cosine(a, b) -> float:
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise ShapeError(f"cosine operands differ: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateVectorError("cosine of a zero-norm vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats; 0*log(0/q) terms contribute 0."""
    p = as_vector(p)
    q = as_vector(q)
    if p.shape != q.shape:
        raise ShapeError(f"distribution lengths differ: {p.size} vs {q.size}")
    for name, dist in (("p", p), ("q", q)):
        if np.any(dist < 0.0) or abs(dist.sum() - 1.0) > 1e-6:
            raise InvalidDistributionError(f"{name} is not a probability vector")
    if np.any(q <= 0.0):
        raise InvalidDistributionError("q must be strictly positive")
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def binary_cross_entropy(score: float, label: int, temperature: float) -> float:
    """BCE on a logistic link of the score, sharpened by `temperature`,
    computed on the logit as log(1 + exp(∓logit)): no clamp, so no flat
    spot at large |logit|."""
    if temperature <= 0.0:
        raise InvalidInputError("temperature must be positive")
    if not np.isfinite(score):
        raise InvalidInputError("score must be finite")
    if label not in (0, 1):
        raise InvalidInputError(f"label must be 0 or 1, got {label!r}")
    return float(np.logaddexp(0.0, (1.0 - 2.0 * label) * (temperature * score)))


def finite_difference_gradient(loss_fn, params, step: float = 1e-5):
    """Central-difference gradient of a scalar loss over named parameters.

    `params` maps names to float64 arrays (any shape). Returns a dict of
    arrays with matching shapes. `loss_fn` receives the params dict and
    must be deterministic for fixed values.
    """
    if step <= 0.0:
        raise InvalidInputError("finite-difference step must be positive")
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    grads = {}
    for name, arr in work.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = loss_fn(work)
            flat[i] = orig - step
            f_minus = loss_fn(work)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ProbeFailureError(name, f"(element {i})")
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        grads[name] = g
    return grads


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic, platform-stable random stream (PCG64)."""
    return np.random.default_rng(int(seed))
