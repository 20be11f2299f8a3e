"""Output checks for the benchmark: an independent vectorised evaluation
oracle, exact round-trip comparisons, output digests and the fixed-seed
reference run whose values are stored in `reference.json`.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from semroute import data, trainer

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The reference run: workload shape, seed 0, 64 + 64 samples, 20 steps
# past a short warmup so that the updates are not negligible.
REFERENCE_RUN = dict(seed=0, train_size=64, eval_size=64, total_steps=20, warmup_steps=5)
# Loss and Sim may drift in the last bits when summation order changes;
# accuracy is a count and must match exactly.
REFERENCE_RTOL = 1e-6
# The oracle sums in another order than the per-sample path.
ORACLE_RTOL = 1e-9


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _cosine(a, b):
    dots = np.einsum("...d,...d->...", a, b)
    return dots / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))


def oracle_evaluate(model, samples, mode, config):
    """Accuracy and mean Sim of `trainer.evaluate`, computed for the whole
    split at once with plain numpy instead of per sample."""
    p = model.params
    n = np.arange(len(samples))[:, None]
    x = np.stack([s.input_emb for s in samples])
    text = np.stack([[t for t, _ in s.options] for s in samples])
    cue_diff = np.stack([[cs.positive - cs.negative for _, cs in s.options]
                         for s in samples])
    correct = np.array([s.correct for s in samples])
    lambda_a = 0.0 if config.no_sa else config.lambda_a
    lambda_o = 0.0 if config.no_sj else config.lambda_o

    logits = x @ p["gating"]
    if mode == "teacher":
        logits = logits + lambda_a * (cue_diff[n[:, 0], correct] @ p["semantic"])
        s_j = cue_diff @ p["semantic"]
    else:
        s_j = text @ p["semantic"]
    gate = _softmax(logits)
    topk = np.sort(np.argsort(-gate, axis=1, kind="stable")[:, :model.k], axis=1)

    experts = np.stack([
        np.tanh(x @ p[f"expert{e}_w1"] + p[f"expert{e}_b1"]) @ p[f"expert{e}_w2"]
        + p[f"expert{e}_b2"]
        for e in range(model.n_experts)
    ], axis=1)
    selected = experts[n, topk]                                     # (N, K, d)
    option_logits = (logits[n, topk][:, None, :]
                     + lambda_o * np.take_along_axis(s_j, topk[:, None, :], axis=2))
    reps = np.einsum("njk,nkd->njd", _softmax(option_logits), selected)
    accuracy = float(np.mean(np.argmax(_cosine(reps, text), axis=1) == correct))

    restricted = gate[n, topk]
    restricted = restricted / restricted.sum(axis=1, keepdims=True)
    h_topk = np.einsum("nk,nkd->nd", restricted, selected)
    sim = float(np.mean(np.clip(_cosine(h_topk, cue_diff[n[:, 0], correct]), -1.0, 1.0)))
    return accuracy, sim


def samples_digest(samples) -> str:
    """sha256 over every array and cue score of a list of samples."""
    h = hashlib.sha256()
    for s in samples:
        h.update(f"{s.sample_id}|{s.correct}|{s.category}".encode())
        h.update(s.input_emb.tobytes())
        for text, cs in s.options:
            h.update(text.tobytes())
            if cs is not None:
                for arr in (cs.positive, cs.negative, *cs.variants):
                    h.update(arr.tobytes())
                h.update(repr((cs.agreement, cs.variance, cs.uncertainty)).encode())
    return h.hexdigest()


def values_digest(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def samples_mismatch(expected, actual):
    """First difference between two sample lists, or None if they are
    identical bit for bit, cue scores included."""
    if len(expected) != len(actual):
        return f"{len(actual)} samples, expected {len(expected)}"
    for a, b in zip(expected, actual):
        if (a.sample_id, a.correct, a.category) != (b.sample_id, b.correct, b.category):
            return f"{b.sample_id}: id, label or category differs"
        if not np.array_equal(a.input_emb, b.input_emb):
            return f"{b.sample_id}: input embedding differs"
        if len(a.options) != len(b.options):
            return f"{b.sample_id}: option count differs"
        for oid, ((ta, ca), (tb, cb)) in enumerate(zip(a.options, b.options)):
            if not np.array_equal(ta, tb):
                return f"{b.sample_id} option {oid}: text embedding differs"
            if not (np.array_equal(ca.positive, cb.positive)
                    and np.array_equal(ca.negative, cb.negative)
                    and len(ca.variants) == len(cb.variants)
                    and all(np.array_equal(u, v) for u, v in zip(ca.variants, cb.variants))):
                return f"{b.sample_id} option {oid}: cue embeddings differ"
            if ((ca.agreement, ca.variance, ca.uncertainty)
                    != (cb.agreement, cb.variance, cb.uncertainty)):
                return f"{b.sample_id} option {oid}: cue scores differ"
    return None


def close(a, b, rtol) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b), 1e-12)


def reference_values(config) -> dict:
    """Loss after REFERENCE_RUN's steps plus accuracy and Sim in both modes."""
    cfg = replace(config, **REFERENCE_RUN)
    train_set, eval_set = data.generate_dataset(cfg, cfg.seed)
    model, rows = trainer.train(cfg, train_set, eval_set)
    out = {"L_total": rows[-1]["L_total"]}
    for mode in ("teacher", "student"):
        metrics = trainer.evaluate(model, eval_set, mode, cfg)
        out[f"accuracy_{mode}"] = metrics["accuracy"]
        out[f"sim_{mode}"] = metrics["sim_mean"]
    return out


def reference_mismatch(workload_name, config):
    """Compare the reference run with the stored values; None if they agree."""
    expected = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[workload_name]
    actual = reference_values(config)
    bad = []
    for key, want in expected.items():
        got = actual[key]
        ok = got == want if key.startswith("accuracy") else close(got, want, REFERENCE_RTOL)
        if not ok:
            bad.append(f"{key}={got!r}, reference {want!r}")
    return "; ".join(bad) or None
