"""Synthetic multiple-choice embedding task.

Concepts are random unit centroids. Each sample's input embedding is a
rotated, noisy view of one centroid; option text embeddings sit near the
centroids of their concepts; cues are synthesized per option. The rotation
makes the input-to-concept map non-trivial so routing quality matters.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cues import (CueSet, CueTable, draw_cue_block, regenerate_if_uncertain, score_cues,
                   synthesize_cues)
from .cues import score_cue_set  # noqa: F401  traced by perfbench/tracing.py
from .errors import DataError, InvalidInputError
from .fileio import JSONL_VERSION, read_jsonl, write_jsonl
from .numerics import numeric_array, seeded_rng, squared_norms


@dataclass
class Sample:
    sample_id: str
    input_emb: np.ndarray
    options: list              # list of (text_emb, CueSet | None)
    correct: int
    category: str

    def __post_init__(self):
        if len(self.options) < 2:
            raise InvalidInputError("a sample needs at least 2 options")
        if not 0 <= self.correct < len(self.options):
            raise InvalidInputError("correct index out of range")


def _unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _random_rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def generate_dataset(config, seed: int):
    """Build (train, held_out) lists of fully cue-scored samples.

    Every sample is drawn into preallocated arrays in one pass, and then
    each option column's cue sets are scored with one `score_cues` call.
    Each cue set more uncertain than `unc_threshold` is then regenerated, in
    sample and option order, by `regenerate_if_uncertain` with
    `synthesize_cues` on that option's concept and negative concept, drawing
    on from where the first pass ended. So a regeneration changes only its
    own cue set and scores. The samples' embeddings and the cue sets' blocks
    are views of the arrays.
    """
    rng = seeded_rng(seed)
    d, n_concepts, n_options = config.d, config.n_concepts, config.option_count
    centroids = _unit_rows(rng, n_concepts, d)
    rotation = _random_rotation(rng, d)

    total = config.train_size + config.eval_size
    # exact class balance up to remainder, then shuffled
    concept_ids = np.resize(np.arange(n_concepts), total)
    rng.shuffle(concept_ids)

    rotated = [config.input_scale * centroids[c] @ rotation for c in range(n_concepts)]
    cue_centroids = config.cue_scale * centroids
    noise_scale = config.cue_scale * config.cue_noise
    x = np.empty((total, d))
    text = np.empty((total, n_options, d))
    cues = np.empty((total, n_options, 2 + config.variant_count, d))
    pairs = np.empty((total, n_options, 2), dtype=np.intp)  # (concept, negative concept)
    correct = [0] * total
    for idx in range(total):
        c = int(concept_ids[idx])
        x[idx] = rotated[c] + config.input_noise * rng.standard_normal(d)
        distractors = [k for k in range(n_concepts) if k != c]
        rng.shuffle(distractors)
        option_concepts = [c] + distractors[: n_options - 1]
        option_concepts = [option_concepts[i] for i in rng.permutation(n_options).tolist()]
        correct[idx] = option_concepts.index(c)
        for j, oc in enumerate(option_concepts):
            text[idx, j] = centroids[oc] + config.option_noise * rng.standard_normal(d)
            negative = int(rng.integers(n_concepts - 1))  # any concept but oc
            negative += negative >= oc
            pairs[idx, j] = oc, negative
            cues[idx, j] = draw_cue_block(cue_centroids[oc], cue_centroids[negative],
                                          noise_scale, config.variant_count, rng)

    # one (N, J) array per score
    agr, var, unc = (np.stack(column, axis=1) for column in zip(*(
        score_cues(cues[:, j], x, only_variance=config.only_variance)
        for j in range(n_options))))
    for idx, j in zip(*np.nonzero(unc > config.unc_threshold)):
        pos, neg = cue_centroids[pairs[idx, j]]
        cs = regenerate_if_uncertain(
            CueSet(cues[idx, j]), x[idx], threshold=config.unc_threshold,
            generator=lambda _round: synthesize_cues(pos, neg, noise_scale,
                                                     config.variant_count, rng),
            max_rounds=config.max_regen_rounds, only_variance=config.only_variance)
        cues[idx, j] = cs.block
        agr[idx, j], var[idx, j], unc[idx, j] = cs.agreement, cs.variance, cs.uncertainty

    samples = []
    for idx, (c, *scores) in enumerate(zip(concept_ids.tolist(), agr.tolist(), var.tolist(),
                                           unc.tolist())):
        options = [(t, CueSet(block, *option_scores))
                   for t, block, *option_scores in zip(text[idx], cues[idx], *scores)]
        samples.append(Sample(sample_id=f"s{idx:05d}", input_emb=x[idx], options=options,
                              correct=correct[idx], category=f"c{c}"))
    return samples[: config.train_size], samples[config.train_size:]


# -- dataset files ---------------------------------------------------------

def save_dataset(samples, path):
    """One JSON object per sample; cues are stored in the cue file instead."""
    write_jsonl(path, {"version": JSONL_VERSION, "count": len(samples)},
                ({"sample_id": s.sample_id, "input_emb": s.input_emb.tolist(),
                  "options": [t.tolist() for t, _ in s.options],
                  "correct": s.correct, "category": s.category} for s in samples))


def load_dataset(path, cue_table: CueTable | None = None, only_variance: bool = False):
    """Load samples; if a cue table is given, attach and score its cues.

    Every sample must have a unique string `sample_id`, a string `category`,
    an integer `correct` index, the same option count, and input and option
    embeddings of one dimension, that of the cue table too: batched training
    and evaluation stack them into arrays. An input embedding with cues must
    have a non-zero squared norm that fits in float64. Every record is
    parsed first; then the cue sets are scored in one `score_cues` call per
    cue block shape, over their stacked blocks.
    """
    records = read_jsonl(path, DataError)
    _, header = next(records)
    count = header.get("count")
    if type(count) is not int or count < 0:
        raise DataError(f"{path} line 1: the header count must be a non-negative integer, "
                        f"got {count!r}")
    samples = []
    first_line = {}
    by_shape = {}  # cue block shape -> [(sample, option id, cue set)]
    for lineno, rec in records:
        try:
            sample_id, correct, category = rec["sample_id"], rec["correct"], rec["category"]
            if not (isinstance(sample_id, str) and isinstance(category, str)):
                raise DataError(f"sample_id and category must be strings, got {sample_id!r} "
                                f"and {category!r}")
            if sample_id in first_line:
                raise DataError(f"sample_id {sample_id!r} repeats line {first_line[sample_id]}")
            if type(correct) is not int:
                raise DataError(f"correct must be an integer option index, got {correct!r}")
            input_emb = numeric_array(rec["input_emb"])
            texts = numeric_array(rec["options"])
            if input_emb.ndim != 1 or texts.ndim != 2 or texts.shape[1] != input_emb.size:
                raise DataError("input and option embeddings must be 1-D vectors of equal length")
            if not (np.isfinite(input_emb).all() and np.isfinite(texts).all()):
                raise DataError("input and option embeddings must be finite")
            if samples and (len(texts), input_emb.shape) != (len(samples[0].options),
                                                             samples[0].input_emb.shape):
                raise DataError(f"{len(texts)} options of dimension {input_emb.size}, "
                                f"expected {len(samples[0].options)} of dimension "
                                f"{samples[0].input_emb.size} as in the first sample")
            if cue_table is not None and input_emb.size != cue_table.dim:
                raise DataError(f"embeddings of dimension {input_emb.size} do not match "
                                f"the cue table's dimension {cue_table.dim}")
            samples.append(Sample(
                sample_id=sample_id,
                input_emb=input_emb,
                options=[(text, None) for text in texts],
                correct=correct,
                category=category,
            ))
            if cue_table is not None:
                cued = [(oid, cue_table.get(sample_id, oid)) for oid in range(len(texts))
                        if (sample_id, oid) in cue_table]
                if cued:
                    sq_norm = squared_norms(input_emb)  # the one scoring divides by
                    if not np.isfinite(sq_norm):
                        raise DataError("the squared norm of an input embedding with cues "
                                        "overflows float64")
                    if not sq_norm:
                        raise DataError("an input embedding with cues must not have zero norm")
                for oid, cs in cued:
                    by_shape.setdefault(cs.block.shape, []).append((samples[-1], oid, cs))
        # ValueError includes ragged or non-numeric arrays and the
        # DataError raised above
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from exc
        first_line[sample_id] = lineno
    if count != len(samples):
        raise DataError(f"{path}: the header counts {count} samples, the file holds {len(samples)}")
    for group in by_shape.values():
        stacked = np.stack([cs.block for *_, cs in group])
        inputs = np.array([sample.input_emb for sample, *_ in group])
        scores = score_cues(stacked, inputs, only_variance=only_variance)
        for (sample, oid, cs), agr, var, unc in zip(group, *(a.tolist() for a in scores)):
            text = sample.options[oid][0]
            sample.options[oid] = (text, replace(cs, agreement=agr, variance=var, uncertainty=unc))
    return samples


def cue_table_from_samples(samples, dim: int) -> CueTable:
    table = CueTable(dim=dim)
    for s in samples:
        for oid, (_, cs) in enumerate(s.options):
            if cs is not None:
                table.put(s.sample_id, oid, CueSet(cs.block))
    return table
