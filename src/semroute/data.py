"""Synthetic multiple-choice embedding task.

Concepts are random unit centroids. Each sample's input embedding is a
rotated, noisy view of one centroid; option text embeddings sit near the
centroids of their concepts; cues are synthesized per option. The rotation
makes the input-to-concept map non-trivial so routing quality matters.
Generated and loaded splits are `Split`s: their samples with the columnar
`graph.Batch` that training and evaluation read.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import graph
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


class Split(tuple):
    """A split's samples, read-only, with `batch`: their `graph.Batch`,
    made once with the split. `generate_dataset` and `load_dataset` build
    it from the arrays they fill; `Split.of` gathers any list of samples.
    A slice is a `Split` over the batch's rows, and `+` with a split or a
    list gives a plain list of samples. The batch does not see a sample
    changed in place after the split was made; gather such samples again
    with `Split.of`."""

    def __new__(cls, samples, batch: graph.Batch):
        split = super().__new__(cls, samples)
        split.batch = batch
        return split

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Split(super().__getitem__(index), self.batch.take(index))
        return super().__getitem__(index)

    def __add__(self, other):
        return [*self, *other]

    def __radd__(self, other):
        return [*other, *self]

    @classmethod
    def of(cls, samples) -> "Split":
        """Gather a list of `Sample`s, which must share the first one's
        option count and embedding dimension. One concatenate is several
        times faster than `np.stack` on many small vectors; it gathers each
        option's cue pair as the first two rows of its (2+V, d) cue block."""
        if not samples:
            raise DataError("the dataset holds no samples")
        first = samples[0]
        n, n_options, d = len(samples), len(first.options), np.size(first.input_emb)
        for s in samples:
            if (len(s.options) != n_options or np.shape(s.input_emb) != (d,)
                    or any(np.shape(t) != (d,) or (cs is not None and cs.dim != d)
                           for t, cs in s.options)):
                raise DataError(f"sample {s.sample_id!r} differs in its option count or "
                                f"embedding dimension from the first sample, which has "
                                f"{n_options} options of dimension {d}")
        x = np.concatenate([s.input_emb for s in samples]).reshape(n, d)
        text = np.concatenate([t for s in samples for t, _ in s.options]).reshape(n, n_options, d)
        sets = [cs for s in samples for _, cs in s.options]
        absent = np.zeros((2, d))
        pairs = np.concatenate([absent if cs is None else cs.block[:2] for cs in sets])
        return cls(samples, graph.Batch(
            np.array([s.sample_id for s in samples]), x, text,
            np.array([s.correct for s in samples]),
            np.array([cs is not None for cs in sets]).reshape(n, n_options),
            pairs[0::2].reshape(text.shape), pairs[1::2].reshape(text.shape),
            np.array([0.0 if cs is None else cs.uncertainty for cs in sets])
            .reshape(n, n_options)))


def _unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _random_rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def generate_dataset(config, seed: int):
    """Build (train, held_out) `Split`s of fully cue-scored samples.

    Every sample is drawn into preallocated arrays in one pass, and then
    each option column's cue sets are scored with one `score_cues` call.
    Each cue set more uncertain than `unc_threshold` is then regenerated, in
    sample and option order, by `regenerate_if_uncertain`, given it with
    its first-pass scores, with `synthesize_cues` on that option's concept
    and negative concept, drawing on from where the first pass ended. So a
    regeneration changes only its own cue set and scores. The samples' embeddings and the cue sets'
    blocks are views of the arrays, and the two splits' batches are row
    slices of one record over the same arrays.
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
        scored = CueSet(cues[idx, j], *(float(score[idx, j]) for score in (agr, var, unc)))
        cs = regenerate_if_uncertain(
            scored, x[idx], threshold=config.unc_threshold,
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
    record = graph.Batch(np.array([s.sample_id for s in samples]), x, text, np.array(correct),
                         np.ones(unc.shape, dtype=bool), cues[:, :, 0], cues[:, :, 1], unc)
    return tuple(Split(samples[rows], record.take(rows)) for rows in (
        slice(None, config.train_size), slice(config.train_size, None)))


# -- dataset files ---------------------------------------------------------

def save_dataset(samples, path):
    """One JSON object per sample; cues are stored in the cue file instead."""
    write_jsonl(path, {"version": JSONL_VERSION, "count": len(samples)},
                ({"sample_id": s.sample_id, "input_emb": s.input_emb.tolist(),
                  "options": [t.tolist() for t, _ in s.options],
                  "correct": s.correct, "category": s.category} for s in samples))


def load_dataset(path, cue_table: CueTable | None = None, only_variance: bool = False):
    """Load a `Split`; if a cue table is given, attach and score its cues.

    Every sample must have a unique string `sample_id`, a string `category`,
    an integer `correct` index, the same option count, and input and option
    embeddings of one dimension, that of the cue table too: batched training
    and evaluation stack them into arrays. An input embedding with cues must
    have a non-zero squared norm that fits in float64. Every record is
    parsed first, and its input and option embeddings are stacked into the
    split's batch. Then the cue sets are scored in one `score_cues` call
    per cue block shape, over their stacked blocks, which are scattered into
    the batch's cue pairs by (row, option).
    """
    records = read_jsonl(path, DataError)
    _, header = next(records)
    count = header.get("count")
    if type(count) is not int or count < 0:
        raise DataError(f"{path} line 1: the header count must be a non-negative integer, "
                        f"got {count!r}")
    samples, inputs, option_texts = [], [], []
    first_line = {}
    by_shape = {}  # cue block shape -> [(row, option id, cue set)]
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
            inputs.append(input_emb)
            option_texts.append(texts)
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
                    by_shape.setdefault(cs.block.shape, []).append((len(samples) - 1, oid, cs))
        # ValueError includes ragged or non-numeric arrays and the
        # DataError raised above
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from exc
        first_line[sample_id] = lineno
    if count != len(samples):
        raise DataError(f"{path}: the header counts {count} samples, the file holds {len(samples)}")
    n = len(samples)
    n_options, d = option_texts[0].shape if samples else (0, 0)
    x = np.array(inputs).reshape(n, d)
    text = np.array(option_texts).reshape(n, n_options, d)
    has_cue = np.zeros((n, n_options), dtype=bool)
    pos, neg = np.zeros(text.shape), np.zeros(text.shape)
    uncertainties = np.zeros(has_cue.shape)
    for group in by_shape.values():
        rows, oids, sets = zip(*group)
        stacked = np.stack([cs.block for cs in sets])
        scores = score_cues(stacked, x[list(rows)], only_variance=only_variance)
        at = list(rows), list(oids)
        has_cue[at], uncertainties[at] = True, scores[2]
        pos[at], neg[at] = stacked[:, 0], stacked[:, 1]
        for row, oid, cs, agr, var, unc in zip(rows, oids, sets, *(a.tolist() for a in scores)):
            options = samples[row].options
            options[oid] = (options[oid][0],
                            replace(cs, agreement=agr, variance=var, uncertainty=unc))
    return Split(samples, graph.Batch(np.array([s.sample_id for s in samples]), x, text,
                                      np.array([s.correct for s in samples]), has_cue, pos, neg,
                                      uncertainties))


def cue_table_from_samples(samples, dim: int) -> CueTable:
    table = CueTable(dim=dim)
    for s in samples:
        for oid, (_, cs) in enumerate(s.options):
            if cs is not None:
                table.put(s.sample_id, oid, CueSet(cs.block))
    return table
