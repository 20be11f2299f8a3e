"""Synthetic multiple-choice embedding task.

Concepts are random unit centroids. Each sample's input embedding is a
rotated, noisy view of one centroid; option text embeddings sit near the
centroids of their concepts; cues are synthesized per option. The rotation
makes the input-to-concept map non-trivial so routing quality matters.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .cues import CueSet, CueTable, regenerate_if_uncertain, score_cues, synthesize_cues
from .cues import score_cue_set  # noqa: F401  traced by perfbench/tracing.py
from .errors import DataError, InvalidInputError
from .numerics import numeric_array, seeded_rng


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
    """Build (train, held_out) lists of fully cue-scored samples."""
    rng = seeded_rng(seed)
    d = config.d
    n_concepts = config.n_concepts
    centroids = _unit_rows(rng, n_concepts, d)
    rotation = _random_rotation(rng, d)

    total = config.train_size + config.eval_size
    # exact class balance up to remainder, then shuffled
    concept_ids = np.resize(np.arange(n_concepts), total)
    rng.shuffle(concept_ids)

    samples = []
    for idx in range(total):
        c = int(concept_ids[idx])
        input_emb = (config.input_scale * centroids[c] @ rotation
                     + config.input_noise * rng.standard_normal(d))

        distractors = [j for j in range(n_concepts) if j != c]
        rng.shuffle(distractors)
        option_concepts = [c] + distractors[: config.option_count - 1]
        order = rng.permutation(config.option_count)
        option_concepts = [option_concepts[int(i)] for i in order]
        correct = option_concepts.index(c)

        options = []
        for oc in option_concepts:
            text_emb = centroids[oc] + config.option_noise * rng.standard_normal(d)
            distractor_pool = [j for j in range(n_concepts) if j != oc]
            neg_concept = int(distractor_pool[int(rng.integers(len(distractor_pool)))])

            def make_cues(_round=None, _oc=oc, _neg=neg_concept):
                return synthesize_cues(
                    config.cue_scale * centroids[_oc], config.cue_scale * centroids[_neg],
                    config.cue_scale * config.cue_noise, config.variant_count, rng,
                )

            cs = regenerate_if_uncertain(
                make_cues(), input_emb,
                threshold=config.unc_threshold,
                generator=make_cues,
                max_rounds=config.max_regen_rounds,
                only_variance=config.only_variance,
            )
            options.append((text_emb, cs))
        samples.append(Sample(
            sample_id=f"s{idx:05d}",
            input_emb=input_emb,
            options=options,
            correct=correct,
            category=f"c{c}",
        ))
    return samples[: config.train_size], samples[config.train_size:]


# -- dataset files ---------------------------------------------------------

def save_dataset(samples, path):
    """One JSON object per sample; cues are stored in the cue file instead."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"version": 1, "count": len(samples)}) + "\n")
        for s in samples:
            fh.write(json.dumps({
                "sample_id": s.sample_id,
                "input_emb": s.input_emb.tolist(),
                "options": [t.tolist() for t, _ in s.options],
                "correct": s.correct,
                "category": s.category,
            }) + "\n")


def load_dataset(path, cue_table: CueTable | None = None, only_variance: bool = False):
    """Load samples; if a cue table is given, attach and score its cues.

    Every sample must have a unique string `sample_id`, a string `category`,
    an integer `correct` index, the same option count, and input and option
    embeddings of one dimension, that of the cue table too: batched training
    and evaluation stack them into arrays. Every record is parsed first;
    then all cue sets are scored in one `score_cues` call per variant count.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"dataset file {path} is empty")
    try:
        count = json.loads(lines[0])["count"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} line 1: malformed header: {exc}") from exc
    if type(count) is not int or count < 0:
        raise DataError(f"{path} line 1: the header count must be a non-negative integer, "
                        f"got {count!r}")
    samples = []
    first_line = {}
    unscored = []  # (line, sample, option id, cue set)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
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
                unscored += [(lineno, samples[-1], oid, cue_table.get(sample_id, oid))
                             for oid in range(len(texts)) if (sample_id, oid) in cue_table]
        # ValueError includes JSON syntax errors, ragged or non-numeric
        # arrays, and the DataError raised above
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from exc
        first_line[sample_id] = lineno
    if count != len(samples):
        raise DataError(f"{path}: the header counts {count} samples, the file holds {len(samples)}")
    by_variants = {}
    for entry in unscored:
        by_variants.setdefault(len(entry[3].variants), []).append(entry)
    for group in by_variants.values():
        _score_group(path, group, only_variance)
    return samples


def _score_group(path, group, only_variance):
    """Score cue sets with one variant count in one call and put them into
    their samples' options; a fault is traced back to its record's line."""
    stacked = np.array([(cs.positive, cs.negative, *cs.variants) for *_, cs in group])
    inputs = np.array([sample.input_emb for _, sample, _, _ in group])
    try:
        scores = score_cues(stacked, inputs, only_variance=only_variance)
    except ValueError:
        for row, (lineno, _, oid, _) in enumerate(group):
            try:
                score_cues(stacked[row:row + 1], inputs[row:row + 1], only_variance=only_variance)
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}, option {oid}: {exc}") from exc
        raise
    for (_, sample, oid, cs), agr, var, unc in zip(group, *(a.tolist() for a in scores)):
        text = sample.options[oid][0]
        sample.options[oid] = (text, replace(cs, agreement=agr, variance=var, uncertainty=unc))


def cue_table_from_samples(samples, dim: int) -> CueTable:
    table = CueTable(dim=dim)
    for s in samples:
        for oid, (_, cs) in enumerate(s.options):
            if cs is not None:
                table.put(s.sample_id, oid, CueSet(cs.positive, cs.negative, cs.variants))
    return table
