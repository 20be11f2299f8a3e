"""Semantic cue handling: agreement/variance/uncertainty scoring,
the regeneration loop for unreliable cues, synthetic cue generation,
and the JSONL cue file used to cache cues across runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CueFileError,
    DegenerateVectorError,
    InsufficientVariantsError,
    InvalidInputError,
    MissingCueError,
    RegenerationFailedError,
    ShapeError,
)
from .fileio import JSONL_VERSION, read_jsonl, write_jsonl
from .numerics import cosine  # noqa: F401  traced by perfbench/tracing.py
from .numerics import numeric_array, squared_norms


@dataclass
class CueSet:
    """Positive/negative cue embeddings plus paraphrase variants.

    Agreement, variance and uncertainty are unset (None) until the cue set
    is scored against an image embedding.
    """

    positive: np.ndarray
    negative: np.ndarray
    variants: list = field(default_factory=list)
    agreement: float | None = None
    variance: float | None = None
    uncertainty: float | None = None

    def __post_init__(self):
        self.positive = np.asarray(self.positive, dtype=np.float64)
        self.negative = np.asarray(self.negative, dtype=np.float64)
        self.variants = [np.asarray(v, dtype=np.float64) for v in self.variants]
        dims = {self.positive.shape, self.negative.shape} | {v.shape for v in self.variants}
        if len(dims) != 1:
            raise InvalidInputError(f"cue embeddings disagree on dimension: {dims}")

    @property
    def dim(self) -> int:
        return self.positive.shape[0]


def score_cues(stacked, image_embs, only_variance: bool = False):
    """Agreement, variance and uncertainty of n cue sets at once.

    `stacked` is (n, 2+V, d): each set's positive cue, negative cue and V
    paraphrase variants; `image_embs` is (n, d). Returns three (n,) arrays:
    the positive-cue minus the negative-cue cosine with the image, floored
    at 0; the unbiased sample variance of the V variant cosines; and the
    uncertainty of the two.
    """
    cues = np.asarray(stacked, dtype=np.float64)
    x = np.asarray(image_embs, dtype=np.float64)
    if (cues.ndim != 3 or x.ndim != 2 or x.shape[1] == 0
            or (cues.shape[0], cues.shape[2]) != x.shape):
        raise ShapeError(f"expected (n, 2+V, d) cues and (n, d) image embeddings, "
                         f"got {cues.shape} and {x.shape}")
    if cues.shape[1] < 4:
        raise InsufficientVariantsError(f"need >= 2 variants, got {cues.shape[1] - 2}")
    if not (np.isfinite(cues).all() and np.isfinite(x).all()):
        raise InvalidInputError("cue or image embeddings contain non-finite entries")
    # Each dot product is its own (1, d) @ (d, 1) matmul, like the squared
    # norms, so every score equals the scalar cosines' bit for bit; `cues @ x`
    # sums in another order.
    sq_norms, sq_x = squared_norms(cues), squared_norms(x)
    if not (np.isfinite(sq_norms).all() and np.isfinite(sq_x).all()):
        raise InvalidInputError("a squared cue or image embedding norm overflows float64")
    if not (sq_norms.all() and sq_x.all()):
        raise DegenerateVectorError("cosine of a zero-norm vector is undefined")
    dots = np.matmul(cues[:, :, None, :], x[:, None, :, None])[..., 0, 0]
    norms, x_norms = np.sqrt(sq_norms), np.sqrt(sq_x)
    cos = np.clip(dots / (x_norms[:, None] * norms), -1.0, 1.0)
    diff = cos[:, 0] - cos[:, 1]
    agr = np.where(diff > 0.0, diff, 0.0)  # max(0.0, diff): never -0.0
    var = np.var(cos[:, 2:], axis=1, ddof=1)
    return agr, var, uncertainty(agr, var, only_variance=only_variance)


def uncertainty(agr, var, only_variance: bool = False):
    """Var / (1 + Agr), elementwise; with `only_variance` the agreement
    term is dropped."""
    if (np.asarray(agr) < 0.0).any() or (np.asarray(var) < 0.0).any():
        raise InvalidInputError("agreement and variance must be non-negative")
    if only_variance:
        return var
    return var / (1.0 + agr)


def score_cue_set(cue_set: CueSet, image_emb, only_variance: bool = False) -> CueSet:
    """Return a copy with agreement/variance/uncertainty filled in."""
    stacked = np.stack((cue_set.positive, cue_set.negative, *cue_set.variants))
    agr, var, unc = score_cues(stacked[None], np.asarray(image_emb, dtype=np.float64)[None],
                               only_variance=only_variance)
    return replace(cue_set, agreement=float(agr[0]), variance=float(var[0]),
                   uncertainty=float(unc[0]))


def regenerate_if_uncertain(cue_set, image_emb, threshold, generator, max_rounds=3,
                            only_variance=False):
    """Regenerate cues until uncertainty drops below `threshold`.

    `generator(round_index)` must return a fresh CueSet deterministically.
    After `max_rounds` failed attempts the lowest-uncertainty candidate
    seen (input included) is returned.
    """
    if threshold <= 0.0:
        raise InvalidInputError("threshold must be positive")
    if max_rounds < 1:
        raise InvalidInputError("max_rounds must be at least 1")
    best = score_cue_set(cue_set, image_emb, only_variance=only_variance)
    if best.uncertainty <= threshold:
        return best
    for round_index in range(max_rounds):
        try:
            candidate = generator(round_index)
        except Exception as exc:  # noqa: BLE001 - contract: carry best seen
            raise RegenerationFailedError(
                f"cue generator failed on round {round_index}: {exc}", best_candidate=best
            ) from exc
        candidate = score_cue_set(candidate, image_emb, only_variance=only_variance)
        if candidate.uncertainty < best.uncertainty:
            best = candidate
        if best.uncertainty <= threshold:
            return best
    return best


def draw_cue_block(concept_centroid, distractor_centroid, noise_scale, variant_count,
                   rng) -> np.ndarray:
    """The (2+V, d) cues of one option: a positive cue near the concept
    centroid, a negative cue near a distractor centroid, then V variants,
    noisy paraphrases of the positive cue."""
    if noise_scale < 0.0:
        raise InvalidInputError("noise_scale must be non-negative")
    if variant_count < 2:
        raise InsufficientVariantsError("variant_count must be at least 2")
    centroid = np.asarray(concept_centroid, dtype=np.float64)
    block = rng.standard_normal((2 + variant_count, centroid.shape[0]))
    block *= noise_scale
    block[0] += centroid
    block[1] += np.asarray(distractor_centroid, dtype=np.float64)
    block[2:] += block[0]
    return block


def synthesize_cues(concept_centroid, distractor_centroid, noise_scale, variant_count,
                    rng) -> CueSet:
    """Desk-scale stand-in for external cue generation: an unscored CueSet
    of `draw_cue_block`'s cues."""
    block = draw_cue_block(concept_centroid, distractor_centroid, noise_scale,
                           variant_count, rng)
    return CueSet(positive=block[0], negative=block[1], variants=list(block[2:]))


class CueTable:
    """Map from (sample_id, option_id) to CueSet; read-only after loading."""

    def __init__(self, dim: int):
        self.dim = int(dim)
        self._entries: dict[tuple[str, int], CueSet] = {}

    def put(self, sample_id: str, option_id: int, cue_set: CueSet):
        if cue_set.dim != self.dim:
            raise CueFileError(
                f"cue dimension {cue_set.dim} != table dimension {self.dim} "
                f"for ({sample_id!r}, {option_id})"
            )
        self._entries[(str(sample_id), int(option_id))] = cue_set

    def get(self, sample_id: str, option_id: int) -> CueSet:
        key = (str(sample_id), int(option_id))
        if key not in self._entries:
            raise MissingCueError(sample_id, option_id)
        return self._entries[key]

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def __eq__(self, other):
        if not isinstance(other, CueTable) or self.dim != other.dim:
            return False
        if set(self._entries) != set(other._entries):
            return False
        for key, mine in self._entries.items():
            theirs = other._entries[key]
            if not (np.array_equal(mine.positive, theirs.positive)
                    and np.array_equal(mine.negative, theirs.negative)
                    and len(mine.variants) == len(theirs.variants)
                    and all(np.array_equal(a, b) for a, b in zip(mine.variants, theirs.variants))):
                return False
        return True


def save_cue_table(table: CueTable, path):
    write_jsonl(path, {"dim": table.dim, "version": JSONL_VERSION},
                ({"sample_id": sample_id, "option_id": option_id,
                  "positive": cs.positive.tolist(), "negative": cs.negative.tolist(),
                  "variants": [v.tolist() for v in cs.variants]}
                 for (sample_id, option_id), cs in sorted(table.items())))


def _cue_record(record, dim: int):
    """The (sample_id, option_id) key and the (2+V, dim) cue block of one
    parsed record; raises ValueError naming the first field at fault."""
    for fieldname in ("sample_id", "option_id", "positive", "negative", "variants"):
        if fieldname not in record:
            raise ValueError(f"missing field {fieldname!r}")
    sample_id, option_id, variants = record["sample_id"], record["option_id"], record["variants"]
    if not isinstance(sample_id, str):
        raise ValueError(f"sample_id must be a string, got {sample_id!r}")
    if type(option_id) is not int or option_id < 0:
        raise ValueError(f"option_id must be a non-negative integer, got {option_id!r}")
    if not isinstance(variants, list) or len(variants) < 2:
        raise ValueError("variants must be a list of at least 2 embeddings")
    block = numeric_array([record["positive"], record["negative"], *variants])
    if block.shape != (2 + len(variants), dim):
        raise ValueError(f"positive, negative and every variant must be 1-D vectors of "
                         f"dimension {dim}")
    return (sample_id, option_id), block


def load_cue_table(path) -> CueTable:
    """Read a cue file. Every fault raises CueFileError naming the file and
    line: a fault of the JSONL layout (see `fileio.read_jsonl`), a header
    `dim` that is not a positive integer, a malformed record, an id of the
    wrong type, a repeated (sample_id, option_id), and cue embeddings that
    are not finite, non-zero 1-D vectors of the header's `dim` whose squared
    norms fit in float64, or fewer than 2 variants."""
    records = read_jsonl(path, CueFileError)
    _, header = next(records)
    dim = header.get("dim")
    if type(dim) is not int or dim < 1:
        raise CueFileError(f"{path} line 1: 'dim' must be a positive integer, got {dim!r}")
    table = CueTable(dim)
    first_line, blocks = {}, []
    for lineno, record in records:
        try:
            key, block = _cue_record(record, dim)
        except ValueError as exc:
            raise CueFileError(f"{path} line {lineno}: {exc}") from exc
        if key in first_line:
            raise CueFileError(f"{path} line {lineno}: a second cue record for sample "
                               f"{key[0]!r}, option {key[1]} (the first is on line "
                               f"{first_line[key]})")
        first_line[key] = lineno
        blocks.append(block)
        table.put(*key, CueSet(positive=block[0], negative=block[1], variants=list(block[2:])))
    # one pass over every embedding, with the squared norms scoring takes;
    # the record at fault is looked up only on failure
    rows = np.concatenate(blocks) if blocks else np.zeros((0, dim))
    if not (np.isfinite(rows).all() and _scorable(squared_norms(rows))):
        for lineno, block in zip(first_line.values(), blocks):
            if not np.isfinite(block).all():
                raise CueFileError(f"{path} line {lineno}: cue embeddings must be finite")
            sq = squared_norms(block)
            if not np.isfinite(sq).all():
                raise CueFileError(f"{path} line {lineno}: a cue embedding's squared norm "
                                   f"overflows float64")
            if not sq.all():
                raise CueFileError(f"{path} line {lineno}: a cue embedding has zero norm")
    return table


def _scorable(sq_norms) -> bool:
    """Whether every squared norm is finite and non-zero, as scoring needs."""
    return bool(np.isfinite(sq_norms).all() and sq_norms.all())
