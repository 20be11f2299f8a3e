"""Model parameters, their block layout and checkpoints.

The model is a bank of E two-layer tanh perceptrons (d -> hidden -> d)
behind a linear gating matrix. A semantic projection maps cue differences
into expert-logit space; the teacher router adds that direction to the
base logits, the student router never sees it.
"""
from __future__ import annotations

import hashlib
import json
import math
import zipfile
import zlib

import numpy as np

from .errors import DataError, InvalidInputError, ShapeError
from .numerics import seeded_rng


CHECKPOINT_FORMAT = "semroute-checkpoint/1"
DIM_NAMES = ("d", "E", "K", "hidden")  # the header's names of Model(d, n_experts, k, hidden)


class Model:
    """Parameter container: every parameter lives in one contiguous float64
    `vector`, laid out as the blocks of `block_shapes`. `blocks` and the
    per-expert `params` are views into it, so an in-place update of the
    vector is seen through both; the names are stable."""

    def __init__(self, d: int, n_experts: int, k: int, hidden: int, vector=None):
        if not 1 <= k <= n_experts:
            raise InvalidInputError(f"need 1 <= K <= E, got K={k}, E={n_experts}")
        self.d = d
        self.n_experts = n_experts
        self.k = k
        self.hidden = hidden
        size = sum(math.prod(shape) for shape in block_shapes(d, n_experts, hidden).values())
        if vector is None:
            vector = np.zeros(size)
        self.vector = np.ascontiguousarray(vector, dtype=np.float64)
        if self.vector.shape != (size,):
            raise ShapeError(f"parameter vector of shape {self.vector.shape}, expected ({size},)")
        self.blocks = split_blocks(self.vector, d, n_experts, hidden)
        (self.gating, self.semantic, self.experts_w1, self.experts_b1,
         self.experts_w2, self.experts_b2) = self.blocks.values()
        self.params = {"gating": self.gating, "semantic": self.semantic}
        for i in range(n_experts):
            self.params.update({
                f"expert{i}_w1": self.experts_w1[i], f"expert{i}_b1": self.experts_b1[i],
                f"expert{i}_w2": self.experts_w2[i], f"expert{i}_b2": self.experts_b2[i]})

    @classmethod
    def init(cls, d: int, n_experts: int, k: int, hidden: int, seed: int) -> "Model":
        model = cls(d, n_experts, k, hidden)
        rng = seeded_rng(seed)
        scale = 1.0 / np.sqrt(d)
        model.gating[...] = scale * rng.standard_normal((d, n_experts))
        model.semantic[...] = scale * rng.standard_normal((d, n_experts))
        hscale = 1.0 / np.sqrt(hidden)
        for i in range(n_experts):  # biases start at zero
            model.experts_w1[i] = scale * rng.standard_normal((d, hidden))
            model.experts_w2[i] = hscale * rng.standard_normal((hidden, d))
        return model

    def copy(self) -> "Model":
        return Model(self.d, self.n_experts, self.k, self.hidden, self.vector.copy())

    # -- checkpoint -------------------------------------------------------

    def save(self, path, config_hash: str = ""):
        """One `np.savez` archive at exactly `path`: a JSON header and `vector`."""
        header = {"format": CHECKPOINT_FORMAT, "config_hash": config_hash,
                  "dims": dict(zip(DIM_NAMES, (self.d, self.n_experts, self.k, self.hidden))),
                  "blocks": {name: list(block.shape) for name, block in self.blocks.items()}}
        with open(path, "wb") as fh:  # a handle: given a path, np.savez appends ".npz"
            np.savez(fh, header=np.array(json.dumps(header)), vector=self.vector)

    @classmethod
    def load(cls, path) -> "Model":
        """Read a `save` archive; any fault raises `DataError` naming the path."""
        with open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":
                raise DataError(f"{path} is not a semroute checkpoint archive (the JSON layout "
                                "of earlier versions is no longer read; retrain)")
            fh.seek(0)
            try:  # RuntimeError: a damaged zip flags encryption or an unknown compression
                with np.load(fh, allow_pickle=False) as archive:
                    header, vector = json.loads(str(archive["header"][()])), archive["vector"]
            except (zipfile.BadZipFile, zlib.error, EOFError, OSError, RuntimeError, KeyError,
                    TypeError, ValueError) as exc:
                raise DataError(f"unreadable checkpoint archive {path}: {exc!r}") from exc
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise DataError(f"checkpoint {path}: the header's format is not {CHECKPOINT_FORMAT!r}")
        dims = header.get("dims")
        if not (isinstance(dims, dict) and all(type(dims.get(n)) is int for n in DIM_NAMES)
                and min(dims[n] for n in DIM_NAMES) > 0):
            raise DataError(f"checkpoint {path}: dims {dims!r} are not positive integers")
        if not (isinstance(vector, np.ndarray) and vector.dtype == np.float64):
            raise DataError(f"checkpoint {path}: the vector is not a float64 array")
        try:  # checks K <= E and the vector's length against the dims
            model = cls(*(dims[n] for n in DIM_NAMES), vector)
        except (InvalidInputError, ShapeError) as exc:
            raise DataError(f"checkpoint {path}: {exc}") from exc
        if not np.isfinite(model.vector).all():
            raise DataError(f"checkpoint {path}: non-finite values in the vector")
        return model


def block_shapes(d: int, n_experts: int, hidden: int) -> dict:
    """Name -> shape of each parameter block, in its order in `Model.vector`."""
    return {"gating": (d, n_experts), "semantic": (d, n_experts),
            "experts_w1": (n_experts, d, hidden), "experts_b1": (n_experts, hidden),
            "experts_w2": (n_experts, hidden, d), "experts_b2": (n_experts, d)}


def split_blocks(vector: np.ndarray, d: int, n_experts: int, hidden: int) -> dict:
    """Views of a flat vector (parameters or their gradient) as the blocks."""
    blocks, offset = {}, 0
    for name, shape in block_shapes(d, n_experts, hidden).items():
        size = math.prod(shape)
        blocks[name] = vector[offset:offset + size].reshape(shape)
        offset += size
    return blocks


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(config_dict, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
