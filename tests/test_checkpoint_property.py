"""A damaged checkpoint archive either loads with its vector bit for bit as
saved or is rejected with `DataError` naming the file (CLI exit 3): no fault
may surface as another exception. The damage is truncation at any offset,
one overwritten byte, or one edit of a header field or an archive member."""
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_archive, write_archive
from semroute.errors import DataError
from semroute.model import DIM_NAMES, Model

MODEL = Model.init(3, 2, 1, 2, seed=0)


def _saved_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.npz"
        MODEL.save(path, config_hash="abc123")
        return path.read_bytes()


ORIGINAL = _saved_bytes()


def _set_dim(name, value):
    def edit(header, vector):
        header["dims"][name] = value
        return header, vector
    return edit


def _without(key):
    return lambda header, vector: ({k: v for k, v in header.items() if k != key}, vector)


# id -> edit(header, vector) -> (header, vector); a member edited to None is
# left out of the archive. Every one of them must be rejected.
FIELD_EDITS = {
    **{f"dims.{name}={value!r}": _set_dim(name, value)
       for name in DIM_NAMES for value in (True, 2.0, "2", -1, 10**12)},
    "format missing": _without("format"),
    "format of another version": lambda h, v: ({**h, "format": "semroute-checkpoint/2"}, v),
    "dims missing": _without("dims"),
    "header missing": lambda h, v: (None, v),
    "vector missing": lambda h, v: (h, None),
    "vector as int": lambda h, v: (h, v.astype(np.int64)),
    "vector 2-D": lambda h, v: (h, v.reshape(2, -1)),
    "vector holding NaN": lambda h, v: (h, np.where(np.arange(v.size) == 5, np.nan, v)),
}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "checkpoint.npz"


def write_edited(path, edit_id):
    path.write_bytes(ORIGINAL)
    write_archive(path, *FIELD_EDITS[edit_id](*read_archive(path)))


def damaged(path, damage):
    kind, *args = damage
    if kind == "truncate":
        path.write_bytes(ORIGINAL[:args[0]])
    elif kind == "overwrite":
        offset, value = args
        path.write_bytes(ORIGINAL[:offset] + bytes([value]) + ORIGINAL[offset + 1:])
    else:
        write_edited(path, args[0])


DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, len(ORIGINAL) - 1)),
    st.tuples(st.just("overwrite"), st.integers(0, len(ORIGINAL) - 1), st.integers(0, 255)),
    st.tuples(st.just("field"), st.sampled_from(sorted(FIELD_EDITS))),
)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(DAMAGE)
def test_damaged_archive_loads_as_saved_or_is_rejected(path, damage):
    damaged(path, damage)
    try:
        loaded = Model.load(path)
    except DataError as exc:
        assert str(path) in str(exc)
        return
    assert loaded.vector.tobytes() == MODEL.vector.tobytes()
    assert (loaded.d, loaded.n_experts, loaded.k, loaded.hidden) == \
        (MODEL.d, MODEL.n_experts, MODEL.k, MODEL.hidden)


@pytest.mark.parametrize("edit_id", sorted(FIELD_EDITS))
def test_every_field_edit_is_rejected(path, edit_id):
    write_edited(path, edit_id)
    with pytest.raises(DataError, match=re.escape(str(path))):
        Model.load(path)

