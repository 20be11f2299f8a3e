"""A damaged dataset or cue file either loads or is rejected with
`DataError` or `CueFileError` naming a file (CLI exit 3): no fault may
surface as another exception. The damage is truncation at any offset, one
overwritten byte (bytes that are not UTF-8 among them), or one edit of a
field of the header or of a record."""
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_config
from semroute.cues import load_cue_table, save_cue_table
from semroute.data import cue_table_from_samples, generate_dataset, load_dataset, save_dataset
from semroute.errors import CueFileError, DataError

CONFIG = small_config(d=3, n_concepts=3, option_count=2, variant_count=2,
                      train_size=3, eval_size=1)
NAMES = ("train.jsonl", "cues_train.jsonl")


def _saved_bytes() -> dict:
    samples, _ = generate_dataset(CONFIG, CONFIG.seed)
    with tempfile.TemporaryDirectory() as tmp:
        dataset, cues = (Path(tmp) / name for name in NAMES)
        save_dataset(samples, dataset)
        save_cue_table(cue_table_from_samples(samples, CONFIG.d), cues)
        return {name: (Path(tmp) / name).read_bytes() for name in NAMES}


ORIGINAL = _saved_bytes()
LINES = {name: data.decode("utf-8").splitlines() for name, data in ORIGINAL.items()}

# what a field edit puts in place of a field's value; DROP removes the field
DROP = object()
VALUES = (DROP, None, True, 3, 2.5, "x", [], {}, [[1.0, 2.0]])


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def damaged(name, damage) -> bytes:
    data = ORIGINAL[name]
    kind, *args = damage
    if kind == "truncate":
        return data[:args[0] % len(data)]
    if kind == "overwrite":
        offset, value = args[0] % len(data), args[1]
        return data[:offset] + bytes([value]) + data[offset + 1:]
    line, key_index, value = args
    lines = list(LINES[name])
    line %= len(lines)
    record = json.loads(lines[line])
    key = sorted(record)[key_index % len(record)]
    if value is DROP:
        del record[key]
    else:
        record[key] = value
    lines[line] = json.dumps(record)
    return ("\n".join(lines) + "\n").encode("utf-8")


DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("overwrite"), st.integers(0, 10**6),
              st.one_of(st.sampled_from([0xFF, 0xC3]), st.integers(0, 255))),
    st.tuples(st.just("field"), st.integers(0, 100), st.integers(0, 10),
              st.sampled_from(VALUES)),
)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(st.sampled_from(NAMES), DAMAGE)
def test_damaged_file_loads_or_is_rejected(folder, name, damage):
    paths = {n: folder / n for n in NAMES}
    for n, path in paths.items():
        path.write_bytes(damaged(n, damage) if n == name else ORIGINAL[n])
    try:
        table = load_cue_table(paths["cues_train.jsonl"])
        samples = load_dataset(paths["train.jsonl"], cue_table=table)
    except (CueFileError, DataError) as exc:
        assert any(str(path) in str(exc) for path in paths.values())
        return
    assert len(samples) == CONFIG.train_size
