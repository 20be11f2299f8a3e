"""The file layouts the program writes: JSONL for the dataset and cue files
(a header object of version 1, then one JSON object per record) and CSV,
with a header row, for every report."""
from __future__ import annotations

import csv
import json

JSONL_VERSION = 1


def write_jsonl(path, header: dict, records):
    """Write the header, which holds `"version": JSONL_VERSION`, then the records."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_jsonl(path, error):
    """Yield (line number, object) for the header and every non-blank line
    after it, reading one line at a time. Raises `error` naming the file and
    line for an empty file, bytes that are not UTF-8, bad JSON, a line that
    is not a JSON object, or a header whose version is not JSONL_VERSION."""
    lineno = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno > 1 and not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError is a ValueError
                raise error(f"{path} line {lineno}: {exc}") from exc
            if not isinstance(obj, dict):
                raise error(f"{path} line {lineno}: expected a JSON object")
            version = obj.get("version")
            if lineno == 1 and (type(version) is not int or version != JSONL_VERSION):
                raise error(f"{path} line 1: unsupported version {version!r}, expected "
                            f"{JSONL_VERSION}")
            yield lineno, obj
    if lineno == 0:
        raise error(f"{path} is empty: it has no header line")


def write_csv(path, header, rows):
    """Write the header row, then each row as `rows` yields it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
