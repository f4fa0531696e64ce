"""Read interaction logs from files.

The paper's datasets ship as review dumps; production logs come as CSV
or JSONL exports.  These readers produce :class:`InteractionLog`
objects ready for the 5-core → sequence → split pipeline, so the whole
library works on real data unchanged.

Both readers take ``strict`` (default True).  Strict mode raises on the
first malformed row — right for curated research dumps, where a bad row
is a bug worth surfacing.  Lenient mode (``strict=False``) skips
malformed rows (bad field count, unparsable timestamp, truncated JSON
line) and reports the per-file skipped-row count through a
``MalformedRowsSkipped`` warning — right for real logs ingested
mid-pipeline, where one truncated line must not crash an hours-long
job.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from typing import Iterable

import numpy as np

from repro.data.log import InteractionLog


class MalformedRowsSkipped(UserWarning):
    """Lenient ingestion skipped malformed rows; carries the count.

    Attributes
    ----------
    path, skipped:
        The file read and how many of its rows were dropped.
    """

    def __init__(self, path: str, skipped: int) -> None:
        super().__init__(f"{path}: skipped {skipped} malformed row(s)")
        self.path = path
        self.skipped = skipped


def _materialize(rows: Iterable[tuple[int, int, float]]) -> InteractionLog:
    users: list[int] = []
    items: list[int] = []
    times: list[float] = []
    for user, item, timestamp in rows:
        users.append(user)
        items.append(item)
        times.append(timestamp)
    if not users:
        raise ValueError("no interactions found in file")
    return InteractionLog(
        np.asarray(users, dtype=np.int64),
        np.asarray(items, dtype=np.int64),
        np.asarray(times, dtype=np.float64),
    )


def _id_mapper():
    """Map arbitrary hashable raw ids to dense integers, stably."""
    mapping: dict = {}

    def lookup(raw):
        if raw not in mapping:
            mapping[raw] = len(mapping)
        return mapping[raw]

    return lookup, mapping


def _report_skipped(path: str | os.PathLike, skipped: int) -> None:
    if skipped:
        warnings.warn(MalformedRowsSkipped(os.fspath(path), skipped), stacklevel=3)


def read_csv_log(
    path: str | os.PathLike,
    user_column: str = "user_id",
    item_column: str = "item_id",
    timestamp_column: str = "timestamp",
    strict: bool = True,
) -> InteractionLog:
    """Read a CSV with a header row into an :class:`InteractionLog`.

    User and item ids may be arbitrary strings — they are mapped to
    dense integers in first-seen order.  Timestamps must parse as
    floats (epoch seconds or any monotone numeric clock).

    With ``strict=False``, rows with a bad field count (missing or
    extra cells) or an unparsable timestamp are skipped and counted; the
    count is reported via :class:`MalformedRowsSkipped`.  A missing
    header column is always an error — that is file-level, not row-level
    damage.
    """
    user_of, __ = _id_mapper()
    item_of, __ = _id_mapper()
    skipped = 0

    def rows():
        nonlocal skipped
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle, restkey="__rest__")
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty CSV")
            for column in (user_column, item_column, timestamp_column):
                if column not in reader.fieldnames:
                    raise ValueError(
                        f"{path}: missing column '{column}' "
                        f"(found {reader.fieldnames})"
                    )
            for record in reader:
                try:
                    if "__rest__" in record:
                        raise ValueError(
                            f"{path}:{reader.line_num}: too many fields"
                        )
                    user = record[user_column]
                    item = record[item_column]
                    timestamp = record[timestamp_column]
                    if user is None or item is None or timestamp is None:
                        raise ValueError(
                            f"{path}:{reader.line_num}: too few fields"
                        )
                    parsed = float(timestamp)
                except ValueError:
                    if strict:
                        raise
                    skipped += 1
                    continue
                yield (user_of(user), item_of(item), parsed)

    log = _materialize(rows())
    _report_skipped(path, skipped)
    return log


def read_jsonl_log(
    path: str | os.PathLike,
    user_field: str = "user_id",
    item_field: str = "item_id",
    timestamp_field: str = "timestamp",
    strict: bool = True,
) -> InteractionLog:
    """Read one-JSON-object-per-line review dumps (the Amazon format).

    In strict mode (default), lines missing any of the three fields
    raise — partial records in a curated interaction log are a data bug
    worth surfacing, not skipping.  With ``strict=False``, truncated
    JSON lines, non-object lines, missing fields and unparsable
    timestamps are skipped and counted, reported via
    :class:`MalformedRowsSkipped`.
    """
    user_of, __ = _id_mapper()
    item_of, __ = _id_mapper()
    skipped = 0

    def rows():
        nonlocal skipped
        with open(path) as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError(
                            f"{path}:{line_number}: not a JSON object"
                        )
                    try:
                        user = record[user_field]
                        item = record[item_field]
                        timestamp = float(record[timestamp_field])
                    except KeyError as missing:
                        raise ValueError(
                            f"{path}:{line_number}: missing field {missing}"
                        ) from None
                except (ValueError, TypeError) as error:
                    if strict:
                        if isinstance(error, json.JSONDecodeError):
                            raise ValueError(
                                f"{path}:{line_number}: bad JSON: {error}"
                            ) from None
                        raise
                    skipped += 1
                    continue
                yield (user_of(user), item_of(item), timestamp)

    log = _materialize(rows())
    _report_skipped(path, skipped)
    return log


def write_csv_log(log: InteractionLog, path: str | os.PathLike) -> None:
    """Write a log back out as CSV (user_id, item_id, timestamp)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["user_id", "item_id", "timestamp"])
        for user, item, timestamp in zip(
            log.user_ids, log.item_ids, log.timestamps
        ):
            writer.writerow([int(user), int(item), float(timestamp)])
