"""Loading, validation, normalization, splitting and summary statistics.

Rating data is plain CSV with header `user_id,item_id,overall,c1,...,cC`.
Ids are opaque strings; dense integer indices are assigned in order of
first appearance and live in the dataset's index maps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class DatasetError(Exception):
    """Base class for rating-data failures."""


class ParseError(DatasetError):
    """Malformed CSV content; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class RangeError(DatasetError):
    """A rating value fell outside the declared source range."""


@dataclass(frozen=True)
class RatingRecord:
    user_id: str
    item_id: str
    overall: float
    criteria: tuple[float, ...]


@dataclass(frozen=True)
class RatingDataset:
    num_users: int
    num_items: int
    num_criteria: int
    records: tuple[RatingRecord, ...]
    user_index: dict[str, int]
    item_index: dict[str, int]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class DatasetStats:
    avg_reviews_per_user: float
    avg_reviews_per_item: float
    sparsity: float
    num_criteria: int
    variance_criteria_ratings: float

    def as_dict(self) -> dict:
        return {
            "avg_reviews_per_user": self.avg_reviews_per_user,
            "avg_reviews_per_item": self.avg_reviews_per_item,
            "num_criteria": self.num_criteria,
            "sparsity": self.sparsity,
            "variance_criteria_ratings": self.variance_criteria_ratings,
        }


def from_records(records: Iterable[RatingRecord], dedupe: bool = False) -> RatingDataset:
    """Assemble a dataset, assigning dense indices in first-appearance order.

    With dedupe=True a repeated (user, item) pair keeps the last occurrence's
    values at the pair's original position; otherwise repeats are an error.
    """
    by_pair: dict[tuple[str, str], RatingRecord] = {}
    num_criteria = None
    for rec in records:
        if num_criteria is None:
            num_criteria = len(rec.criteria)
        elif len(rec.criteria) != num_criteria:
            raise DatasetError(
                f"record ({rec.user_id}, {rec.item_id}) has {len(rec.criteria)} "
                f"criteria, dataset has {num_criteria}")
        key = (rec.user_id, rec.item_id)
        if key in by_pair and not dedupe:
            raise DatasetError(f"duplicate rating for pair {key}")
        by_pair[key] = rec
    if not by_pair:
        raise DatasetError("empty dataset: no rating records")

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    final = tuple(by_pair.values())
    for rec in final:
        user_index.setdefault(rec.user_id, len(user_index))
        item_index.setdefault(rec.item_id, len(item_index))
    return RatingDataset(len(user_index), len(item_index), num_criteria,
                         final, user_index, item_index)


def _expected_header(num_criteria: int) -> list[str]:
    return ["user_id", "item_id", "overall"] + [f"c{k}" for k in range(1, num_criteria + 1)]


def load_ratings(path: str | Path, schema: Sequence[str] | None = None) -> RatingDataset:
    """Read a ratings CSV. Duplicate (user, item) rows keep the last occurrence."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"empty dataset: {path} has no content") from None
        num_criteria = len(header) - 3
        if num_criteria < 1 or header != _expected_header(num_criteria):
            raise ParseError(1, f"bad header {header!r}, "
                                "expected user_id,item_id,overall,c1,...,cC")
        if schema is not None and list(schema) != header:
            raise ParseError(1, f"header {header!r} does not match requested schema "
                                f"{list(schema)!r}")

        records, ratings, line_numbers = [], [], []
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(line_number,
                                 f"expected {len(header)} columns, got {len(row)}")
            try:
                values = tuple(map(float, row[2:]))
            except ValueError as exc:
                raise ParseError(line_number, f"non-numeric rating: {exc}") from None
            records.append(RatingRecord(row[0], row[1], values[0], values[1:]))
            ratings.append(values)
            line_numbers.append(line_number)
    if not records:
        raise DatasetError(f"empty dataset: {path} has a header but no records")
    matrix = np.array(ratings)
    bad = ~(np.isfinite(matrix) & (matrix >= 0.0))
    if bad.any():
        first, column = np.argwhere(bad)[0]
        raise ParseError(line_numbers[first],
                         f"rating {ratings[first][column]!r} in column "
                         f"{header[2 + column]} must be finite and nonnegative")
    return from_records(records, dedupe=True)


def save_ratings(dataset: RatingDataset, path: str | Path) -> None:
    """Write the CSV form; floats use repr so a reload reproduces exact values."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(dataset.num_criteria))
        for rec in dataset.records:
            writer.writerow([rec.user_id, rec.item_id, repr(rec.overall)]
                            + [repr(v) for v in rec.criteria])


def normalize_scale(dataset: RatingDataset,
                    source_range: tuple[float, float]) -> RatingDataset:
    """Affinely map every rating from [lo, hi] onto [1, 5].

    A criterion value of 0 marks "not rated" and stays 0.
    """
    lo, hi = source_range
    if not hi > lo:
        raise ValueError(f"source range must satisfy hi > lo, got [{lo}, {hi}]")

    def convert(rec: RatingRecord, value: float) -> float:
        if not lo <= value <= hi:
            raise RangeError(f"rating {value} for pair ({rec.user_id}, {rec.item_id}) "
                             f"outside source range [{lo}, {hi}]")
        return 1.0 + 4.0 * (value - lo) / (hi - lo)

    records = tuple(
        RatingRecord(rec.user_id, rec.item_id, convert(rec, rec.overall),
                     tuple(convert(rec, v) if v else 0.0 for v in rec.criteria))
        for rec in dataset.records)
    return RatingDataset(dataset.num_users, dataset.num_items, dataset.num_criteria,
                         records, dataset.user_index, dataset.item_index)


def compute_stats(dataset: RatingDataset) -> DatasetStats:
    if dataset.num_users <= 0 or dataset.num_items <= 0:
        raise DatasetError("stats need at least one user and one item")
    n_records = len(dataset.records)
    all_criteria = np.array([v for rec in dataset.records for v in rec.criteria])
    return DatasetStats(
        avg_reviews_per_user=n_records / dataset.num_users,
        avg_reviews_per_item=n_records / dataset.num_items,
        sparsity=1.0 - n_records / (dataset.num_users * dataset.num_items),
        num_criteria=dataset.num_criteria,
        variance_criteria_ratings=float(all_criteria.var()),
    )


def split_train_test(dataset: RatingDataset, test_fraction: float,
                     seed: int) -> tuple[RatingDataset, RatingDataset]:
    """Random record partition; test rows with a cold user or item move to train."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = len(dataset.records)
    n_test = int(test_fraction * n)
    if n_test == 0 or n_test == n:
        raise DatasetError(f"{n} records cannot support a {test_fraction} test split")

    order = np.random.default_rng(seed).permutation(n)
    test_positions = set(order[:n_test].tolist())
    train_recs = [dataset.records[i] for i in range(n) if i not in test_positions]
    train_users = {rec.user_id for rec in train_recs}
    train_items = {rec.item_id for rec in train_recs}

    test_recs = []
    for i in sorted(test_positions):
        rec = dataset.records[i]
        # cold user or item: prediction has no embedding for it, keep in train
        if rec.user_id not in train_users or rec.item_id not in train_items:
            train_recs.append(rec)
            train_users.add(rec.user_id)
            train_items.add(rec.item_id)
        else:
            test_recs.append(rec)
    if not test_recs:
        raise DatasetError("every candidate test record was cold; cannot split")
    return from_records(train_recs), from_records(test_recs)


def subsample_train(train: RatingDataset, ts_percent: int, seed: int) -> RatingDataset:
    """Keep a uniform floor(ts_percent·|train|/100) subset of the training records."""
    if ts_percent not in (40, 60, 80, 100):
        raise ValueError(f"ts_percent must be one of 40, 60, 80, 100, got {ts_percent}")
    if ts_percent == 100:
        return train
    n = len(train.records)
    keep = (ts_percent * n) // 100
    chosen = np.random.default_rng(seed).permutation(n)[:keep]
    return from_records(train.records[i] for i in sorted(chosen.tolist()))
