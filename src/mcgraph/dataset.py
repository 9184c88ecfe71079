"""Loading, validation, normalization, splitting and summary statistics.

Rating data is plain CSV with header `user_id,item_id,overall,c1,...,cC`.
A `RatingDataset` holds its R ratings as columns, one typed array per field
in the manner of Apache Arrow and pandas: int `users` and `items` codes, an
`overall` vector and an (R, C) `criteria` matrix, plus the `user_ids` and
`item_ids` arrays the codes index. Ids are opaque strings; codes are
assigned in order of first appearance, and `user_index`/`item_index` map
each id to its code. The loader, the split and every pipeline stage read
the columns; `records`, one `RatingRecord` per rating, is built only when
asked for.

`load_ratings` reads a file that loads once, keeping no line numbers; for one
that does not, `_first_bad_line` reads it again and names the first malformed
row, else the first non-finite or negative rating, by its first physical line.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


_COLUMNS = ("user_ids", "item_ids", "users", "items", "overall", "criteria")


@dataclass(frozen=True, eq=False)
class RatingDataset:
    """R ratings as columns: row r is user `user_ids[users[r]]` rating item
    `item_ids[items[r]]` with `overall[r]` and the criteria row `criteria[r]`.

    A criterion value of 0 means "not rated". The columns are read-only
    views, so datasets may share them. Two datasets are equal when their
    columns are.
    """

    user_ids: np.ndarray  # (num_users,) object
    item_ids: np.ndarray  # (num_items,) object
    users: np.ndarray     # (R,) intp codes into user_ids
    items: np.ndarray     # (R,) intp codes into item_ids
    overall: np.ndarray   # (R,) float64
    criteria: np.ndarray  # (R, C) float64
    user_index: dict[str, int] = field(init=False, repr=False)
    item_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        columns = {
            "user_ids": _id_array(self.user_ids),
            "item_ids": _id_array(self.item_ids),
            "users": np.asarray(self.users, dtype=np.intp),
            "items": np.asarray(self.items, dtype=np.intp),
            "overall": np.ascontiguousarray(self.overall, dtype=np.float64),
            "criteria": np.ascontiguousarray(self.criteria, dtype=np.float64),
        }
        rows = columns["users"].shape
        if (len(rows) != 1 or columns["items"].shape != rows
                or columns["overall"].shape != rows
                or columns["criteria"].ndim != 2
                or columns["criteria"].shape[0] != rows[0]):
            raise ValueError("rating columns disagree in shape: " + ", ".join(
                f"{name} {column.shape}" for name, column in columns.items()))
        for name, column in columns.items():
            column = column.view()  # the caller's array stays writeable
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for name, ids in (("user_index", self.user_ids), ("item_index", self.item_ids)):
            object.__setattr__(self, name, dict(zip(ids.tolist(), range(ids.size))))

    @property
    def num_users(self) -> int:
        return self.user_ids.size

    @property
    def num_items(self) -> int:
        return self.item_ids.size

    @property
    def num_criteria(self) -> int:
        return self.criteria.shape[1]

    def __len__(self) -> int:
        return self.users.size

    def __eq__(self, other):
        if not isinstance(other, RatingDataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in _COLUMNS)

    @functools.cached_property
    def records(self) -> tuple[RatingRecord, ...]:
        """The ratings as `RatingRecord`s in row order, built on first access."""
        return tuple(map(RatingRecord, self.user_ids[self.users].tolist(),
                         self.item_ids[self.items].tolist(), self.overall.tolist(),
                         map(tuple, self.criteria.tolist())))


@dataclass(frozen=True)
class DatasetStats:
    avg_reviews_per_user: float
    avg_reviews_per_item: float
    sparsity: float
    num_criteria: int
    variance_criteria_ratings: float


def content_digest(dataset: RatingDataset) -> str:
    """SHA-256 hex digest of every column (ids, codes, overall, criteria) with
    its shape, in a fixed byte order: equal datasets give equal digests."""
    digest = hashlib.sha256()
    for name in _COLUMNS:
        column = getattr(dataset, name)
        if column.dtype == object:  # the id strings
            data = json.dumps(column.tolist()).encode()
        else:
            data = column.astype("<f8" if column.dtype.kind == "f" else "<i8").tobytes()
        digest.update(f"{name}{column.shape}".encode() + data)
    return digest.hexdigest()


def _id_array(ids: Sequence[str]) -> np.ndarray:
    if isinstance(ids, np.ndarray) and ids.dtype == object and ids.ndim == 1:
        return ids
    return np.fromiter(ids, dtype=object, count=len(ids))


def _encode(index: dict[str, int], ids: Sequence[str]) -> np.ndarray:
    """Each row's code, adding unseen ids to `index` in first-appearance order."""
    for key in dict.fromkeys(ids):
        if key not in index:
            index[key] = len(index)
    return np.fromiter(map(index.__getitem__, ids), dtype=np.intp, count=len(ids))


def from_columns(user_ids: Sequence[str], item_ids: Sequence[str], overall,
                 criteria) -> RatingDataset:
    """Assemble a dataset from per-rating columns; codes follow first appearance.

    `criteria` is (R, C). A repeated (user, item) pair is an error.
    """
    user_index, item_index = {}, {}
    return _assemble(user_index, item_index, _encode(user_index, user_ids),
                     _encode(item_index, item_ids), overall, criteria, dedupe=False)


def _assemble(user_index: dict[str, int], item_index: dict[str, int],
              users: np.ndarray, items: np.ndarray, overall, criteria,
              dedupe: bool) -> RatingDataset:
    """The dataset of rows coded into the two indexes' ids. With dedupe=True a
    repeated (user, item) pair keeps the last occurrence's values at the
    pair's first position; otherwise repeats are an error."""
    if users.size == 0:
        raise DatasetError("empty dataset: no rating records")
    user_names, item_names = _id_array(list(user_index)), _id_array(list(item_index))
    overall = np.asarray(overall, dtype=np.float64)
    criteria = np.asarray(criteria, dtype=np.float64)
    keys = users * item_names.size + items
    _, first = np.unique(keys, return_index=True)
    if first.size < keys.size:
        if not dedupe:
            repeated = np.ones(keys.size, dtype=bool)
            repeated[first] = False
            row = int(np.argmax(repeated))
            raise DatasetError(f"duplicate rating for pair "
                               f"{(user_names[users[row]], item_names[items[row]])}")
        # a user's (item's) first row is its pair's first row, so dropping
        # later repeats keeps every id and its first-appearance code
        _, last_reversed = np.unique(keys[::-1], return_index=True)
        by_position = np.argsort(first)
        rows, values = first[by_position], (keys.size - 1 - last_reversed)[by_position]
        users, items = users[rows], items[rows]
        overall, criteria = overall[values], criteria[values]
    return RatingDataset(user_names, item_names, users, items, overall, criteria)


def from_records(records: Iterable[RatingRecord]) -> RatingDataset:
    """Assemble a dataset from records; see `from_columns`."""
    user_ids, item_ids, overall, criteria = [], [], [], []
    for rec in records:
        if criteria and len(rec.criteria) != len(criteria[0]):
            raise DatasetError(
                f"record ({rec.user_id}, {rec.item_id}) has {len(rec.criteria)} "
                f"criteria, dataset has {len(criteria[0])}")
        user_ids.append(rec.user_id)
        item_ids.append(rec.item_id)
        overall.append(rec.overall)
        criteria.append(rec.criteria)
    return from_columns(user_ids, item_ids, overall, criteria)


def subset(dataset: RatingDataset, rows: np.ndarray) -> RatingDataset:
    """The given rows in the given order, codes renumbered by first appearance."""
    if len(rows) == 0:
        raise DatasetError("empty dataset: no rating records")
    user_ids, users = _recode(dataset.user_ids, dataset.users[rows])
    item_ids, items = _recode(dataset.item_ids, dataset.items[rows])
    return RatingDataset(user_ids, item_ids, users, items,
                         dataset.overall[rows], dataset.criteria[rows])


def _first_rows(codes: np.ndarray, size: int) -> np.ndarray:
    """The first row holding each code in range(size); len(codes) if none does."""
    first = np.full(size, codes.size, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(codes.size))
    return first


def _recode(ids: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids `codes` name, in first-appearance order, and the codes into them."""
    first = _first_rows(codes, ids.size)
    present = np.flatnonzero(first < codes.size)
    present = present[np.argsort(first[present])]
    renumber = np.empty(ids.size, dtype=np.intp)
    renumber[present] = np.arange(present.size)
    return ids[present], renumber[codes]


def pair_codes(train: RatingDataset, data: RatingDataset) -> tuple[np.ndarray, np.ndarray]:
    """Each row of `data` as (user, item) codes of `train`, -1 for an id it lacks."""
    users = np.array([train.user_index.get(u, -1) for u in data.user_ids.tolist()],
                     dtype=np.intp)
    items = np.array([train.item_index.get(v, -1) for v in data.item_ids.tolist()],
                     dtype=np.intp)
    return users[data.users], items[data.items]


def _expected_header(num_criteria: int) -> list[str]:
    return ["user_id", "item_id", "overall"] + [f"c{k}" for k in range(1, num_criteria + 1)]


# rows tokenized at a time: one chunk's strings are freed before the next
# chunk is read, so a large file never holds all its fields as objects
_CHUNK_ROWS = 8192


@contextmanager
def _opened(path: str | Path) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """The checked header of the ratings CSV at `path` and a reader over the
    rows after it."""
    try:
        # "utf-8-sig" drops the byte-order mark that spreadsheets write in
        # "CSV UTF-8" files, which would otherwise open the user_id header
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"empty dataset: {path} has no content") from None
            num_criteria = len(header) - 3
            if num_criteria < 1 or header != _expected_header(num_criteria):
                raise ParseError(1, f"bad header {header!r}, "
                                    "expected user_id,item_id,overall,c1,...,cC")
            yield header, reader
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path} as UTF-8 text: {exc}") from None
    except FileNotFoundError:  # its message names the path already
        raise
    except OSError as exc:  # a name too long, a permission denied, ...
        raise DatasetError(f"cannot read {path}: {exc}") from None


def header_criteria(path: str | Path) -> int:
    """How many criteria the header of the ratings CSV at `path` names; no
    row is read."""
    with _opened(path) as (header, _):
        return len(header) - 3


def load_ratings(path: str | Path) -> RatingDataset:
    """Read a ratings CSV. A duplicate (user, item) row's values replace the
    earlier ones at the pair's first position; a leading byte-order mark is
    skipped; an unreadable or malformed file is a `DatasetError`."""
    user_index, item_index = {}, {}
    users, items, values = [], [], []
    with _opened(path) as (header, reader):
        width = len(header)
        try:
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                rows = [row for row in chunk if row]  # blank lines hold no rating
                if any(len(row) != width for row in rows):
                    raise ValueError("ragged row")
                columns = [list(map(itemgetter(k), rows)) for k in range(width)]
                block = np.column_stack([
                    np.fromiter(map(float, column), dtype=np.float64, count=len(rows))
                    for column in columns[2:]])
                if not (np.isfinite(block) & (block >= 0.0)).all():
                    raise ValueError("bad rating")
                values.append(block)
                users.append(_encode(user_index, columns[0]))
                items.append(_encode(item_index, columns[1]))
        except (ValueError, csv.Error):  # a non-UTF-8 byte is a ValueError too
            raise _first_bad_line(path) from None
    if not user_index:
        raise DatasetError(f"empty dataset: {path} has a header but no records")
    values = np.concatenate(values)
    return _assemble(user_index, item_index, np.concatenate(users), np.concatenate(items),
                     values[:, 0], values[:, 1:], dedupe=True)


def _first_bad_line(path: str | Path) -> ParseError:
    """The error of a ratings CSV that failed to load, found by reading it again
    row by row: its first ragged, non-numeric or unreadable row, else its first
    rating, in row then column order, that is not finite and nonnegative."""
    bad_rating = None
    with _opened(path) as (header, reader):
        while True:
            line = reader.line_num + 1  # the row's first line; a quoted id may span more
            try:
                row = next(reader)
            except StopIteration:
                return bad_rating
            except csv.Error as exc:
                return ParseError(line, f"unreadable row: {exc}")
            if row and len(row) != len(header):  # blank lines hold no rating
                return ParseError(line, f"expected {len(header)} columns, got {len(row)}")
            try:
                ratings = [float(v) for v in row[2:]]
            except ValueError as exc:
                return ParseError(line, f"non-numeric rating: {exc}")
            bad = [(v, name) for v, name in zip(ratings, header[2:]) if not 0.0 <= v < np.inf]
            if bad and bad_rating is None:
                bad_rating = ParseError(line, "rating {!r} in column {} must be finite "
                                              "and nonnegative".format(*bad[0]))


def save_ratings(dataset: RatingDataset, path: str | Path) -> None:
    """Write the CSV form; floats use repr so a reload reproduces exact values."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(dataset.num_criteria))
        writer.writerows(zip(dataset.user_ids[dataset.users].tolist(),
                             dataset.item_ids[dataset.items].tolist(),
                             map(repr, dataset.overall.tolist()),
                             *(map(repr, column) for column in dataset.criteria.T.tolist())))


def normalize_scale(dataset: RatingDataset,
                    source_range: tuple[float, float]) -> RatingDataset:
    """Affinely map every rating from [lo, hi] onto [1, 5].

    A criterion value of 0 marks "not rated" and stays 0.
    """
    lo, hi = source_range
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValueError(f"source range must be finite with hi > lo, got [{lo}, {hi}]")
    values = np.column_stack([dataset.overall, dataset.criteria])
    rated = np.column_stack([np.ones(len(dataset), dtype=bool), dataset.criteria != 0.0])
    outside = rated & ~((lo <= values) & (values <= hi))
    if outside.any():
        row, column = np.argwhere(outside)[0]  # row-major: record order
        raise RangeError(
            f"rating {float(values[row, column])} for pair "
            f"({dataset.user_ids[dataset.users[row]]}, "
            f"{dataset.item_ids[dataset.items[row]]}) "
            f"outside source range [{lo}, {hi}]")
    scaled = np.where(rated, 1.0 + 4.0 * (values - lo) / (hi - lo), 0.0)
    return RatingDataset(dataset.user_ids, dataset.item_ids, dataset.users,
                         dataset.items, scaled[:, 0], scaled[:, 1:])


def compute_stats(dataset: RatingDataset) -> DatasetStats:
    if dataset.num_users <= 0 or dataset.num_items <= 0:
        raise DatasetError("stats need at least one user and one item")
    n_records = len(dataset)
    return DatasetStats(
        avg_reviews_per_user=n_records / dataset.num_users,
        avg_reviews_per_item=n_records / dataset.num_items,
        sparsity=1.0 - n_records / (dataset.num_users * dataset.num_items),
        num_criteria=dataset.num_criteria,
        # row-major, the order the summation has always run in
        variance_criteria_ratings=float(dataset.criteria.ravel().var()),
    )


def _cold_candidates(codes: np.ndarray, size: int, is_test: np.ndarray,
                     candidates: np.ndarray) -> np.ndarray:
    """Which candidates are the first candidate of a code no kept train row has."""
    in_train = np.bincount(codes[~is_test], minlength=size) > 0
    candidate_codes = codes[candidates]
    is_first = _first_rows(candidate_codes, size)[candidate_codes] == np.arange(candidates.size)
    return is_first & ~in_train[candidate_codes]


def split_train_test(dataset: RatingDataset, test_fraction: float,
                     seed: int) -> tuple[RatingDataset, RatingDataset]:
    """Random record partition; test rows with a cold user or item move to train.

    Candidates are visited in position order. A cold candidate moves to the
    end of train, which warms its user and item for later candidates, so a
    candidate is cold exactly when it is the first candidate of a user (or
    item) that no kept train row has.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = len(dataset)
    n_test = int(test_fraction * n)
    if n_test == 0 or n_test == n:
        raise DatasetError(f"{n} records cannot support a {test_fraction} test split")

    order = np.random.default_rng(seed).permutation(n)
    is_test = np.zeros(n, dtype=bool)
    is_test[order[:n_test]] = True
    candidates = np.flatnonzero(is_test)
    cold = (_cold_candidates(dataset.users, dataset.num_users, is_test, candidates)
            | _cold_candidates(dataset.items, dataset.num_items, is_test, candidates))
    if cold.all():
        raise DatasetError("every candidate test record was cold; cannot split")
    train_rows = np.concatenate([np.flatnonzero(~is_test), candidates[cold]])
    return subset(dataset, train_rows), subset(dataset, candidates[~cold])


# training-segment percentages: `subsample_train` and the CLI's --ts accept these
TS_PERCENTS = (40, 60, 80, 100)


def subsample_train(train: RatingDataset, ts_percent: int, seed: int) -> RatingDataset:
    """Keep a uniform floor(ts_percent·|train|/100) subset of the training records."""
    if ts_percent not in TS_PERCENTS:
        raise ValueError(f"ts_percent must be one of {TS_PERCENTS}, got {ts_percent}")
    if ts_percent == 100:
        return train
    n = len(train)
    keep = (ts_percent * n) // 100
    chosen = np.random.default_rng(seed).permutation(n)[:keep]
    return subset(train, np.sort(chosen))
