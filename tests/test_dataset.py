"""Rating data loading, normalization, splitting and statistics."""

import contextlib
import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mcgraph import cli, graph
from mcgraph import dataset as ds
from mcgraph import evaluate as ev
from mcgraph import recommend as rec


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


SMALL = """user_id,item_id,overall,c1,c2,c3,c4
u1,i1,4,4,3,5,4
u1,i2,2,1,2,3,2
u2,i1,5,5,5,4,5
"""


class TestLoad:
    def test_counts_users_items_criteria(self, tmp_path):
        data = ds.load_ratings(write_csv(tmp_path / "r.csv", SMALL))
        assert (data.num_users, data.num_items, data.num_criteria) == (2, 2, 4)
        assert len(data) == 3

    def test_indices_follow_first_appearance(self, tmp_path):
        data = ds.load_ratings(write_csv(tmp_path / "r.csv", SMALL))
        assert data.user_index == {"u1": 0, "u2": 1}
        assert data.item_index == {"i1": 0, "i2": 1}

    def test_duplicate_pair_keeps_last_row(self, tmp_path):
        text = ("user_id,item_id,overall,c1\n"
                "u1,i1,2,2\n"
                "u1,i2,3,3\n"
                "u1,i1,5,4\n")
        data = ds.load_ratings(write_csv(tmp_path / "r.csv", text))
        assert len(data) == 2
        first = data.records[0]
        assert (first.user_id, first.item_id) == ("u1", "i1")
        assert first.overall == 5.0
        assert first.criteria == (4.0,)

    def test_short_row_is_parse_error_with_line(self, tmp_path):
        text = ("user_id,item_id,overall,c1,c2,c3,c4\n"
                "u1,i1,4,4,3,5,4\n"
                "u2,i1,5,5,5,4\n")
        with pytest.raises(ds.ParseError, match="line 3"):
            ds.load_ratings(write_csv(tmp_path / "r.csv", text))

    def test_non_numeric_rating_is_parse_error_with_line(self, tmp_path):
        text = ("user_id,item_id,overall,c1\n"
                "u1,i1,great,4\n")
        with pytest.raises(ds.ParseError, match="line 2"):
            ds.load_ratings(write_csv(tmp_path / "r.csv", text))

    def test_malformed_row_outranks_an_earlier_bad_rating(self, tmp_path):
        text = ("user_id,item_id,overall,c1\n"
                "u1,i1,nan,4\n"
                "u2,i1,5,4\n"
                "u2,i2,5\n")
        with pytest.raises(ds.ParseError, match="^line 4: expected 4 columns, got 3$"):
            ds.load_ratings(write_csv(tmp_path / "r.csv", text))

    def test_empty_file_is_empty_dataset_error(self, tmp_path):
        with pytest.raises(ds.DatasetError, match="empty"):
            ds.load_ratings(write_csv(tmp_path / "r.csv", ""))

    def test_header_only_is_empty_dataset_error(self, tmp_path):
        with pytest.raises(ds.DatasetError, match="empty"):
            ds.load_ratings(write_csv(tmp_path / "r.csv", "user_id,item_id,overall,c1\n"))

    def test_bad_header_is_parse_error(self, tmp_path):
        with pytest.raises(ds.ParseError, match="header"):
            ds.load_ratings(write_csv(tmp_path / "r.csv", "user,item,rating\nu,i,3\n"))


class TestHeaderCriteria:
    def test_counts_the_header_criteria_without_reading_rows(self, tmp_path):
        # the row is ragged and non-numeric: only the header is read
        path = write_csv(tmp_path / "r.csv", SMALL.splitlines()[0] + "\nu1,great\n")
        assert ds.header_criteria(path) == 4

    def test_skips_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfuser_id,item_id,overall,c1,c2\n")
        assert ds.header_criteria(path) == 2

    @pytest.mark.parametrize("setup, error, match", [
        (lambda p: write_csv(p, "user,item,rating\n"), ds.ParseError, "line 1: bad header"),
        (lambda p: write_csv(p, ""), ds.DatasetError, "empty dataset"),
        (lambda p: p.mkdir(), ds.DatasetError, "as UTF-8 text"),
        (lambda p: p.write_bytes(b"user_id,item_id,overall,c\xe9\n"), ds.DatasetError,
         "as UTF-8 text"),
    ], ids=["bad_header", "empty", "directory", "latin1"])
    def test_fails_as_load_ratings_does(self, tmp_path, setup, error, match):
        path = tmp_path / "r.csv"
        setup(path)
        for read in (ds.header_criteria, ds.load_ratings):
            with pytest.raises(error, match=match):
                read(path)


class TestContentDigest:
    def test_equal_datasets_share_a_digest(self, tmp_path):
        data = ds.load_ratings(write_csv(tmp_path / "r.csv", SMALL))
        again = ds.from_columns(["u1", "u1", "u2"], ["i1", "i2", "i1"], [4, 2, 5],
                                [[4, 3, 5, 4], [1, 2, 3, 2], [5, 5, 4, 5]])
        assert again == data
        assert ds.content_digest(again) == ds.content_digest(data)
        assert len(ds.content_digest(data)) == 64

    @pytest.mark.parametrize("text", [
        SMALL.replace("u2,i1,5,5,5,4,5", "u2,i1,4,5,5,4,5"),  # an overall rating
        SMALL.replace("u1,i2,2,1,2,3,2", "u1,i2,2,1,2,3,3"),  # a criterion rating
        SMALL.replace("u2,i1", "u3,i1"),                      # an id
        SMALL.replace("u1,i2", "u2,i2"),                      # a code
    ], ids=["overall", "criterion", "id", "code"])
    def test_any_changed_column_changes_the_digest(self, tmp_path, text):
        base = ds.load_ratings(write_csv(tmp_path / "a.csv", SMALL))
        changed = ds.load_ratings(write_csv(tmp_path / "b.csv", text))
        assert ds.content_digest(changed) != ds.content_digest(base)


class TestNormalizeScale:
    def make(self, values):
        recs = [ds.RatingRecord(f"u{k}", "i0", v, (v,)) for k, v in enumerate(values)]
        return ds.from_records(recs)

    def test_identity_on_native_range(self):
        out = ds.normalize_scale(self.make([3.0]), (1.0, 5.0))
        assert out.records[0].overall == 3.0

    def test_endpoints_map_to_one_and_five(self):
        out = ds.normalize_scale(self.make([1.0, 13.0]), (1.0, 13.0))
        assert out.records[0].overall == 1.0
        assert out.records[1].overall == 5.0

    def test_midpoint_of_one_to_thirteen(self):
        # 1 + 4*(7-1)/12 = 3.0
        out = ds.normalize_scale(self.make([7.0]), (1.0, 13.0))
        assert out.records[0].overall == 3.0
        assert out.records[0].criteria == (3.0,)

    @pytest.mark.parametrize("source", [(-np.inf, 5.0), (0.0, np.inf),
                                        (np.nan, 5.0), (5.0, 1.0)])
    def test_non_finite_or_empty_range_rejected(self, source):
        with pytest.raises(ValueError, match="source range"):
            ds.normalize_scale(self.make([3.0]), source)

    def test_out_of_range_names_the_record(self):
        with pytest.raises(ds.RangeError, match="u0"):
            ds.normalize_scale(self.make([14.0]), (1.0, 13.0))

    def test_all_outputs_in_target_interval(self):
        rng = np.random.default_rng(42)
        out = ds.normalize_scale(self.make(rng.uniform(0, 10, size=20).tolist()),
                                 (0.0, 10.0))
        for rec in out.records:
            assert 1.0 <= rec.overall <= 5.0


class TestStats:
    def test_two_by_two_with_three_records(self):
        recs = [ds.RatingRecord("u1", "i1", 4.0, (4.0, 2.0)),
                ds.RatingRecord("u1", "i2", 2.0, (2.0, 2.0)),
                ds.RatingRecord("u2", "i1", 5.0, (5.0, 5.0))]
        stats = ds.compute_stats(ds.from_records(recs))
        assert stats.sparsity == 0.25
        assert stats.avg_reviews_per_user == 1.5
        assert stats.avg_reviews_per_item == 1.5
        assert stats.num_criteria == 2

    def test_dense_dataset_has_zero_sparsity(self):
        recs = [ds.RatingRecord(u, i, 3.0, (3.0,))
                for u in ("u1", "u2") for i in ("i1", "i2")]
        assert ds.compute_stats(ds.from_records(recs)).sparsity == 0.0

    def test_variance_is_population_variance(self):
        recs = [ds.RatingRecord("u1", "i1", 3.0, (1.0, 3.0)),
                ds.RatingRecord("u2", "i2", 3.0, (5.0, 3.0))]
        stats = ds.compute_stats(ds.from_records(recs))
        assert_allclose(stats.variance_criteria_ratings, np.var([1.0, 3.0, 5.0, 3.0]))

    def test_variance_leaves_unrated_criteria_out(self):
        recs = [ds.RatingRecord("u1", "i1", 1.0, (1.0, 0.0)),
                ds.RatingRecord("u2", "i2", 4.0, (3.0, 5.0))]
        assert ds.compute_stats(ds.from_records(recs)).variance_criteria_ratings == 8 / 3

    def test_variance_without_rated_criteria_is_zero(self):
        recs = [ds.RatingRecord("u1", "i1", 3.0, (0.0, 0.0)),
                ds.RatingRecord("u2", "i2", 4.0, (0.0, 0.0))]
        assert ds.compute_stats(ds.from_records(recs)).variance_criteria_ratings == 0.0


class TestSplit:
    def make(self, n_users=10, n_items=10, density=1.0, seed=0):
        rng = np.random.default_rng(seed)
        recs = []
        for u in range(n_users):
            for i in range(n_items):
                if rng.uniform() <= density:
                    r = float(rng.integers(1, 6))
                    recs.append(ds.RatingRecord(f"u{u}", f"i{i}", r, (r, r)))
        return ds.from_records(recs)

    def test_partition_sizes_and_disjointness(self):
        data = self.make()
        train, test = ds.split_train_test(data, 0.2, seed=42)
        assert len(train) + len(test) == len(data)
        train_pairs = {(r.user_id, r.item_id) for r in train.records}
        test_pairs = {(r.user_id, r.item_id) for r in test.records}
        assert not train_pairs & test_pairs

    def test_same_seed_reproduces_partition(self):
        data = self.make()
        a = ds.split_train_test(data, 0.2, seed=7)
        b = ds.split_train_test(data, 0.2, seed=7)
        assert a[0].records == b[0].records
        assert a[1].records == b[1].records

    def test_different_seeds_differ(self):
        data = self.make()
        a = ds.split_train_test(data, 0.2, seed=1)
        b = ds.split_train_test(data, 0.2, seed=2)
        assert a[1].records != b[1].records

    def test_cold_users_and_items_move_to_train(self):
        data = self.make(density=0.15, seed=3)
        train, test = ds.split_train_test(data, 0.4, seed=5)
        train_users = {r.user_id for r in train.records}
        train_items = {r.item_id for r in train.records}
        for rec in test.records:
            assert rec.user_id in train_users
            assert rec.item_id in train_items

    def test_exact_counts_without_cold_records(self):
        data = self.make()  # fully dense, no reassignment possible at 0.2
        train, test = ds.split_train_test(data, 0.2, seed=9)
        assert len(test) == 20
        assert len(train) == 80

    def test_tiny_dataset_cannot_split(self):
        recs = [ds.RatingRecord("u1", "i1", 3.0, (3.0,))]
        with pytest.raises(ds.DatasetError):
            ds.split_train_test(ds.from_records(recs), 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            ds.split_train_test(self.make(), 1.5, seed=0)


class TestSubsample:
    def make(self):
        recs = [ds.RatingRecord(f"u{k % 10}", f"i{k // 10}", 3.0, (3.0,))
                for k in range(100)]
        return ds.from_records(recs)

    def test_forty_percent_of_hundred(self):
        assert len(ds.subsample_train(self.make(), 40, seed=0)) == 40

    def test_hundred_percent_is_identity(self):
        data = self.make()
        assert ds.subsample_train(data, 100, seed=0) is data

    def test_same_seed_same_subset(self):
        data = self.make()
        a = ds.subsample_train(data, 60, seed=4)
        b = ds.subsample_train(data, 60, seed=4)
        assert a.records == b.records

    def test_subset_of_original(self):
        data = self.make()
        sub = ds.subsample_train(data, 60, seed=4)
        assert set(sub.records) <= set(data.records)

    def test_unsupported_percent_rejected(self):
        with pytest.raises(ValueError):
            ds.subsample_train(self.make(), 55, seed=0)


ratings = st.floats(min_value=1.0, max_value=5.0, allow_nan=False)


@st.composite
def rating_datasets(draw):
    pairs = draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                         min_size=1, max_size=20))
    n_criteria = draw(st.integers(1, 4))
    recs = [ds.RatingRecord(f"u{u}", f"i{i}", draw(ratings),
                            tuple(draw(ratings) for _ in range(n_criteria)))
            for u, i in sorted(pairs)]
    return ds.from_records(recs)


@given(rating_datasets())
@settings(max_examples=40, deadline=None)
def test_csv_round_trip_preserves_dataset(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    ds.save_ratings(data, path)
    again = ds.load_ratings(path)
    assert again == data


@given(rating_datasets())
@settings(max_examples=40, deadline=None)
def test_sparsity_always_in_unit_interval(data):
    stats = ds.compute_stats(data)
    assert 0.0 <= stats.sparsity <= 1.0


# ---------------------------------------------------------------------------
# Record-at-a-time reference: the data layer as it was before the columnar
# layout, one `RatingRecord` per rating. The columnar code must agree with it
# exactly: records, index maps, split/subsample membership and order, stats
# and scaled values, and the class, message and line of every error.

def ref_assemble(records, dedupe=False):
    by_pair = {}
    for rec in records:
        key = (rec.user_id, rec.item_id)
        if key in by_pair and not dedupe:
            raise ds.DatasetError(f"duplicate rating for pair {key}")
        by_pair[key] = rec
    if not by_pair:
        raise ds.DatasetError("empty dataset: no rating records")
    final = tuple(by_pair.values())
    user_index, item_index = {}, {}
    for rec in final:
        user_index.setdefault(rec.user_id, len(user_index))
        item_index.setdefault(rec.item_id, len(item_index))
    return final, user_index, item_index


def ref_load_ratings(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        records, ratings, line_numbers = [], [], []
        while True:
            line_number = reader.line_num + 1  # a quoted id may span lines
            row = next(reader, None)
            if row is None:
                break
            if not row:
                continue
            if len(row) != len(header):
                raise ds.ParseError(line_number,
                                    f"expected {len(header)} columns, got {len(row)}")
            try:
                values = tuple(map(float, row[2:]))
            except ValueError as exc:
                raise ds.ParseError(line_number, f"non-numeric rating: {exc}") from None
            records.append(ds.RatingRecord(row[0], row[1], values[0], values[1:]))
            ratings.append(values)
            line_numbers.append(line_number)
    if not records:
        raise ds.DatasetError(f"empty dataset: {path} has a header but no records")
    matrix = np.array(ratings)
    bad = ~(np.isfinite(matrix) & (matrix >= 0.0))
    if bad.any():
        first, column = np.argwhere(bad)[0]
        raise ds.ParseError(line_numbers[first],
                            f"rating {ratings[first][column]!r} in column "
                            f"{header[2 + column]} must be finite and nonnegative")
    return ref_assemble(records, dedupe=True)


def ref_split(records, test_fraction, seed):
    n = len(records)
    n_test = int(test_fraction * n)
    if n_test == 0 or n_test == n:
        raise ds.DatasetError(f"{n} records cannot support a {test_fraction} test split")
    order = np.random.default_rng(seed).permutation(n)
    test_positions = set(order[:n_test].tolist())
    train_recs = [records[i] for i in range(n) if i not in test_positions]
    train_users = {rec.user_id for rec in train_recs}
    train_items = {rec.item_id for rec in train_recs}
    test_recs = []
    for i in sorted(test_positions):
        rec = records[i]
        if rec.user_id not in train_users or rec.item_id not in train_items:
            train_recs.append(rec)
            train_users.add(rec.user_id)
            train_items.add(rec.item_id)
        else:
            test_recs.append(rec)
    if not test_recs:
        raise ds.DatasetError("every candidate test record was cold; cannot split")
    return ref_assemble(train_recs), ref_assemble(test_recs)


def ref_subsample(records, ts_percent, seed):
    n = len(records)
    chosen = np.random.default_rng(seed).permutation(n)[:(ts_percent * n) // 100]
    return ref_assemble(records[i] for i in sorted(chosen.tolist()))


def ref_variance(records):
    rated = [v for rec in records for v in rec.criteria if v != 0.0]
    return float(np.array(rated).var()) if rated else 0.0


def ref_normalize(records, lo, hi):
    def convert(rec, value):
        if not lo <= value <= hi:
            raise ds.RangeError(f"rating {value} for pair ({rec.user_id}, {rec.item_id}) "
                                f"outside source range [{lo}, {hi}]")
        return 1.0 + 4.0 * (value - lo) / (hi - lo)
    return tuple(ds.RatingRecord(rec.user_id, rec.item_id, convert(rec, rec.overall),
                                 tuple(convert(rec, v) if v else 0.0 for v in rec.criteria))
                 for rec in records)


def outcome(fn, *args):
    """(result, None), or (None, (class, message, line)) if `fn` raised."""
    try:
        return fn(*args), None
    except ds.DatasetError as exc:
        return None, (type(exc), str(exc), getattr(exc, "line_number", None))


def same_dataset(data, expected):
    records, user_index, item_index = expected
    return (data.records == records and data.user_index == user_index
            and data.item_index == item_index
            and (data.num_users, data.num_items) == (len(user_index), len(item_index)))


DEFECTS = {"ragged": lambda row, k: row[:-1],
           "non-numeric": lambda row, k: row[:k] + ["x1"] + row[k + 1:],
           "non-finite": lambda row, k: row[:k] + [["nan", "inf", "-inf"][k % 3]] + row[k + 1:],
           "negative": lambda row, k: row[:k] + ["-1.5"] + row[k + 1:]}


@st.composite
def rating_csvs(draw):
    """CSV text with repeated pairs whose values change, blank lines, quoted ids
    holding commas, quotes and line breaks, unrated zeros, 1-4 criteria, and
    possibly one defect class in one or two rows."""
    n_criteria = draw(st.integers(1, 4))
    ids = st.text(alphabet='ab,"1 \n', min_size=1, max_size=3)
    users = draw(st.lists(ids, min_size=2, max_size=8, unique=True))
    items = draw(st.lists(ids, min_size=2, max_size=6, unique=True))
    value = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.integers(0, 10).map(float))
    rows = [[u, i, *map(repr, values)] for u, i, values in draw(st.lists(
        st.tuples(st.sampled_from(users), st.sampled_from(items),
                  st.lists(value, min_size=n_criteria + 1, max_size=n_criteria + 1)),
        min_size=12, max_size=80))]
    defect = draw(st.sampled_from([None] * 4 + list(DEFECTS)))
    if defect is not None:
        for row in draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2)):
            rows[row] = DEFECTS[defect](rows[row], draw(st.integers(2, n_criteria + 2)))
    for position in draw(st.lists(st.integers(0, len(rows)), max_size=3)):
        rows.insert(position, [])
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(ds._expected_header(n_criteria))
    writer.writerows(rows)
    return out.getvalue()


@given(rating_csvs(), st.sampled_from([(0.0, 5.0), (0.0, 10.0), (1.0, 10.0)]),
       st.sampled_from([1, 3, 7, ds._CHUNK_ROWS]))
@settings(max_examples=150, deadline=None)
def test_columnar_layer_matches_record_reference(tmp_path_factory, text, source,
                                                 chunk_rows):
    path = tmp_path_factory.mktemp("oracle") / "ratings.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(ds, "_CHUNK_ROWS", chunk_rows):  # chunk borders anywhere
        data, error = outcome(ds.load_ratings, path)
    expected, expected_error = outcome(ref_load_ratings, path)
    assert error == expected_error
    if error is not None:
        return
    assert same_dataset(data, expected)
    records = expected[0]

    assert ds.compute_stats(data).variance_criteria_ratings == ref_variance(records)
    scaled, error = outcome(ds.normalize_scale, data, source)
    scaled_expected, expected_error = outcome(ref_normalize, records, *source)
    assert error == expected_error
    if error is None:
        assert scaled.records == scaled_expected

    for seed in range(4):
        split, error = outcome(ds.split_train_test, data, 0.3, seed)
        split_expected, expected_error = outcome(ref_split, records, 0.3, seed)
        assert error == expected_error
        if error is not None:
            continue
        for part, part_expected in zip(split, split_expected):
            assert same_dataset(part, part_expected)
        for ts in (40, 60, 80):
            sub, error = outcome(ds.subsample_train, split[0], ts, seed)
            sub_expected, expected_error = outcome(ref_subsample, split_expected[0][0],
                                                   ts, seed)
            assert error == expected_error
            if error is None:
                assert same_dataset(sub, sub_expected)


@given(st.text(alphabet='u1i2,"\n\r .5-x\x00', max_size=60),
       st.sampled_from([1, 2, ds._CHUNK_ROWS]))
@settings(max_examples=400, deadline=None)
def test_any_text_after_a_header_loads_or_is_a_data_error(tmp_path_factory, text,
                                                          chunk_rows):
    """Whatever stopped the chunked read, the row-by-row reread names a line:
    no `csv.Error` or other exception escapes, even when a runaway quote
    outgrows the CSV reader's field size limit."""
    path = tmp_path_factory.mktemp("fuzz") / "ratings.csv"
    path.write_text("user_id,item_id,overall,c1\n" + text, encoding="utf-8", newline="")
    limit = csv.field_size_limit(16)
    try:
        with mock.patch.object(ds, "_CHUNK_ROWS", chunk_rows):
            ds.load_ratings(path)
    except ds.DatasetError:
        pass
    finally:
        csv.field_size_limit(limit)


def test_pipeline_builds_no_records(tmp_path, monkeypatch):
    """Loading, preparing, views, baselines, fit/predict and the ingest and
    stats commands all read the columns; none builds a `RatingRecord`."""
    path = tmp_path / "ratings.csv"
    path.write_text("user_id,item_id,overall,c1,c2\n"
                    + "".join(f"u{k % 6},i{k % 7},{1 + k % 5},{1 + k % 4},{k % 3}\n"
                              for k in range(42)),
                    encoding="utf-8")

    def refuse(*args):
        raise AssertionError("a RatingRecord was built")
    monkeypatch.setattr(ds.RatingDataset, "records", property(refuse), raising=False)
    monkeypatch.setattr(ds.RatingRecord, "__init__", refuse)

    ds.load_ratings(path)
    quick = dict(n_runs=1, epochs=2, predictor=rec.PredictorConfig(epochs=2))
    for cfg in (ev.ExperimentConfig(dataset_path=str(path), **quick),
                ev.ExperimentConfig(**quick)):
        train, test = ev.prepared_data(cfg)
        graph.build_views(train)
        ev.fit(cfg, train, seed=0).predict(test)
        for name in ("user_knn", "multi_user_knn", "mlr"):
            ev.baseline_report(cfg, name)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["ingest", "--data", str(path), "--scale", "1:5",
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert cli.main(["stats", "--data", str(path)]) == cli.EXIT_OK
        assert cli.main(["stats"]) == cli.EXIT_OK
