"""Dataset containers, CSV IO, and the synthetic mixture generator."""

import csv
import gc
import io
import random

import numpy as np
import pytest

from fairmi import clustering, data, metrics, model, objectives
from helpers import traced_peak


def tiny_dataset(with_labels=True):
    features = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    groups = np.array([0, 1, 0, 1], dtype=np.int64)
    labels = np.array([0, 0, 1, 1], dtype=np.int64) if with_labels else None
    return data.Dataset(features=features, groups=groups, labels=labels)


class TestDataset:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(data.DataError):
            data.Dataset(features=np.zeros((0, 3)), groups=np.zeros(0, dtype=np.int64))
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(data.DataError):
            data.Dataset(features=bad, groups=np.array([0, 1]))

    @pytest.mark.parametrize("groups,message", [
        ([0, 2], "groups: 2 rows cannot hold ids 0 to 2, so some have no members"),
        ([0, 0, 2], "groups: ids [1] have no members"),
        ([0, 10**15], f"groups: 2 rows cannot hold ids 0 to {10**15}, so some have no members"),
    ])
    def test_rejects_sparse_group_ids(self, groups, message):
        """A gap names the ids with no members; an id past the row count fails before any count
        array is sized by it."""
        with pytest.raises(data.DataError) as err:
            data.Dataset(features=np.ones((len(groups), 2)), groups=np.array(groups))
        assert str(err.value) == message

    def test_rejects_length_mismatches(self):
        with pytest.raises(data.DataError):
            data.Dataset(features=np.ones((3, 2)), groups=np.array([0, 1]))
        with pytest.raises(data.DataError) as err:
            data.Dataset(features=np.ones((2, 2)), groups=np.array([0, 1]), feature_names=("a",))
        assert str(err.value) == "feature_names must be 2 distinct strings, one per column, got ('a',)"
        with pytest.raises(data.DataError):
            data.Dataset(
                features=np.ones((2, 2)), groups=np.array([0, 1]),
                labels=np.array([0, 1, 0]),
            )

    @pytest.mark.parametrize("names", [(0, 1), 5, ("a", "a"), "ab", ("a", None)],
                             ids=["ints", "int", "duplicates", "str", "none"])
    def test_feature_names_must_be_one_distinct_string_per_column(self, names):
        """Names that a checkpoint could not encode, or that ``load_csv`` would refuse as a header."""
        with pytest.raises(data.DataError) as err:
            data.Dataset(features=np.ones((2, 2)), groups=np.array([0, 1]), feature_names=names)
        assert str(err.value) == f"feature_names must be 2 distinct strings, one per column, got {names!r}"

    def test_a_list_of_feature_names_is_kept_as_a_tuple(self):
        ds = data.Dataset(features=np.ones((2, 2)), groups=np.array([0, 1]), feature_names=["a", "b"])
        assert ds.feature_names == ("a", "b")

    @pytest.mark.parametrize(
        "groups,labels,message",
        [
            (np.array([0.0, 1.0]), None, "groups must be a 1-d integer array, got ndarray of dtype float64"),
            (np.array([0, 1]), np.array([0.0, 1.0]), "labels must be a 1-d integer array, got ndarray of dtype float64"),
            (np.array([0, 1]), np.array([0, -1]), "labels must be >= 0: entry 1 holds -1"),
            ([[0], [1, 2]], None, "groups must be a 1-d integer array, got a ragged list"),
            ([True, False], None, "groups must be a 1-d integer array, got list of dtype bool"),
            (np.array([0, 1, 0]), None, "groups must be a non-empty (2,) array, got shape (3,)"),
            (np.array([0, 1]), np.array([[0, 1]]), "labels must be a non-empty (2,) array, got shape (1, 2)"),
        ],
        ids=["float-groups", "float-labels", "negative-label", "ragged-groups", "bool-groups", "long-groups",
             "2-d-labels"],
    )
    def test_rejects_bad_id_arrays_by_field(self, groups, labels, message):
        with pytest.raises(data.DataError) as err:
            data.Dataset(features=np.ones((2, 2)), groups=groups, labels=labels)
        assert str(err.value) == message

    def test_lists_and_int_arrays_give_the_dataset_the_arrays_give(self):
        ds = tiny_dataset()
        for features in (ds.features.tolist(), ds.features.astype(np.int32)):
            again = data.Dataset(features=features, groups=ds.groups.tolist(), labels=ds.labels.tolist())
            for got, want in ((again.features, ds.features), (again.groups, ds.groups), (again.labels, ds.labels)):
                assert type(got) is np.ndarray and got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_float64_features_and_int64_ids_are_kept_as_given(self):
        features = np.ones((2, 2))
        groups = np.array([0, 1], dtype=np.int64)
        ds = data.Dataset(features=features, groups=groups, labels=groups)
        assert ds.features is features and ds.groups is groups and ds.labels is groups

    def test_a_group_with_no_members_reads_alike_everywhere(self):
        """Dataset, full_report and group_cluster_mi share one coverage rule and its message."""
        groups = np.array([0, 0, 2, 2])
        calls = [(data.DataError, lambda: data.Dataset(features=np.ones((4, 2)), groups=groups)),
                 (metrics.MetricError, lambda: metrics.full_report(np.array([0, 1, 0, 1]), groups)),
                 (objectives.ObjectiveError, lambda: objectives.group_cluster_mi(np.full((4, 2), 0.5), groups, 3))]
        for error, call in calls:
            with pytest.raises(error) as err:
                call()
            assert str(err.value) == "groups: ids [1] have no members"

    def test_shape_properties(self):
        ds = tiny_dataset()
        assert (len(ds), ds.n, ds.dim, ds.n_groups) == (4, 4, 2, 2)


def standardized(x):
    """What ``load_csv`` does to the features it reads."""
    return data._transformed(x, data.feature_transform(x))


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 5.0, size=(200, 4))
        z = standardized(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_input_is_not_modified(self):
        x = np.random.default_rng(1).normal(2.0, 3.0, size=(50, 3))
        before = x.copy()
        z = standardized(x)
        assert x.tobytes() == before.tobytes()
        assert z.tobytes() == ((before - before.mean(axis=0)) / before.std(axis=0)).tobytes()

    def test_constant_column_becomes_zero(self):
        x = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        z = standardized(x)
        np.testing.assert_array_equal(z[:, 0], 0.0)


class TestCSV:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_happy_path(self, tmp_path):
        path = self.write(
            tmp_path,
            "x,y,sex,cls\n1.0,2.0,f,a\n3.0,4.0,m,b\n5.0,6.0,f,a\n",
        )
        ds = data.load_csv(path, group_column="sex", label_column="cls",
                           standardize_features=False)
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_array_equal(ds.groups, [0, 1, 0])  # first-appearance ids
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.feature_names == ("x", "y")
        assert ds.group_names == ("f", "m")

    def test_standardize_flag(self, tmp_path):
        path = self.write(tmp_path, "x,g\n0.0,a\n2.0,b\n4.0,a\n")
        z = data.load_csv(path, group_column="g").features
        np.testing.assert_allclose(z.mean(), 0.0, atol=1e-12)
        raw = data.load_csv(path, group_column="g", standardize_features=False).features
        np.testing.assert_array_equal(raw.ravel(), [0.0, 2.0, 4.0])

    def test_standardizing_records_the_transform_that_maps_the_raw_file(self, tmp_path):
        path = self.write(tmp_path, "x,y,g\n0.0,5.0,a\n2.0,5.0,b\n4.5,5.0,a\n")
        std = data.load_csv(path, group_column="g")
        mean, scale = std.transform
        np.testing.assert_array_equal(mean, [6.5 / 3, 5.0])
        np.testing.assert_array_equal(scale, [np.std([0.0, 2.0, 4.5]), 1.0])  # constant: 1.0
        raw = data.load_csv(path, group_column="g", standardize_features=False)
        assert raw.transform is None

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty file"),
            ("x,x,g\n1,2,a\n", "duplicate"),
            ("x,y\n1,2\n", "'g'"),
            ("g\na\n", "no feature columns"),
            ("x,g\n", "no data rows"),
            ("x,g\n1.0,a\n2.0\n", "row 3"),
            ("x,g\n1.0,\n", "missing its group"),
            ("x,g\noops,a\n", "'x'"),
            ("x,g\ninf,a\n", "non-finite"),
        ],
    )
    def test_malformed_inputs_are_named(self, tmp_path, text, fragment):
        path = self.write(tmp_path, text)
        with pytest.raises(data.DataError) as err:
            data.load_csv(path, group_column="g")
        assert fragment in str(err.value)

    def test_one_column_for_two_roles_is_rejected_before_any_row(self, tmp_path):
        path = self.write(tmp_path, "x,g\n1.0,a\n2.0\n")  # row 3 is short, and never read
        with pytest.raises(data.DataError) as err:
            data.load_csv(path, group_column="g", label_column="g")
        assert str(err.value) == f"{path}: column 'g' is named for two roles, group and label"

    def test_bad_cell_error_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "a,b,g\n1,2,x\n3,huh,y\n")
        with pytest.raises(data.DataError) as err:
            data.load_csv(path, group_column="g")
        msg = str(err.value)
        assert "row 3" in msg and "'b'" in msg and "'huh'" in msg

    def test_empty_label_cell_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "x,g,y\n1.0,a,p\n2.0,b,\n")
        with pytest.raises(data.DataError) as err:
            data.load_csv(path, group_column="g", label_column="y")
        msg = str(err.value)
        assert "row 3" in msg and "'y'" in msg

    @pytest.mark.parametrize(
        "text,label_column,fragment",
        [
            ("x,g\n\n1.0,a\n\n2.0,\n", None, "row 5 is missing its group value in column 'g'"),
            ("\nx,g\n1.0,a\n\n\n2.0\n", None, "row 6 has 1 cells, header has 2"),
            ("x,g\n1.0,a\n\n\nzz,b\n", None, "row 5, column 'x': non-numeric value 'zz'"),
            ("x,g\n\n1.0,a\n\ninf,b\n", None, "row 5, column 'x': non-finite value 'inf'"),
            # a quoted line break makes one record span lines 2 and 3
            ('x,g,y\n1.0,a,"p\nq"\n2.0,,r\n', "y", "row 4 is missing its group value"),
            ('x,g\n1,"a\nb"\n0x,c\n', None, "row 4, column 'x': non-numeric value '0x'"),
            # the first bad feature cell, row by row and left to right, is named
            ("x,y,g\n1,2,a\n\n3,bad,b\nworse,4,a\n", None, "row 4, column 'y': non-numeric value 'bad'"),
            ("x,y,g\n1,2,a\n3,4,b\nworse,bad,a\n", None, "row 4, column 'x': non-numeric value 'worse'"),
            ("g,x\na,1\nb,\n", None, "row 3, column 'x': non-numeric value ''"),
            ("x,y,g\n1,2,a\n\n3,-inf,b\n5,nan,a\n", None, "row 4, column 'y': non-finite value '-inf'"),
            ("g,x\na,1\nb,1e999\n", None, "row 3, column 'x': non-finite value '1e999'"),
        ],
    )
    def test_rows_are_named_by_file_line(self, tmp_path, text, label_column, fragment):
        path = self.write(tmp_path, text)
        with pytest.raises(data.DataError) as err:
            data.load_csv(path, group_column="g", label_column=label_column)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = self.write(tmp_path, f"a,b,g\n1,2,x\n3,4,y\n5,{cell},x\n")
        with pytest.raises(data.DataError) as err:
            data.load_csv(path, group_column="g")
        assert f"row 4, column 'b': non-finite value {cell!r}" in str(err.value)

    # spellings Python's float() accepts, each of which must load bit for bit
    FLOAT_CELLS = [" 1.5 ", "1_0", "+.5", "-0.0", "1e-320", "\uff11\uff12.5", "7"]

    @pytest.mark.parametrize("width", [1, 3])
    def test_features_are_float_of_each_cell_bit_for_bit(self, tmp_path, width):
        cells = self.FLOAT_CELLS
        rows = [[cells[(r + j) % len(cells)] for j in range(width)] for r in range(len(cells))]
        names = [f"f{j}" for j in range(width)]
        # every other row quotes its cells
        lines = [",".join(names + ["g"])] + [
            ",".join((f'"{c}"' if r % 2 else c) for c in row) + f",{'ab'[r % 2]}"
            for r, row in enumerate(rows)
        ]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = data.load_csv(path, group_column="g", standardize_features=False).features
        want = np.array([[float(c) for c in row] for row in rows])
        assert got.shape == (len(rows), width)
        assert got.tobytes() == want.tobytes()

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_text("\ufeffgroup,x,y\na,1.0,2.0\nb,3.0,4.0\n\nb,5.0,oops\n", encoding="utf-8")
        (groups, names), = data.read_csv(path, [("group", "group")])[0]
        assert names == ("a", "b") and groups.tolist() == [0, 1, 1]
        with pytest.raises(data.DataError) as err:
            data.load_csv(path, group_column="group")
        assert "row 5, column 'y': non-numeric value 'oops'" in str(err.value)
        path.write_text("\ufeffgroup,x,y\na,1.0,2.0\nb,3.0,4.0\n", encoding="utf-8")
        ds = data.load_csv(path, group_column="group", standardize_features=False)
        assert ds.group_names == ("a", "b") and ds.feature_names == ("x", "y")
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_non_ascii_names_round_trip_as_utf8(self, tmp_path):
        ds = data.Dataset(features=np.array([[1.0], [2.0]]), groups=np.array([0, 1]),
                          group_names=("S\u00e3o Paulo", "K\u00f6ln"))
        path = tmp_path / "out.csv"
        data.save_csv(ds, path)
        assert "S\u00e3o Paulo".encode("utf-8") in path.read_bytes()
        back = data.load_csv(path, group_column="group", standardize_features=False)
        assert back.group_names == ds.group_names

    def test_round_trip(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "out.csv"
        data.save_csv(ds, path)
        back = data.load_csv(path, group_column="group", label_column="label",
                             standardize_features=False)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.groups, ds.groups)
        np.testing.assert_array_equal(back.labels, ds.labels)
        # a Dataset built without names has the ones save_csv writes
        assert back.feature_names == ds.feature_names == tuple(f"f{i}" for i in range(ds.dim))


def csv_reader_reference(text, label_columns):
    """Ids and distinct values of each label column, feature names and features: csv.reader plus a dict."""
    records = [r for r in csv.reader(io.StringIO(text, newline="")) if r]
    header, rows = records[0], records[1:]
    labels = []
    for name in label_columns:
        i, ids = header.index(name), {}
        labels.append(([ids.setdefault(row[i], len(ids)) for row in rows], tuple(ids)))
    f_idx = [i for i, name in enumerate(header) if name not in label_columns]
    features = np.array([[float(row[i]) for i in f_idx] for row in rows]).reshape(len(rows), len(f_idx))
    return labels, tuple(header[i] for i in f_idx), features


def write_mixed_csv(path, n_rows, seed):
    """Random CSV text with quoted commas and line breaks, ~10% blank lines and a byte-order mark."""
    rnd = random.Random(seed)
    labels = ["a", " b ", "1,5", 'say "hi"', "two\nlines", "\u00e9t\u00e9", "x\r\ny", "7"]
    numbers = [" 1.5 ", "1_0", "+.5", "-0.0", "1e-320", "\uff17", "3", "-2.25e3"]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["f0", "g", "f1", "y"])
    for _ in range(n_rows):
        if rnd.random() < 0.1:
            buf.write("\r\n")  # a blank line
        writer.writerow([rnd.choice(numbers), rnd.choice(labels), repr(rnd.uniform(-1e3, 1e3)),
                         rnd.choice(labels)])
    path.write_bytes(("\ufeff" + buf.getvalue()).encode("utf-8"))
    return buf.getvalue()


@pytest.fixture()
def chunk_rows(monkeypatch):
    monkeypatch.setattr(data, "CHUNK_ROWS", 4)


class TestChunkedReader:
    """``read_csv`` reads ``CHUNK_ROWS`` rows at a time; patched small, files span many chunks."""

    COLUMNS = [("g", "group"), ("y", "label")]

    @pytest.mark.parametrize("n_rows", [1, 3, 4, 5, 8, 9, 1001])
    def test_matches_a_whole_file_csv_reader_reference(self, tmp_path, chunk_rows, n_rows):
        path = tmp_path / "mixed.csv"
        text = write_mixed_csv(path, n_rows, seed=n_rows)
        want_labels, want_names, want_features = csv_reader_reference(text, ["g", "y"])
        labels, names, features = data.read_csv(path, self.COLUMNS, features=True)
        for (ids, values), (want_ids, want_values) in zip(labels, want_labels):
            assert ids.dtype == np.int64 and ids.tolist() == want_ids
            assert values == want_values
        assert names == want_names == ("f0", "f1")
        assert features.shape == (n_rows, 2) and features.tobytes() == want_features.tobytes()
        ds = data.load_csv(path, "g", "y", standardize_features=False)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.groups.tolist() == want_labels[0][0] and ds.label_names == want_labels[1][1]

    def test_labels_only_read_skips_the_other_columns(self, tmp_path, chunk_rows):
        path = tmp_path / "labels.csv"
        path.write_text("pred,note,g\n" + "".join(f"c{i % 3},not a number,g{i % 2}\n" for i in range(10)))
        (pred, pred_names), (groups, _) = data.read_csv(path, [("pred", "pred"), ("g", "group")])[0]
        assert pred.tolist() == [i % 3 for i in range(10)] and pred_names == ("c0", "c1", "c2")
        assert groups.tolist() == [i % 2 for i in range(10)]
        assert data.read_csv(path, [("g", "group")])[1:] == (None, None)

    # chunk 1 holds data rows 0-3 on lines 2, 4, 5 and 6 (line 3 is blank);
    # chunk 2 starts with a good row on line 7 and has its fault on line 8
    HEAD = "x,g,y\n1,a,p\n\n2,b,q\n3,a,p\n4,b,q\n5,a,p\n"

    @pytest.mark.parametrize("row,fragment", [
        ("6,b\n", "row 8 has 2 cells, header has 3"),
        ("6,,q\n", "row 8 is missing its group value in column 'g'"),
        ("6,b, \n", "row 8 is missing its label value in column 'y'"),
        ("zz,b,q\n", "row 8, column 'x': non-numeric value 'zz'"),
        ("inf,b,q\n", "row 8, column 'x': non-finite value 'inf'"),
    ])
    def test_fault_in_the_second_chunk_names_its_file_line(self, tmp_path, chunk_rows, row, fragment):
        path = tmp_path / "data.csv"
        path.write_text(self.HEAD + row + "7,a,p\n")
        with pytest.raises(data.DataError) as err:
            data.load_csv(path, group_column="g", label_column="y")
        assert f"{path}: {fragment}" == str(err.value)

    @pytest.mark.parametrize("chunk1,chunk2,fragment", [
        # a fault in an earlier chunk wins over any kind of fault in a later one
        ("3,a,p\n4,b,q\nnan,a,p\n", "6,b\n", "row 5, column 'x': non-finite value 'nan'"),
        ("3,a,p\n4,,q\n5,a,p\n", "6,b\n", "row 4 is missing its group value"),
        # within one chunk the checks keep their order: cell counts come first
        ("3,a,p\nnan,b,q\n5,a\n", "6,b,q\n", "row 5 has 2 cells, header has 3"),
    ])
    def test_the_earliest_chunk_with_a_fault_is_reported(self, tmp_path, chunk_rows, chunk1, chunk2, fragment):
        path = tmp_path / "data.csv"
        path.write_text("x,g,y\n1,a,p\n" + chunk1 + chunk2)
        with pytest.raises(data.DataError) as err:
            data.load_csv(path, group_column="g", label_column="y")
        assert fragment in str(err.value)

    def test_a_read_runs_no_garbage_collection(self, tmp_path):
        """At the default chunk size no chunk reaches the collector's young-generation threshold."""
        path = tmp_path / "labels.csv"
        path.write_text("pred,g\n" + "".join(f"c{i % 7},g{i % 3}\n" for i in range(20_000)))
        collections = []
        gc.collect()
        gc.callbacks.append(lambda phase, info: collections.append(info["generation"]))
        try:
            data.read_csv(path, [("pred", "pred"), ("g", "group")])
        finally:
            gc.callbacks.pop()
        assert collections == []

    def test_a_read_holds_each_id_column_once(self, tmp_path):
        """Each id column grows in one buffer, so a read's traced peak is little more than the ids it returns."""
        path = tmp_path / "labels.csv"
        path.write_text("a,b,c\n" + "".join(f"c{i % 7},g{i % 3},l{i % 5}\n" for i in range(100_000)))
        result = []
        peak = traced_peak(lambda: result.append(data.read_csv(path, [("a", "pred"), ("b", "group"), ("c", "label")])))
        returned = sum(ids.nbytes for ids, _ in result[0][0])
        assert returned == 3 * 8 * 100_000
        assert peak <= 1.25 * returned, f"traced peak {peak} bytes for {returned} bytes of ids"


class TestSynthetic:
    def spec(self, **kw):
        base = dict(classes=3, groups=2, per_cell_count=50, class_sep=8.0,
                    group_shift=6.0, dim=16, noise_sd=1.0, seed=0)
        base.update(kw)
        return data.SyntheticSpec(**base)

    def test_shapes_and_row_order(self):
        ds = data.generate_synthetic(self.spec())
        assert ds.n == 3 * 2 * 50 and ds.dim == 16
        # class-major, group-minor blocks of per_cell_count rows
        np.testing.assert_array_equal(ds.labels, np.repeat([0, 0, 1, 1, 2, 2], 50))
        np.testing.assert_array_equal(ds.groups, np.tile(np.repeat([0, 1], 50), 3))

    def test_deterministic_per_seed(self):
        a = data.generate_synthetic(self.spec())
        b = data.generate_synthetic(self.spec())
        np.testing.assert_array_equal(a.features, b.features)
        c = data.generate_synthetic(self.spec(seed=1))
        assert not np.array_equal(a.features, c.features)

    def test_class_mean_geometry(self):
        """Empirical class means sit pairwise class_sep apart (noise-limited)."""
        ds = data.generate_synthetic(self.spec(group_shift=0.0, noise_sd=0.05,
                                               per_cell_count=400))
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                np.testing.assert_allclose(
                    np.linalg.norm(means[i] - means[j]), 8.0, atol=0.02)

    def test_group_shift_direction_is_off_class_subspace(self):
        ds = data.generate_synthetic(self.spec(noise_sd=0.05, per_cell_count=400))
        delta = (ds.features[ds.groups == 1].mean(axis=0)
                 - ds.features[ds.groups == 0].mean(axis=0))
        np.testing.assert_allclose(np.linalg.norm(delta), 6.0, atol=0.02)
        # class means live in the first classes-1 coordinates only
        np.testing.assert_allclose(delta[: 2] , 0.0, atol=0.02)
        np.testing.assert_allclose(abs(delta[2]), 6.0, atol=0.02)

    def test_zero_shift_means_coincide(self):
        ds = data.generate_synthetic(self.spec(group_shift=0.0, per_cell_count=500))
        for c in range(3):
            m0 = ds.features[(ds.labels == c) & (ds.groups == 0)].mean(axis=0)
            m1 = ds.features[(ds.labels == c) & (ds.groups == 1)].mean(axis=0)
            # fixed seed: expected sampling error is sqrt(16 * 2/500) ~ 0.25
            assert np.linalg.norm(m0 - m1) < 0.4

    def test_easy_mixture_is_kmeans_recoverable(self):
        ds = data.generate_synthetic(self.spec(class_sep=10.0, noise_sd=0.5,
                                               group_shift=0.0, per_cell_count=60))
        _, pred = clustering.kmeans(ds.features, k=3, seed=0)
        assert metrics.accuracy(metrics.contingency(pred, ds.labels)) >= 0.99

    def test_dim_too_small_rejected(self):
        with pytest.raises(data.DataError):
            self.spec(classes=5, groups=2, dim=4)
        # 5 classes, 1 group needs only 4 dims
        data.generate_synthetic(self.spec(classes=5, groups=1, dim=4))

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"classes": 0}, "classes must be >= 1, got 0"),
            ({"groups": 0}, "groups must be >= 1, got 0"),
            ({"per_cell_count": -2}, "per_cell_count must be >= 1, got -2"),
            ({"noise_sd": -1.0}, "noise_sd must be >= 0, got -1.0"),
            ({"class_sep": 0.0}, "class_sep must be > 0, got 0.0"),
        ],
    )
    def test_range_errors_name_the_field_and_value(self, change, message):
        with pytest.raises(data.DataError) as err:
            self.spec(**change)
        assert str(err.value) == message

    def test_single_class_single_group(self):
        ds = data.generate_synthetic(self.spec(classes=1, groups=1, dim=3))
        assert ds.n == 50 and np.all(ds.labels == 0)


class TestMinibatches:
    def test_partitions_every_index_once(self):
        ds = tiny_dataset()
        batches = data.minibatches(ds, batch_size=3, epoch_seed=(0, 1, 2))
        assert [len(b) for b in batches] == [3, 1]
        assert sorted(np.concatenate(batches).tolist()) == [0, 1, 2, 3]

    def test_deterministic_per_seed_and_varies_across(self):
        ds = data.generate_synthetic(data.SyntheticSpec(
            classes=2, groups=2, per_cell_count=30, class_sep=4.0,
            group_shift=1.0, dim=4, noise_sd=1.0, seed=0))
        a = data.minibatches(ds, 16, epoch_seed=(7, 0))
        b = data.minibatches(ds, 16, epoch_seed=(7, 0))
        c = data.minibatches(ds, 16, epoch_seed=(7, 1))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_exact_multiple_has_no_runt(self):
        ds = tiny_dataset()
        assert [len(b) for b in data.minibatches(ds, 2, 0)] == [2, 2]

    def test_bad_batch_size(self):
        for batch_size, message in ((0, "must be >= 1, got 0"), (True, "must be an integer, got True"),
                                    (2.0, "must be an integer, got 2.0"), ("2", "must be an integer, got '2'")):
            with pytest.raises(data.DataError) as err:
                data.minibatches(tiny_dataset(), batch_size, 0)
            assert str(err.value) == f"batch_size {message}"


# each seeded function, called with one seed, and the error and parameter name it refuses a seed with
SEEDED = {
    "kmeans": (lambda seed: clustering.kmeans(np.arange(18.0).reshape(9, 2) ** 1.5, 2, seed=seed),
               clustering.ClusteringError, "seed"),
    "init_params": (lambda seed: model.init_params((3, 2), 2, seed).arrays,
                    model.ModelError, "seed"),
    "minibatches": (lambda seed: data.minibatches(tiny_dataset(), 3, seed),
                    data.DataError, "epoch_seed"),
}


def _flat(result):
    """The arrays a seeded call returns, in order."""
    values = result.values() if isinstance(result, dict) else result
    return [np.asarray(v) for v in values]


class TestSeedRule:
    @pytest.mark.parametrize("name", SEEDED)
    @pytest.mark.parametrize("seed", [None, 2.5, -1, "a", (1, -2), (), [], True, (1, False), np.int64(-3),
                                      ((1, 2), 3)])
    def test_a_seed_that_fixes_no_stream_is_refused_by_name_and_value(self, name, seed):
        call, error, param = SEEDED[name]
        with pytest.raises(error) as err:
            call(seed)
        assert str(err.value) == (f"{param} must be an integer >= 0 or a non-empty tuple or list of them, "
                                  f"got {seed!r}")

    @pytest.mark.parametrize("name", SEEDED)
    def test_numpy_integers_and_lists_seed_as_their_python_forms(self, name):
        call = SEEDED[name][0]
        for seed, same in ((np.int64(3), 3), ([1, np.uint8(2)], (1, 2))):
            for a, b in zip(_flat(call(seed)), _flat(call(same)), strict=True):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("call,error,message", [
    (lambda: data.SyntheticSpec(classes=np.float64(2.5), groups=2, per_cell_count=5, class_sep=1.0,
                                group_shift=1.0, dim=4, noise_sd=1.0, seed=0),
     data.DataError, "classes must be an integer, got 2.5"),
    (lambda: clustering.kmeans(np.arange(18.0).reshape(9, 2), np.float64(2.5), seed=0),
     clustering.ClusteringError, "k must be an integer, got 2.5"),
    (lambda: clustering.kmeans(np.arange(18.0).reshape(9, 2), "2", seed=0),
     clustering.ClusteringError, "k must be an integer, got '2'"),
], ids=["SyntheticSpec-float64", "kmeans-float64", "kmeans-str"])
def test_a_bad_count_prints_a_number_as_its_value(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


# each function that takes a matrix, called on a (3, 2) one, with its error, the name it gives
# the matrix and the shape it wants
GOOD_MATRIX = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
MATRIX_TAKERS = {
    "Dataset": (lambda m: data.Dataset(features=m, groups=np.array([0, 1, 0])), data.DataError,
                "features", "(n, d)"),
    "kmeans": (lambda m: clustering.kmeans(m, 2, seed=0), clustering.ClusteringError, "features", "(n, d)"),
    "kmeans-init": (lambda m: clustering.kmeans(np.arange(18.0).reshape(9, 2) ** 1.5, 3, seed=0, init=m),
                    clustering.ClusteringError, "init", "(3, 2)"),
    "encode": (lambda m: model.encode(model.init_params((2, 2), 1, 0), m), model.ModelError, "features", "(n, 2)"),
    "soft_assign": (lambda m: clustering.soft_assign(m, np.eye(2), 0.5), clustering.ClusteringError,
                    "latents", "(n, 2)"),
    "group_cluster_mi": (lambda m: objectives.group_cluster_mi(m, np.array([0, 1, 0]), 2), objectives.ObjectiveError,
                         "assignment", "(n, d)"),
}


class TestArrayRule:
    """One rule, ``data.check_array``, and its messages for every function that takes a matrix."""

    @pytest.mark.parametrize("taker", MATRIX_TAKERS)
    def test_a_string_matrix_is_refused_by_name_and_dtype(self, taker):
        call, error, name, _ = MATRIX_TAKERS[taker]
        with pytest.raises(error) as err:
            call(np.array([["a", "b"]] * 3))
        assert str(err.value) == f"{name} must be a 2-d numeric matrix, got ndarray of dtype <U1"

    @pytest.mark.parametrize("taker", MATRIX_TAKERS)
    def test_a_non_finite_cell_is_named_by_row_column_and_value(self, taker):
        call, error, name, _ = MATRIX_TAKERS[taker]
        bad = GOOD_MATRIX.copy()
        bad[2, 1] = np.nan
        with pytest.raises(error) as err:
            call(bad)
        assert str(err.value) == f"{name} must be finite: row 2, column 1 holds nan"

    @pytest.mark.parametrize("taker", MATRIX_TAKERS)
    def test_a_vector_is_refused_with_the_wanted_shape(self, taker):
        call, error, name, wanted = MATRIX_TAKERS[taker]
        with pytest.raises(error) as err:
            call(GOOD_MATRIX.ravel())
        assert str(err.value) == f"{name} must be a non-empty {wanted} matrix, got shape (6,)"

    @pytest.mark.parametrize("value,shape,rules,message", [
        ([[1.0, 2.0], [3.0]], (None, None), {}, "m must be a 2-d numeric matrix, got a ragged list"),
        ([[1.0, None]], (None, None), {}, "m must be a 2-d numeric matrix, got list of dtype object"),
        (np.array([[1 + 1j]]), (None, None), {}, "m must be a 2-d numeric matrix, got ndarray of dtype complex128"),
        (2.0, (None, None), {}, "m must be a non-empty (n, d) matrix, got shape ()"),
        (np.zeros((0, 3)), (None, None), {}, "m must be a non-empty (n, d) matrix, got shape (0, 3)"),
        (np.zeros((3, 0)), (None, None), {}, "m must be a non-empty (n, d) matrix, got shape (3, 0)"),
        ([[0.0, -np.inf], [np.nan, 0.0]], (None, None), {}, "m must be finite: row 0, column 1 holds -inf"),
        ([0, 1, [2]], (None,), {"integer": True}, "m must be a 1-d integer array, got a ragged list"),
        ([0.0, 1.0], (None,), {"integer": True}, "m must be a 1-d integer array, got list of dtype float64"),
        ([True, False], (None,), {"integer": True}, "m must be a 1-d integer array, got list of dtype bool"),
        ([0, 1], (3,), {"integer": True}, "m must be a non-empty (3,) array, got shape (2,)"),
        ([], (None,), {}, "m must be a non-empty (n,) array, got shape (0,)"),
        ([0, 2, -1, -2], (None,), {"integer": True, "least": 0}, "m must be >= 0: entry 2 holds -1"),
        ([[1, 0], [0, 0]], (None, None), {"above": 0}, "m must be > 0: row 0, column 1 holds 0.0"),
    ], ids=["ragged", "none", "complex", "scalar", "no-rows", "no-columns", "first-bad-cell", "ragged-ids",
            "float-ids", "bool-ids", "short-ids", "empty", "negative-id", "not-above"])
    def test_check_array_names_what_is_wrong(self, value, shape, rules, message):
        with pytest.raises(data.DataError) as err:
            data.check_array(value, "m", data.DataError, shape, **rules)
        assert str(err.value) == message

    def test_check_array_copies_no_array_of_its_dtype_and_converts_the_rest(self):
        m, ids = np.ones((2, 3)), np.arange(3)
        assert data.check_array(m, "m", data.DataError, (2, 3)) is m
        assert data.check_array(ids, "ids", data.DataError, (3,), integer=True, least=0) is ids
        for value in ([[1, 0], [0, 1]], np.eye(2, dtype=np.int8), np.eye(2, dtype=bool), np.eye(2, dtype=np.float32)):
            got = data.check_array(value, "m", data.DataError, (None, None))
            assert got.dtype == np.float64 and got.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        for value in ([2, 0], np.array([2, 0], dtype=np.uint8), np.array([2, 0], dtype=np.int32)):
            got = data.check_array(value, "ids", data.DataError, (None,), integer=True)
            assert got.dtype == np.int64 and got.tolist() == [2, 0]
