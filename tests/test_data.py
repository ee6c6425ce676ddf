import hashlib
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import load_csv_rows, save_csv_rows
from evfuse import data
from evfuse.cli import main
from evfuse.data import (
    _ROW_BLOCK,
    CsvFormatError,
    CsvSchema,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    standardize,
)


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(dims=(0, 3))
        with pytest.raises(ValueError):
            SyntheticSpec(separation=(-1.0, 2.0))
        with pytest.raises(ValueError):
            SyntheticSpec(n_per_class=10, split_sizes=(20, 20, 20))
        # (-5, 10, 10) of 60 rows sliced train 55 rows, val none, and test
        # the last 10 of train's own rows
        for sizes in [(-5, 10, 10), (10, -1, 5), (10, 5, -1)]:
            with pytest.raises(ValueError, match="split_sizes must be >= 0"):
                SyntheticSpec(n_per_class=20, split_sizes=sizes)
        with pytest.raises(ValueError, match=r"split_sizes must hold 3 sizes \(train, val, test\)"):
            SyntheticSpec(split_sizes=(10, 10))
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            SyntheticSpec(seed=-1)

    @pytest.mark.parametrize("dims, sep", [((4, 4, 4), (3.0, 3.0)), ((4,), (3.0, 3.0))])
    def test_dims_and_separation_must_match(self, dims, sep):
        with pytest.raises(ValueError, match="same length"):
            SyntheticSpec(dims=dims, separation=sep)

    def test_at_least_one_modality(self):
        with pytest.raises(ValueError, match="at least one modality"):
            SyntheticSpec(dims=(), separation=())

    def test_split_smaller_than_total_allowed(self):
        spec = SyntheticSpec(n_per_class=100, split_sizes=(100, 50, 50))
        tr, va, te = generate_synthetic(spec)
        assert (len(tr), len(va), len(te)) == (100, 50, 50)


class TestGeneration:
    def test_deterministic(self):
        spec = SyntheticSpec(seed=7)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.labels, db.labels)
            for xa, xb in zip(da.features, db.features):
                np.testing.assert_array_equal(xa, xb)

    def test_default_split_ratios(self):
        tr, va, te = generate_synthetic(SyntheticSpec(n_classes=2, n_per_class=100))
        assert (len(tr), len(va), len(te)) == (140, 30, 30)

    def test_zero_separation_centers_classes_together(self):
        tr, _, _ = generate_synthetic(
            SyntheticSpec(separation=(0.0, 0.0), n_per_class=300, seed=0)
        )
        for x in tr.features:
            # all classes drawn from the same blob: grand mean near zero
            assert np.abs(x.mean(axis=0)).max() < 0.2

    def test_separation_controls_informativeness(self):
        tr, _, _ = generate_synthetic(
            SyntheticSpec(separation=(0.0, 5.0), n_per_class=200, seed=3)
        )
        # nearest-class-mean accuracy per modality
        accs = []
        for x in tr.features:
            means = np.stack(
                [x[tr.labels == k].mean(axis=0) for k in range(3)]
            )
            d = ((x[:, None, :] - means[None]) ** 2).sum(axis=-1)
            accs.append(np.mean(np.argmin(d, axis=1) == tr.labels))
        assert accs[0] < 0.6 and accs[1] > 0.95

    def test_row_counts_agree(self):
        # modalities are numbered from 1, as in every other message
        with pytest.raises(ValueError, match="^modality 2 has 4 rows but 3 labels$"):
            Dataset([np.zeros((3, 2)), np.zeros((4, 2))], np.zeros(3, dtype=int))


class TestStandardize:
    def test_train_stats_applied(self):
        tr_raw, va_raw, te_raw = generate_synthetic(SyntheticSpec(seed=1))
        (tr, va, te), stats = standardize(tr_raw, va_raw, te_raw)
        for x in tr.features:
            assert np.abs(x.mean(axis=0)).max() < 1e-10
            np.testing.assert_allclose(x.std(axis=0), 1.0, rtol=1e-12)
        # val/test use train statistics, so they are not exactly z-scored
        for x_std, x_raw, mu, sd in zip(va.features, va_raw.features, stats.mean, stats.std):
            np.testing.assert_allclose(x_std, (x_raw - mu) / sd)

    def test_constant_feature_guard(self):
        x1 = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        ds = Dataset([x1, np.random.default_rng(0).normal(size=(10, 1))],
                     np.zeros(10, dtype=int))
        (out,), stats = standardize(ds)
        np.testing.assert_allclose(out.features[0][:, 0], 0.0)
        assert stats.std[0][0] == 1.0

    def test_two_sample_hand_case(self):
        tr = Dataset([np.array([[0.0], [2.0]]), np.array([[1.0], [1.0]])],
                     np.array([0, 1]))
        va = Dataset([np.array([[4.0]]), np.array([[2.0]])], np.array([0]))
        (tr_s, va_s), _ = standardize(tr, va)
        assert va_s.features[0][0, 0] == pytest.approx((4.0 - 1.0) / 1.0)
        assert va_s.features[1][0, 0] == pytest.approx(1.0)  # std forced to 1

    @pytest.mark.parametrize("widths, message", [
        ((2, 3, 1), "^modality 3 has no statistics: expected 2 modalities, got 3$"),
        ((2,), "^modality 2 is missing: expected 2 modalities, got 1$"),
        ((2, 4), r"^modality 2 has shape \(4, 4\), expected \(N, 3\)$"),
    ], ids=["surplus", "missing", "width"])
    def test_other_split_must_match_the_train_modalities(self, widths, message):
        # a surplus modality was dropped, a missing one returned one block fewer,
        # and a width mismatch surfaced as numpy's broadcast error
        train = Dataset([np.arange(10.0).reshape(5, 2), np.ones((5, 3))], np.zeros(5, dtype=int))
        other = Dataset([np.zeros((4, d)) for d in widths], np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match=message):
            standardize(train, other)

    def test_empty_train_rejected(self):
        ds = Dataset([np.zeros((0, 2)), np.zeros((0, 2))], np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            standardize(ds)


class TestCsv:
    def test_round_trip(self, tmp_path):
        tr, _, _ = generate_synthetic(SyntheticSpec(seed=2, n_per_class=20))
        path = tmp_path / "ds.csv"
        save_csv(tr, path)
        back = load_csv(path, CsvSchema((4, 4), 3))
        np.testing.assert_array_equal(back.labels, tr.labels)
        for a, b in zip(back.features, tr.features):
            np.testing.assert_array_equal(a, b)  # repr round trip is exact

    def test_three_modality_round_trip(self, tmp_path):
        spec = SyntheticSpec(seed=3, n_per_class=10, dims=(2, 3, 4), separation=(1.0, 2.0, 3.0))
        tr, _, _ = generate_synthetic(spec)
        path = tmp_path / "ds.csv"
        save_csv(tr, path)
        back = load_csv(path, CsvSchema((2, 3, 4), 3))
        assert [x.shape[1] for x in back.features] == [2, 3, 4]
        np.testing.assert_array_equal(back.labels, tr.labels)
        for a, b in zip(back.features, tr.features, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_comment_line_skipped(self, tmp_path):
        tr, _, _ = generate_synthetic(SyntheticSpec(seed=2, n_per_class=5))
        path = tmp_path / "ds.csv"
        save_csv(tr, path, comment="config_hash=abc")
        back = load_csv(path, CsvSchema((4, 4), 3))
        assert len(back) == len(tr)

    def test_small_well_formed_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "label,m1_0,m2_0\n0,1.5,2.5\n1,-1.0,0.0\n0,0.25,3.0\n"
        )
        ds = load_csv(path, CsvSchema((1, 1), 2))
        assert len(ds) == 3
        assert ds.features[0][1, 0] == -1.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,x,y\n0,1,2\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(path, CsvSchema((1, 1), 2))

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,m1_0,m2_0\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path, CsvSchema((1, 1), 2))

    def test_non_numeric_cell_names_column(self, tmp_path):
        path = tmp_path / "cell.csv"
        path.write_text("label,m1_0,m2_0\n0,oops,2.0\n")
        with pytest.raises(CsvFormatError, match="column 2"):
            load_csv(path, CsvSchema((1, 1), 2))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "nan.csv"
        path.write_text(f"# provenance\nlabel,m1_0,m2_0\n0,1.0,2.0\n1,3.0,{cell}\n")
        with pytest.raises(CsvFormatError, match=f"row 4, column 3: non-finite cell '{cell}'"):
            load_csv(path, CsvSchema((1, 1), 2))

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("label,m1_0,m2_0\n5,1.0,2.0\n")
        with pytest.raises(CsvFormatError, match="label 5"):
            load_csv(path, CsvSchema((1, 1), 2))

    def test_sidecar_round_trip(self, tmp_path):
        # generate-data writes the sidecar; the splits must load back under the schema it names
        out = tmp_path / "d"
        args = ["generate-data", "--per-class", "200", "--seed", "9", "--split", "400,100,100"]
        assert main(args + ["--out", str(out)]) == 0
        doc = json.loads((out / "dataset.json").read_text())
        assert len(doc["config_hash"]) == 16
        assert doc["n_classes"] == 3
        assert doc["dims"] == [4, 4]
        assert doc["split_sizes"] == [400, 100, 100]
        schema = CsvSchema(tuple(doc["dims"]), doc["n_classes"])
        for name, size in zip(("train", "val", "test"), doc["split_sizes"]):
            ds = load_csv(out / f"{name}.csv", schema)
            assert len(ds.labels) == size
            assert [f.shape[1] for f in ds.features] == doc["dims"]

    @pytest.mark.parametrize("sep", [float("nan"), float("inf")])
    def test_spec_rejects_non_finite_separation(self, sep):
        with pytest.raises(ValueError, match="separation must be finite"):
            SyntheticSpec(separation=(sep, 3.0))


class TestCheckJson:
    @pytest.mark.parametrize(
        "saved, message",
        [([["1.5", 2.0]], 'x[0][0] must be a number, got "1.5"'), ([[1.0, True]], "x[0][1] must be a number, got true"),
         ([[None, False]], "x[0][0] must be a number, got null")],
        ids=["string", "bool", "null"],
    )
    def test_only_numbers_pass(self, saved, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            data.check_json(saved, [[float]], "x")

    @pytest.mark.parametrize(
        "doc, shape, message",
        [
            (True, int, "doc must be an integer, got true"),
            (2.0, int, "doc must be an integer, got 2.0"),
            ("a", float, 'doc must be a number, got "a"'),
            (3, str, "doc must be a string, got 3"),
            ({"a": [1]}, [int], 'doc must be a list, got {"a": [1]}'),
            ([1, 2], {"a": int}, "doc must be an object, got [1, 2]"),
            ({"a": {"b": [0, "c"]}}, {"a": {"b": [int]}}, 'doc a.b[1] must be an integer, got "c"'),
            ({"a": [{"c": 1}, {}]}, {"a": [{"c": int}]}, "doc a[1].c is missing"),
            (list(range(100)), str, "doc must be a string, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1 ..."),
        ],
        ids=["bool-int", "float-int", "str-number", "int-str", "object-list", "list-object",
             "nested", "missing", "long-value"],
    )
    def test_first_mismatch_names_its_path(self, doc, shape, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            data.check_json(doc, shape, "doc")

    def test_matching_documents_pass(self):
        shape = {"n": int, "x": [[float]], "s": str}
        data.check_json({"n": 1, "x": [[1, 2.5], []], "s": "", "extra": None}, shape, "doc")
        data.check_json([], [{"a": int}], "doc")


class TestSavedArray:
    def test_numbers_load_as_floats(self):
        a = data.saved_array([[1, 2.5], [0.5, -3]], (2, 2), "x")
        assert a.dtype == np.float64 and a.tolist() == [[1.0, 2.5], [0.5, -3.0]]
        with pytest.raises(ValueError, match="^x must be finite$"):
            data.saved_array([[1, None]], (1, 2), "x")


# Edge floats for the writer: signed zero, the smallest subnormal, the switch
# of repr to exponent notation on either side, and the largest double.
EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 0.0001, 9999999999999998.0, 1e16, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, -2.5]


class TestCsvMatchesPerRowOracle:
    """`save_csv` and `load_csv` against the per-row writer and reader in `csv_oracle`."""

    @pytest.mark.parametrize("n", [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1])
    @pytest.mark.parametrize("comment", [None, "config_hash=abc"])
    def test_writer_bytes_match(self, tmp_path, n, comment):
        rng = np.random.default_rng(n)
        dims = (2, 3, 4)
        flat = rng.normal(size=n * sum(dims)) * 10.0 ** rng.integers(-8, 9, n * sum(dims))
        flat[::3] = np.resize(EDGE_FLOATS, len(flat[::3]))
        x = flat.reshape(n, sum(dims))
        feats = np.split(x, np.cumsum(dims)[:-1], axis=1)
        ds = Dataset(feats, rng.integers(0, 3, n))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_csv(ds, new, comment=comment)
        save_csv_rows(ds, old, comment=comment)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_writer_bytes_match_for_other_feature_dtypes(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        ds = Dataset([(rng.normal(size=(9, d)) * 4).astype(dtype) for d in (2, 3)], rng.integers(0, 2, 9))
        save_csv(ds, tmp_path / "new.csv")
        save_csv_rows(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @staticmethod
    def _outcome(reader, path, schema):
        """The parsed arrays, or the CsvFormatError message."""
        try:
            ds = reader(path, schema)
        except CsvFormatError as e:
            return str(e)
        return ds.labels, ds.features

    def _assert_readers_agree(self, path, schema):
        new = self._outcome(load_csv, path, schema)
        old = self._outcome(load_csv_rows, path, schema)
        if isinstance(old, str):
            assert new == old
            return
        assert not isinstance(new, str), new
        assert new[0].dtype == old[0].dtype == np.int64
        np.testing.assert_array_equal(new[0], old[0])
        assert len(new[1]) == len(old[1])
        for a, b in zip(new[1], old[1]):
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    # faults: (name, column, cell); column "label" or "value", cell None for a row-level fault
    FAULTS = [
        ("ragged short", None, None),
        ("ragged long", None, None),
        ("blank line", None, None),
        ("comment in body", None, None),
        ("non-integer label", "label", "1.0"),
        ("non-integer label", "label", "x"),
        ("non-integer label", "label", ""),
        ("non-integer label", "label", "1\x00"),
        ("label out of range", "label", "-1"),
        ("label out of range", "label", "{k}"),
        ("huge label", "label", "99999999999999999999"),
        ("huge label", "label", "-99999999999999999999"),
        ("non-numeric cell", "value", "oops"),
        ("non-numeric cell", "value", ""),
        ("non-numeric cell", "value", "0x1p3"),
        ("non-numeric cell", "value", "1__0"),
        ("non-numeric cell", "value", "1.5\x00"),
        ("non-finite cell", "value", "nan"),
        ("non-finite cell", "value", "+nan"),
        ("non-finite cell", "value", "inf"),
        ("non-finite cell", "value", "-Infinity"),
        ("underscore", "value", "1_0"),
        ("underscore", "label", "0_1"),
        ("whitespace", "value", " 1.5 "),
        ("whitespace", "value", "\t-2e3"),
        ("whitespace", "label", " 1 "),
        ("other digits", "label", "\u0661"),
        ("other digits", "value", "\u0661\u0662"),
    ]

    @pytest.mark.parametrize("fault", [None] + FAULTS, ids=lambda f: f[0] if f else "well-formed")
    @settings(max_examples=6, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        n_classes=st.integers(2, 4),
        n_rows=st.sampled_from([0, 1, 2, 5, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3]),
        n_comments=st.integers(0, 2),
        newline=st.sampled_from(["\n", "\r\n"]),
        final_newline=st.booleans(),
        where=st.sampled_from(["first", "boundary", "last"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reader_matches_oracle(self, tmp_path_factory, fault, dims, n_classes, n_rows, n_comments,
                                   newline, final_newline, where, seed):
        rng = np.random.default_rng(seed)
        n_vals = sum(dims)
        values = rng.normal(size=(n_rows, n_vals)) * 10.0 ** rng.integers(-5, 6, (n_rows, n_vals))
        rows = [
            [str(lab)] + list(map(repr, row))
            for lab, row in zip(rng.integers(0, n_classes, n_rows).tolist(), values.tolist())
        ]
        lines = [",".join(cells) for cells in rows]
        if fault is not None and n_rows:
            r = {"first": 0, "boundary": min(_ROW_BLOCK, n_rows - 1), "last": n_rows - 1}[where]
            kind, column, cell = fault
            if kind == "ragged short":
                lines[r] = ",".join(rows[r][:-1])
            elif kind == "ragged long":
                lines[r] += ",0.5"
            elif kind == "blank line":
                lines[r] = ""
            elif kind == "comment in body":
                lines[r] = "# not a leading comment"
            else:
                c = 0 if column == "label" else int(rng.integers(1, n_vals + 1))
                rows[r][c] = cell.format(k=n_classes)
                lines[r] = ",".join(rows[r])
        header = ",".join(["label"] + [f"m{m}_{j}" for m, d in enumerate(dims, 1) for j in range(d)])
        text = newline.join([f"# comment {i}" for i in range(n_comments)] + [header] + lines)
        path = tmp_path_factory.mktemp("csv") / "ds.csv"
        path.write_bytes((text + (newline if final_newline else "")).encode("utf-8"))
        self._assert_readers_agree(path, CsvSchema(tuple(dims), n_classes))

    @pytest.mark.parametrize(
        "body",
        [
            # a parse error anywhere wins over an earlier non-finite cell
            ["0,nan,1.0"] + ["1,2.0,3.0"] * _ROW_BLOCK + ["1,oops,3.0"],
            # in one block, the first bad row wins whatever its kind
            ["0,1.0,2.0", "7,1.0,2.0", "0,1.0"],
            ["0,1.0,2.0", "0,1.0", "x,1.0,2.0"],
            ["0,1.0,inf", "0,-inf,2.0"],
        ],
    )
    def test_first_fault_reported(self, tmp_path, body):
        path = tmp_path / "ds.csv"
        path.write_text("label,m1_0,m2_0\n" + "\n".join(body) + "\n")
        self._assert_readers_agree(path, CsvSchema((1, 1), 2))


def _bits(ds: Dataset) -> list[tuple]:
    """Each array's dtype, shape and bytes: equal lists mean bit-equal datasets, -0.0 included."""
    return [(a.dtype, a.shape, a.tobytes()) for a in [ds.labels, *ds.features]]


def _copy(path):
    return path.with_name(path.name + ".npz")


def _load_via_copy(path, schema):
    """`load_csv` with the copy in place, asserting the copy is the one used."""
    assert data._read_copy(path, path.read_bytes(), schema) is not None
    return load_csv(path, schema)


def _dataset(dims, n, seed=0, n_classes=3, values=None):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, sum(dims))) if values is None else np.resize(values, (n, sum(dims)))
    return Dataset(np.split(x, np.cumsum(dims)[:-1], axis=1), rng.integers(0, n_classes, n))


class TestBinaryCopy:
    """The `<name>.csv.npz` copy `save_csv` writes beside a CSV and `load_csv` reads."""

    # the largest subnormal, the smallest normal, and +-1e308 besides EDGE_FLOATS
    EDGES = EDGE_FLOATS + [2.225073858507201e-308, 2.2250738585072014e-308, 1e308, -1e308]

    @pytest.mark.parametrize(
        "ds",
        [
            _dataset((4, 4), 50),
            _dataset((3,), 37, seed=1),
            _dataset((2, 3, 4), _ROW_BLOCK + 1, seed=2),
            _dataset((2, 3), 40, seed=3, values=EDGES),
            _dataset((1, 2), 30, seed=4, values=-0.0),
            _dataset((4, 4), 0),
            _dataset((2,), 0),
            Dataset([np.arange(12).reshape(6, 2), -np.arange(6).reshape(6, 1)], np.arange(6) % 3),
        ],
        ids=["M2", "M1", "M3-two-blocks", "edge-floats", "negative-zero", "empty-M2", "empty-M1",
             "integer-valued"],
    )
    @pytest.mark.parametrize("comment", [None, "config_hash=abc"])
    def test_copy_loads_what_parsing_returns(self, tmp_path, ds, comment):
        path = tmp_path / "ds.csv"
        save_csv(ds, path, comment=comment)
        schema = CsvSchema(tuple(x.shape[1] for x in ds.features), 3)
        via_copy = _load_via_copy(path, schema)
        _copy(path).unlink()
        parsed = load_csv(path, schema)
        oracle = load_csv_rows(path, schema)
        source = Dataset([x.astype(float) for x in ds.features], ds.labels.astype(np.int64))
        assert _bits(via_copy) == _bits(parsed) == _bits(oracle) == _bits(source)
        assert [x.flags.writeable for x in via_copy.features] == [True] * len(ds.features)

    def test_header_checked_before_the_copy(self, tmp_path):
        # the copy's 8 columns fit a 3 + 5 schema too; the header must still refuse it
        path = tmp_path / "ds.csv"
        save_csv(_dataset((4, 4), 20), path)
        assert data._read_copy(path, path.read_bytes(), CsvSchema((3, 5), 3)) is not None
        with pytest.raises(CsvFormatError, match="bad header"):
            load_csv(path, CsvSchema((3, 5), 3))

    CSV_EDITS = {
        "edited cell": lambda text: text[: text.rindex(",")] + ",0.5\n",
        "appended row": lambda text: text + "0,1.0,2.0,3.0,4.0\n",
        "appended bad row": lambda text: text + "0,not-a-number,2.0,3.0,4.0\n",
        "changed comment": lambda text: text.replace("config_hash=abc", "config_hash=abd"),
        "CRLF": lambda text: text.replace("\n", "\r\n"),
    }

    @pytest.mark.parametrize("edit", CSV_EDITS, ids=str)
    def test_edited_csv_ignores_the_copy(self, tmp_path, edit):
        path = tmp_path / "ds.csv"
        schema = CsvSchema((2, 2), 3)
        save_csv(_dataset((2, 2), 30), path, comment="config_hash=abc")
        path.write_bytes(self.CSV_EDITS[edit](path.read_text()).encode())
        assert data._read_copy(path, path.read_bytes(), schema) is None
        TestCsvMatchesPerRowOracle()._assert_readers_agree(path, schema)

    @staticmethod
    def _forge(path, **arrays):
        """Rewrite the copy with some of its arrays replaced, keeping its key."""
        with np.load(_copy(path)) as z:
            doc = {**dict(z), **arrays}
        np.savez(_copy(path), **doc)

    @staticmethod
    def _write_npy(path, array):
        with open(path, "wb") as f:  # np.save(path) would append `.npy` to the name
            np.save(f, array)

    COPY_FAULTS = {
        "truncated": lambda path: _copy(path).write_bytes(_copy(path).read_bytes()[:-100]),
        "first 100 bytes": lambda path: _copy(path).write_bytes(_copy(path).read_bytes()[:100]),
        "garbage": lambda path: _copy(path).write_bytes(b"not a zip file"),
        "empty": lambda path: _copy(path).write_bytes(b""),
        "npy not npz": lambda path: TestBinaryCopy._write_npy(_copy(path), np.zeros((30, 4))),
        "directory": lambda path: (_copy(path).unlink(), _copy(path).mkdir()),
        "missing key": lambda path: np.savez(_copy(path), labels=np.zeros(30, np.int64)),
        "object labels": lambda path: TestBinaryCopy._forge(
            path, labels=np.array([0] * 29 + ["x"], dtype=object)),
        "float labels": lambda path: TestBinaryCopy._forge(path, labels=np.zeros(30)),
        "wrong shape": lambda path: TestBinaryCopy._forge(path, values=np.zeros((30, 5))),
        "too few rows": lambda path: TestBinaryCopy._forge(path, values=np.zeros((29, 4))),
        "float32 values": lambda path: TestBinaryCopy._forge(path, values=np.zeros((30, 4), np.float32)),
        "NaN value": lambda path: TestBinaryCopy._forge(path, values=np.full((30, 4), np.nan)),
        "label K": lambda path: TestBinaryCopy._forge(path, labels=np.full(30, 3)),
        "negative label": lambda path: TestBinaryCopy._forge(path, labels=np.full(30, -1)),
        "other key": lambda path: TestBinaryCopy._forge(path, csv_sha256=np.array("0" * 64)),
        "key as bytes": lambda path: TestBinaryCopy._forge(
            path, csv_sha256=np.array(hashlib.sha256(path.read_bytes()).hexdigest().encode())),
    }

    @pytest.mark.parametrize("fault", COPY_FAULTS, ids=str)
    def test_unusable_copy_is_ignored(self, tmp_path, fault):
        path = tmp_path / "ds.csv"
        schema = CsvSchema((2, 2), 3)
        ds = _dataset((2, 2), 30)
        save_csv(ds, path, comment="config_hash=abc")
        self.COPY_FAULTS[fault](path)
        assert data._read_copy(path, path.read_bytes(), schema) is None
        assert _bits(load_csv(path, schema)) == _bits(load_csv_rows(path, schema)) == _bits(ds)

    def test_forged_copy_is_used(self, tmp_path):
        # the forgeries above each break one check; an intact forgery reads through
        path = tmp_path / "ds.csv"
        save_csv(_dataset((2, 2), 30), path)
        self._forge(path, labels=np.full(30, 2))
        assert (load_csv(path, CsvSchema((2, 2), 3)).labels == 2).all()

    REFUSED = {
        "nan value": (_dataset((2, 2), 10, values=[1.0, np.nan]), None),
        "inf value": (_dataset((2, 2), 10, values=[1.0, np.inf]), None),
        "-inf value": (_dataset((2, 2), 10, values=[-np.inf, 1.0]), None),
        "float labels": (Dataset([np.zeros((2, 1))], np.array([0.5, 1.9])), None),
        "nan label": (Dataset([np.zeros((2, 1))], np.array([0.0, np.nan])), None),
        "negative label": (Dataset([np.zeros((2, 1))], np.array([0, -1])), None),
        "object label 2**63": (Dataset([np.zeros((2, 1))], np.array([0, 2**63], dtype=object)), None),
        "uint64 label 2**63": (Dataset([np.zeros((2, 1))], np.array([0, 2**63], dtype=np.uint64)), None),
        "2-d labels": (Dataset([np.zeros((2, 1))], np.zeros((2, 1), dtype=np.int64)), None),
        "comment LF": (_dataset((2, 2), 10), "config_hash=abc\nlabel,m1_0"),
        "comment CR": (_dataset((2, 2), 10), "config_hash=abc\r"),
        "comment NEL": (_dataset((2, 2), 10), "a\x85b"),
        "comment LS": (_dataset((2, 2), 10), "a\u2028b"),
    }

    @pytest.mark.parametrize("case", REFUSED, ids=str)
    def test_refused_input_leaves_the_files(self, tmp_path, case):
        ds, comment = self.REFUSED[case]
        path = tmp_path / "ds.csv"
        save_csv(_dataset((2, 2), 10), path, comment="config_hash=abc")
        before = (path.read_bytes(), _copy(path).read_bytes())
        with pytest.raises(ValueError):
            save_csv(ds, path, comment=comment)
        assert (path.read_bytes(), _copy(path).read_bytes()) == before
        # refused before any file is opened: a missing directory is not reached
        with pytest.raises(ValueError):
            save_csv(ds, tmp_path / "missing" / "ds.csv", comment=comment)

    @settings(max_examples=300, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        n=st.integers(0, 4),
        label_kind=st.sampled_from(["int64", "int8", "uint64", "float64", "object", "2-d"]),
        bad_value=st.one_of(st.none(), st.sampled_from([np.nan, np.inf, -np.inf])),
        comment=st.one_of(st.none(), st.text(max_size=6), st.sampled_from(["a\nb", "\r", "x\u2029", "\r\n"])),
        choose=st.data(),
    )
    def test_save_refuses_or_round_trips(self, tmp_path_factory, dims, n, label_kind, bad_value, comment,
                                         choose):
        ints = {
            "int64": st.integers(-1, 6),
            "int8": st.integers(-1, 6),
            "uint64": st.sampled_from([0, 1, 2, 2**63, 2**64 - 1]),
            "float64": st.sampled_from([0.0, 1.0, 1.5, np.nan]),
            "object": st.sampled_from([0, 1, -1, 2**70]),
            "2-d": st.integers(0, 4),
        }[label_kind]
        raw = choose.draw(st.lists(ints, min_size=n, max_size=n))
        dtype = {"2-d": np.int64}.get(label_kind, label_kind)
        labels = np.array(raw, dtype=dtype).reshape((n, 1) if label_kind == "2-d" else n)
        flat = choose.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=n * sum(dims), max_size=n * sum(dims)))
        values = np.array(flat, dtype=float).reshape(n, sum(dims))
        if bad_value is not None and n:
            values[choose.draw(st.integers(0, n - 1)), choose.draw(st.integers(0, sum(dims) - 1))] = bad_value
        ds = Dataset(np.split(values, np.cumsum(dims)[:-1], axis=1), labels)
        refused = (
            label_kind in ("float64", "object", "2-d")
            or not all(0 <= lab < 2**63 for lab in raw)
            or not np.isfinite(values).all()
            or len(f"#{comment}.".splitlines()) > 1
        )

        path = tmp_path_factory.mktemp("save") / "ds.csv"
        save_csv(_dataset((2, 2), 3), path, comment="earlier")
        before = {f.name: f.read_bytes() for f in path.parent.iterdir()}
        try:
            save_csv(ds, path, comment=comment)
        except ValueError:
            assert refused
            assert {f.name: f.read_bytes() for f in path.parent.iterdir()} == before
            return
        assert not refused
        schema = CsvSchema(tuple(dims), max([2] + [lab + 1 for lab in raw]))
        via_copy = _load_via_copy(path, schema)
        _copy(path).unlink()
        written = Dataset(ds.features, labels.astype(np.int64))
        assert _bits(via_copy) == _bits(load_csv(path, schema)) == _bits(written)

    @pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x85", " ", " "])
    @pytest.mark.parametrize("then", ["# second comment", "not a comment"])
    def test_leading_lines_split_as_splitlines(self, tmp_path, brk, then):
        # a comment holding another line break: both readers see the same lines and rows
        path = tmp_path / "ds.csv"
        path.write_text(f"# first{brk}{then}\nlabel,m1_0,m2_0\n0,1.0,2.0\n1,3.0,oops\n", encoding="utf-8")
        TestCsvMatchesPerRowOracle()._assert_readers_agree(path, CsvSchema((1, 1), 2))


def _repr_rows(labels: np.ndarray, values: np.ndarray) -> bytes:
    """The rows `save_csv` writes, by definition: `str` of each label and `repr` of each value."""
    rows = zip(labels.tolist(), values.tolist())
    return "".join(f"{lab},{','.join(map(repr, row))}\n" for lab, row in rows).encode()


def _ulps(x, k: int) -> np.ndarray:
    """Each of `x` and its neighbours up to `k` ulps away on either side."""
    bits = np.asarray(x, dtype=float).view(np.int64)
    return np.concatenate([bits + d for d in range(-k, k + 1)]).view(float)


class TestDigitKernel:
    """`data._format_rows` and `_digit_cells` against `repr`, which defines the CSV's bytes."""

    def _oracle_values(self) -> np.ndarray:
        rng = np.random.default_rng(23)
        in_domain = np.float64(2.0**-13).view(np.int64), np.float64(1e6).view(np.int64)
        short = rng.integers(1, 10 ** rng.integers(1, 15, 30_000)) / 10.0 ** rng.integers(0, 18, 30_000)
        parts = [
            # every binade from the smallest subnormal to the largest double
            np.ldexp(rng.uniform(1, 2, 2098 * 16), np.repeat(np.arange(-1074, 1024), 16)),
            # the exact path's domain, uniform in bits, and beyond its ends
            rng.integers(in_domain[0] - 10**5, in_domain[1] + 10**5, 780_000).view(float),
            # 1-3 ulps around 10^k, the domain's ends and the exact powers of two
            _ulps([10.0**k for k in range(-30, 31)] + [float(f"1e{k}") for k in range(-30, 0)], 3),
            _ulps([2.0**-13, 1e6], 3),
            np.ldexp(1.0, np.arange(-1074, 1024)),
            # short decimals k / 10^j of 1 to 14 digits and their neighbours
            _ulps(short, 2),
            # signed zeros, integers near 2^53, float32 and int64 origins
            np.array([0.0, -0.0]),
            2.0**53 + np.arange(-500, 500),
            rng.normal(size=40_000).astype(np.float32).astype(float),
            rng.integers(-(10**12), 10**12, 10_000).astype(float),
        ]
        v = np.concatenate(parts) * rng.choice([-1.0, 1.0], sum(map(len, parts)))
        return np.resize(v, (-(-len(v) // 12), 12))

    def test_bytes_are_repr(self):
        values = self._oracle_values()
        assert values.size >= 1_000_000
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 7, len(values))
        labels[:8] = [0, 9, 10, 10**8 - 1, 10**8, 10**9, 2**63 - 1, 12345678]
        for i in range(0, len(values), _ROW_BLOCK):
            rows = slice(i, i + _ROW_BLOCK)
            assert data._format_rows(labels[rows], values[rows]) == _repr_rows(labels[rows], values[rows])

    def test_exact_path_covers_generated_data(self):
        # a slide into the repr fallback would only slow the writer; here it fails
        x = np.vstack([np.hstack(ds.features) for ds in generate_synthetic(SyntheticSpec(seed=0))])
        _, exact = data._digit_cells(x, np.full(x.shape[1], ord(","), np.uint64))
        assert exact.mean() >= 0.99

    @settings(max_examples=60, deadline=None)
    @given(
        block=st.integers(1, 5),
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        choose=st.data(),
    )
    def test_files_match_the_per_row_oracle(self, tmp_path_factory, block, dims, choose):
        n = choose.draw(st.integers(0, 3 * block + 1))
        cell = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.floats(2.0**-13, 1e6), st.floats(-1e6, -(2.0**-13)),
                         st.decimals(-(10**6), 10**6, places=6).map(float))
        values = np.array(choose.draw(st.lists(cell, min_size=n * sum(dims), max_size=n * sum(dims))),
                          dtype=float).reshape(n, sum(dims))
        labels = np.array(choose.draw(st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 9),
                                               min_size=n, max_size=n)), dtype=np.int64)
        ds = Dataset(np.split(values, np.cumsum(dims)[:-1], axis=1), labels)
        path = tmp_path_factory.mktemp("kernel")
        with mock.patch.object(data, "_ROW_BLOCK", block):  # rows cross block boundaries
            save_csv(ds, path / "new.csv", comment="c")
        save_csv_rows(ds, path / "old.csv", comment="c")
        assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()
