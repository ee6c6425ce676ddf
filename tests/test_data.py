from types import SimpleNamespace

import numpy as np
import pytest

from evfuse.data import (
    CsvFormatError,
    CsvSchema,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_sidecar,
    save_csv,
    save_sidecar,
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

    @pytest.mark.parametrize("dims, sep", [((4, 4, 4), (3.0, 3.0)), ((4,), (3.0, 3.0))])
    def test_dims_and_separation_must_match(self, dims, sep):
        with pytest.raises(ValueError, match="same length"):
            SyntheticSpec(dims=dims, separation=sep)

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
        assert tr.split == "train" and va.split == "val" and te.split == "test"

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
        with pytest.raises(ValueError):
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
        spec = SyntheticSpec(seed=9, split_sizes=(400, 100, 100))
        path = tmp_path / "dataset.json"
        save_sidecar(path, spec, "0123456789abcdef")
        doc = load_sidecar(path)
        assert doc["config_hash"] == "0123456789abcdef"
        assert doc["n_classes"] == 3
        assert doc["dims"] == [4, 4]
        assert doc["split_sizes"] == [400, 100, 100]

    def test_sidecar_refuses_non_finite_values_before_opening(self, tmp_path):
        # SyntheticSpec rejects a NaN separation, so hand save_sidecar a look-alike
        spec = SimpleNamespace(**{**vars(SyntheticSpec()), "separation": (float("nan"), 3.0)})
        path = tmp_path / "dataset.json"
        with pytest.raises(FloatingPointError, match="not writing .*dataset.json"):
            save_sidecar(path, spec, "0123456789abcdef")
        assert not path.exists()

    @pytest.mark.parametrize("sep", [float("nan"), float("inf")])
    def test_spec_rejects_non_finite_separation(self, sep):
        with pytest.raises(ValueError, match="separation must be finite"):
            SyntheticSpec(separation=(sep, 3.0))
