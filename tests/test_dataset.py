import numpy as np
import pytest

from rashenum import (BinaryDataset, DataError, binarize_numeric, fingerprint,
                      load_dataset, parse_dataset, serialize_dataset, split)


class TestParsing:
    def test_murtree_format(self, tiny_dataset):
        assert tiny_dataset.num_samples == 5
        assert tiny_dataset.num_features == 2
        assert list(tiny_dataset.labels) == [1, 0, 1, 0, 1]

    def test_csv_format(self):
        ds = parse_dataset("y,a,b\n1,0,1\n0,1,0\n1,1,1\n", fmt="csv",
                           label_col="y")
        assert ds.num_samples == 3
        assert ds.feature_names == ["a", "b"]

    def test_csv_default_label_is_first_column(self):
        ds = parse_dataset("y,a,b\n1,0,1\n0,1,0\n1,1,1\n", fmt="csv")
        assert list(ds.labels) == [1, 0, 1]

    def test_bad_feature_value_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_dataset("1 0 1\n0 2 0\n")

    def test_bad_label_reports_line(self):
        with pytest.raises(DataError, match="line 1"):
            parse_dataset("x 0 1\n")

    def test_ragged_rows_rejected(self):
        with pytest.raises(DataError, match="expected 2 features"):
            parse_dataset("1 0 1\n0 1\n")

    def test_empty_file_rejected(self):
        with pytest.raises(DataError):
            parse_dataset("")

    def test_regression_labels(self):
        ds = parse_dataset("1.5 0 1\n-0.25 1 0\n", task="regression")
        assert ds.task == "regression"
        assert ds.labels.dtype == np.float64

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_regression_label_rejected(self, label):
        with pytest.raises(DataError, match="must be finite"):
            parse_dataset(f"1.5 0 1\n{label} 1 0\n", task="regression")
        with pytest.raises(DataError, match="must be finite"):
            BinaryDataset.from_arrays([[0, 1], [1, 0]], [1.5, float(label)],
                                      task="regression")

    def test_duplicate_and_complement_columns_dropped(self):
        # col1 duplicates col0; col2 is col0's complement
        ds = parse_dataset("1 0 0 1\n0 1 1 0\n1 0 0 1\n")
        assert ds.num_features == 1

    def test_load_roundtrip(self, tmp_path, tiny_dataset):
        path = tmp_path / "d.txt"
        path.write_text(serialize_dataset(tiny_dataset))
        again = load_dataset(path)
        assert again.columns == tiny_dataset.columns
        assert list(again.labels) == list(tiny_dataset.labels)


class TestViewsAndSplits:
    def test_full_view_covers_all(self, tiny_dataset):
        view = tiny_dataset.full_view()
        assert view.size == 5
        assert list(view.member_indices()) == [0, 1, 2, 3, 4]

    def test_split_partitions(self, tiny_dataset):
        view = tiny_dataset.full_view()
        left, right = split(view, 0)
        assert left.members & right.members == 0
        assert left.members | right.members == view.members
        # right side holds the samples satisfying the feature
        col = tiny_dataset.columns[0]
        assert right.members == col

    def test_split_bad_feature(self, tiny_dataset):
        with pytest.raises(IndexError):
            split(tiny_dataset.full_view(), 9)

    def test_feature_is_constant(self, tiny_dataset):
        view = tiny_dataset.full_view()
        assert not view.feature_is_constant(0)
        _, right = split(view, 0)
        assert right.feature_is_constant(0)

    def test_fingerprint_equality_iff_same_subproblem(self, tiny_dataset):
        view = tiny_dataset.full_view()
        assert fingerprint(view, 2) == fingerprint(tiny_dataset.full_view(), 2)
        assert fingerprint(view, 2) != fingerprint(view, 1)
        left, _ = split(view, 0)
        assert fingerprint(left, 2) != fingerprint(view, 2)


class TestNormalization:
    def test_normalize_labels(self):
        ds = parse_dataset("1.0 0 1\n3.0 1 0\n5.0 1 1\n", task="regression")
        norm = ds.normalize_labels()
        assert abs(norm.labels.mean()) < 1e-12
        assert abs(norm.labels.std() - 1.0) < 1e-12

    def test_normalize_rejected_for_classification(self, tiny_dataset):
        with pytest.raises(DataError):
            tiny_dataset.normalize_labels()


class TestBinarize:
    def test_quantile_thresholds(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0], [7.0], [8.0]])
        y = [0, 0, 0, 0, 1, 1, 1, 1]
        ds = binarize_numeric(X, y, thresholds_per_column=3)
        assert ds.num_features >= 1
        assert all("<=" in name for name in ds.feature_names)

    def test_constant_column_warns(self):
        X = np.array([[1.0, 0.5], [2.0, 0.5], [3.0, 0.5]])
        with pytest.warns(UserWarning, match="no threshold"):
            ds = binarize_numeric(X, [0, 1, 1], thresholds_per_column=2)
        assert all(name.startswith("x0") for name in ds.feature_names)
