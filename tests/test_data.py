import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gopnet.data import (
    Dataset,
    apply_feature_standardization,
    load_csv,
    one_hot,
    split_dataset,
)
from gopnet.errors import (
    ClassTooSmall,
    ConfigError,
    ParseError,
    RaggedRows,
    UnknownLabelColumn,
)
from gopnet.operators import STD_FLOOR


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_labels_mapped_in_first_appearance_order(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\n1,2,a\n3,4,b\n5,6,a\n")
        ds = load_csv(path)
        assert ds.n_classes == 2
        assert_array_equal(ds.y, [0, 1, 0])
        assert ds.label_names == ["a", "b"]
        assert ds.feature_names == ["f1", "f2"]
        assert_array_equal(ds.X, [[1, 2], [3, 4], [5, 6]])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "1,2,0\n3,oops,1\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            load_csv(path, label_column=2, header=False)

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,0\n1,2,3,0\n")
        with pytest.raises(RaggedRows, match="row 3"):
            load_csv(path)

    def test_unknown_label_column(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,0\n")
        with pytest.raises(UnknownLabelColumn):
            load_csv(path, label_column="target")
        with pytest.raises(UnknownLabelColumn):
            load_csv(path, label_column=7, header=False)

    def test_label_column_by_index_and_negative_index(self, tmp_path):
        path = write(tmp_path, "0,1.5,2.5\n1,3.5,4.5\n", name="nohdr.csv")
        ds = load_csv(path, label_column=0, header=False)
        assert_array_equal(ds.y, [0, 1])
        assert_array_equal(ds.X, [[1.5, 2.5], [3.5, 4.5]])
        ds2 = load_csv(path, label_column=-3, header=False)
        assert_array_equal(ds2.y, ds.y)

    def test_everything_lands_in_train_before_splitting(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n2,y\n")
        ds = load_csv(path)
        assert_array_equal(ds.splits["train"], [0, 1])

    @pytest.mark.parametrize("header", [True, False])
    def test_a_byte_order_mark_is_not_data(self, tmp_path, header):
        """Excel's "CSV UTF-8" export starts the file with U+FEFF."""
        text = ("f1,f2,label\n" if header else "") + "1.0,2,a\n3,4.5,b\n"
        label = "label" if header else 2
        plain = load_csv(write(tmp_path, text), label_column=label,
                         header=header)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        bom = load_csv(str(path), label_column=label, header=header)
        assert (bom.feature_names, bom.label_names) == (plain.feature_names,
                                                        plain.label_names)
        assert bom.X.tobytes() == plain.X.tobytes()
        assert_array_equal(bom.y, plain.y)
        assert_array_equal(bom.splits["train"], plain.splits["train"])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_names_value_row_and_column(self, tmp_path, cell):
        path = write(tmp_path, f"1,2,0\n3,{cell},1\n")
        with pytest.raises(ParseError, match=f"non-finite value '{cell}' "
                                             "at row 2, column 2"):
            load_csv(path, label_column=2, header=False)

    def test_label_only_file_has_no_features(self, tmp_path):
        path = write(tmp_path, "label\nx\ny\n")
        with pytest.raises(ConfigError, match="no feature columns"):
            load_csv(path)


class TestStandardization:
    def test_fit_on_train_only_leaves_test_means_nonzero(self, rng):
        X = np.vstack([rng.normal(0.0, 1.0, size=(80, 3)),
                       rng.normal(5.0, 1.0, size=(20, 3))])
        y = np.r_[np.zeros(50, dtype=int), np.ones(50, dtype=int)]
        ds = Dataset(X, y, 2, splits={"train": np.arange(80),
                                      "test": np.arange(80, 100)})
        out = apply_feature_standardization(ds)
        assert np.abs(out.X_split("train").mean(axis=0)).max() < 1e-12
        assert np.abs(out.X_split("test").mean(axis=0)).min() > 0.5

    def test_standardizing_a_loaded_csv_centers_every_row(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n2,x\n3,y\n")
        ds = apply_feature_standardization(load_csv(path))
        assert abs(ds.X[:, 0].mean()) < 1e-12

    @pytest.mark.parametrize("header, named", [(True, "'big'"),
                                               (False, "at index 1")])
    def test_overflowing_statistics_name_the_feature(self, tmp_path, header,
                                                     named):
        rows = "1,1e300,x\n2,-1e300,y\n3,1e300,x\n"
        path = write(tmp_path, ("a,big,label\n" if header else "") + rows)
        ds = load_csv(path, label_column=2, header=header)
        with pytest.raises(ConfigError, match=named):
            apply_feature_standardization(ds)

    def test_overflowing_standardized_value_names_the_feature(self):
        """Statistics fitted on the train rows are finite, but dividing a
        held-out row by the floored std overflows."""
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.7976931348623157e308]])
        ds = Dataset(X, np.array([0, 1, 0]), 2,
                     splits={"train": np.array([0, 1]), "test": np.array([2])},
                     feature_names=["a", "big"])
        with pytest.raises(ConfigError, match="feature 'big' cannot be "
                                              "standardized"):
            apply_feature_standardization(ds)

    def test_std_is_floored_at_the_hidden_layers_floor(self):
        X = np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 3.0]])
        out = apply_feature_standardization(Dataset(X, np.array([0, 1, 0]), 2))
        centered = X[:, 0] - X[:, 0].mean()
        assert_array_equal(out.X[:, 0], centered / STD_FLOOR)


class TestSplitDataset:
    def make(self, n=100, classes=2, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = np.arange(n) % classes
        return Dataset(X, y, classes)

    def test_balanced_fractions(self):
        ds = split_dataset(self.make(), {"train": 0.6, "val": 0.2, "test": 0.2},
                           seed=4)
        assert len(ds.splits["train"]) == 60
        assert len(ds.splits["val"]) == 20
        assert len(ds.splits["test"]) == 20
        for name in ("train", "val", "test"):
            labels = ds.y_split(name)
            assert (labels == 0).sum() == (labels == 1).sum()

    def test_deterministic_given_seed(self):
        a = split_dataset(self.make(), {"train": 0.6, "val": 0.2, "test": 0.2},
                          seed=9)
        b = split_dataset(self.make(), {"train": 0.6, "val": 0.2, "test": 0.2},
                          seed=9)
        for name in ("train", "val", "test"):
            assert_array_equal(a.splits[name], b.splits[name])

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            split_dataset(self.make(), {"train": 0.7, "val": 0.2, "test": 0.2})

    @pytest.mark.parametrize("fractions", [
        {"train": 1.2, "test": -0.2}, {"train": float("nan")},
        {"train": 1.0, "test": float("nan")}])
    def test_fractions_must_be_non_negative_numbers(self, fractions):
        with pytest.raises(ConfigError, match="non-negative"):
            split_dataset(self.make(), fractions)

    def test_splits_are_disjoint_and_cover(self):
        ds = split_dataset(self.make(97, 3),
                           {"train": 0.6, "val": 0.2, "test": 0.2}, seed=1)
        merged = np.concatenate([ds.splits[n] for n in ("train", "val", "test")])
        assert len(merged) == 97
        assert len(np.unique(merged)) == 97

    def test_zero_fraction_split_is_absent(self):
        ds = split_dataset(self.make(), {"train": 0.6, "test": 0.4}, seed=0)
        assert not ds.has_split("val")
        assert len(ds.splits["train"]) == 60
        assert len(ds.splits["test"]) == 40

    def test_class_too_small(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 2))
        y = np.r_[np.zeros(9, dtype=int), np.ones(1, dtype=int)]
        with pytest.raises(ClassTooSmall):
            split_dataset(Dataset(X, y, 2),
                          {"train": 0.6, "val": 0.2, "test": 0.2}, seed=0)

    def test_unstratified_split(self):
        ds = split_dataset(self.make(100), {"train": 0.5, "test": 0.5},
                           seed=3, stratified=False)
        assert len(ds.splits["train"]) == 50


class TestOneHot:
    def test_one_hot(self):
        assert_array_equal(one_hot(np.array([0, 2, 1]), 3),
                           [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
