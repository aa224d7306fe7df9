import numpy as np
import pytest
from scipy.spatial.distance import cdist

from xsdc.data import (
    Dataset,
    assign_splits,
    finite_number,
    imbalance,
    load_csv,
    load_libsvm,
    make_blobs,
    standardize,
)
from xsdc.errors import ParseError


# ------------------------------------------------------------------ csv round

def test_load_csv_two_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,0\n2,1\n")
    ds = load_csv(p, label_column=1)
    np.testing.assert_array_equal(ds.X, [[1.0], [2.0]])
    np.testing.assert_array_equal(ds.labels, [0, 1])
    assert ds.k == 2
    assert list(ds.split) == ["train", "train"]


def test_load_csv_empty_label_cells(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1.5,2.5,0\n3.5,4.5,\n5.5,6.5,1\n")
    ds = load_csv(p, label_column=-1)
    np.testing.assert_array_equal(ds.labels, [0, -1, 1])
    assert ds.X.shape == (3, 2)


def test_load_csv_header_and_middle_label(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,y,b\n1,2,3\n4,0,6\n")
    ds = load_csv(p, label_column=1, header=True)
    np.testing.assert_array_equal(ds.X, [[1.0, 3.0], [4.0, 6.0]])
    np.testing.assert_array_equal(ds.labels, [2, 0])
    assert ds.k == 3


def test_load_csv_ragged_reports_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,4\n5,6,7\n")
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert err.value.line == 3


def test_load_csv_non_numeric_reports_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\nx,4\n")
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert err.value.line == 2
    assert "x" in str(err.value)


def test_load_csv_non_integer_label(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,0.5\n")
    with pytest.raises(ParseError):
        load_csv(p, label_column=1)


def test_load_csv_rejects_empty(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        load_csv(p)


def test_csv_round_trip_bitwise(tmp_path, write_csv):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 5)) * np.logspace(-8, 8, 5)
    labels = rng.integers(-1, 3, size=12)
    p = tmp_path / "t.csv"
    write_csv(p, X, labels)
    ds = load_csv(p, label_column=-1, k=3)
    assert np.array_equal(ds.X, X)  # exact, 17 significant digits
    np.testing.assert_array_equal(ds.labels, labels)


# --------------------------------------------------------------------- libsvm

def test_libsvm_dense_expansion(tmp_path):
    p = tmp_path / "t.svm"
    p.write_text("1 1:0.5 3:2\n")
    ds = load_libsvm(p)
    np.testing.assert_array_equal(ds.X, [[0.5, 0.0, 2.0]])


def test_libsvm_plus_minus_one_mapping(tmp_path):
    p = tmp_path / "t.svm"
    p.write_text("-1 1:1\n+1 2:1\n-1 1:2\n")
    ds = load_libsvm(p)
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])
    assert ds.k == 2
    assert ds.label_values == [-1.0, 1.0]


def test_libsvm_line_count(tmp_path):
    p = tmp_path / "t.svm"
    p.write_text("0 1:1\n1 1:2\n\n0 2:3\n")
    assert load_libsvm(p).n == 3


def test_libsvm_malformed_pair_reports_line(tmp_path):
    p = tmp_path / "t.svm"
    p.write_text("0 1:1\n1 2:abc\n")
    with pytest.raises(ParseError) as err:
        load_libsvm(p)
    assert err.value.line == 2


def test_libsvm_rejects_zero_index(tmp_path):
    p = tmp_path / "t.svm"
    p.write_text("0 0:1\n")
    with pytest.raises(ParseError):
        load_libsvm(p)


# ---------------------------------------------------------------- standardize

def _toy_dataset(seed=0, n=40, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(loc=3.0, scale=2.5, size=(n, d))
    split = np.array(["train"] * 24 + ["val"] * 8 + ["test"] * 8)
    labels = rng.integers(0, 2, size=n)
    return Dataset(name="toy", X=X, labels=labels, k=2, split=split)


def test_standardize_train_moments():
    ds = standardize(_toy_dataset())
    train = ds.split_indices("train")
    assert np.max(np.abs(ds.X[train].mean(axis=0))) <= 1e-12
    assert np.max(np.abs(ds.X[train].std(axis=0) - 1.0)) <= 1e-12


def test_standardize_uses_train_stats_for_all_splits():
    raw = _toy_dataset(seed=1)
    ds = standardize(raw)
    train = raw.split_indices("train")
    mean = raw.X[train].mean(axis=0)
    std = raw.X[train].std(axis=0)
    np.testing.assert_allclose(ds.X, (raw.X - mean) / std, rtol=0, atol=1e-14)


def test_standardize_idempotent():
    once = standardize(_toy_dataset(seed=2))
    twice = standardize(once)
    assert np.max(np.abs(twice.X - once.X)) <= 1e-12


def test_standardize_constant_feature_centered_only():
    ds = _toy_dataset(seed=3)
    X = ds.X.copy()
    X[:, 1] = 7.25
    out = standardize(Dataset("toy", X, ds.labels, 2, ds.split))
    assert np.max(np.abs(out.X[:, 1])) == 0.0


def test_standardize_requires_train_rows():
    ds = _toy_dataset(seed=4)
    with pytest.raises(ValueError):
        standardize(Dataset("toy", ds.X, ds.labels, 2, np.full(ds.n, "val")))


# ---------------------------------------------------------------------- blobs

def test_blobs_shapes_and_ranges():
    ds = make_blobs(n=101, d=6, k=4, separation=5.0, label_fraction=0.2, seed=0)
    assert ds.X.shape == (101, 6)
    assert ds.k == 4
    assert set(np.unique(ds.true_labels)) == {0, 1, 2, 3}
    assert ds.labels.min() >= -1 and ds.labels.max() < 4


def test_blobs_split_stratified_within_one():
    ds = make_blobs(n=97, d=3, k=3, separation=4.0, label_fraction=0.5, seed=1)
    for c in range(3):
        rows = np.flatnonzero(ds.true_labels == c)
        for tag, frac in zip(("train", "val", "test"), (0.6, 0.2, 0.2)):
            got = np.sum(ds.split[rows] == tag)
            assert abs(got - frac * rows.size) < 1.0


def test_blobs_val_test_keep_labels_train_hidden():
    ds = make_blobs(n=120, d=2, k=3, separation=6.0, label_fraction=0.0, seed=2)
    train = ds.split_indices("train")
    assert np.all(ds.labels[train] == -1)
    for tag in ("val", "test"):
        rows = ds.split_indices(tag)
        np.testing.assert_array_equal(ds.labels[rows], ds.true_labels[rows])


def test_blobs_label_fraction_one_fully_labeled():
    ds = make_blobs(n=60, d=2, k=2, separation=3.0, label_fraction=1.0, seed=3)
    np.testing.assert_array_equal(ds.labels, ds.true_labels)


def test_blobs_positive_fraction_keeps_one_per_class():
    ds = make_blobs(n=200, d=4, k=5, separation=4.0, label_fraction=0.01, seed=4)
    train = ds.split_indices("train")
    for c in range(5):
        assert np.sum(ds.labels[train] == c) >= 1


def test_blobs_visible_train_labels_are_true():
    ds = make_blobs(n=150, d=3, k=3, separation=5.0, label_fraction=0.3, seed=5)
    vis = ds.labeled_indices("train")
    np.testing.assert_array_equal(ds.labels[vis], ds.true_labels[vis])


def test_blobs_separation_ten_nearest_neighbor_oracle():
    ds = make_blobs(n=400, d=10, k=4, separation=10.0, label_fraction=1.0, seed=6)
    train, test = ds.split_indices("train"), ds.split_indices("test")
    nearest = np.argmin(cdist(ds.X[test], ds.X[train]), axis=1)
    acc = np.mean(ds.true_labels[train][nearest] == ds.true_labels[test])
    assert acc >= 0.99


def test_blobs_zero_separation_smoke():
    ds = make_blobs(n=50, d=3, k=3, separation=0.0, label_fraction=0.5, seed=7)
    # all centers coincide: class-conditional means are near the global mean
    gaps = [
        np.linalg.norm(
            ds.X[ds.true_labels == a].mean(axis=0)
            - ds.X[ds.true_labels == b].mean(axis=0)
        )
        for a in range(3)
        for b in range(a + 1, 3)
    ]
    assert max(gaps) < 2.0


def test_blobs_deterministic():
    a = make_blobs(60, 4, 3, 5.0, 0.25, seed=11)
    b = make_blobs(60, 4, 3, 5.0, 0.25, seed=11)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.split, b.split)


def test_blobs_validation():
    with pytest.raises(ValueError):
        make_blobs(3, 2, 4, 1.0, 0.5)
    with pytest.raises(ValueError):
        make_blobs(10, 2, 2, -1.0, 0.5)
    with pytest.raises(ValueError):
        make_blobs(10, 2, 2, 1.0, 1.5)
    # separation NaN used to build the separation-0 dataset as "sep=nan"
    for separation, fraction in ((np.nan, 0.5), (np.inf, 0.5), (1.0, np.nan), (1.0, True)):
        with pytest.raises(ValueError, match="must be a finite number"):
            make_blobs(10, 2, 2, separation, fraction)


@pytest.mark.parametrize("name", ["n", "d", "k"])
def test_blobs_sizes_must_be_whole(name):
    # make_blobs(n=400.7, d=3.9, k=2.5) used to build a 400 x 3 dataset with k = 2
    sizes = dict(n=40, d=3, k=2)
    with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
        make_blobs(**{**sizes, name: sizes[name] + 0.5}, separation=1.0, label_fraction=0.5)
    ds = make_blobs(**{**sizes, name: float(sizes[name])}, separation=1.0, label_fraction=0.5)
    assert (ds.n, ds.d, ds.k) == (40, 3, 2)


def test_fractional_k_rejected(tmp_path):
    # k = 2.5 used to be truncated to 2
    with pytest.raises(ValueError, match="^k must be a whole number"):
        Dataset("d", np.zeros((4, 2)), [0, 1, 0, 1], 2.5, np.full(4, "train"))
    p = tmp_path / "t.csv"
    p.write_text("0.5,0\n1.5,1\n")
    with pytest.raises(ValueError, match="^k must be a whole number"):
        load_csv(p, label_column=-1, k=2.5)
    assert load_csv(p, label_column=-1, k=3.0).k == 3


@pytest.mark.parametrize("value, strict, expected", [
    (0, False, 0.0), (np.float64(2.5), True, 2.5), ("1e-3", True, 1e-3),
    (0.0, True, None), (-1e-300, False, None), (np.nan, False, None),
    (np.inf, False, None), (-np.inf, False, None), (None, False, None),
    ("x", False, None), (True, False, None), (False, False, None),
    (np.True_, False, None),
])
def test_finite_number(value, strict, expected):
    if expected is None:
        with pytest.raises(ValueError, match="^lr must be a finite number"):
            finite_number("lr", value, 0, strict)
    else:
        got = finite_number("lr", value, 0, strict)
        assert (type(got), got) == (float, expected)


_SEEDED = {
    "make_blobs": lambda seed: make_blobs(40, 3, 2, 1.0, 0.5, seed=seed),
    "assign_splits": lambda seed: assign_splits(make_blobs(40, 3, 2, 1.0, 0.5), seed=seed),
    "imbalance": lambda seed: imbalance(make_blobs(40, 3, 2, 1.0, 0.1), [0.7, 0.3], seed=seed),
}


@pytest.mark.parametrize("seed", [True, np.True_, 1.5, -1], ids=repr)
@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_seed_must_be_a_whole_number(name, seed):
    # a boolean seed used to draw as 0 or 1, and 1.5 failed inside
    # SeedSequence with a TypeError
    with pytest.raises(ValueError, match="^seed must be a whole number of at least 0"):
        _SEEDED[name](seed)


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_integer_seeds_draw_alike(name):
    a, b = _SEEDED[name](7), _SEEDED[name](np.int64(7))
    assert a.X.tobytes() == b.X.tobytes()
    assert np.array_equal(a.labels, b.labels) and np.array_equal(a.split, b.split)
    assert not np.array_equal(a.split, _SEEDED[name](8).split)


# ------------------------------------------------------------------ imbalance

def test_imbalance_uniform_keeps_balanced_dataset():
    ds = make_blobs(n=200, d=3, k=2, separation=5.0, label_fraction=0.1, seed=8)
    pool = ds.split_indices("train")
    pool = pool[ds.labels[pool] < 0]
    counts = np.bincount(ds.true_labels[pool], minlength=2)
    if counts[0] == counts[1]:  # balanced pool: nothing to remove
        out = imbalance(ds, [0.5, 0.5], seed=0)
        assert out.n == ds.n


def test_imbalance_target_counts_within_one():
    ds = make_blobs(n=400, d=3, k=2, separation=5.0, label_fraction=0.05, seed=9)
    out = imbalance(ds, [0.95, 0.05], seed=1)
    train = out.split_indices("train")
    pool = train[out.labels[train] < 0]
    counts = np.bincount(out.true_labels[pool], minlength=2)
    total = counts.sum()
    assert abs(counts[0] - 0.95 * total) <= 1.0
    assert abs(counts[1] - 0.05 * total) <= 1.0


def test_imbalance_zero_fraction_removes_class():
    ds = make_blobs(n=150, d=2, k=3, separation=4.0, label_fraction=0.1, seed=10)
    out = imbalance(ds, [0.5, 0.5, 0.0], seed=2)
    train = out.split_indices("train")
    pool = train[out.labels[train] < 0]
    assert np.sum(out.true_labels[pool] == 2) == 0


def test_imbalance_leaves_labeled_and_eval_rows():
    ds = make_blobs(n=180, d=2, k=2, separation=4.0, label_fraction=0.2, seed=11)
    out = imbalance(ds, [0.8, 0.2], seed=3)
    assert np.sum(out.labels >= 0) == np.sum(ds.labels >= 0)
    for tag in ("val", "test"):
        assert out.split_indices(tag).size == ds.split_indices(tag).size


def test_imbalance_infeasible_names_class():
    ds = make_blobs(n=90, d=2, k=3, separation=4.0, label_fraction=0.1, seed=12)
    drop_all_of_two = imbalance(ds, [0.7, 0.3, 0.0], seed=4)
    with pytest.raises(ValueError, match="class 2"):
        imbalance(drop_all_of_two, [0.2, 0.2, 0.6], seed=5)


def test_imbalance_validation():
    ds = make_blobs(n=60, d=2, k=2, separation=4.0, label_fraction=0.2, seed=13)
    with pytest.raises(ValueError):
        imbalance(ds, [0.5, 0.4])
    with pytest.raises(ValueError):
        imbalance(ds, [0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        imbalance(ds, [1.2, -0.2])
    # NaN used to pass and fail later as "negative dimensions are not allowed"
    with pytest.raises(ValueError, match="must be nonnegative and sum to 1"):
        imbalance(ds, [np.nan, 1.0])


@pytest.mark.parametrize("fractions", [
    (0.6, 0.4), (0.7, 0.5, -0.2), (0.5, 0.25, 0.2), (np.nan, 0.5, 0.5),
])
def test_assign_splits_validation(fractions):
    # NaN used to pass and fail later as "split tags must be from ..."
    ds = make_blobs(n=60, d=2, k=2, separation=4.0, label_fraction=0.2, seed=13)
    with pytest.raises(ValueError, match="^fractions must be three nonnegative values"):
        assign_splits(ds, fractions=fractions)


# -------------------------------------------------------------------- dataset

def test_dataset_invariant_checks():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        Dataset("d", X, [0, 1, 2, 5], 3, np.full(4, "train"))
    with pytest.raises(ValueError):
        Dataset("d", X, [0, 0, 1, 1], 2, np.full(4, "other"))
    with pytest.raises(ValueError):
        Dataset("d", X, [0, 0, 1], 2, np.full(4, "train"))


def test_dataset_rejects_non_finite_features(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        X = np.zeros((4, 2))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="finite.*row 2, column 1"):
            Dataset("d", X, [0, 0, 1, 1], 2, np.full(4, "train"))
    # a nan cell deep in a CSV stops the load, before any training step
    p = tmp_path / "t.csv"
    p.write_text("".join(f"{i},{i % 2}\n" for i in range(2499)) + "nan,1\n5,0\n")
    with pytest.raises(ValueError, match="row 2499, column 0"):
        load_csv(p, label_column=1)


def test_dataset_subset_preserves_metadata():
    ds = make_blobs(n=50, d=2, k=2, separation=4.0, label_fraction=0.3, seed=14)
    sub = ds.subset([3, 10, 20])
    assert sub.n == 3
    assert sub.k == ds.k
    np.testing.assert_array_equal(sub.true_labels, ds.true_labels[[3, 10, 20]])
