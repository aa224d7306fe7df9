"""Dataset ingestion, standardization, splits, and synthetic generators.

A Dataset carries two label vectors: `labels` is what the learner may see
(-1 marks a hidden label), `true_labels` is ground truth kept for scoring
and for class-aware subsampling.  For loaded files they coincide.  Datasets
are treated as immutable; every transformation returns a new instance.
"""

import numpy as np
from dataclasses import dataclass, field, replace

from .errors import ParseError

SPLIT_TAGS = ("train", "val", "test")
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


def whole_number(name, value, minimum):
    """value as a Python int of at least minimum, else ValueError; integral
    floats (50.0) and numpy integers pass, fractions (32.7), NaN, inf and
    booleans fail."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value >= minimum:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a whole number of at least {minimum}, got {value!r}")


def finite_number(name, value, minimum, strict=False):
    """value as a finite Python float of at least minimum (above it when
    strict), else ValueError; NaN, inf, booleans and non-numbers fail."""
    try:
        x = np.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError):
        x = np.nan
    if x < np.inf and (x > minimum if strict else x >= minimum):
        return x
    bound = "above" if strict else "of at least"
    raise ValueError(f"{name} must be a finite number {bound} {minimum}, got {value!r}")


@dataclass
class Dataset:
    name: str
    X: np.ndarray
    labels: np.ndarray  # int64 per row, -1 = hidden / unlabeled
    k: int
    split: np.ndarray  # per-row tag from SPLIT_TAGS
    true_labels: np.ndarray = None  # ground truth for scoring, -1 = unknown
    label_values: list = field(default_factory=list)  # original label codes

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {self.X.shape}")
        bad = ~np.isfinite(self.X)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise ValueError(
                f"X must be finite, got {self.X[row, col]} at row {row}, column {col}"
            )
        n = self.X.shape[0]
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.true_labels is None:
            self.true_labels = self.labels.copy()
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        self.split = np.asarray(self.split)
        if self.labels.shape != (n,) or self.true_labels.shape != (n,):
            raise ValueError("label vectors must have one entry per row")
        if self.split.shape != (n,):
            raise ValueError("split must have one tag per row")
        if not set(np.unique(self.split)) <= set(SPLIT_TAGS):
            raise ValueError(f"split tags must be from {SPLIT_TAGS}")
        self.k = whole_number("k", self.k, 1)
        for vec, what in ((self.labels, "labels"), (self.true_labels, "true_labels")):
            if vec.size and (vec.min() < -1 or vec.max() >= self.k):
                raise ValueError(f"{what} must lie in [-1, {self.k})")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    def split_indices(self, tag):
        if tag not in SPLIT_TAGS:
            raise ValueError(f"unknown split tag {tag!r}")
        return np.flatnonzero(self.split == tag)

    def labeled_indices(self, tag=None):
        mask = self.labels >= 0
        if tag is not None:
            if tag not in SPLIT_TAGS:
                raise ValueError(f"unknown split tag {tag!r}")
            mask &= self.split == tag
        return np.flatnonzero(mask)

    def subset(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            name=self.name,
            X=self.X[rows].copy(),
            labels=self.labels[rows].copy(),
            k=self.k,
            split=self.split[rows].copy(),
            true_labels=self.true_labels[rows].copy(),
            label_values=list(self.label_values),
        )


# -------------------------------------------------------------------- loaders

def load_csv(path, label_column=None, header=False, k=None):
    """Dense numeric CSV, optionally with one integer label column.

    Empty label cells mark the row unlabeled.  Rows must be rectangular;
    violations report the 1-based line number.
    """
    rows, labels = [], []
    width = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if header and lineno == 1:
                continue
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            if width is None:
                width = len(cells)
                if label_column is not None and not -width <= label_column < width:
                    raise ParseError(
                        f"label_column {label_column} out of range for width {width}",
                        line=lineno,
                    )
            elif len(cells) != width:
                raise ParseError(
                    f"expected {width} cells, got {len(cells)}", line=lineno
                )
            if label_column is not None:
                col = label_column % width
                cell = cells.pop(col)
                if cell == "":
                    labels.append(-1)
                else:
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ParseError(
                            f"non-numeric label cell {cell!r}", line=lineno
                        ) from None
                    if value != int(value):
                        raise ParseError(
                            f"non-integer label {cell!r}", line=lineno
                        )
                    labels.append(int(value))
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                bad = next(c for c in cells if not _is_float(c))
                raise ParseError(
                    f"non-numeric feature cell {bad!r}", line=lineno
                ) from None
    if not rows:
        raise ParseError("no data rows found")
    X = np.array(rows, dtype=np.float64)
    if label_column is None:
        lab = np.full(X.shape[0], -1, dtype=np.int64)
        k = whole_number("k", k, 1) if k is not None else 1
    else:
        lab = np.array(labels, dtype=np.int64)
        if lab.max(initial=-1) < 0 and k is None:
            raise ParseError("all labels missing; pass k explicitly")
        if lab.min(initial=0) < -1:
            first = int(np.flatnonzero(lab < -1)[0])
            raise ParseError(f"negative label in data row {first + 1}")
        k = whole_number("k", k, 1) if k is not None else int(lab.max()) + 1
        if lab.max(initial=-1) >= k:
            raise ParseError(f"label {int(lab.max())} outside [0, {k})")
    return Dataset(
        name=str(path),
        X=X,
        labels=lab,
        k=k,
        split=np.full(X.shape[0], "train", dtype="U5"),
    )


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_libsvm(path):
    """Sparse 'label index:value' text with 1-based indices, densified.

    Label codes are mapped to class indices 0..k-1 in sorted order; the
    original codes are recorded in label_values (so {-1,+1} becomes {0,1}).
    """
    raw_labels, entries = [], []
    dim = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            try:
                raw_labels.append(float(parts[0]))
            except ValueError:
                raise ParseError(
                    f"bad label field {parts[0]!r}", line=lineno
                ) from None
            row = {}
            for pair in parts[1:]:
                idx, colon, val = pair.partition(":")
                if not colon:
                    raise ParseError(f"missing ':' in {pair!r}", line=lineno)
                try:
                    j = int(idx)
                    x = float(val)
                except ValueError:
                    raise ParseError(f"bad pair {pair!r}", line=lineno) from None
                if j < 1:
                    raise ParseError(
                        f"indices are 1-based, got {j}", line=lineno
                    )
                row[j - 1] = x
                dim = max(dim, j)
            entries.append(row)
    if not entries:
        raise ParseError("no data rows found")
    X = np.zeros((len(entries), dim))
    for i, row in enumerate(entries):
        for j, x in row.items():
            X[i, j] = x
    values = sorted(set(raw_labels))
    code = {v: c for c, v in enumerate(values)}
    labels = np.array([code[v] for v in raw_labels], dtype=np.int64)
    return Dataset(
        name=str(path),
        X=X,
        labels=labels,
        k=len(values),
        split=np.full(len(entries), "train", dtype="U5"),
        label_values=values,
    )


# ------------------------------------------------------------ transformations

def standardize(ds):
    """Center and scale every feature by train-split statistics.

    Zero-variance features are centered but not scaled.  Applying the result
    a second time changes nothing (the train split is already standard).
    """
    train = ds.split_indices("train")
    if train.size == 0:
        raise ValueError("standardize requires a nonempty train split")
    mean = ds.X[train].mean(axis=0)
    std = ds.X[train].std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    return replace(ds, X=(ds.X - mean) / scale)


def _apportion(total, fractions):
    # largest-remainder rounding: counts sum to total, each within 1 of exact
    exact = np.asarray(fractions, dtype=np.float64) * total
    counts = np.floor(exact).astype(np.int64)
    short = int(total - counts.sum())
    if short:
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _stratified_split(true_labels, rng, fractions=SPLIT_FRACTIONS):
    # rows with unknown ground truth (-1) form their own stratum
    split = np.empty(true_labels.size, dtype="U5")
    for c in np.unique(true_labels):
        members = np.flatnonzero(true_labels == c)
        members = members[rng.permutation(members.size)]
        counts = _apportion(members.size, fractions)
        start = 0
        for tag, cnt in zip(SPLIT_TAGS, counts):
            split[members[start : start + cnt]] = tag
            start += cnt
    return split


def assign_splits(ds, fractions=SPLIT_FRACTIONS, seed=0):
    """Stratified train/val/test assignment for a loaded dataset.

    Stratifies by ground-truth class (rows without truth form one stratum);
    per-class counts land within one row of the exact proportions.
    """
    fractions = tuple(float(f) for f in fractions)
    # written so that a NaN fraction fails
    if len(fractions) != 3 or not (min(fractions) >= 0 and abs(sum(fractions) - 1.0) <= 1e-9):
        raise ValueError("fractions must be three nonnegative values summing to 1")
    rng = np.random.default_rng(whole_number("seed", seed, 0))
    return replace(ds, split=_stratified_split(ds.true_labels, rng, fractions))


def make_blobs(n, d, k, separation, label_fraction, seed=0):
    """Gaussian clusters with controlled center separation and hidden labels.

    Centers are drawn at random and rescaled so the minimum pairwise distance
    equals `separation` (all centers coincide at separation 0).  Rows are
    split 60/20/20 stratified by class.  Labels stay visible on val/test;
    among train rows only a stratified `label_fraction` is kept, at least one
    per class whenever the fraction is positive.
    """
    n, d, k = (whole_number(name, v, 1) for name, v in (("n", n), ("d", d), ("k", k)))
    if n < k:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    separation = finite_number("separation", separation, 0)
    label_fraction = finite_number("label_fraction", label_fraction, 0)
    if label_fraction > 1.0:
        raise ValueError(f"label_fraction must be in [0,1], got {label_fraction}")
    rng = np.random.default_rng(whole_number("seed", seed, 0))
    centers = rng.normal(size=(k, d))
    if k > 1:
        gaps = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(k)
            for j in range(i + 1, k)
        ]
        centers = centers * (separation / min(gaps)) if separation > 0 else 0.0 * centers
    true = np.repeat(np.arange(k), _apportion(n, np.full(k, 1.0 / k)))
    true = true[rng.permutation(n)]
    X = centers[true] + rng.normal(size=(n, d))
    split = _stratified_split(true, rng)
    labels = true.copy()
    train = np.flatnonzero(split == "train")
    labels[train] = -1
    if label_fraction > 0:
        for c in range(k):
            members = train[true[train] == c]
            keep = max(1, int(round(label_fraction * members.size)))
            chosen = rng.choice(members.size, size=min(keep, members.size), replace=False)
            labels[members[chosen]] = c
    return Dataset(
        name=f"blobs(n={n},d={d},k={k},sep={separation:g})",
        X=X,
        labels=labels,
        k=k,
        split=split,
        true_labels=true,
    )


def imbalance(ds, class_fractions, seed=0):
    """Subsample unlabeled train rows toward target class proportions.

    Labeled rows and the val/test splits are untouched.  The retained
    unlabeled pool is as large as the targets allow; realized per-class
    counts land within one row of the exact proportions.
    """
    fractions = np.asarray(class_fractions, dtype=np.float64)
    if fractions.shape != (ds.k,):
        raise ValueError(f"need one fraction per class, got {fractions.shape}")
    # written so that a NaN fraction fails
    if not (fractions.min() >= 0 and abs(fractions.sum() - 1.0) <= 1e-9):
        raise ValueError("class_fractions must be nonnegative and sum to 1")
    train = ds.split_indices("train")
    pool = train[ds.labels[train] < 0]
    if np.any(ds.true_labels[pool] < 0):
        raise ValueError("unlabeled train rows lack ground truth for subsampling")
    avail = np.bincount(ds.true_labels[pool], minlength=ds.k)
    for c in range(ds.k):
        if fractions[c] > 0 and avail[c] == 0:
            raise ValueError(f"class {c} has no unlabeled train rows to keep")
    total = int(min(
        np.floor(avail[c] / fractions[c]) for c in range(ds.k) if fractions[c] > 0
    ))
    while total > 0 and np.any(_apportion(total, fractions) > avail):
        total -= 1
    targets = _apportion(total, fractions)
    rng = np.random.default_rng(whole_number("seed", seed, 0))
    drop = np.zeros(ds.n, dtype=bool)
    for c in range(ds.k):
        members = pool[ds.true_labels[pool] == c]
        surplus = members.size - int(targets[c])
        if surplus > 0:
            out = rng.choice(members.size, size=surplus, replace=False)
            drop[members[out]] = True
    return ds.subset(np.flatnonzero(~drop))
