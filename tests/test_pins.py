"""Pinned entries as one sorted pin list, against the triple-list code it replaced.

The oracle functions are frozen copies of the former pin handling: the
trainer's per-batch triple lists and the dict that BalancingProblem built
from them, which pins each triple's mirror too.  The pin list (rows, cols,
values) must hold exactly the entries of that dict in row-major order, the
order np.nonzero lists a mask in, and validation must fail with the same
messages.
"""

import warnings

import numpy as np
import pytest

from xsdc.balancing import BalancingProblem, _pin_list
from xsdc.trainer import _batch_known, _batch_pairs


def oracle_normalize_known(known, n):
    entries = {}
    for item in known:
        i, j, m = int(item[0]), int(item[1]), float(item[2])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"known entry ({i}, {j}) out of range for n={n}")
        if m not in (0.0, 1.0):
            raise ValueError(f"known value must be 0 or 1, got {m} at ({i}, {j})")
        if i == j and m == 0.0:
            raise ValueError(f"diagonal entry ({i}, {i}) pinned to 0 is infeasible")
        if entries.get((i, j), m) != m:
            raise ValueError(f"conflicting known values at ({i}, {j})")
        entries[(i, j)] = entries[(j, i)] = m
    if entries:
        missing = [i for i in range(n) if entries.get((i, i)) != 1.0]
        if missing:
            raise ValueError(
                f"diagonal entry ({missing[0]}, {missing[0]}) must be pinned to 1"
            )
    return entries


def oracle_batch_known(batch_labels, rows, constraints):
    b = rows.size
    known = [(i, i, 1.0) for i in range(b)]
    labeled_pos = np.flatnonzero(batch_labels >= 0)
    for a_idx in range(labeled_pos.size):
        for b_idx in range(a_idx + 1, labeled_pos.size):
            i, j = int(labeled_pos[a_idx]), int(labeled_pos[b_idx])
            v = float(batch_labels[i] == batch_labels[j])
            known.append((i, j, v))
            known.append((j, i, v))
    pos_of = {int(r): i for i, r in enumerate(rows)}
    pairs = []
    for gi, gj, v in constraints:
        pi, pj = pos_of.get(int(gi)), pos_of.get(int(gj))
        if pi is not None and pj is not None:
            known.append((pi, pj, float(v)))
            known.append((pj, pi, float(v)))
            pairs.append((pi, pj, float(v)))
    return known, pairs


def oracle_arrays(known, n):
    mask = np.zeros((n, n), dtype=bool)
    values = np.zeros((n, n))
    for (i, j), m in oracle_normalize_known(known, n).items():
        mask[i, j] = True
        values[i, j] = m
    return mask, values


def assert_pins_match(problem, mask, values):
    rows, cols = np.nonzero(mask)
    pi, pj, m = problem.pins
    assert np.array_equal(pi, rows)
    assert np.array_equal(pj, cols)
    assert np.array_equal(m, values[mask])


def random_constraints(rng, truth, count):
    """Pairs consistent with truth, some in both orientations or repeated."""
    out = []
    for _ in range(count):
        i, j = rng.choice(truth.size, size=2, replace=False)
        v = float(truth[i] == truth[j])
        out.append((int(i), int(j), v))
        if rng.random() < 0.3:
            out.append((int(j), int(i), v))
        if rng.random() < 0.2:
            out.append(out[-1])
    return out


@pytest.mark.parametrize("label_share", [0.0, 0.4, 1.0])
def test_batch_pins_match_triple_lists(label_share):
    rng = np.random.default_rng(0)
    n, k = 80, 3
    for _ in range(50):
        truth = rng.integers(0, k, size=n)
        labels = np.where(rng.random(n) < label_share, truth, -1)
        constraints = random_constraints(rng, truth, int(rng.integers(0, 120)))
        rows = rng.choice(n, size=int(rng.integers(2, 40)), replace=False)
        batch_labels = labels[rows]
        old_known, old_pairs = oracle_batch_known(batch_labels, rows, constraints)
        pos, values = _batch_pairs(
            rows, np.array(constraints, dtype=np.int64).reshape(-1, 3), n
        )
        known = _batch_known(batch_labels, pos, values)
        problem = BalancingProblem(np.zeros((rows.size,) * 2), known, 1.0, 1.0)
        assert_pins_match(problem, *oracle_arrays(old_known, rows.size))
        pairs = [(int(i), int(j), float(v)) for (i, j), v in zip(pos, values)]
        assert pairs == old_pairs


def previous_batch_known(batch_labels, pairs, values):
    """_batch_known before it passed the labeled block in one orientation."""
    labeled = np.flatnonzero(batch_labels >= 0)
    diagonal = np.arange(batch_labels.size)
    i = np.concatenate([diagonal, np.repeat(labeled, labeled.size), pairs[:, 0]])
    j = np.concatenate([diagonal, np.tile(labeled, labeled.size), pairs[:, 1]])
    agree = (batch_labels[labeled][:, None] == batch_labels[labeled][None, :]).ravel()
    m = np.concatenate([np.ones(diagonal.size), agree, values])
    return np.column_stack([i, j, m])


@pytest.mark.parametrize("workload", ["semi-n20k-b512", "pairs-n300-b128"])
def test_seed0_batch_pins_match_both_orientations(seed0_runs, workload):
    known = seed0_runs[workload]["known"]
    assert any(np.count_nonzero(labels >= 0) > 1 for labels, _, _ in known)
    for batch_labels, pairs, values in known:
        n = batch_labels.size
        got = _pin_list(_batch_known(batch_labels, pairs, values), n)
        expected = _pin_list(previous_batch_known(batch_labels, pairs, values), n)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def previous_batch_pairs(rows, constraints, n):
    """_batch_pairs before it gathered each constraint column on its own."""
    position = np.full(n, -1)
    position[rows] = np.arange(rows.size)
    pos = position[constraints[:, :2]]
    inside = np.all(pos >= 0, axis=1)
    return pos[inside], constraints[inside, 2]


def test_batch_pairs_match_previous_gather():
    rng = np.random.default_rng(4)
    n = 60
    for trial in range(200):
        truth = rng.integers(0, 3, size=n)
        count = 0 if trial % 10 == 0 else int(rng.integers(1, 150))
        constraints = np.array(
            random_constraints(rng, truth, count), dtype=np.int64
        ).reshape(-1, 3)
        rows = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        got = _batch_pairs(rows, constraints, n)
        expected = previous_batch_pairs(rows, constraints, n)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
    empty = np.empty((0, 3), dtype=np.int64)
    pos, values = _batch_pairs(np.arange(5), empty, n)
    assert pos.shape == (0, 2) and pos.dtype == np.int64
    assert values.shape == (0,) and values.dtype == np.int64


def corrupted_known(rng, n):
    """A valid pin list for n rows, shuffled and duplicated, with 0-2 faults."""
    labels = rng.integers(0, 3, size=n)
    known = [(i, i, 1.0) for i in range(n)]
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        v = float(labels[i] == labels[j])
        known += [(i, j, v), (j, i, v)]
    known += [known[int(t)] for t in rng.integers(0, len(known), size=3)]
    known = [known[int(t)] for t in rng.permutation(len(known))]
    for _ in range(int(rng.integers(0, 3))):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        agree = float(labels[i] == labels[j])
        out = n + int(rng.integers(0, 3))
        faults = [
            (i, out, 1.0),  # out of range
            (-1, j, float(rng.choice([0.0, 0.5]))),  # out of range, maybe a bad value
            (out, out, 0.0),  # out of range and a zero diagonal
            (i, j, float(rng.choice([0.5, 2.0, -1.0]))),  # bad value
            (i, i, 0.0),  # zero diagonal
            (i, j, 1.0 - agree),  # conflict, unless (i, j) is not pinned yet
            (i, j, agree),  # one-sided, unless (j, i) is pinned
            None,  # drop a diagonal entry
        ]
        fault = faults[int(rng.integers(0, len(faults)))]
        if fault is None:
            known = [t for t in known if t != (i, i, 1.0)]
        else:
            known.insert(int(rng.integers(0, len(known) + 1)), fault)
    return known


FAILURES = (
    "out of range", "must be 0 or 1", "pinned to 0 is infeasible",
    "conflicting", "must be pinned to 1",
)


@pytest.mark.parametrize("form", ["list", "array", "int64"])
def test_validation_matches_dict_code(form):
    # array is the form the trainer hands in (_batch_known gives a float64
    # (m, 3) array); int64 takes the integral cases only
    rng = np.random.default_rng(1)
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(1, 7))
        known = corrupted_known(rng, n)
        given = known if form == "list" else np.array(known).reshape(-1, 3)
        if form == "int64":
            if not np.array_equal(given, np.round(given)):
                continue
            given = given.astype(np.int64)
        try:
            expected = oracle_arrays(known, n)
        except ValueError as err:
            with pytest.raises(ValueError) as caught:
                BalancingProblem(np.zeros((n, n)), given, 1.0, 1.0)
            assert str(caught.value) == str(err)
            outcomes.add(next(kind for kind in FAILURES if kind in str(err)))
            continue
        problem = BalancingProblem(np.zeros((n, n)), given, 1.0, 1.0)
        assert_pins_match(problem, *expected)
        outcomes.add("valid")
    assert outcomes == set(FAILURES) | {"valid"}


def test_transposition_check_on_int64_columns():
    """At n = 40,000 the tagged keys 2 (i n + j) + tag pass 2**31."""
    n = 40000
    diagonal = [(i, i, 1.0) for i in range(n)]
    pairs = [(5, n - 1, 0.0), (n - 1, 5, 0.0), (7, 9, 1.0), (9, 7, 1.0)]
    rows, cols, values = _pin_list(diagonal + pairs, n)
    entries = sorted(oracle_normalize_known(diagonal + pairs, n).items())
    assert rows.tolist() == [i for (i, _), _ in entries]
    assert cols.tolist() == [j for (_, j), _ in entries]
    assert values.tolist() == [m for _, m in entries]
    # the one-sided pin past 2**31 is mirrored
    one_sided = _pin_list(diagonal + pairs[:1] + pairs[2:], n)
    for got, full in zip(one_sided, (rows, cols, values)):
        assert np.array_equal(got, full)
    known = diagonal + pairs[:3] + [(9, 7, 0.0)]
    with pytest.raises(ValueError) as caught:
        _pin_list(known, n)
    with pytest.raises(ValueError) as expected:
        oracle_normalize_known(known, n)
    assert str(caught.value) == str(expected.value) == "conflicting known values at (9, 7)"


@pytest.mark.parametrize("n", [2, 3, 10])
def test_mirror_pinning_another_value_is_open(n):
    """A pair whose two orientations pin different values is a conflict,
    named at the later orientation."""
    diagonal = [(i, i, 1.0) for i in range(n)]
    for pair in ([(0, n - 1, 1.0), (n - 1, 0, 0.0)], [(n - 1, 0, 0.0), (0, n - 1, 1.0)]):
        for known in (diagonal + pair, pair + diagonal):
            with pytest.raises(ValueError) as expected:
                oracle_normalize_known(known, n)
            i, j = pair[1][:2]
            assert str(expected.value) == f"conflicting known values at ({i}, {j})"
            for form in (list, np.array):
                with pytest.raises(ValueError) as caught:
                    _pin_list(form(known), n)
                assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize(
    "bad, shown",
    [
        ((1.7, 1.2, 1.0), "(1.7, 1.2)"),  # once truncated to the pin (1, 1)
        ((float("nan"), 1, 1.0), "(nan, 1.0)"),
        ((0, float("inf"), 0.0), "(0.0, inf)"),
        ((5.5, 0, 1.0), "(5.5, 0.0)"),  # out of range too: named as non-integer
    ],
    ids=["fraction", "nan", "inf", "fraction-out-of-range"],
)
def test_non_integer_indices_rejected(bad, shown):
    for form in (list, np.array):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                BalancingProblem(np.zeros((2, 2)), form([(0, 0, 1), bad, (1, 1, 1)]), 1, 1)
        assert str(caught.value) == f"known entry {shown} needs finite integer indices"
