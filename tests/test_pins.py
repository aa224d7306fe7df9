"""Pinned entries as a mask plus values, against the triple-list code they replaced.

The oracle functions are frozen copies of the former pin handling: the
trainer's per-batch triple lists and the dict that BalancingProblem built
from them.  The array forms must agree with them exactly, error messages
included.
"""

import numpy as np
import pytest

from xsdc.balancing import BalancingProblem
from xsdc.trainer import _batch_known


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
        if (i, j) in entries and entries[(i, j)] != m:
            raise ValueError(f"conflicting known values at ({i}, {j})")
        entries[(i, j)] = m
    for (i, j), m in entries.items():
        if entries.get((j, i)) != m:
            raise ValueError(
                f"known set not closed under transposition at ({i}, {j})"
            )
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
        known, pos, values = _batch_known(
            batch_labels, rows, np.array(constraints, dtype=np.int64).reshape(-1, 3), n
        )
        problem = BalancingProblem(np.zeros((rows.size,) * 2), known, 1.0, 1.0)
        mask, pin_values = oracle_arrays(old_known, rows.size)
        assert np.array_equal(problem.pinned, mask)
        assert np.array_equal(problem.pin_values, pin_values)
        pairs = [(int(i), int(j), float(v)) for (i, j), v in zip(pos, values)]
        assert pairs == old_pairs


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
            (i, j, agree),  # unmatched, unless (j, i) is pinned
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
    "conflicting", "not closed", "must be pinned to 1",
)


@pytest.mark.parametrize("form", ["list", "array"])
def test_validation_matches_dict_code(form):
    rng = np.random.default_rng(1)
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(1, 7))
        known = corrupted_known(rng, n)
        given = known if form == "list" else np.array(known).reshape(-1, 3)
        try:
            expected = oracle_arrays(known, n)
        except ValueError as err:
            with pytest.raises(ValueError) as caught:
                BalancingProblem(np.zeros((n, n)), given, 1.0, 1.0)
            assert str(caught.value) == str(err)
            outcomes.add(next(kind for kind in FAILURES if kind in str(err)))
            continue
        problem = BalancingProblem(np.zeros((n, n)), given, 1.0, 1.0)
        assert np.array_equal(problem.pinned, expected[0])
        assert np.array_equal(problem.pin_values, expected[1])
        outcomes.add("valid")
    assert outcomes == set(FAILURES) | {"valid"}
