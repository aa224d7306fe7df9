"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _write_csv(path, X, labels=None):
    """Inverse of xsdc.data.load_csv with a trailing label column; floats
    are written with 17 significant digits, a label below 0 as an empty cell."""
    X = np.asarray(X, dtype=np.float64)
    with open(path, "w") as fh:
        for i in range(X.shape[0]):
            cells = [f"{v:.17g}" for v in X[i]]
            if labels is not None:
                cells.append("" if labels[i] < 0 else str(int(labels[i])))
            fh.write(",".join(cells) + "\n")


@pytest.fixture
def write_csv():
    return _write_csv
