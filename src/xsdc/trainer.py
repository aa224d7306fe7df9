"""Training orchestration: initialization, the main loop, sweeps.

One step, _step, serves the supervised initialization and the main loop.
It interleaves three pieces per mini-batch: the feature forward pass,
entropic balancing of the batch agreement matrix under the known entries
(pinned diagonal, same-label pairs, injected pair constraints), and one
landmark gradient step on the closed-form ridge objective.  Both read the
batch's ridge kernel A(phi), which the step builds once and hands to
balancing and to the gradient step alike.  _batch_pairs finds a batch's
constraint pairs once per step; _batch_known adds the diagonal and the
labeled pairs in one array that BalancingProblem validates into a sorted
pin list.  Fully labeled batches skip balancing: their agreement matrix is
determined by the labels, so a step on them is plain supervised training.

Three modes share the machinery.  "semi" mixes labeled and unlabeled rows
per batch, "supervised" draws labeled rows only, "unsupervised" treats every
train row as unlabeled and labels the result by spectral clustering.
"""

import json
import math
import numpy as np
from dataclasses import dataclass, field, fields, replace

from .balancing import BalancingProblem, balance_doubling
from .data import whole_number
from .errors import AbortedRun, BalancingDivergence, TrainingDiverged
from .features import NystromLayer, forward, init_landmarks
from .labeling import (
    fit_final_classifier,
    hungarian_match,
    nn_propagate,
    predict_classes,
    spectral_cluster,
)
from .linalg import RidgeSolution, ridge_kernel
from .ulr import UlrConfig, ulr_step

MODES = ("semi", "supervised", "unsupervised")
CHECKPOINT_VERSION = 1
MAX_MU_DOUBLINGS = 20
OBJECTIVE_CEILING = 1e12
_NO_CONSTRAINTS = np.empty((0, 3), dtype=np.int64)


# the integer settings and their minimums; TrainConfig stores each as a Python int
_INTEGER_MINIMUMS = dict(
    num_landmarks=1, batch_size=2, supervised_init_iters=0, main_iters=0, eval_every=1,
    balance_iters=1, seed=0, eval_batch_size=2, newton_iters=1,
)


@dataclass
class TrainConfig:
    """Everything a run needs beyond the dataset itself.

    labeled_batch_fraction, n_min_frac, n_max_frac, init_learning_rate and
    sigma default to None, meaning: derive from the data (twice the labeled
    share, 1/k, 1/k, the main learning rate, the median heuristic).
    balance_iters caps the balancing rounds of a batch; a batch stops
    earlier at a fixed point (see balancing.balance).
    """

    num_landmarks: int = 64
    batch_size: int = 64
    supervised_init_iters: int = 100
    main_iters: int = 400
    eval_every: int = 10
    labeled_batch_fraction: float = None
    init_learning_rate: float = None
    ulr: UlrConfig = field(default_factory=UlrConfig)
    balance_iters: int = 10
    mu: float = None
    n_min_frac: float = None
    n_max_frac: float = None
    seed: int = 0
    constraints: list = field(default_factory=list)  # (i, j, value) triples
    eval_batch_size: int = 200
    sigma: float = None
    epsilon: float = 1e-3
    newton_iters: int = 20

    def __post_init__(self):
        for name, minimum in _INTEGER_MINIMUMS.items():
            setattr(self, name, whole_number(name, getattr(self, name), minimum))
        if self.labeled_batch_fraction is not None and not (
            0.0 < float(self.labeled_batch_fraction) <= 1.0
        ):
            raise ValueError(
                f"labeled_batch_fraction must be in (0, 1], got "
                f"{self.labeled_batch_fraction}"
            )
        for name in ("n_min_frac", "n_max_frac"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= float(value) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if (
            self.n_min_frac is not None
            and self.n_max_frac is not None
            and float(self.n_min_frac) > float(self.n_max_frac)
        ):
            raise ValueError("n_min_frac must not exceed n_max_frac")
        if self.init_learning_rate is not None and float(self.init_learning_rate) < 0:
            raise ValueError("init_learning_rate must be nonnegative")
        if self.mu is not None and not float(self.mu) > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        seen = {}
        for triple in self.constraints:
            try:
                a, b, v = triple
                i, j, v = int(a), int(b), float(v)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(
                    f"constraint must be a finite (i, j, value) triple, got {triple!r}"
                ) from None
            if (i, j) != (a, b) or max(abs(i), abs(j)) >= 2**63:
                raise ValueError(f"constraint indices must be int64 integers, got {(a, b)}")
            if i == j:
                raise ValueError(f"constraint ({i}, {j}) must join distinct rows")
            if v not in (0.0, 1.0):
                raise ValueError(f"constraint value must be 0 or 1, got {v}")
            key = (min(i, j), max(i, j))
            if seen.setdefault(key, v) != v:
                raise ValueError(f"conflicting constraints on pair {key}")

    def to_dict(self):
        out = {name: getattr(self, name) for name in _CONFIG_SCALARS}
        out.update({name: getattr(self.ulr, name) for name in _CONFIG_ULR})
        out["constraints"] = [
            [int(i), int(j), float(v)] for i, j, v in self.constraints
        ]
        return out

    @classmethod
    def from_dict(cls, doc):
        doc = dict(doc)
        ulr_kwargs = {k: doc.pop(k) for k in _CONFIG_ULR if k in doc}
        constraints = doc.pop("constraints", [])
        unknown = set(doc) - set(_CONFIG_SCALARS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(ulr=UlrConfig(**ulr_kwargs), constraints=constraints, **doc)


# config keys in field order, which fixes the key order of checkpoint.json
# and summary.json
_CONFIG_SCALARS = tuple(
    f.name for f in fields(TrainConfig) if f.name not in ("ulr", "constraints")
)
_CONFIG_ULR = tuple(f.name for f in fields(UlrConfig))


@dataclass
class TrainState:
    layer: NystromLayer
    config: TrainConfig
    mode: str
    rng: object
    classifier: RidgeSolution = None
    iteration: int = 0
    best_val_accuracy: float = 0.0
    best_checkpoint: str = None
    best_layer: NystromLayer = None  # the layer of best_val_accuracy


@dataclass
class RunMetrics:
    """Per-iteration records plus the run-level summary.

    records rows are dicts with keys (iteration, split, accuracy, objective,
    marginal_violation, mu, rounds); non-applicable fields hold NaN.  rounds
    is the balancing rounds a batch ran, NaN for a fully labeled batch.
    """

    records: list = field(default_factory=list)
    constraint_violations: list = field(default_factory=list)
    val_trajectory: list = field(default_factory=list)
    best_val_accuracy: float = float("nan")
    best_iteration: int = -1
    test_accuracy: float = float("nan")
    report_is_trajectory_max: bool = False
    final_labels: np.ndarray = None
    final_sources: list = None
    listener: object = None  # optional callable fed every record as a dict

    def record(self, iteration, split, accuracy=float("nan"),
               objective=float("nan"), marginal_violation=float("nan"),
               mu=float("nan"), rounds=float("nan")):
        rec = dict(
            iteration=int(iteration),
            split=split,
            accuracy=float(accuracy),
            objective=float(objective),
            marginal_violation=float(marginal_violation),
            mu=float(mu),
            rounds=rounds,
        )
        self.records.append(rec)
        if self.listener is not None:
            self.listener(rec)

    def to_rows(self):
        header = ("iteration", "split", "accuracy", "objective",
                  "marginal_violation", "mu", "rounds")
        return [header] + [
            tuple(rec[name] for name in header) for rec in self.records
        ]


class _PoolSampler:
    """Without-replacement batches from one index pool.

    Each pass over the pool is a fresh permutation.  When fewer than the
    requested rows remain in the current pass, the pass is abandoned and a
    new permutation begins, so a batch never contains duplicates.
    """

    def __init__(self, pool, rng):
        self.pool = np.asarray(pool, dtype=np.int64)
        self.rng = rng
        self.order = None
        self.cursor = 0

    def draw(self, m):
        m = int(m)
        if m == 0:
            return np.empty(0, dtype=np.int64)
        if m > self.pool.size:
            raise ValueError(f"cannot draw {m} rows from a pool of {self.pool.size}")
        if self.order is None or self.cursor + m > self.pool.size:
            self.order = self.rng.permutation(self.pool.size)
            self.cursor = 0
        picked = self.pool[self.order[self.cursor : self.cursor + m]]
        self.cursor += m
        return picked


def _agreement(labels):
    """0/1 matrix of equal labels: exactly the indicator product Y Y^T."""
    return (labels[:, None] == labels[None, :]).astype(np.float64)


def _balance(A, known, config, k):
    """Balance one batch's agreement matrix against its ridge kernel A."""
    b = A.shape[0]
    lo = 1.0 / k if config.n_min_frac is None else float(config.n_min_frac)
    hi = 1.0 / k if config.n_max_frac is None else float(config.n_max_frac)
    problem = BalancingProblem(
        A, known, lo * b, hi * b, mu=config.mu, iters=config.balance_iters,
        num_clusters=k,
    )
    return balance_doubling(problem, MAX_MU_DOUBLINGS)


def _build_layer(X_train, config):
    p = min(config.num_landmarks, X_train.shape[0])
    base = init_landmarks(X_train, p, seed=config.seed)
    return NystromLayer(
        landmarks=base.landmarks,
        sigma=base.sigma if config.sigma is None else config.sigma,
        epsilon=config.epsilon,
        newton_iters=config.newton_iters,
    )


def _check_constraints(dataset, constraints):
    """Reject the first constraint outside the dataset or against its labels."""
    rows, values = constraints[:, :2], constraints[:, 2]
    in_range = np.all((0 <= rows) & (rows < dataset.n), axis=1)
    a, b = dataset.labels[np.where(in_range[:, None], rows, 0)].T
    bad = ~in_range | ((a >= 0) & (b >= 0) & (values != (a == b)))
    if bad.any():
        t = int(np.argmax(bad))
        (i, j), v = rows[t], values[t]
        if not in_range[t]:
            raise ValueError(f"constraint ({i}, {j}) out of range")
        raise ValueError(f"constraint ({i}, {j}, {v:g}) contradicts the labels")


def supervised_init(state, dataset, config, metrics=None):
    """Landmark training on the labeled rows alone.

    Runs supervised_init_iters steps with the agreement matrix pinned to the
    label indicator product; no balancing.  With zero labeled train rows the
    state is returned unchanged (the unsupervised path starts cold).
    """
    labeled = dataset.labeled_indices("train")
    if labeled.size == 0:
        return state
    if labeled.size < 2:
        raise ValueError("supervised initialization needs at least 2 labeled rows")
    lr = (
        config.ulr.learning_rate
        if config.init_learning_rate is None
        else config.init_learning_rate
    )
    step_cfg = replace(config.ulr, learning_rate=lr)
    sampler = _PoolSampler(labeled, state.rng)
    m = min(config.batch_size, labeled.size)
    for _ in range(config.supervised_init_iters):
        rows = sampler.draw(m)
        _step(state, dataset, rows, dataset.labels[rows], _NO_CONSTRAINTS,
              step_cfg, metrics, "init")
    return state


def _step(state, dataset, rows, batch_labels, constraints, step_cfg, metrics, split):
    """One landmark step on a batch: advance state and record the step.

    A fully labeled batch takes M = Y Y^T and leaves the features and the
    kernel to ulr_step; any other batch balances M against its kernel A.
    Raises TrainingDiverged on numeric collapse or an objective beyond
    OBJECTIVE_CEILING, AbortedRun when balancing fails past the mu ladder.
    """
    X = dataset.X[rows]
    feats = A = None
    mu = marginal_violation = rounds = float("nan")
    pairs, values = _batch_pairs(rows, constraints, dataset.n)
    try:
        if np.all(batch_labels >= 0):
            # labels pin every entry: balancing has nothing left to do
            M = _agreement(batch_labels)
        else:
            feats = forward(state.layer, X)
            A = ridge_kernel(feats.phi, step_cfg.lam)
            known = _batch_known(batch_labels, pairs, values)
            try:
                balanced = _balance(A, known, state.config, dataset.k)
            except BalancingDivergence as err:
                raise AbortedRun(
                    f"balancing diverged at iteration {state.iteration}: {err}",
                    iteration=state.iteration,
                    metrics=metrics,
                ) from err
            M, mu = balanced.M, balanced.mu
            marginal_violation, rounds = balanced.marginal_violation, balanced.rounds
        if values.size:
            worst = np.max(np.abs(M[pairs[:, 0], pairs[:, 1]] - values))
            metrics.constraint_violations.append((state.iteration, worst))
        result = ulr_step(state.layer, X, M, step_cfg, batch=feats, A=A)
    except (ValueError, TrainingDiverged) as err:
        # numeric collapse (degenerate features, overflow)
        raise TrainingDiverged(str(err), iteration=state.iteration) from err
    if not np.isfinite(result.objective) or abs(result.objective) > OBJECTIVE_CEILING:
        raise TrainingDiverged(
            f"objective {result.objective:g} out of range",
            iteration=state.iteration,
        )
    state.layer = result.layer
    state.iteration += 1
    if metrics is not None:
        metrics.record(
            state.iteration, split, objective=result.objective,
            marginal_violation=marginal_violation, mu=mu, rounds=rounds,
        )


def evaluate(state, dataset, split):
    """Split accuracy under the current parameters.

    Semi-supervised modes normalize the features over the train rows plus
    the split's rows, propagate labels over the train rows, fit the terminal
    classifier on them and score its predictions on the split.  The
    unsupervised mode scores a spectrally clustered evaluation batch through
    Hungarian matching.  Deterministic: repeated calls agree exactly.

    After train, evaluate(state, dataset, "test") can differ from
    metrics.test_accuracy on rare rows: _finalize normalizes the features
    over every row of the dataset, not over the train and test rows alone.
    """
    config = state.config
    split_rows = dataset.split_indices(split)
    if split_rows.size == 0:
        raise ValueError(f"split {split!r} is empty")
    if state.mode == "unsupervised":
        rows = _eval_rows(split_rows, config, 7)
        labels = _cluster_rows(state.layer, dataset, rows, config)
        return _accuracy(labels, dataset.true_labels[rows], split, dataset.k)
    train_rows = dataset.split_indices("train")
    labeled = dataset.labeled_indices("train")
    if labeled.size == 0:
        raise ValueError("semi-supervised evaluation needs labeled train rows")
    phi = forward(state.layer, dataset.X[np.concatenate([train_rows, split_rows])]).phi
    n_train = train_rows.size
    # both index lists are sorted: the labeled rows' positions among the train rows
    labeled_pos = np.searchsorted(train_rows, labeled)
    assign = nn_propagate(phi[:n_train], labeled_pos, dataset.labels[labeled])
    classifier = fit_final_classifier(
        phi[:n_train], assign.labels, config.ulr.lam, k=dataset.k
    )
    pred = predict_classes(classifier, phi[n_train:])
    return _accuracy(pred, dataset.true_labels[split_rows], split)


def _accuracy(pred, truth, split, k=None):
    """Share of the rows with ground truth that pred gets right.

    With k, pred holds cluster labels, Hungarian-matched to the k classes
    first.  Raises ValueError when no row has ground truth.
    """
    mask = truth >= 0
    if not mask.any():
        raise ValueError(f"split {split!r} has no ground truth to score")
    if k is not None:
        return hungarian_match(pred[mask], truth[mask], k)[1]
    return float(np.mean(pred[mask] == truth[mask]))


def _eval_rows(rows, config, stream):
    """At most eval_batch_size of rows, sorted, drawn from the given stream."""
    if rows.size <= config.eval_batch_size:
        return rows
    rng = np.random.default_rng([config.seed, stream])
    return np.sort(rng.choice(rows, size=config.eval_batch_size, replace=False))


def _cluster_rows(layer, dataset, rows, config):
    """Balance the agreement matrix of the given rows and cluster it."""
    A = ridge_kernel(forward(layer, dataset.X[rows]).phi, config.ulr.lam)
    no_labels = np.full(rows.size, -1)
    known = _batch_known(no_labels, _NO_CONSTRAINTS[:, :2], _NO_CONSTRAINTS[:, 2])
    result = _balance(A, known, config, dataset.k)
    return spectral_cluster(result.M, dataset.k, seed=config.seed).labels


def _batch_known(batch_labels, pairs, values):
    """Pinned entries of one batch as an (m, 3) array of (i, j, value) rows.

    Pins the diagonal, every pair of labeled rows to its label agreement and,
    in both orientations, each constraint pair inside the batch: pairs holds
    their batch positions (c, 2) and values their 0/1 values, as
    _batch_pairs gives them.
    """
    labeled = np.flatnonzero(batch_labels >= 0)
    diagonal = np.arange(batch_labels.size)
    i = np.concatenate([diagonal, np.repeat(labeled, labeled.size), *pairs.T])
    j = np.concatenate([diagonal, np.tile(labeled, labeled.size), *pairs.T[::-1]])
    agree = _agreement(batch_labels[labeled]).ravel()
    m = np.concatenate([np.ones(diagonal.size), agree, values, values])
    return np.column_stack([i, j, m])


def _batch_pairs(rows, constraints, n):
    """Batch positions (c, 2) and values of the constraints inside the batch."""
    position = np.full(n, -1)
    position[rows] = np.arange(rows.size)
    pos = position[constraints[:, :2]]
    inside = np.all(pos >= 0, axis=1)
    return pos[inside], constraints[inside, 2]


def _checkpoint_doc(layer, classifier, config):
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "d": layer.dim,
        "p": layer.num_landmarks,
        "sigma": float(layer.sigma),
        "epsilon": float(layer.epsilon),
        "newton_iters": int(layer.newton_iters),
        "V": [float(x) for x in layer.landmarks.ravel(order="C")],
        "W": None,
        "b": None,
        "config": config.to_dict(),
    }
    if classifier is not None:
        doc["W"] = [[float(x) for x in row] for row in classifier.weights]
        doc["b"] = [float(x) for x in classifier.intercept]
    return doc


def checkpoint_json(layer, classifier, config):
    """Serialize the model as one JSON document.

    Floats go through Python's shortest round-trip repr, so loading the
    document reproduces every parameter bit for bit.
    """
    return json.dumps(_checkpoint_doc(layer, classifier, config))


def load_checkpoint(text):
    """Inverse of checkpoint_json: (layer, classifier or None, config)."""
    doc = json.loads(text)
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format_version {doc.get('format_version')!r}"
        )
    layer = NystromLayer(
        landmarks=np.array(doc["V"], dtype=np.float64).reshape(doc["d"], doc["p"]),
        sigma=doc["sigma"],
        epsilon=doc["epsilon"],
        newton_iters=doc["newton_iters"],
    )
    config = TrainConfig.from_dict(doc["config"])
    classifier = None
    if doc["W"] is not None:
        classifier = RidgeSolution(
            weights=np.array(doc["W"], dtype=np.float64),
            intercept=np.array(doc["b"], dtype=np.float64),
            objective_value=float("nan"),
            lam=config.ulr.lam,
        )
    return layer, classifier, config


def _labeled_batch_size(config, n_labeled, n_unlabeled):
    if n_labeled == 0:
        return 0
    frac = config.labeled_batch_fraction
    if frac is None:
        frac = min(1.0, 2.0 * n_labeled / (n_labeled + n_unlabeled))
    m = math.ceil(frac * config.batch_size)
    if n_labeled >= 2:
        m = max(2, m)  # keep pinned pairs in every batch
    return min(m, config.batch_size, n_labeled)


def _scoreable(dataset, split):
    rows = dataset.split_indices(split)
    return rows.size > 0 and bool(np.any(dataset.true_labels[rows] >= 0))


def _maybe_evaluate(state, dataset, metrics):
    """Score the val split, keep the best layer, log the point."""
    if not _scoreable(dataset, "val"):
        return
    accuracy = evaluate(state, dataset, "val")
    metrics.record(state.iteration, "val", accuracy=accuracy)
    metrics.val_trajectory.append((state.iteration, accuracy))
    if state.best_layer is None or accuracy > state.best_val_accuracy:
        state.best_val_accuracy = accuracy
        state.best_layer = state.layer
        metrics.best_iteration = state.iteration


def train(dataset, config, mode="semi", listener=None):
    """Run one full training job; returns (TrainState, RunMetrics).

    The semi and supervised modes start from the supervised initialization
    phase; every eval_every iterations the val split is scored and the best
    layer kept.  From the best layer (the last one when no val split is
    scoreable) come the final labels, the final classifier and the test
    score; state.best_checkpoint serializes that layer and classifier.
    Balancing failures that survive the retry ladder raise AbortedRun
    carrying the metrics collected so far; numeric blow-ups raise
    TrainingDiverged.  listener, when given, receives every metrics record
    as it is written (progress reporting).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    train_rows = dataset.split_indices("train")
    if train_rows.size < 2:
        raise ValueError("training needs at least 2 train rows")
    constraints = np.asarray(config.constraints, dtype=np.int64).reshape(-1, 3)
    _check_constraints(dataset, constraints)
    labeled = dataset.labeled_indices("train") if mode != "unsupervised" else np.empty(0, np.int64)
    if mode in ("semi", "supervised") and labeled.size < 2:
        raise ValueError(f"mode {mode!r} needs at least 2 labeled train rows")
    unlabeled = np.setdiff1d(train_rows, labeled)

    state = TrainState(
        layer=_build_layer(dataset.X[train_rows], config),
        config=config,
        mode=mode,
        rng=np.random.default_rng([config.seed, 1]),
    )
    metrics = RunMetrics(
        report_is_trajectory_max=(mode == "unsupervised"), listener=listener
    )

    if mode != "unsupervised":
        supervised_init(state, dataset, config, metrics)

    lab_sampler = _PoolSampler(labeled, state.rng)
    unlab_sampler = _PoolSampler(unlabeled, state.rng)
    if mode == "supervised":
        lab_m = min(config.batch_size, labeled.size)
        unlab_m = 0
    else:
        lab_m = _labeled_batch_size(config, labeled.size, unlabeled.size)
        unlab_m = min(config.batch_size - lab_m, unlabeled.size)
    if lab_m + unlab_m < 2:
        raise ValueError("batch composition leaves fewer than 2 rows")

    _maybe_evaluate(state, dataset, metrics)
    for _ in range(config.main_iters):
        rows = np.concatenate([lab_sampler.draw(lab_m), unlab_sampler.draw(unlab_m)])
        # unsupervised: every row counts as unlabeled, visible label or not
        batch_labels = np.full(rows.size, -1) if mode == "unsupervised" else dataset.labels[rows]
        _step(state, dataset, rows, batch_labels, constraints, config.ulr, metrics, "batch")
        if state.iteration % config.eval_every == 0:
            _maybe_evaluate(state, dataset, metrics)
    if config.main_iters and state.iteration % config.eval_every:
        _maybe_evaluate(state, dataset, metrics)

    if state.best_layer is not None:
        state.layer = state.best_layer
    if metrics.val_trajectory:
        metrics.best_val_accuracy = state.best_val_accuracy
    _finalize(state, dataset, metrics)
    state.best_checkpoint = checkpoint_json(state.layer, state.classifier, config)
    return state, metrics


def _where_str(mask, yes, no):
    """np.where(mask, yes, no).tolist(), sharing two str objects instead of one per row."""
    return np.array([no, yes], dtype=object)[mask.astype(np.intp)].tolist()


def _finalize(state, dataset, metrics):
    """Final labels over the dataset, the final classifier and the test score.

    The semi and supervised modes make one feature pass over every row: it
    propagates the labels, fits state.classifier on the train rows and
    scores that classifier on the test rows.
    """
    config, mode = state.config, state.mode
    if mode == "unsupervised":
        rows = _eval_rows(dataset.split_indices("train"), config, 8)
        labels = np.full(dataset.n, -1, dtype=np.int64)
        labels[rows] = _cluster_rows(state.layer, dataset, rows, config)
        metrics.final_labels = labels
        metrics.final_sources = _where_str(labels >= 0, "spectral", "none")
    else:
        labeled = dataset.labeled_indices("train")
        phi = forward(state.layer, dataset.X).phi
        assign = nn_propagate(phi, labeled, dataset.labels[labeled])
        train_rows = dataset.split_indices("train")
        state.classifier = fit_final_classifier(
            phi[train_rows], assign.labels[train_rows], config.ulr.lam, k=dataset.k
        )
        # propagation seeds on the labeled train rows; visible labels stand
        visible = dataset.labels >= 0
        metrics.final_labels = np.where(visible, dataset.labels, assign.labels)
        metrics.final_sources = _where_str(visible, "ground_truth", "nearest_neighbor")
    if not _scoreable(dataset, "test"):
        return
    if mode == "unsupervised":
        metrics.test_accuracy = evaluate(state, dataset, "test")
    else:
        test = dataset.split_indices("test")
        pred = predict_classes(state.classifier, phi[test])
        metrics.test_accuracy = _accuracy(pred, dataset.true_labels[test], "test")
    metrics.record(state.iteration, "test", accuracy=metrics.test_accuracy)


# sweep stages in run order, each with the TrainConfig or UlrConfig fields
# it sets; a stage that sets several fields takes one value per field
_SWEEP_FIELDS = {
    "lam": ("lam",),
    "init_learning_rate": ("init_learning_rate",),
    "size_bounds": ("n_min_frac", "n_max_frac"),
    "learning_rate": ("learning_rate",),
    "rho": ("rho",),
    "alpha": ("alpha",),
}


def sweep(dataset, grids, config, mode="semi"):
    """Sequential single-parameter grid search.

    Stages run in a fixed order (classifier weight, init learning rate,
    optional cluster-size bound pairs, main learning rate, then the two
    regularization weights); each stage freezes every other parameter at its
    current best.  Divergent candidates score NaN and are skipped.  Returns
    (best config, report rows of (parameter, value, val_accuracy)).
    """
    if not isinstance(grids, dict) or not grids:
        raise ValueError("grids must be a nonempty dict of parameter lists")
    unknown = set(grids) - set(_SWEEP_FIELDS)
    if unknown:
        raise ValueError(f"unknown sweep parameters: {sorted(unknown)}")
    for stage, values in grids.items():
        if not list(values):
            raise ValueError(f"empty grid for {stage!r}")
    best = config
    rows = []
    for stage, names in _SWEEP_FIELDS.items():
        if stage not in grids:
            continue
        scores, candidates = [], []
        for value in grids[stage]:
            values = value if len(names) > 1 else (value,)
            settings = {name: float(v) for name, v in zip(names, values, strict=True)}
            candidate = TrainConfig.from_dict({**best.to_dict(), **settings})
            try:
                _, metrics = train(dataset, candidate, mode=mode)
                accuracy = metrics.best_val_accuracy
            except (TrainingDiverged, AbortedRun):
                accuracy = float("nan")
            scores.append(accuracy)
            candidates.append(candidate)
            rows.append((stage, ":".join(f"{v:g}" for v in settings.values()), accuracy))
        if np.all(np.isnan(scores)):
            raise ValueError(f"every candidate diverged in stage {stage!r}")
        best = candidates[int(np.nanargmax(scores))]
    return best, rows
