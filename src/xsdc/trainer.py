"""Training orchestration: initialization, the main loop, sweeps.

The loop interleaves three pieces per mini-batch: the feature forward pass,
entropic balancing of the batch agreement matrix under the known entries
(pinned diagonal, same-label pairs, injected pair constraints), and one
landmark gradient step on the closed-form ridge objective.  _batch_known
gives each batch's known entries as one array, which BalancingProblem
validates into a pinned mask and values.  Fully labeled batches skip
balancing: their agreement matrix is determined by the labels, so the loop
degenerates to plain supervised training on the same code path.

Three modes share the machinery.  "semi" mixes labeled and unlabeled rows
per batch, "supervised" draws labeled rows only, "unsupervised" treats every
train row as unlabeled and labels the result by spectral clustering.
"""

import json
import math
import numpy as np
from dataclasses import dataclass, field, fields, replace

from .balancing import BalancingProblem, balance_doubling
from .errors import AbortedRun, BalancingDivergence, TrainingDiverged
from .features import NystromLayer, forward, init_landmarks, median_bandwidth
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


@dataclass
class TrainConfig:
    """Everything a run needs beyond the dataset itself.

    labeled_batch_fraction, n_min_frac, n_max_frac, init_learning_rate and
    sigma default to None, meaning: derive from the data (twice the labeled
    share, 1/k, 1/k, the main learning rate, the median heuristic).
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
        if int(self.batch_size) < 2:
            raise ValueError(f"batch_size must be at least 2, got {self.batch_size}")
        for name in ("supervised_init_iters", "main_iters"):
            if int(getattr(self, name)) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if int(self.eval_every) < 1:
            raise ValueError("eval_every must be at least 1")
        if int(self.eval_batch_size) < 2:
            raise ValueError("eval_batch_size must be at least 2")
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
            i, j, v = int(triple[0]), int(triple[1]), float(triple[2])
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


@dataclass
class RunMetrics:
    """Per-iteration records plus the run-level summary.

    records rows are dicts with keys (iteration, split, accuracy, objective,
    marginal_violation, mu); non-applicable fields hold NaN.
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
               mu=float("nan")):
        rec = dict(
            iteration=int(iteration),
            split=split,
            accuracy=float(accuracy),
            objective=float(objective),
            marginal_violation=float(marginal_violation),
            mu=float(mu),
        )
        self.records.append(rec)
        if self.listener is not None:
            self.listener(rec)

    def to_rows(self):
        header = ("iteration", "split", "accuracy", "objective",
                  "marginal_violation", "mu")
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


def _size_bounds(config, k, batch):
    lo = 1.0 / k if config.n_min_frac is None else float(config.n_min_frac)
    hi = 1.0 / k if config.n_max_frac is None else float(config.n_max_frac)
    return lo * batch, hi * batch


def _build_layer(X_train, config):
    p = min(int(config.num_landmarks), X_train.shape[0])
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
    m = min(int(config.batch_size), labeled.size)
    for _ in range(int(config.supervised_init_iters)):
        rows = sampler.draw(m)
        M = _agreement(dataset.labels[rows])
        try:
            result = ulr_step(state.layer, dataset.X[rows], M, step_cfg)
        except (ValueError, TrainingDiverged) as err:
            # degenerate features after a blown-up step count as divergence
            raise TrainingDiverged(str(err), iteration=state.iteration) from err
        state.layer = result.layer
        state.iteration += 1
        if metrics is not None:
            metrics.record(state.iteration, "init", objective=result.objective)
    return state


def _evaluate_full(state, dataset, split):
    """Accuracy on a split plus the classifier that produced it (or None)."""
    config, mode = state.config, state.mode
    split_rows = dataset.split_indices(split)
    if split_rows.size == 0:
        raise ValueError(f"split {split!r} is empty")
    if mode == "unsupervised":
        rows = split_rows
        if rows.size > config.eval_batch_size:
            rng = np.random.default_rng([config.seed, 7])
            rows = np.sort(rng.choice(rows, size=config.eval_batch_size, replace=False))
        labels = _cluster_rows(state.layer, dataset, rows, config)
        truth = dataset.true_labels[rows]
        mask = truth >= 0
        if not mask.any():
            raise ValueError(f"split {split!r} has no ground truth to score")
        _, accuracy = hungarian_match(labels[mask], truth[mask], dataset.k)
        return accuracy, None
    train_rows = dataset.split_indices("train")
    labeled = dataset.labeled_indices("train")
    if labeled.size == 0:
        raise ValueError("semi-supervised evaluation needs labeled train rows")
    rows = train_rows if split == "train" else np.concatenate([train_rows, split_rows])
    phi = forward(state.layer, dataset.X[rows]).phi
    pos_of = {int(r): i for i, r in enumerate(rows)}
    labeled_pos = np.array([pos_of[int(r)] for r in labeled], dtype=np.int64)
    assign = nn_propagate(phi, labeled_pos, dataset.labels[labeled])
    n_train = train_rows.size
    classifier = fit_final_classifier(
        phi[:n_train], assign.labels[:n_train], config.ulr.lam, k=dataset.k
    )
    if split == "train":
        pred = assign.labels
    else:
        pred = predict_classes(classifier, phi[n_train:])
    truth = dataset.true_labels[split_rows]
    mask = truth >= 0
    if not mask.any():
        raise ValueError(f"split {split!r} has no ground truth to score")
    accuracy = float(np.mean(pred[mask] == truth[mask]))
    return accuracy, classifier


def evaluate(state, dataset, split):
    """Split accuracy under the current parameters.

    Semi-supervised modes propagate labels over current features, fit the
    terminal classifier on the train rows, and score the split; the
    unsupervised mode scores a spectrally clustered evaluation batch through
    Hungarian matching.  Deterministic: repeated calls agree exactly.
    """
    accuracy, _ = _evaluate_full(state, dataset, split)
    return accuracy


def _cluster_rows(layer, dataset, rows, config):
    """Balance the agreement matrix of the given rows and cluster it."""
    phi = forward(layer, dataset.X[rows]).phi
    A = ridge_kernel(phi, config.ulr.lam)
    known, _, _ = _batch_known(np.full(rows.size, -1), rows, _NO_CONSTRAINTS, dataset.n)
    lo, hi = _size_bounds(config, dataset.k, rows.size)
    problem = BalancingProblem(
        A, known, lo, hi, mu=config.mu, iters=config.balance_iters,
        num_clusters=dataset.k,
    )
    result = balance_doubling(problem, MAX_MU_DOUBLINGS)
    assign = spectral_cluster(result.M, dataset.k, seed=config.seed)
    return assign.labels


def _batch_known(batch_labels, rows, constraints, n):
    """Pinned entries of one batch as an (m, 3) array of (i, j, value) rows.

    Pins the diagonal, every pair of labeled rows to its label agreement and,
    in both orientations, each constraint whose two rows are in the batch;
    constraints holds (i, j, value) int rows over a dataset of n rows.  Also
    returns the batch positions (c, 2) and the values of those constraints.
    """
    b = rows.size
    labeled = np.flatnonzero(batch_labels >= 0)
    position = np.full(n, -1)
    position[rows] = np.arange(b)
    pos = position[constraints[:, :2]]
    inside = np.all(pos >= 0, axis=1)
    pos, values = pos[inside], constraints[inside, 2]
    diagonal = np.arange(b)
    i = np.concatenate([diagonal, np.repeat(labeled, labeled.size), pos[:, 0], pos[:, 1]])
    j = np.concatenate([diagonal, np.tile(labeled, labeled.size), pos[:, 1], pos[:, 0]])
    m = np.concatenate(
        [np.ones(b), _agreement(batch_labels[labeled]).ravel(), values, values]
    )
    return np.column_stack([i, j, m]), pos, values


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
    return min(m, int(config.batch_size), n_labeled)


def _scoreable(dataset, split):
    rows = dataset.split_indices(split)
    return rows.size > 0 and bool(np.any(dataset.true_labels[rows] >= 0))


def _maybe_evaluate(state, dataset, metrics):
    """Score the val split, advance the best checkpoint, log the point."""
    if not _scoreable(dataset, "val"):
        return
    accuracy, classifier = _evaluate_full(state, dataset, "val")
    metrics.record(state.iteration, "val", accuracy=accuracy)
    metrics.val_trajectory.append((state.iteration, accuracy))
    if state.best_checkpoint is None or accuracy > state.best_val_accuracy:
        state.best_val_accuracy = accuracy
        state.best_checkpoint = checkpoint_json(state.layer, classifier, state.config)
        state.classifier = classifier
        metrics.best_iteration = state.iteration


def train(dataset, config, mode="semi", listener=None):
    """Run one full training job; returns (TrainState, RunMetrics).

    The semi and supervised modes start from the supervised initialization
    phase; every eval_every iterations the val split is scored and the best
    checkpoint updated.  The final labeling and test score come from the
    best checkpoint.  Balancing failures that survive the retry ladder raise
    AbortedRun carrying the metrics collected so far; numeric blow-ups raise
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
        lab_m = min(int(config.batch_size), labeled.size)
        unlab_m = 0
    elif mode == "unsupervised":
        lab_m = 0
        unlab_m = min(int(config.batch_size), unlabeled.size)
    else:
        lab_m = _labeled_batch_size(config, labeled.size, unlabeled.size)
        unlab_m = min(int(config.batch_size) - lab_m, unlabeled.size)
    if lab_m + unlab_m < 2:
        raise ValueError("batch composition leaves fewer than 2 rows")

    _maybe_evaluate(state, dataset, metrics)
    for _ in range(int(config.main_iters)):
        rows = np.concatenate([lab_sampler.draw(lab_m), unlab_sampler.draw(unlab_m)])
        batch_labels = dataset.labels[rows].copy()
        if mode == "unsupervised":
            batch_labels[:] = -1
        try:
            feats = forward(state.layer, dataset.X[rows])
            known, pairs, values = _batch_known(batch_labels, rows, constraints, dataset.n)
            if np.all(batch_labels >= 0):
                # labels pin every entry: balancing has nothing left to do
                M = _agreement(batch_labels)
                mu_used = marginal_violation = float("nan")
            else:
                A = ridge_kernel(feats.phi, config.ulr.lam)
                lo, hi = _size_bounds(config, dataset.k, rows.size)
                problem = BalancingProblem(
                    A, known, lo, hi, mu=config.mu,
                    iters=config.balance_iters, num_clusters=dataset.k,
                )
                try:
                    balanced = balance_doubling(problem, MAX_MU_DOUBLINGS)
                except BalancingDivergence as err:
                    raise AbortedRun(
                        f"balancing diverged at iteration {state.iteration}: {err}",
                        iteration=state.iteration,
                        metrics=metrics,
                    ) from err
                M = balanced.M
                mu_used = balanced.mu
                marginal_violation = balanced.marginal_violation
            if values.size:
                worst = np.max(np.abs(M[pairs[:, 0], pairs[:, 1]] - values))
                metrics.constraint_violations.append((state.iteration, worst))
            result = ulr_step(state.layer, dataset.X[rows], M, config.ulr, batch=feats)
        except ValueError as err:
            # mid-loop numeric collapse (degenerate features, overflow)
            raise TrainingDiverged(str(err), iteration=state.iteration) from err
        except TrainingDiverged as err:
            raise TrainingDiverged(str(err), iteration=state.iteration) from err
        if not np.isfinite(result.objective) or abs(result.objective) > OBJECTIVE_CEILING:
            raise TrainingDiverged(
                f"objective {result.objective:g} out of range",
                iteration=state.iteration,
            )
        state.layer = result.layer
        state.iteration += 1
        metrics.record(
            state.iteration, "batch", objective=result.objective,
            marginal_violation=marginal_violation, mu=mu_used,
        )
        if state.iteration % int(config.eval_every) == 0:
            _maybe_evaluate(state, dataset, metrics)
    if int(config.main_iters) and state.iteration % int(config.eval_every):
        _maybe_evaluate(state, dataset, metrics)

    if state.best_checkpoint is not None:
        best_layer, best_classifier, _ = load_checkpoint(state.best_checkpoint)
    else:
        best_layer, best_classifier = state.layer, state.classifier
    best_state = replace(
        state, layer=best_layer, classifier=best_classifier, rng=None
    )
    if metrics.val_trajectory:
        metrics.best_val_accuracy = (
            max(a for _, a in metrics.val_trajectory)
            if mode == "unsupervised"
            else state.best_val_accuracy
        )
    _finalize(best_state, dataset, metrics)
    state.layer = best_state.layer
    state.classifier = best_state.classifier
    return state, metrics


def _finalize(state, dataset, metrics):
    """Final labels over the dataset and the test score, best parameters."""
    config, mode = state.config, state.mode
    n = dataset.n
    if mode == "unsupervised":
        train_rows = dataset.split_indices("train")
        rows = train_rows
        if rows.size > config.eval_batch_size:
            rng = np.random.default_rng([config.seed, 8])
            rows = np.sort(rng.choice(rows, size=config.eval_batch_size, replace=False))
        labels = np.full(n, -1, dtype=np.int64)
        labels[rows] = _cluster_rows(state.layer, dataset, rows, config)
        clustered = np.zeros(n, dtype=bool)
        clustered[rows] = True
        metrics.final_labels = labels
        metrics.final_sources = ["spectral" if c else "none" for c in clustered.tolist()]
    else:
        labeled = dataset.labeled_indices("train")
        phi = forward(state.layer, dataset.X).phi
        assign = nn_propagate(phi, labeled, dataset.labels[labeled])
        train_rows = dataset.split_indices("train")
        state.classifier = fit_final_classifier(
            phi[train_rows], assign.labels[train_rows], config.ulr.lam, k=dataset.k
        )
        metrics.final_labels = assign.labels
        metrics.final_sources = [
            "ground_truth" if dataset.labels[i] >= 0 else "nearest_neighbor"
            for i in range(n)
        ]
    if _scoreable(dataset, "test"):
        test_accuracy, _ = _evaluate_full(state, dataset, "test")
        metrics.test_accuracy = test_accuracy
        metrics.record(state.iteration, "test", accuracy=test_accuracy)


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
_SWEEP_STAGES = tuple(_SWEEP_FIELDS)


def _sweep_settings(stage, value):
    names = _SWEEP_FIELDS[stage]
    values = value if len(names) > 1 else (value,)
    return {name: float(v) for name, v in zip(names, values, strict=True)}


def _apply_sweep_value(config, stage, value):
    settings = _sweep_settings(stage, value)
    ulr = {k: v for k, v in settings.items() if k in _CONFIG_ULR}
    top = {k: v for k, v in settings.items() if k not in _CONFIG_ULR}
    return replace(config, ulr=replace(config.ulr, **ulr), **top)


def _format_sweep_value(stage, value):
    return ":".join(f"{v:g}" for v in _sweep_settings(stage, value).values())


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
    unknown = set(grids) - set(_SWEEP_STAGES)
    if unknown:
        raise ValueError(f"unknown sweep parameters: {sorted(unknown)}")
    for stage, values in grids.items():
        if not list(values):
            raise ValueError(f"empty grid for {stage!r}")
    best = config
    rows = []
    for stage in _SWEEP_STAGES:
        if stage not in grids:
            continue
        scores = []
        for value in grids[stage]:
            candidate = _apply_sweep_value(best, stage, value)
            try:
                _, metrics = train(dataset, candidate, mode=mode)
                accuracy = metrics.best_val_accuracy
            except (TrainingDiverged, AbortedRun):
                accuracy = float("nan")
            scores.append(accuracy)
            rows.append((stage, _format_sweep_value(stage, value), accuracy))
        if np.all(np.isnan(scores)):
            raise ValueError(f"every candidate diverged in stage {stage!r}")
        best = _apply_sweep_value(best, stage, grids[stage][int(np.nanargmax(scores))])
    return best, rows
