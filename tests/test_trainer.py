import json
from dataclasses import replace

import numpy as np
import pytest

import xsdc.trainer
import xsdc.ulr
from xsdc.data import make_blobs
from xsdc.errors import AbortedRun, TrainingDiverged
from xsdc.features import NystromLayer, forward
from xsdc.labeling import predict_classes
from xsdc.linalg import ridge_kernel
from xsdc.trainer import (
    OBJECTIVE_CEILING,
    RunMetrics,
    TrainConfig,
    TrainState,
    checkpoint_json,
    evaluate,
    load_checkpoint,
    supervised_init,
    sweep,
    train,
)
from xsdc.ulr import UlrConfig


def _small_config(**overrides):
    base = dict(
        num_landmarks=16,
        batch_size=24,
        supervised_init_iters=10,
        main_iters=20,
        eval_every=5,
        ulr=UlrConfig(lam=1e-3, alpha=1e-4, rho=1e-4, learning_rate=0.05),
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _blobs(**overrides):
    base = dict(n=120, d=5, k=3, separation=8.0, label_fraction=0.3, seed=1)
    base.update(overrides)
    return make_blobs(**base)


# ------------------------------------------------------------------ init/eval

def test_supervised_init_zero_iters_keeps_layer():
    ds = _blobs()
    cfg = _small_config(supervised_init_iters=0, main_iters=0)
    state, _ = train(ds, cfg, mode="supervised")
    cfg2 = _small_config(supervised_init_iters=5, main_iters=0)
    state2, _ = train(ds, cfg2, mode="supervised")
    # training moved the landmarks; zero init iterations did not
    assert not np.array_equal(state.layer.landmarks, state2.layer.landmarks)


def test_supervised_init_beats_chance():
    ds = _blobs()
    cfg = _small_config(supervised_init_iters=30, main_iters=0)
    _, metrics = train(ds, cfg, mode="supervised")
    assert metrics.best_val_accuracy > 1.0 / ds.k + 0.1


def test_evaluate_deterministic_and_validated():
    ds = _blobs()
    state, _ = train(ds, _small_config(main_iters=5), mode="semi")
    a = evaluate(state, ds, "val")
    b = evaluate(state, ds, "val")
    assert a == b
    with pytest.raises(ValueError):
        evaluate(state, ds, "holdout")


# ------------------------------------------------------------------ main loop

def test_train_returns_metrics_rows():
    ds = _blobs()
    state, metrics = train(ds, _small_config(), mode="semi")
    rows = metrics.to_rows()
    assert rows[0][0] == "iteration"
    splits = {rec["split"] for rec in metrics.records}
    assert {"init", "batch", "val", "test"} <= splits
    batch_rows = [r for r in metrics.records if r["split"] == "batch"]
    assert len(batch_rows) == 20
    assert np.isfinite([r["objective"] for r in batch_rows]).all()
    assert state.iteration == 30


def test_batch_records_carry_balancing_rounds():
    ds = _blobs()
    cfg = _small_config()
    _, metrics = train(ds, cfg, mode="semi")
    assert metrics.to_rows()[0][-1] == "rounds"
    rounds = [r["rounds"] for r in metrics.records if r["split"] == "batch"]
    assert rounds and all(
        isinstance(r, int) and 1 <= r <= cfg.balance_iters for r in rounds
    )
    others = [r["rounds"] for r in metrics.records if r["split"] != "batch"]
    assert others and np.all(np.isnan(others))
    # fully labeled batches run no balancing rounds
    _, metrics = train(_blobs(label_fraction=1.0), cfg, mode="supervised")
    rounds = [r["rounds"] for r in metrics.records if r["split"] == "batch"]
    assert rounds and np.all(np.isnan(rounds))


def test_best_checkpoint_tracks_max_val_accuracy():
    ds = _blobs()
    state, metrics = train(ds, _small_config(main_iters=30), mode="semi")
    accs = [a for _, a in metrics.val_trajectory]
    assert state.best_val_accuracy == max(accs)
    first_best = next(it for it, a in metrics.val_trajectory if a == max(accs))
    assert metrics.best_iteration == first_best
    assert state.best_checkpoint is not None


def test_best_checkpoint_serialized_once(monkeypatch):
    # val accuracy rises at every evaluation, so the best moves each time
    evaluate_split = xsdc.trainer.evaluate
    rising = iter(np.linspace(0.1, 0.9, 50))

    def scored(state, dataset, split):
        accuracy = evaluate_split(state, dataset, split)
        return next(rising) if split == "val" else accuracy

    serialize = xsdc.trainer.checkpoint_json
    calls = []

    def counted(layer, classifier, config):
        calls.append(classifier)
        return serialize(layer, classifier, config)

    monkeypatch.setattr(xsdc.trainer, "evaluate", scored)
    monkeypatch.setattr(xsdc.trainer, "checkpoint_json", counted)
    state, metrics = train(_blobs(), _small_config(), mode="semi")
    assert len(metrics.val_trajectory) >= 3
    assert metrics.best_iteration == metrics.val_trajectory[-1][0]
    assert len(calls) == 1
    layer, classifier, _ = load_checkpoint(state.best_checkpoint)
    assert np.array_equal(layer.landmarks, state.best_layer.landmarks)
    assert np.array_equal(classifier.weights, calls[0].weights)


def _assert_checkpoint_holds_final_model(state):
    layer, classifier, _ = load_checkpoint(state.best_checkpoint)
    assert np.array_equal(layer.landmarks, state.layer.landmarks)
    assert np.array_equal(classifier.weights, state.classifier.weights)
    assert np.array_equal(classifier.intercept, state.classifier.intercept)
    return layer, classifier


def test_checkpoint_holds_the_classifier_test_accuracy_scores():
    ds = _blobs()
    state, metrics = train(ds, _small_config(), mode="semi")
    assert np.array_equal(state.layer.landmarks, state.best_layer.landmarks)
    layer, classifier = _assert_checkpoint_holds_final_model(state)
    test = ds.split_indices("test")
    pred = predict_classes(classifier, forward(layer, ds.X).phi[test])
    truth = ds.true_labels[test]
    assert metrics.test_accuracy == np.mean(pred[truth >= 0] == truth[truth >= 0])


def test_run_without_val_split_gets_checkpoint():
    ds = _blobs()
    ds = replace(ds, split=np.where(ds.split == "val", "train", ds.split))
    state, metrics = train(ds, _small_config(), mode="semi")
    assert not metrics.val_trajectory and state.best_layer is None
    _assert_checkpoint_holds_final_model(state)


def test_reproducible_across_runs():
    ds = _blobs()
    cfg = _small_config()
    s1, m1 = train(ds, cfg, mode="semi")
    s2, m2 = train(ds, cfg, mode="semi")
    assert np.array_equal(s1.layer.landmarks, s2.layer.landmarks)
    assert abs(m1.best_val_accuracy - m2.best_val_accuracy) <= 1e-10
    assert abs(m1.test_accuracy - m2.test_accuracy) <= 1e-10


def test_regime_reduction_bitwise():
    # fully labeled: the semi loop must equal plain supervised training
    ds = _blobs(label_fraction=1.0)
    cfg = _small_config()
    semi, m_semi = train(ds, cfg, mode="semi")
    sup, m_sup = train(ds, cfg, mode="supervised")
    assert np.array_equal(semi.layer.landmarks, sup.layer.landmarks)
    obj_semi = [r["objective"] for r in m_semi.records if r["split"] == "batch"]
    obj_sup = [r["objective"] for r in m_sup.records if r["split"] == "batch"]
    assert obj_semi == obj_sup


def test_one_ridge_kernel_per_main_step(monkeypatch):
    # the main loop builds A once for balancing and the step; only
    # supervised_init leaves the kernel to ulr_step
    calls = {}
    for module in (xsdc.trainer, xsdc.ulr):
        def counted(phi, lam, out=None, _name=module.__name__):
            calls[_name] = calls.get(_name, 0) + 1
            return ridge_kernel(phi, lam, out=out)

        monkeypatch.setattr(module, "ridge_kernel", counted)
    cfg = _small_config(supervised_init_iters=4, main_iters=6, eval_every=3)
    train(_blobs(), cfg, mode="semi")
    assert calls == {"xsdc.trainer": 6, "xsdc.ulr": 4}


def test_semi_improves_over_init_baseline():
    ds = _blobs(n=160, separation=6.0, label_fraction=0.08, seed=3)
    cfg = _small_config(supervised_init_iters=20, main_iters=40)
    _, with_main = train(ds, cfg, mode="semi")
    _, init_only = train(
        ds, _small_config(supervised_init_iters=20, main_iters=0), mode="semi"
    )
    assert with_main.best_val_accuracy >= init_only.best_val_accuracy - 1e-12


def test_unsupervised_path_on_separable_blobs():
    ds = _blobs(separation=10.0, label_fraction=0.0, seed=4)
    cfg = _small_config(
        supervised_init_iters=0,
        main_iters=10,
        ulr=UlrConfig(lam=1e-2, alpha=1e-4, rho=1e-4, learning_rate=0.05),
    )
    state, metrics = train(ds, cfg, mode="unsupervised")
    assert metrics.report_is_trajectory_max
    assert metrics.best_val_accuracy >= 0.9
    assert metrics.test_accuracy >= 0.9
    clustered = metrics.final_labels >= 0
    assert clustered.any()
    assert set(np.array(metrics.final_sources)[clustered]) == {"spectral"}
    assert state.classifier is None


def test_final_labels_cover_dataset_in_semi_mode():
    ds = _blobs()
    state, metrics = train(ds, _small_config(), mode="semi")
    assert metrics.final_labels.shape == (ds.n,)
    assert metrics.final_labels.min() >= 0
    vis = ds.labels >= 0
    np.testing.assert_array_equal(metrics.final_labels[vis], ds.labels[vis])
    sources = np.array(metrics.final_sources)
    assert set(sources[vis]) == {"ground_truth"}
    assert set(sources[~vis]) == {"nearest_neighbor"}
    assert state.classifier is not None


def test_final_labels_keep_visible_labels_on_overlapping_blobs():
    # propagation seeds on labeled train rows only; on overlapping blobs it
    # gives many val/test rows another label than their visible one
    ds = _blobs(separation=1.5)
    _, metrics = train(ds, _small_config(), mode="semi")
    vis = ds.labels >= 0
    np.testing.assert_array_equal(metrics.final_labels[vis], ds.labels[vis])


# ---------------------------------------------------------------- constraints

def test_constraints_held_every_iteration():
    ds = _blobs(n=90, label_fraction=0.1, seed=5)
    hidden = [
        i for i in ds.split_indices("train") if ds.labels[i] < 0
    ]
    same = [i for i in hidden if ds.true_labels[i] == ds.true_labels[hidden[0]]]
    diff = [i for i in hidden if ds.true_labels[i] != ds.true_labels[hidden[0]]]
    constraints = [
        (same[0], same[1], 1.0),
        (same[0], same[2], 1.0),
        (same[0], diff[0], 0.0),
        (same[1], diff[1], 0.0),
    ]
    cfg = _small_config(batch_size=60, main_iters=15, constraints=constraints)
    _, metrics = train(ds, cfg, mode="semi")
    assert len(metrics.constraint_violations) == 15  # batch covers the pool
    assert max(v for _, v in metrics.constraint_violations) <= 1e-6


def test_constraints_recorded_on_fully_labeled_batches():
    # fully labeled batches skip balancing, yet still report their
    # constraint pairs: held exactly, as a float that summary.json can take
    ds = _blobs(label_fraction=1.0)
    rows = ds.split_indices("train")
    a, b = int(rows[0]), int(rows[1])
    constraints = [(a, b, float(ds.labels[a] == ds.labels[b]))]
    cfg = _small_config(batch_size=rows.size, main_iters=3, constraints=constraints)
    _, metrics = train(ds, cfg, mode="supervised")
    assert json.loads(json.dumps(metrics.constraint_violations)) == [
        [it, 0.0] for it in range(10, 13)
    ]


def test_supervised_run_builds_no_batch_pins(monkeypatch):
    # fully labeled batches need only the constraint pairs, not the pin list
    calls = []
    pins = xsdc.trainer._batch_known

    def counted(*args):
        calls.append(args)
        return pins(*args)

    monkeypatch.setattr(xsdc.trainer, "_batch_known", counted)
    ds = _blobs()
    a, b = (int(r) for r in ds.labeled_indices("train")[:2])
    cfg = _small_config(constraints=[(a, b, float(ds.labels[a] == ds.labels[b]))])
    _, metrics = train(ds, cfg, mode="supervised")
    assert calls == []
    assert [v for _, v in metrics.constraint_violations] == [0.0] * cfg.main_iters


def test_conflicting_constraint_rejected_up_front():
    ds = _blobs(label_fraction=1.0)
    train_rows = ds.split_indices("train")
    i = int(train_rows[0])
    j = int(train_rows[np.flatnonzero(ds.labels[train_rows] != ds.labels[i])[0]])
    cfg = _small_config(constraints=[(i, j, 1.0)])
    with pytest.raises(ValueError, match="contradicts"):
        train(ds, cfg, mode="semi")


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_bit_exact():
    ds = _blobs()
    state, _ = train(ds, _small_config(main_iters=5), mode="semi")
    text = state.best_checkpoint
    layer, classifier, config = load_checkpoint(text)
    assert json.loads(checkpoint_json(layer, classifier, config)) == json.loads(text)
    again, _, _ = load_checkpoint(checkpoint_json(layer, classifier, config))
    assert np.array_equal(layer.landmarks, again.landmarks)
    assert classifier is not None


def test_checkpoint_rejects_other_versions():
    ds = _blobs()
    state, _ = train(ds, _small_config(main_iters=5), mode="semi")
    doc = json.loads(state.best_checkpoint)
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="format_version"):
        load_checkpoint(json.dumps(doc))


# written by checkpoint_json before the landmark whitening took its closed
# form, from a run with newton_iters = 7
_NEWTON_CHECKPOINT = (
    '{"format_version": 1, "d": 2, "p": 3, "sigma": 4.385998128684125, '
    '"epsilon": 0.001, "newton_iters": 7, "V": [2.353677489632117, '
    '5.036594482594072, 6.065430378830294, -1.3324772718179094, '
    '-6.502393855407343, -7.343142637968463], "W": [[-0.20013956782825784, '
    '0.20013956782825784], [0.44148378389352433, -0.44148378389352433], '
    '[0.22690272194284256, -0.22690272194284256]], "b": [0.4971377954397632, '
    '0.5028622045602368], "config": {"num_landmarks": 3, "batch_size": 8, '
    '"supervised_init_iters": 2, "main_iters": 2, "eval_every": 1, '
    '"labeled_batch_fraction": null, "init_learning_rate": null, '
    '"balance_iters": 10, "mu": null, "n_min_frac": null, "n_max_frac": null, '
    '"seed": 0, "eval_batch_size": 200, "sigma": null, "epsilon": 0.001, '
    '"newton_iters": 7, "lam": 0.01, "alpha": 0.0625, "rho": 0.0625, '
    '"learning_rate": 0.05, "constraints": []}}'
)


def test_checkpoint_with_newton_iters_loads():
    layer, classifier, config = load_checkpoint(_NEWTON_CHECKPOINT)
    doc = json.loads(_NEWTON_CHECKPOINT)
    del doc["newton_iters"], doc["config"]["newton_iters"]
    assert json.loads(checkpoint_json(layer, classifier, config)) == doc
    X = np.random.default_rng(0).normal(size=(10, 2))
    fresh = NystromLayer(np.array(doc["V"]).reshape(2, 3), sigma=doc["sigma"])
    assert forward(layer, X).phi.tobytes() == forward(fresh, X).phi.tobytes()
    with pytest.raises(ValueError, match="newton_iters"):
        TrainConfig.from_dict(json.loads(_NEWTON_CHECKPOINT)["config"])


def test_config_dict_round_trip_and_strictness():
    cfg = _small_config(constraints=[(1, 2, 1.0)])
    doc = cfg.to_dict()
    back = TrainConfig.from_dict(doc)
    assert back.to_dict() == doc
    doc["typo_key"] = 1
    with pytest.raises(ValueError, match="typo_key"):
        TrainConfig.from_dict(doc)


# ----------------------------------------------------------------- divergence

def test_huge_learning_rate_diverges():
    ds = _blobs()
    cfg = _small_config(
        ulr=UlrConfig(lam=1e-3, alpha=1e-4, rho=1e-4, learning_rate=1e18),
        supervised_init_iters=0,
    )
    with pytest.raises(TrainingDiverged) as err:
        train(ds, cfg, mode="semi")
    assert err.value.iteration is not None


def test_equal_landmarks_without_shift_diverge():
    # every train row is a landmark and two rows are equal: with epsilon = 0
    # the landmark Gram matrix is singular and whitening raises
    ds = _blobs(n=30)
    train_rows = ds.split_indices("train")
    ds.X[train_rows[1]] = ds.X[train_rows[0]]
    cfg = _small_config(num_landmarks=30, epsilon=0.0)
    with pytest.raises(TrainingDiverged, match="smallest eigenvalue") as err:
        train(ds, cfg, mode="semi")
    assert err.value.iteration == 0
    train(ds, _small_config(num_landmarks=30, main_iters=2), mode="semi")


def test_init_objective_above_ceiling_diverges(monkeypatch):
    # the init phase applies the main loop's ceiling to the step objective
    step = xsdc.trainer.ulr_step
    steps = []

    def blown(*args, **kwargs):
        result = step(*args, **kwargs)
        steps.append(result)
        if len(steps) == 2:
            result.objective = 10 * OBJECTIVE_CEILING
        return result

    monkeypatch.setattr(xsdc.trainer, "ulr_step", blown)
    ds = _blobs()
    cfg = _small_config()
    state = TrainState(
        layer=xsdc.trainer._build_layer(ds.X, cfg), config=cfg, mode="semi",
        rng=np.random.default_rng(0),
    )
    metrics = RunMetrics()
    with pytest.raises(TrainingDiverged, match="out of range") as err:
        supervised_init(state, ds, cfg, metrics)
    assert err.value.iteration == 1
    assert len(steps) == 2 and state.iteration == 1
    assert [r["split"] for r in metrics.records] == ["init"]


def test_balancing_gives_up_as_aborted_run():
    ds = _blobs(label_fraction=0.1)
    cfg = _small_config(
        ulr=UlrConfig(lam=1e-14, alpha=0.0, rho=0.0, learning_rate=0.01),
        mu=1e-300,
        supervised_init_iters=0,
    )
    with pytest.raises(AbortedRun) as err:
        train(ds, cfg, mode="semi")
    assert isinstance(err.value.metrics, RunMetrics)


# ---------------------------------------------------------------------- sweep

def test_sweep_single_point_grids_echo_config():
    ds = _blobs()
    cfg = _small_config(main_iters=5, supervised_init_iters=5)
    best, rows = sweep(ds, {"lam": [1e-3], "rho": [1e-4]}, cfg)
    assert best.ulr.lam == 1e-3
    assert best.ulr.rho == 1e-4
    assert [r[0] for r in rows] == ["lam", "rho"]


def test_sweep_filters_divergent_candidate():
    ds = _blobs()
    cfg = _small_config(main_iters=5, supervised_init_iters=5)
    best, rows = sweep(ds, {"learning_rate": [0.05, 1e18]}, cfg)
    assert best.ulr.learning_rate == 0.05
    assert np.isnan(rows[1][2])


def test_sweep_matches_rerun_oracle():
    ds = _blobs()
    cfg = _small_config(main_iters=10, supervised_init_iters=5)
    grid = [2.0**-12, 2.0**-8, 2.0**-2]
    best, rows = sweep(ds, {"lam": grid}, cfg)
    from dataclasses import replace

    rerun = []
    for lam in grid:
        _, metrics = train(ds, replace(cfg, ulr=replace(cfg.ulr, lam=lam)), "semi")
        rerun.append(metrics.best_val_accuracy)
    assert best.ulr.lam == grid[int(np.argmax(rerun))]
    assert [r[2] for r in rows] == rerun


def test_sweep_validation():
    ds = _blobs()
    cfg = _small_config()
    with pytest.raises(ValueError):
        sweep(ds, {}, cfg)
    with pytest.raises(ValueError):
        sweep(ds, {"lam": []}, cfg)
    with pytest.raises(ValueError):
        sweep(ds, {"not_a_knob": [1.0]}, cfg)


# ----------------------------------------------------------------- config/val

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(labeled_batch_fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(n_min_frac=0.5, n_max_frac=0.2)
    with pytest.raises(ValueError):
        TrainConfig(constraints=[(2, 2, 1.0)])
    with pytest.raises(ValueError):
        TrainConfig(constraints=[(1, 2, 0.5)])
    with pytest.raises(ValueError):
        TrainConfig(constraints=[(1, 2, 1.0), (2, 1, 0.0)])
    with pytest.raises(ValueError, match="integers"):
        TrainConfig.from_dict({"constraints": [[0.9, 2, 1]]})


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[1, 2]], "finite"),
        ([[float("inf"), 2, 1]], "finite"),
        ([[float("nan"), 2, 1]], "finite"),
        ([[0, 1, 1, 7], [2, 3, 0, 9], [4, 5, 1, 0]], "finite"),  # once re-chunked
        ([5], "finite"),
        (["abc"], "finite"),
        ([[10**30, 2, 1]], "int64"),
        ([[1e30, 2, 1]], "int64"),
        ([[2**63, 2, 1]], "int64"),
    ],
    ids=["short", "inf", "nan", "long", "scalar", "string", "huge", "huge-float", "pow63"],
)
def test_malformed_constraint_entries_rejected(entries, message):
    # these used to raise IndexError or OverflowError, or be accepted
    with pytest.raises(ValueError, match=message):
        TrainConfig(constraints=entries)


@pytest.mark.parametrize("name, minimum", [
    ("num_landmarks", 1), ("batch_size", 2), ("supervised_init_iters", 0),
    ("main_iters", 0), ("eval_every", 1), ("balance_iters", 1), ("seed", 0),
    ("eval_batch_size", 2),
])
def test_integer_settings_are_whole_and_bounded(name, minimum):
    # fractions used to be truncated at use; seed, num_landmarks and
    # balance_iters below their minimums used to pass unchecked
    for bad in (minimum - 1, minimum + 0.5, float("nan"), float("inf"), "3", None,
                True, np.True_):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            TrainConfig(**{name: bad})
    for good in (np.int64(minimum), float(minimum + 1)):
        stored = getattr(TrainConfig(**{name: good}), name)
        assert type(stored) is int and stored == good


@pytest.mark.parametrize("name, value", [
    ("labeled_batch_fraction", "0.5"), ("init_learning_rate", 1), ("mu", "0.5"),
    ("n_min_frac", np.float32(0.25)), ("n_max_frac", 1), ("sigma", "2"),
    ("epsilon", 0), ("lam", "0.1"), ("alpha", 0), ("rho", np.int64(1)),
    ("learning_rate", "0.03125"),
])
def test_float_settings_are_stored_as_checked(name, value):
    # each used to be stored as given: a string, an int or a numpy scalar
    cfg = TrainConfig.from_dict({name: value})
    stored = cfg.to_dict()[name]
    assert (type(stored), stored) == (float, float(value))


@pytest.mark.parametrize("name", ["labeled_batch_fraction", "n_min_frac", "n_max_frac"])
def test_fraction_settings_at_most_one(name):
    assert getattr(TrainConfig(**{name: 1}), name) == 1.0
    with pytest.raises(ValueError, match=f"^{name} must be at most 1"):
        TrainConfig(**{name: 1.5})


def test_sweep_grid_values_go_through_the_config_checks():
    # a boolean grid value used to be taken as 1.0 and trained
    with pytest.raises(ValueError, match="^lam must be a finite number"):
        sweep(_blobs(), {"lam": [True]}, _small_config())


def test_integral_float_settings_train_and_serialize_as_int():
    # each float used to reach numpy (default_rng, choice) and raise TypeError
    cfg = _small_config(eval_batch_size=50.0, seed=1.0)
    _, metrics = train(_blobs(label_fraction=0.0), cfg, mode="unsupervised")
    assert 0.0 <= metrics.test_accuracy <= 1.0
    doc = cfg.to_dict()
    assert [(doc[k], type(doc[k])) for k in ("eval_batch_size", "seed")] == [(50, int), (1, int)]


def test_train_mode_validation():
    ds = _blobs()
    with pytest.raises(ValueError):
        train(ds, _small_config(), mode="other")
    unlab = _blobs(label_fraction=0.0)
    with pytest.raises(ValueError, match="labeled"):
        train(unlab, _small_config(), mode="semi")
