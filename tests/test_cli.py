"""Command-line interface tests.

Everything drives cli.main(argv) in-process so exit codes and the stderr
event stream can be asserted directly.
"""

import csv
import io
import json
import os

import numpy as np
import pytest

from xsdc import cli


def _write_config(path, out_dir, **overrides):
    doc = {
        "format_version": 1,
        "mode": "semi",
        "output_dir": str(out_dir),
        "dataset": {
            "type": "blobs",
            "n": 120,
            "d": 5,
            "k": 3,
            "separation": 8.0,
            "label_fraction": 0.3,
            "seed": 0,
        },
        "train": {
            "num_landmarks": 16,
            "batch_size": 24,
            "supervised_init_iters": 10,
            "main_iters": 20,
            "eval_every": 5,
            "seed": 0,
            "lam": 1e-3,
            "learning_rate": 0.05,
            "alpha": 0.0,
            "rho": 0.0,
        },
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


def _events(captured_err):
    return [json.loads(line) for line in captured_err.splitlines() if line]


class TestTrainCommand:
    def test_artifacts_and_exit_code(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        _write_config(config, out)
        code = cli.main(["train", "--config", str(config)])
        assert code == 0
        for name in ("metrics.csv", "checkpoint.json", "labels.csv", "summary.json"):
            assert (out / name).exists()
        assert not list(out.glob("*.tmp"))
        events = _events(capsys.readouterr().err)
        assert events[0]["event"] == "start"
        assert events[-1]["event"] == "summary"
        assert any(e["event"] == "metric" for e in events)

    def test_summary_contents(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        _write_config(config, out)
        assert cli.main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "semi"
        assert summary["best_iteration"] >= 0
        assert 0.0 <= summary["best_val_accuracy"] <= 1.0
        assert summary["config"]["num_landmarks"] == 16
        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "row_index,predicted_label,source"
        assert len(labels) == 121

    def test_two_runs_identical(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        _write_config(config, tmp_path / "a")
        assert cli.main(["train", "--config", str(config)]) == 0
        assert cli.main(
            ["train", "--config", str(config), "--out-dir", str(tmp_path / "b")]
        ) == 0
        capsys.readouterr()
        for name in ("summary.json", "metrics.csv", "checkpoint.json", "labels.csv"):
            a = (tmp_path / "a" / name).read_text()
            b = (tmp_path / "b" / name).read_text()
            assert a == b, name

    def test_seed_override_changes_run(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        _write_config(config, out)
        assert cli.main(
            ["train", "--config", str(config), "--seed-override", "9"]
        ) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 9
        assert summary["config"]["seed"] == 9

    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        _write_config(config, tmp_path / "out", typo_key=1)
        assert cli.main(["train", "--config", str(config)]) == 2
        events = _events(capsys.readouterr().err)
        assert events[-1]["event"] == "error"
        assert "typo_key" in events[-1]["message"]

    def test_unknown_train_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        doc = _write_config(config, tmp_path / "out")
        doc["train"]["not_a_knob"] = 3
        config.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 2
        capsys.readouterr()

    def test_newton_iters_rejected(self, tmp_path, capsys):
        # the setting left with the Newton whitening; it is now an unknown key
        config = tmp_path / "config.json"
        doc = _write_config(config, tmp_path / "out")
        doc["train"]["newton_iters"] = 20
        config.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 2
        events = _events(capsys.readouterr().err)
        assert events[-1]["event"] == "error"
        assert "newton_iters" in events[-1]["message"]

    def test_wrong_format_version_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        _write_config(config, tmp_path / "out", format_version=99)
        assert cli.main(["train", "--config", str(config)]) == 2
        capsys.readouterr()

    def test_unknown_dataset_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        doc = _write_config(config, tmp_path / "out")
        doc["dataset"]["centers"] = 4
        config.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 2
        events = _events(capsys.readouterr().err)
        assert "centers" in events[-1]["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(
            ["train", "--config", str(tmp_path / "nope.json")]
        ) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "key, value", [("balance_iters", 0), ("batch_size", 32.7), ("main_iters", 5.5),
                       ("eval_every", True), ("seed", True)]
    )
    def test_invalid_integer_setting_exits_before_training(
        self, tmp_path, capsys, key, value
    ):
        # balance_iters 0 used to fail after two init steps as TrainingDiverged
        # (exit 3); 32.7 and 5.5 used to train at 32 and 5 and record 32.7 and 5.5,
        # and true to train at 1 and record 1
        config = tmp_path / "config.json"
        doc = _write_config(config, tmp_path / "out")
        doc["train"][key] = value
        config.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 2
        events = _events(capsys.readouterr().err)
        assert [e["event"] for e in events] == ["error"]
        assert events[0]["error"] == "ValueError"
        assert events[0]["message"].startswith(f"{key} must be a whole number")

    @pytest.mark.parametrize("key, value", [
        ("epsilon", float("nan")), ("lam", float("inf")), ("sigma", float("inf")),
        ("learning_rate", float("nan")), ("alpha", float("inf")),
        ("rho", float("nan")), ("init_learning_rate", float("inf")),
        ("mu", float("-inf")), ("lam", True), ("alpha", True),
    ])
    def test_non_finite_float_setting_exits_before_training(
        self, tmp_path, capsys, key, value
    ):
        # epsilon NaN, lam inf and sigma inf used to exit 3 as TrainingDiverged,
        # learning_rate NaN after one metric event; true used to train as 1 and
        # be recorded as true
        config = tmp_path / "config.json"
        doc = _write_config(config, tmp_path / "out")
        doc["train"][key] = value
        config.write_text(json.dumps(doc))  # written as NaN / Infinity
        assert cli.main(["train", "--config", str(config)]) == 2
        events = _events(capsys.readouterr().err)
        assert [e["event"] for e in events] == ["error"]
        assert events[0]["error"] == "ValueError"
        assert events[0]["message"].startswith(f"{key} must be a finite number")

    def test_numeric_string_settings_train_and_are_stored_as_floats(
        self, tmp_path, capsys
    ):
        # lam "0.1" used to fail at the first step with a TypeError, and mu
        # "0.5" to train and be written to summary.json as a string
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        doc = _write_config(config, out)
        doc["train"].update(lam="0.1", mu="0.5")
        config.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        stored = json.loads((out / "summary.json").read_text())["config"]
        assert [(stored[k], type(stored[k])) for k in ("lam", "mu")] == [
            (0.1, float), (0.5, float)
        ]

    @pytest.mark.parametrize("block, value, typo", [
        ("split", {"fractoins": [0.5, 0.25, 0.25]}, "fractoins"),
        ("imbalance", {"class_fractions": [0.5, 0.3, 0.2], "sead": 1}, "sead"),
    ], ids=["split", "imbalance"])
    def test_unknown_key_in_dataset_block_exits_before_training(
        self, tmp_path, capsys, block, value, typo
    ):
        # both misspellings used to be ignored
        config = tmp_path / "config.json"
        doc = _write_config(config, tmp_path / "out")
        doc["dataset"][block] = value
        config.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 2
        events = _events(capsys.readouterr().err)
        assert [e["event"] for e in events] == ["error"]
        assert events[0]["error"] == "TypeError"
        assert typo in events[0]["message"]

    def test_boolean_dataset_seed_exits_before_training(self, tmp_path, capsys):
        # "seed": true used to train on the data of seed 1
        config = tmp_path / "config.json"
        doc = _write_config(config, tmp_path / "out")
        doc["dataset"]["seed"] = True
        config.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 2
        events = _events(capsys.readouterr().err)
        assert [e["event"] for e in events] == ["error"]
        assert events[0]["message"].startswith("seed must be a whole number")

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_standardize_must_be_boolean(self, tmp_path, capsys, value):
        # "no" used to standardize the data
        config = tmp_path / "config.json"
        doc = _write_config(config, tmp_path / "out")
        doc["dataset"]["standardize"] = value
        config.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 2
        events = _events(capsys.readouterr().err)
        assert [e["event"] for e in events] == ["error"]
        assert events[0]["message"].startswith("standardize must be true or false")

    @pytest.mark.parametrize(
        "entry", [[1, 2], [float("inf"), 2, 1], [0, 1, 1, 7], [1e30, 2, 1]]
    )
    def test_malformed_constraint_is_a_usage_error(self, tmp_path, capsys, entry):
        # these used to exit 1 with a traceback, or be re-chunked into triples
        config = tmp_path / "config.json"
        doc = _write_config(config, tmp_path / "out")
        doc["train"]["constraints"] = [entry]
        config.write_text(json.dumps(doc))  # inf is written as Infinity
        assert cli.main(["train", "--config", str(config)]) == 2
        events = _events(capsys.readouterr().err)
        assert events[-1]["event"] == "error"
        assert events[-1]["error"] == "ValueError"
        assert "constraint" in events[-1]["message"]

    def test_divergence_exits_three(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        doc = _write_config(config, tmp_path / "out")
        doc["train"]["learning_rate"] = 1e18
        config.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 3
        events = _events(capsys.readouterr().err)
        assert events[-1]["error"] == "TrainingDiverged"

    def test_csv_dataset_round_trip(self, tmp_path, capsys, write_csv):
        from xsdc.data import make_blobs

        ds = make_blobs(n=90, d=4, k=3, separation=8.0, label_fraction=1.0, seed=2)
        data_path = tmp_path / "points.csv"
        write_csv(data_path, ds.X, ds.true_labels)
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        doc = _write_config(config, out)
        doc["dataset"] = {
            "type": "csv",
            "path": str(data_path),
            "label_column": -1,
            "split": {"seed": 0},
            "standardize": True,
        }
        config.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["best_val_accuracy"] >= 0.5


class TestBalanceCommand:
    def _diag_constraints(self, path, n):
        path.write_text("".join(f"{i},{i},1\n" for i in range(n)))

    def test_zero_cost_gives_uniform_off_diagonal(self, tmp_path, capsys):
        n, k = 12, 3
        matrix = tmp_path / "A.csv"
        np.savetxt(matrix, np.zeros((n, n)), delimiter=",")
        cons = tmp_path / "cons.csv"
        self._diag_constraints(cons, n)
        out = tmp_path / "bal"
        with pytest.warns(UserWarning, match="median"):
            code = cli.main([
                "balance", "--matrix", str(matrix), "--constraints", str(cons),
                "--n-min", str(n / k), "--n-max", str(n / k), "--k", str(k),
                "--iters", "200", "--out-dir", str(out),
            ])
        capsys.readouterr()
        assert code == 0
        M = np.loadtxt(out / "balanced.csv", delimiter=",")
        # diagonal pinned, every row sums to n/k, off-diagonal constant
        assert np.allclose(np.diag(M), 1.0, atol=1e-9)
        assert np.allclose(M.sum(axis=1), n / k, atol=1e-6)
        off = M[~np.eye(n, dtype=bool)]
        expected = (n / k - 1.0) / (n - 1.0)
        assert np.allclose(off, expected, atol=1e-6)
        report = json.loads((out / "balance_report.json").read_text())
        assert report["known_violation"] == 0.0
        assert report["marginal_violation"] <= 1e-6

    def test_asymmetric_pair_rejected(self, tmp_path, capsys):
        n = 6
        matrix = tmp_path / "A.csv"
        np.savetxt(matrix, np.zeros((n, n)), delimiter=",")
        cons = tmp_path / "cons.csv"
        lines = [f"{i},{i},1\n" for i in range(n)]
        lines += ["0,1,1\n", "1,0,0\n"]
        cons.write_text("".join(lines))
        code = cli.main([
            "balance", "--matrix", str(matrix), "--constraints", str(cons),
            "--n-min", "2", "--n-max", "2", "--k", "3",
            "--out-dir", str(tmp_path / "bal"),
        ])
        events = _events(capsys.readouterr().err)
        assert code == 2
        assert events[-1]["message"] == "conflicting known values at (1, 0)"

    def test_one_sided_pair_auto_closed(self, tmp_path, capsys):
        n = 6
        matrix = tmp_path / "A.csv"
        np.savetxt(matrix, np.zeros((n, n)), delimiter=",")
        cons = tmp_path / "cons.csv"
        lines = [f"{i},{i},1\n" for i in range(n)] + ["0,1,1\n"]
        cons.write_text("".join(lines))
        out = tmp_path / "bal"
        with pytest.warns(UserWarning, match="median"):
            code = cli.main([
                "balance", "--matrix", str(matrix), "--constraints", str(cons),
                "--n-min", "2", "--n-max", "2", "--k", "3",
                "--out-dir", str(out),
            ])
        capsys.readouterr()
        assert code == 0
        M = np.loadtxt(out / "balanced.csv", delimiter=",")
        assert abs(M[0, 1] - 1.0) <= 1e-9
        assert abs(M[1, 0] - 1.0) <= 1e-9

    def test_malformed_triple_rejected(self, tmp_path, capsys):
        matrix = tmp_path / "A.csv"
        np.savetxt(matrix, np.zeros((4, 4)), delimiter=",")
        cons = tmp_path / "cons.csv"
        cons.write_text("0,0\n")
        code = cli.main([
            "balance", "--matrix", str(matrix), "--constraints", str(cons),
            "--n-min", "1", "--n-max", "2", "--out-dir", str(tmp_path / "b"),
        ])
        events = _events(capsys.readouterr().err)
        assert code == 2
        assert "line 1" in events[-1]["message"]

    @pytest.mark.parametrize("settings, name", [
        (["--n-min", "1", "--n-max", "inf"], "n_max"),
        (["--n-min", "nan", "--n-max", "2"], "n_min"),
        (["--n-min", "1", "--n-max", "2", "--mu", "inf"], "mu"),
        (["--n-min", "1", "--n-max", "2", "--mu", "nan"], "mu"),
    ], ids=["n_max-inf", "n_min-nan", "mu-inf", "mu-nan"])
    def test_non_finite_bound_or_weight_rejected(self, tmp_path, capsys, settings, name):
        # --n-max inf used to exit 3 on an exp overflow, --mu inf to exit 0
        # and write "mu": Infinity
        matrix = tmp_path / "A.csv"
        np.savetxt(matrix, np.eye(4), delimiter=",")
        code = cli.main([
            "balance", "--matrix", str(matrix), *settings, "--out-dir", str(tmp_path / "b"),
        ])
        events = _events(capsys.readouterr().err)
        assert code == 2
        assert events[-1]["message"].startswith(f"{name} must be a finite number")
        assert not (tmp_path / "b").exists()

    def test_non_square_matrix_rejected(self, tmp_path, capsys):
        matrix = tmp_path / "A.csv"
        np.savetxt(matrix, np.zeros((3, 4)), delimiter=",")
        code = cli.main([
            "balance", "--matrix", str(matrix),
            "--n-min", "1", "--n-max", "2", "--out-dir", str(tmp_path / "b"),
        ])
        capsys.readouterr()
        assert code == 2


class TestClusterCommand:
    def _block_matrix(self, tmp_path, n=12, k=3):
        labels = np.arange(n) % k
        M = (labels[:, None] == labels[None, :]).astype(np.float64)
        path = tmp_path / "M.csv"
        np.savetxt(path, M, delimiter=",")
        return path, labels

    def test_recovers_blocks_with_truth(self, tmp_path, capsys):
        matrix, labels = self._block_matrix(tmp_path)
        truth = tmp_path / "truth.csv"
        np.savetxt(truth, labels, delimiter=",", fmt="%d")
        out = tmp_path / "clu"
        code = cli.main([
            "cluster", "--matrix", str(matrix), "--k", "3",
            "--truth", str(truth), "--out-dir", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        report = json.loads((out / "cluster_report.json").read_text())
        assert report["matched_accuracy"] == 1.0
        assert sorted(report["label_mapping"]) == [0, 1, 2]
        rows = (out / "cluster_labels.csv").read_text().splitlines()
        assert rows[0] == "row_index,label"
        assert len(rows) == 13

    def test_truth_length_mismatch(self, tmp_path, capsys):
        matrix, _ = self._block_matrix(tmp_path)
        truth = tmp_path / "truth.csv"
        np.savetxt(truth, np.zeros(5), delimiter=",", fmt="%d")
        code = cli.main([
            "cluster", "--matrix", str(matrix), "--k", "3",
            "--truth", str(truth), "--out-dir", str(tmp_path / "c"),
        ])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("bad", ["1.5", "nan"])
    def test_truth_not_integer(self, tmp_path, capsys, bad):
        matrix, _ = self._block_matrix(tmp_path)
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join(["0"] * 11 + [bad]) + "\n")
        code = cli.main([
            "cluster", "--matrix", str(matrix), "--k", "3",
            "--truth", str(truth), "--out-dir", str(tmp_path / "c"),
        ])
        events = _events(capsys.readouterr().err)
        assert code == 2
        assert events[-1]["event"] == "error"
        assert "integers" in events[-1]["message"]

    @pytest.mark.parametrize("nan_pair", [True, False])
    def test_non_finite_matrix_rejected(self, tmp_path, capsys, nan_pair):
        # non-finite entries used to reach eigh and k-means
        M = np.eye(6) if nan_pair else np.full((3, 3), np.nan)
        M[1, 2] = M[2, 1] = np.nan
        matrix = tmp_path / "M.csv"
        np.savetxt(matrix, M, delimiter=",")
        out = tmp_path / "c"
        code = cli.main([
            "cluster", "--matrix", str(matrix), "--k", "2", "--out-dir", str(out),
        ])
        events = _events(capsys.readouterr().err)
        assert code == 2
        assert events[-1]["error"] == "ValueError"
        assert "non-finite" in events[-1]["message"]
        assert not out.exists()


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        out = tmp_path / "swp"
        _write_config(config, out)
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"lam": [1e-4, 1e-3]}))
        code = cli.main([
            "sweep", "--config", str(config), "--grids", str(grids),
        ])
        capsys.readouterr()
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "parameter,value,val_accuracy"
        assert len(rows) == 3
        best = json.loads((out / "best_config.json").read_text())
        assert best["format_version"] == 1
        assert best["train"]["lam"] in (1e-4, 1e-3)

    def test_best_config_is_reusable(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        out = tmp_path / "swp"
        _write_config(config, out)
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"lam": [1e-3]}))
        assert cli.main(
            ["sweep", "--config", str(config), "--grids", str(grids)]
        ) == 0
        rerun = tmp_path / "rerun"
        assert cli.main([
            "train", "--config", str(out / "best_config.json"),
            "--out-dir", str(rerun),
        ]) == 0
        capsys.readouterr()
        assert (rerun / "summary.json").exists()

    def test_unknown_grid_stage_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        _write_config(config, tmp_path / "swp")
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"warp_factor": [1, 2]}))
        code = cli.main([
            "sweep", "--config", str(config), "--grids", str(grids),
        ])
        capsys.readouterr()
        assert code == 2


class TestVerificationCommands:
    def test_gradcheck_passes(self, capsys):
        code = cli.main(["gradcheck", "--seed", "0", "--sizes", "6,3,4"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 4
        assert all(l.endswith("PASS") for l in lines)

    def test_gradcheck_sign_flip_fails(self, capsys):
        code = cli.main(["gradcheck", "--inject-sign-flip"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "worst_coordinate" in out

    def test_gradcheck_bad_sizes(self, capsys):
        code = cli.main(["gradcheck", "--sizes", "6,3"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv, name", [
        (["smoothness", "--B", "4", "--n", "30", "--n-max", "10", "--lam", "0.1",
          "--samples", "0"], "samples"),
        (["gradcheck", "--repeats", "0"], "repeats"),
        (["gradcheck", "--repeats", "-3"], "repeats"),
    ], ids=["samples-0", "repeats-0", "repeats-neg"])
    def test_verification_that_checks_nothing_is_a_usage_error(self, capsys, argv, name):
        # each used to exit 0, smoothness printing PASS over no samples
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert _events(captured.err)[-1]["message"].startswith(
            f"{name} must be a whole number of at least 1"
        )

    def test_smoothness_passes(self, capsys):
        code = cli.main([
            "smoothness", "--B", "4", "--n", "30", "--n-max", "10",
            "--lam", "0.1", "--samples", "40", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_smoothness_crossover_equalizes_gradient_bounds(self, capsys):
        # at lam = n_max / n the forward and reverse gradient bounds agree
        code = cli.main([
            "smoothness", "--B", "3", "--n", "40", "--n-max", "10",
            "--lam", "0.25", "--samples", "20", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        bounds = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 2 and parts[0].endswith("_bound"):
                bounds[parts[0]] = float(parts[1])
        assert bounds["forward_gradient_bound"] == bounds["reverse_gradient_bound"]


def _stringio_csv_text(rows):
    """The CSV text of the former writer, which built it in a StringIO."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


class TestCsvArtifacts:
    def _assert_same_as_stringio(self, tmp_path, path, rows):
        reference = tmp_path / "reference.csv"
        cli._atomic_write(str(reference), _stringio_csv_text(rows))
        assert open(path, "rb").read() == reference.read_bytes()
        assert not os.path.exists(f"{path}.tmp")

    def test_awkward_cells(self, tmp_path):
        rows = [
            ("a,b", 'say "x"', "two\nlines", ""),
            (0.1, 1e-300, float("inf"), -0.0),
            (np.int64(7), 3, True, None),
        ]
        path = tmp_path / "rows.csv"
        cli._write_csv_rows(str(path), cli._float_cells(iter(rows)))
        self._assert_same_as_stringio(tmp_path, path, rows)

    def test_train_labels_and_metrics_match_the_per_cell_writer(self, tmp_path, capsys,
                                                                monkeypatch):
        # labels.csv streams zip rows of Python ints and strs, metrics.csv
        # formats its floats; both keep the bytes of the writer that built
        # every row with int(labels[i]) and tested each cell for a float
        runs = []
        train = cli.train

        def recording(*args, **kwargs):
            runs.append(train(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "train", recording)
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        _write_config(config, out)
        assert cli.main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        (_, metrics), = runs
        label_rows = [("row_index", "predicted_label", "source")] + [
            (i, int(metrics.final_labels[i]), metrics.final_sources[i])
            for i in range(len(metrics.final_labels))
        ]
        assert len(label_rows) == 121
        self._assert_same_as_stringio(tmp_path, out / "labels.csv", label_rows)
        self._assert_same_as_stringio(tmp_path, out / "metrics.csv", metrics.to_rows())

    def test_every_command_writes_stringio_bytes(self, tmp_path, capsys, monkeypatch):
        written = []
        stream = cli._write_csv_rows

        def recording(path, rows):
            rows = list(rows)
            stream(path, iter(rows))
            written.append((path, rows))

        monkeypatch.setattr(cli, "_write_csv_rows", recording)
        config = tmp_path / "config.json"
        _write_config(config, tmp_path / "out")
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"lam": [1e-4, 1e-3]}))
        matrix = tmp_path / "A.csv"
        np.savetxt(matrix, np.random.default_rng(0).normal(size=(8, 8)), delimiter=",")
        cons = tmp_path / "cons.csv"
        cons.write_text("".join(f"{i},{i},1\n" for i in range(8)) + "0,1,0\n")
        truth = tmp_path / "truth.csv"
        np.savetxt(truth, np.arange(8) % 2, delimiter=",", fmt="%d")
        commands = [
            ["train", "--config", str(config)],
            ["sweep", "--config", str(config), "--grids", str(grids),
             "--out-dir", str(tmp_path / "swp")],
            ["balance", "--matrix", str(matrix), "--constraints", str(cons),
             "--n-min", "3", "--n-max", "5", "--k", "2",
             "--out-dir", str(tmp_path / "bal")],
            ["cluster", "--matrix", str(tmp_path / "bal" / "balanced.csv"),
             "--k", "2", "--truth", str(truth), "--out-dir", str(tmp_path / "clu")],
        ]
        for argv in commands:
            assert cli.main(argv) == 0
        capsys.readouterr()
        names = sorted(os.path.basename(path) for path, _ in written)
        assert names == [
            "balanced.csv", "cluster_labels.csv", "labels.csv", "metrics.csv",
            "sweep.csv",
        ]
        for path, rows in written:
            self._assert_same_as_stringio(tmp_path, path, rows)


class TestEventStream:
    def test_all_stderr_lines_are_json(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        _write_config(config, tmp_path / "out")
        assert cli.main(["train", "--config", str(config)]) == 0
        err = capsys.readouterr().err
        for line in err.splitlines():
            if not line:
                continue
            doc = json.loads(line)
            assert "event" in doc

    def test_metric_events_match_metrics_csv(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        _write_config(config, out)
        assert cli.main(["train", "--config", str(config)]) == 0
        events = _events(capsys.readouterr().err)
        metric_events = [e for e in events if e["event"] == "metric"]
        csv_rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert len(metric_events) == len(csv_rows)

    def test_batch_metric_events_carry_rounds(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        _write_config(config, out)
        assert cli.main(["train", "--config", str(config)]) == 0
        metric_events = [
            e for e in _events(capsys.readouterr().err) if e["event"] == "metric"
        ]
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header.split(",")[-1] == "rounds"
        for event in metric_events:
            if event["split"] == "batch":
                assert isinstance(event["rounds"], int) and event["rounds"] >= 1
            else:
                assert event["rounds"] is None
