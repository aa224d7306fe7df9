"""Self-test of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py

Runs shrunken copies of the three workloads in-process, once untraced and
once traced, and checks that tracing changes no result, that every traced
name exists and is reached, and that the span tree accounts for the whole
training time.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import xsdc  # noqa: E402
import xsdc.trainer  # noqa: E402
from tracer import SELF_METRICS, WRAPPED, Tracer  # noqa: E402
from worker import run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "semi-n20k-b512": dict(
        data=dict(n=600, d=10, k=4, separation=3.0, label_fraction=0.1),
        train=dict(supervised_init_iters=5, main_iters=10, eval_every=5,
                   batch_size=64, balance_iters=10),
    ),
    "pairs-n300-b128": dict(
        train=dict(supervised_init_iters=10, main_iters=20),
    ),
    "unsup-cli-n20k-b256": dict(
        data=dict(n=600, d=10, k=4, separation=4.0, label_fraction=0.0),
        train=dict(main_iters=10, eval_every=5, batch_size=64,
                   eval_batch_size=100, balance_iters=10),
    ),
}
SEED = 3


def small_spec(name):
    spec = dict(WORKLOADS[name], accuracy_floor=0.0)
    spec["data"] = dict(spec["data"], **SMALL[name].get("data", {}))
    spec["train"] = dict(spec["train"], **SMALL[name]["train"])
    return spec


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for name in SMALL:
        for trace in (0, 1):
            workdir = tmp_path_factory.mktemp(f"{name}-{trace}")
            out[name, trace] = run_workload(
                name, SEED, trace, workdir, spec=small_spec(name), process_start=0.0
            )
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_no_result(runs, name):
    plain, traced = runs[name, 0], runs[name, 1]
    assert plain["failures"] == [] and traced["failures"] == []
    # the digest covers the final landmarks' bytes and every metrics record
    assert plain["digest"] == traced["digest"]
    assert plain["test_accuracy"] == traced["test_accuracy"]
    assert xsdc.trainer.forward is xsdc.features.forward, "tracer not uninstalled"


def test_every_traced_name_exists_and_is_reached(runs):
    reached = {b for name in SMALL for b in runs[name, 1]["binding_calls"]}
    expected = {f"{module}.{attr}" for module, attr, _, _ in WRAPPED}
    assert expected <= reached, f"never reached: {sorted(expected - reached)}"


def test_missing_name_fails_loudly_by_name():
    broken = WRAPPED + (("xsdc.trainer", "no_such_function", "trainer.gone", None),)
    with pytest.raises(LookupError, match=r"xsdc\.trainer\.no_such_function"):
        Tracer(wrapped=broken).install()
    # nothing was replaced before the failure
    assert xsdc.trainer.forward is xsdc.features.forward
    assert xsdc.train is xsdc.trainer.train


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_sum_to_train_s(runs, name):
    traced = runs[name, 1]
    assert traced["self_time_sum_s"] == pytest.approx(traced["train_s"], abs=1e-3)
    layer_total = sum(traced["layers"][metric] for metric in SELF_METRICS.values())
    assert layer_total == pytest.approx(traced["self_time_sum_s"], rel=1e-9)
