"""Outside-in span tracer for one xsdc training run.

The tracer replaces each function in ``WRAPPED`` at the name its calling
module bound on import (``xsdc.trainer.forward`` is the trainer's reference
to ``xsdc.features.forward``) with a wrapper that records a span: name,
start, end and the index of the enclosing span.  Spans stay in memory until
the caller writes them out.  Nothing under ``src/`` changes; the program
sees the same functions with the same arguments and results.

A span name is ``<layer>.<function>``.  A span's self time is its duration
minus the durations of its direct children, so the self times of a span
tree add up to the duration of its root.
"""

import importlib
import time
from collections import Counter, defaultdict


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _nn_pairs(args, kwargs, result):
    n, labeled = len(args[0]), len(args[1])
    return {"pairs": (n - labeled) * labeled}


def _health(args, kwargs, result):
    return {
        "rounds": int(result.rounds),
        "converged": bool(result.converged),
        "marginal_violation": float(result.marginal_violation),
        "known_violation": float(result.known_violation),
    }


# (module, attribute, span name, note): the attribute is looked up in the
# module that calls it.  A note reads counts off the arguments and the
# return value at the same boundary.
WRAPPED = (
    ("xsdc", "train", "trainer.train", None),
    ("xsdc.cli", "train", "trainer.train", None),
    ("xsdc.cli", "make_blobs", "data.make_blobs", None),
    ("xsdc.data", "make_blobs", "data.make_blobs", None),
    ("xsdc.trainer", "supervised_init", "trainer.supervised_init", None),
    ("xsdc.trainer", "_maybe_evaluate", "trainer.evaluate", None),
    ("xsdc.trainer", "_finalize", "trainer.finalize", None),
    ("xsdc.trainer", "checkpoint_json", "trainer.checkpoint_json", None),
    ("xsdc.trainer", "forward", "features.forward", _rows),
    ("xsdc.ulr", "forward", "features.forward", _rows),
    ("xsdc.ulr", "backward", "features.backward", None),
    ("xsdc.trainer", "ridge_kernel", "linalg.ridge_kernel", None),
    ("xsdc.ulr", "ridge_kernel", "linalg.ridge_kernel", None),
    ("xsdc.trainer", "ulr_step", "ulr.ulr_step", None),
    ("xsdc.trainer", "BalancingProblem", "balancing.problem", None),
    ("xsdc.trainer", "balance_doubling", "balancing.balance_doubling", _health),
    ("xsdc.balancing", "balance", "balancing.balance", None),
    ("xsdc.trainer", "nn_propagate", "labeling.nn_propagate", _nn_pairs),
    ("xsdc.trainer", "spectral_cluster", "labeling.spectral_cluster", None),
    ("xsdc.trainer", "fit_final_classifier", "labeling.fit_final_classifier", None),
    ("xsdc.trainer", "predict_classes", "labeling.predict_classes", None),
    ("xsdc.trainer", "hungarian_match", "labeling.hungarian_match", None),
)

# the root span of a command-line job: from the CLI's call into training to
# the return of cli.main, so its self time is the artifact writing
CLI_JOB = "cli.job"

# layers whose self times partition the job; ulr and cli name theirs after
# the one span that carries it
SELF_METRICS = {
    "features": "features.self_s",
    "linalg": "linalg.self_s",
    "ulr": "ulr.ulr_step_self_s",
    "balancing": "balancing.self_s",
    "labeling": "labeling.self_s",
    "trainer": "trainer.self_s",
    "cli": "cli.artifacts_s",
}

TIMED = (
    "features.forward", "features.backward", "linalg.ridge_kernel",
    "ulr.ulr_step", "balancing.problem", "balancing.balance_doubling",
    "balancing.balance", "labeling.nn_propagate", "labeling.spectral_cluster",
    "labeling.fit_final_classifier", "labeling.hungarian_match",
    "trainer.supervised_init", "trainer.evaluate", "trainer.finalize",
    "trainer.checkpoint_json",
)
CALLED = (
    "features.forward", "features.backward", "linalg.ridge_kernel",
    "ulr.ulr_step", "balancing.balance_doubling", "labeling.nn_propagate",
    "labeling.spectral_cluster", "trainer.evaluate", "trainer.checkpoint_json",
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record.

    Each span is a list [name, start, end, parent index or None, notes].
    """

    def __init__(self, wrapped=WRAPPED):
        self.wrapped = wrapped
        self.spans = []
        self.calls = Counter()  # per wrapped binding, "module.attribute"
        self._stack = []
        self._saved = []

    def install(self):
        """Wrap every name in the table; a missing name raises LookupError.

        All names are resolved before any is replaced, so a failed install
        leaves the program untouched.
        """
        targets = []
        for module_name, attr, name, note in self.wrapped:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise LookupError(
                    f"traced name {module_name}.{attr} ({name}) does not exist"
                )
            targets.append((module, attr, name, note))
        for module, attr, name, note in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            binding = f"{module.__name__}.{attr}"
            setattr(module, attr, self._wrap(original, name, note, binding))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def end(self, index):
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self.spans[index][2] = time.perf_counter()

    def _wrap(self, fn, name, note, binding):
        def traced(*args, **kwargs):
            self.calls[binding] += 1
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if note is not None:
                self.spans[index][4] = note(args, kwargs, result)
            return result

        return traced


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def subtree(spans, root):
    """Indices of root and of every span below it."""
    inside = set()
    for index, span in enumerate(spans):
        if index == root or span[3] in inside:
            inside.add(index)
    return sorted(inside)


def layer_metrics(spans, root):
    """Per-layer metrics of the job rooted at span index root."""
    own = self_times(spans)
    tree = subtree(spans, root)
    total, calls, layer_self = defaultdict(float), Counter(), defaultdict(float)
    notes = defaultdict(list)
    for i in tree:
        name, start, end, _, note = spans[i]
        total[name] += end - start
        calls[name] += 1
        layer_self[name.split(".")[0]] += own[i]
        if note is not None:
            notes[name].append(note)
    unknown = set(layer_self) - set(SELF_METRICS)
    if unknown:
        raise ValueError(f"spans of unknown layers: {sorted(unknown)}")

    out = {f"{name}_s": total[name] for name in TIMED}
    out.update({f"{name}_calls": calls[name] for name in CALLED})
    out.update({metric: layer_self[layer] for layer, metric in SELF_METRICS.items()})
    out["features.forward_rows"] = sum(n["rows"] for n in notes["features.forward"])
    out["labeling.nn_propagate_pairs"] = sum(
        n["pairs"] for n in notes["labeling.nn_propagate"]
    )

    health = notes["balancing.balance_doubling"]
    doubling_calls = calls["balancing.balance_doubling"]
    per_call = Counter(
        spans[i][3] for i in tree
        if spans[i][0] == "balancing.balance"
        and spans[spans[i][3]][0] == "balancing.balance_doubling"
    )
    out["balancing.attempts"] = calls["balancing.balance"]
    # every attempt after the first in one balance_doubling call doubled mu
    out["balancing.mu_doublings"] = sum(n - 1 for n in per_call.values())
    out["balancing.rounds"] = sum(h["rounds"] for h in health)
    out["balancing.converged_frac"] = (
        sum(h["converged"] for h in health) / doubling_calls if doubling_calls else 0.0
    )
    out["balancing.marginal_violation_max"] = max(
        (h["marginal_violation"] for h in health), default=0.0
    )
    out["balancing.known_violation_max"] = max(
        (h["known_violation"] for h in health), default=0.0
    )
    out["data.make_blobs_s"] = sum(
        end - start for name, start, end, _, _ in spans if name == "data.make_blobs"
    )
    return out
