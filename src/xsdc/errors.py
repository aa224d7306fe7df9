"""Exception types shared across the package.

Plain invalid arguments raise ValueError at the call site; the classes here
cover runtime failures that callers are expected to catch and react to
(retry with a larger entropic weight, abort a run).
"""


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BalancingDivergence(RuntimeError):
    """Matrix balancing produced non-finite scalings or an increasing dual.

    The caller is expected to double the entropic weight and retry.
    """

    def __init__(self, message, round_index=None):
        super().__init__(message)
        self.round_index = round_index


class TrainingDiverged(RuntimeError):
    """Non-finite or persistently increasing objective during training."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class AbortedRun(RuntimeError):
    """Training gave up after repeated balancing failures.

    Carries whatever metrics were collected before the abort so partial
    progress can still be reported.
    """

    def __init__(self, message, iteration=None, metrics=None):
        super().__init__(message)
        self.iteration = iteration
        self.metrics = metrics
