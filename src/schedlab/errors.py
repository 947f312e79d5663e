"""Exception types shared across the package."""


class SchedLabError(Exception):
    """Base class for all schedlab errors."""


class DimensionMismatchError(SchedLabError):
    """Array shapes disagree with the declared n_users / n_states."""


class NegativeEntryError(SchedLabError):
    """A rate, probability, or arrival entry is negative where it must not be."""


class ProbabilitySumError(SchedLabError):
    """A probability vector deviates from sum 1 by more than the tolerance."""


class IndexOutOfRangeError(SchedLabError):
    """A user or channel-state index is outside [0, N) / [0, M)."""


class NotAProbabilityVectorError(SchedLabError):
    """Input expected to lie on the probability simplex does not."""


class NegativeArgumentError(SchedLabError):
    """A nonnegative-domain function received a negative argument."""


class MalformedPathError(SchedLabError):
    """A piecewise-linear path sample violates its structural invariants."""


class SolverFailureError(SchedLabError):
    """The LP solver failed on an instance that should be solvable."""


class NoSamplesError(SchedLabError):
    """An estimator was invoked with no replication output."""


class InsufficientEventsError(SchedLabError):
    """Fewer than two thresholds have enough overflow events for a fit."""


class TraceUnavailableError(SchedLabError):
    """A per-slot trace was requested from a run that did not record one."""


class KernelBuildError(SchedLabError):
    """The compiled slot recursion could not be built: no C compiler, or it failed."""
