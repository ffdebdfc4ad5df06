"""Exception hierarchy shared by every ``repro`` subpackage.

Keeping one hierarchy lets callers catch :class:`ReproError` to handle any
library failure, or a narrower subclass when they can act on the specific
condition.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A table operation referenced a column or type that does not exist."""


class TypeMismatchError(SchemaError):
    """A value is incompatible with the declared type of its column."""


class ParseError(ReproError):
    """Raised when parsing SQL text, prompts, or serialized models fails."""


class StorageError(ReproError):
    """A serialized table payload is truncated, corrupt, or of an unknown
    format (``repro.table.storage``)."""


class NotFittedError(ReproError):
    """A model method that requires training was called before ``fit``."""


class ConvergenceError(ReproError):
    """An iterative optimizer failed to make progress within its budget."""


class PipelineError(ReproError):
    """A data-preparation pipeline is structurally invalid or failed to run."""


class KnowledgeError(ReproError):
    """The simulated foundation model was asked about facts it cannot know."""


class TransientError(ReproError):
    """A failure expected to clear on retry (timeouts, flaky completions).

    Retry policies treat :class:`TransientError` (anywhere in an exception's
    ``__cause__`` chain) as retryable; every other error is permanent.
    """


class FaultInjectionError(TransientError):
    """An artificial failure raised at a named chaos injection point."""


class ResilienceError(ReproError):
    """Base class for failures of the resilience machinery itself."""


class RetryExhaustedError(ResilienceError):
    """Every attempt a :class:`~repro.resilience.RetryPolicy` allows failed."""


class DeadlineExceededError(ResilienceError):
    """An operation outlived its :class:`~repro.resilience.Deadline`."""


class CircuitOpenError(ResilienceError):
    """A call was rejected because its circuit breaker is open."""


class FallbackExhaustedError(ResilienceError):
    """Every tier of a :class:`~repro.resilience.FallbackChain` failed."""


class DltError(ReproError):
    """Base class for declarative-pipeline (``repro.dlt``) failures."""


class PipelineGraphError(DltError):
    """A declared pipeline is structurally invalid: unknown inputs,
    duplicate table names, or a dependency cycle."""


class ExpectationFailedError(DltError):
    """An ``expect_or_fail`` expectation found violating rows, aborting the
    table it guards (and, per ``on_error``, its downstream)."""


class CheckpointError(DltError):
    """A checkpoint store operation was misused (unknown table, bad root)."""


class IvmError(ReproError):
    """The incremental view maintenance layer (``repro.ivm``) was misused:
    mismatched schemas, negative multiplicities, or an unsupported view
    definition."""


class WorkerLostError(ReproError):
    """A process-pool worker died before reporting its task's outcome
    (killed, segfaulted, or OOM-reaped mid-morsel)."""


class RemoteTaskError(ReproError):
    """A worker-process task produced a result (or raised an exception)
    that could not be pickled back to the parent."""


class ShardError(ReproError):
    """A partitioned-table operation was misused: mismatched partitioning,
    unknown shard, or a corrupt spilled shard file."""


class ServingError(ReproError):
    """The serving runtime was misused or a response never materialized."""


class ServerClosedError(ServingError):
    """A request was submitted to a :class:`~repro.serving.Server` after
    ``close()``."""
