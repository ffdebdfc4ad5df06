"""The shared map contract: chunking, ordering, and error policy.

:class:`BaseMap` is the single source of truth for what every ``repro.par``
map means, whatever executes the chunks:

- ``map(fn, items)`` returns results **in input order**;
- ``workers=0`` (or a single chunk) runs the same chunking, retry and
  degradation paths inline on the calling thread — the sanctioned serial
  mode that determinism tests diff against;
- transient failures retry on an injected
  :class:`~repro.resilience.RetryPolicy` before the error policy applies;
- ``on_error="degrade"`` absorbs per-item failures into ``fallback``
  values plus a :class:`~repro.resilience.DegradationLog` event — a
  poisoned item degrades its slot, never the whole map, and the map never
  hangs;
- ``on_error="raise"`` re-raises the failure from the *lowest* item index
  once the run drains, so the surfaced exception is deterministic even
  when chunks race.

Thread-backed (:class:`~repro.par.ParallelMap`) and process-backed
(:class:`~repro.par.ProcessMap`) maps both subclass this, overriding only
:meth:`_run_dispatch` — how chunks reach workers — so the two backends
cannot drift on ordering, retry, or degradation semantics.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.obs import metrics, tracing
from repro.obs.instrument import timed
from repro.resilience import RetryPolicy, degradation

T = TypeVar("T")
R = TypeVar("R")

#: How a failing item is handled by :meth:`BaseMap.map`.
ON_ERROR_MODES = ("raise", "degrade")

#: Default number of items per scheduled chunk.  Fixed (not derived from
#: ``workers``) so serial and parallel runs of the same map produce the
#: same chunk boundaries, spans and degradation events.
DEFAULT_CHUNK_SIZE = 16


class BaseMap:
    """Ordered, chunked map with a serial mode and resilience-aware errors.

    The object itself is picklable configuration — no locks, threads or
    open resources are held between calls — so a map can ride inside task
    specs, be cloned across processes, or sit on a searcher as a plain
    attribute.  Subclasses provide :meth:`_run_dispatch` (and a ``kind``
    label for spans).
    """

    kind = "base"

    def __init__(self, workers: int = 0, chunk_size: int | None = None,
                 on_error: str = "raise", fallback: Any = None,
                 retry: RetryPolicy | None = None, name: str = "par"):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.on_error = on_error
        self.fallback = fallback
        self.retry = retry
        self.name = name

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(workers={self.workers}, "
                f"chunk_size={self.chunk_size}, on_error={self.on_error!r})")

    def with_options(self, **overrides: Any) -> "BaseMap":
        """A copy of this map with some policy fields replaced.

        The shard kernels use this to re-chunk a caller's map at one shard
        per chunk (``with_options(chunk_size=1)``) without mutating the
        caller's object.
        """
        fields = dict(workers=self.workers, chunk_size=self.chunk_size,
                      on_error=self.on_error, fallback=self.fallback,
                      retry=self.retry, name=self.name)
        fields.update(overrides)
        return type(self)(**fields)

    # -- the one public operation -------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T],
            name: str | None = None) -> list[R]:
        """Apply ``fn`` to every item; results come back in input order.

        Failing items follow ``on_error`` after any configured ``retry``:
        ``"raise"`` re-raises the lowest-index failure after the run has
        drained; ``"degrade"`` substitutes ``fallback`` and records a
        :class:`~repro.resilience.DegradationEvent` per absorbed item.
        """
        items = list(items)
        label = name or self.name
        if not items:
            return []
        chunks = self._chunks(len(items))
        results: list[Any] = [None] * len(items)
        errors: dict[int, BaseException] = {}
        with tracing.span("par.map", label=label, items=len(items),
                          workers=self.workers, chunks=len(chunks),
                          kind=self.kind) as span:
            # The map span's position (sampled or not), carried into
            # workers so each par.chunk attaches under it, or stays a
            # no-op, instead of deciding as a root of its own.
            ctx = span.context
            if self.workers <= 0 or len(chunks) == 1:
                for index, (lo, hi) in enumerate(chunks):
                    self._run_chunk(fn, items, index, lo, hi, results,
                                    errors, label, ctx)
                    if errors and self.on_error == "raise":
                        break  # fail fast in serial mode
            else:
                self._run_dispatch(fn, items, chunks, results, errors, label,
                                   ctx)
            span.set(errors=len(errors))
        if errors and self.on_error == "raise":
            raise errors[min(errors)]
        return results

    # -- scheduling ----------------------------------------------------------

    def _chunks(self, n: int) -> list[tuple[int, int]]:
        size = self.chunk_size or DEFAULT_CHUNK_SIZE
        return [(lo, min(lo + size, n)) for lo in range(0, n, size)]

    def _run_dispatch(self, fn, items: Sequence[Any],
                      chunks: list[tuple[int, int]], results: list[Any],
                      errors: dict[int, BaseException], label: str,
                      ctx: tracing.TraceContext | None) -> None:
        """Execute every chunk on this backend's workers (``workers > 0``
        and more than one chunk).  Must honor the same results/errors
        contract :meth:`_run_chunk` implements."""
        raise NotImplementedError

    def _run_chunk(self, fn, items: Sequence[Any], index: int, lo: int,
                   hi: int, results: list[Any],
                   errors: dict[int, BaseException], label: str,
                   ctx: tracing.TraceContext | None = None) -> None:
        # On a worker thread there is no active span, so activate the
        # caller's par.map context; serially the map span is already the
        # innermost parent and activation would only duplicate it.
        scope = (tracing.activate(ctx) if tracing.current_span() is None
                 else nullcontext())
        with scope, timed("par.chunk.seconds", span_name="par.chunk",
                          label=label, chunk=index, size=hi - lo):
            metrics.counter("par.chunks").inc()
            for i in range(lo, hi):
                try:
                    results[i] = self._call_one(fn, items[i], label)
                except Exception as exc:  # noqa: BLE001 - policy decides
                    if self.on_error == "raise":
                        errors[i] = exc
                        return  # abandon the rest of this chunk
                    self._degrade_item(results, i, label, exc)
                metrics.counter("par.items").inc()

    def _call_one(self, fn, item: Any, label: str) -> Any:
        if self.retry is None:
            return fn(item)
        return self.retry.call(lambda: fn(item), name=f"par.{label}")

    def _degrade_item(self, results: list[Any], i: int, label: str,
                      exc: BaseException) -> None:
        """Absorb one failed item: fallback value + degradation event."""
        results[i] = self.fallback
        metrics.counter("par.degraded").inc()
        degradation.record(
            component="par", point=f"{label}[{i}]",
            action="fallback", error=str(exc),
        )
