"""The in-process serving runtime: one `Server`, many registered backends.

A :class:`Server` ties the serving pieces together around each registered
:class:`Backend`:

- ``submit()`` is the single front door: result-cache lookup → single-flight
  coalescing → admission control → the backend's
  :class:`~repro.serving.scheduler.MicroBatchScheduler`;
- a shared :class:`~repro.par.pool.WorkerPool` drains every scheduler
  (round-robin), executing batches through the backend's
  :class:`~repro.resilience.CircuitBreaker`;
- failures degrade: a batch that the breaker refuses or the backend crashes
  on is re-served request-by-request from ``Backend.fallback`` (tier
  ``"degraded"``, recorded into the
  :class:`~repro.resilience.DegradationLog`), and only when there is no
  fallback does a request resolve with ``status="error"``.

``workers=0`` selects **serial mode**: nothing runs until :meth:`poll`
(ready batches) or :meth:`flush` (everything) executes batches inline on
the calling thread.  Serial mode on a
:class:`~repro.resilience.FakeClock` is how the scheduler/admission/cache
behavior is tested deterministically, with zero wall sleeps; it is also a
perfectly good deployment mode for single-threaded drivers.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import replace
from typing import Any

from repro.errors import CircuitOpenError, ServerClosedError, ServingError
from repro.obs import metrics, tracing
from repro.obs.metrics import SIZE_BUCKETS
from repro.par.pool import WorkerPool
from repro.resilience import (
    CircuitBreaker,
    Clock,
    Deadline,
    degradation,
    get_clock,
)
from repro.serving.admission import AdmissionController
from repro.serving.cache import ResultCache, SingleFlight
from repro.serving.envelope import (
    ERROR,
    EXPIRED,
    OK,
    REJECTED,
    Request,
    Response,
    ResponseFuture,
)
from repro.serving.scheduler import MicroBatchScheduler

#: How long an idle worker waits before re-checking schedulers, when no
#: batch window is pending (a new offer notifies it immediately anyway).
IDLE_WAIT = 0.1


class Backend:
    """One servable capability: a batch function plus serving hooks.

    Subclasses implement :meth:`run_batch`; optionally :meth:`cache_key`
    (return a stable string to enable the result cache and single-flight
    coalescing for a payload, ``None`` to bypass both) and :meth:`fallback`
    (the degraded tier served when the breaker is open or the batch failed;
    the default re-raises, meaning "no degraded tier").
    """

    name = "backend"

    def run_batch(self, payloads: list[Any]) -> list[Any]:
        """Serve deduplicated payloads; must return one result per payload."""
        raise NotImplementedError

    def cache_key(self, payload: Any) -> str | None:
        return None

    def fallback(self, payload: Any, error: BaseException) -> Any:
        raise error


class _BackendEntry:
    def __init__(self, backend: Backend, scheduler: MicroBatchScheduler,
                 breaker: CircuitBreaker):
        self.backend = backend
        self.scheduler = scheduler
        self.breaker = breaker


class Server:
    """Micro-batching front end over registered backends."""

    def __init__(self, workers: int = 2, batch_window: float = 0.002,
                 max_batch: int = 16, max_depth: int = 256,
                 cache_capacity: int = 1024, cache_shards: int = 8,
                 cache_ttl: float | None = None,
                 clock: Clock | None = None):
        self._clock = clock or get_clock()
        self._defaults = dict(batch_window=batch_window, max_batch=max_batch,
                              max_depth=max_depth)
        self.cache = ResultCache(capacity=cache_capacity, shards=cache_shards,
                                 ttl=cache_ttl, clock=self._clock)
        self._flights = SingleFlight()
        self._cond = threading.Condition()
        self._backends: dict[str, _BackendEntry] = {}
        self._order: list[str] = []
        self._cursor = 0
        self._seq = itertools.count(1)
        self._closed = False
        self._pool: WorkerPool | None = None
        if workers:
            self._pool = WorkerPool("server", workers, self._fetch).start()

    # -- registration -------------------------------------------------------

    def register(self, backend: Backend, batch_window: float | None = None,
                 max_batch: int | None = None, max_depth: int | None = None,
                 shed_threshold: float = 0.75,
                 breaker: CircuitBreaker | None = None) -> "Server":
        """Add a backend under its ``.name`` with per-backend queue knobs."""
        if backend.name in self._backends:
            raise ServingError(f"backend {backend.name!r} already registered")
        admission = AdmissionController(
            max_depth=max_depth or self._defaults["max_depth"],
            shed_threshold=shed_threshold,
        )
        scheduler = MicroBatchScheduler(
            name=backend.name,
            batch_window=(self._defaults["batch_window"]
                          if batch_window is None else batch_window),
            max_batch=max_batch or self._defaults["max_batch"],
            admission=admission, clock=self._clock,
        )
        entry = _BackendEntry(
            backend, scheduler,
            breaker or CircuitBreaker(f"serving.{backend.name}",
                                      clock=self._clock),
        )
        with self._cond:
            self._backends[backend.name] = entry
            self._order.append(backend.name)
        return self

    def backend_names(self) -> list[str]:
        return list(self._order)

    # -- submission ---------------------------------------------------------

    def submit(self, backend: str, payload: Any, priority: str = "normal",
               timeout: float | None = None,
               trace: dict[str, Any] | None = None) -> ResponseFuture:
        """Enqueue one request; always returns a future, never raises for
        load reasons (backpressure resolves the future with ``rejected``)."""
        entry = self._backends.get(backend)
        if entry is None:
            raise ServingError(f"no backend registered as {backend!r}")
        if self._closed:
            raise ServerClosedError("server is closed")
        metrics.counter("serving.submitted").inc()
        tracer = tracing.get_tracer()
        # The request's root span: opened here, finished wherever the future
        # resolves (possibly a worker thread).  Its context rides the request
        # carrier so queue/batch spans attach under it across thread hops.
        root = tracer.start_span("serving.request", parent=tracing.current_context(),
                                 backend=backend, priority=priority)
        key = entry.backend.cache_key(payload)
        request = Request(
            payload=payload, backend=backend, priority=priority,
            deadline=(Deadline(timeout, clock=self._clock)
                      if timeout is not None else None),
            key=f"{backend}:{key}" if key is not None else None,
            trace=dict(trace or {}), id=next(self._seq), span=root,
        )
        tracing.inject(root.context, request.trace)
        future = ResponseFuture()
        with tracing.activate(root.context):
            if request.key is not None:
                with tracing.span("serving.cache", key=request.key) as cs:
                    hit, value = self.cache.get(request.key)
                    cs.set(hit=hit)
                if hit:
                    future.resolve(Response(OK, value=value, backend=backend,
                                            cache_hit=True))
                    tracer.finish_span(root, status=OK, cache_hit=True)
                    return future
                if not self._flights.claim(request.key, future):
                    # Joined an identical in-flight request; this trace ends
                    # here — the leader's trace owns the batch spans.
                    tracer.finish_span(root, status="coalesced")
                    return future
            with tracing.span("serving.admission", backend=backend) as asp:
                with self._cond:
                    reason = entry.scheduler.offer(request, future)
                    if reason is None:
                        self._cond.notify()
                asp.set(admitted=reason is None)
        if reason is not None:
            self._finish(request, Response(
                REJECTED, error=f"rejected: {reason}", backend=backend,
            ), future)
            return future
        if self._pool is None:
            self.poll()  # serial mode: run any size-triggered batch inline
        return future

    def call(self, backend: str, payload: Any, priority: str = "normal",
             timeout: float | None = None,
             trace: dict[str, Any] | None = None,
             wait: float | None = 30.0) -> Response:
        """Submit and wait — the blocking convenience path."""
        future = self.submit(backend, payload, priority=priority,
                             timeout=timeout, trace=trace)
        if self._pool is None and not future.done():
            self.flush()
        return future.result(wait)

    # -- execution ----------------------------------------------------------

    def poll(self, force: bool = False) -> int:
        """Run every currently-ready batch inline; returns batches run.

        The serial-mode engine, also usable alongside a pool (e.g. to drain
        deterministically in tests).  ``force=True`` ignores the batch
        window and size triggers — that is :meth:`flush`.
        """
        ran = 0
        while True:
            job = self._next_job(force=force)
            if job is None:
                return ran
            job()
            ran += 1

    def flush(self) -> int:
        """Drain every queued request regardless of batching triggers."""
        return self.poll(force=True)

    def close(self) -> None:
        """Stop accepting, stop the pool, then drain leftovers inline."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._pool is not None:
            self._pool.join()
        self.flush()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _next_job(self, force: bool = False):
        with self._cond:
            return self._next_job_locked(self._clock.monotonic(), force)

    def _next_job_locked(self, now: float, force: bool = False):
        for offset in range(len(self._order)):
            name = self._order[(self._cursor + offset) % len(self._order)]
            entry = self._backends[name]
            batch = entry.scheduler.next_batch(now, force=force)
            if batch:
                self._cursor = (self._cursor + offset + 1) % len(self._order)
                return lambda: self._execute(entry, batch)
        return None

    def _fetch(self):
        """Blocking work source for pool workers; ``None`` means exit."""
        with self._cond:
            while True:
                if self._closed:
                    return None
                job = self._next_job_locked(self._clock.monotonic())
                if job is not None:
                    return job
                hints = [
                    hint for hint in (
                        self._backends[name].scheduler.wait_hint()
                        for name in self._order
                    ) if hint is not None
                ]
                self._cond.wait(timeout=min(hints) if hints else IDLE_WAIT)

    def _execute(self, entry: _BackendEntry, batch: list) -> None:
        name = entry.backend.name
        started = self._clock.monotonic()
        tracer = tracing.get_tracer()
        metrics.histogram(f"serving.{name}.batch_size",
                          buckets=SIZE_BUCKETS).observe(len(batch))
        live = []
        batch_ctx = None
        for request, future in batch:
            # Queue wait, measured on the serving clock and attached to the
            # request's own trace (extracted from its carrier, so this works
            # on whichever thread runs the batch).
            ctx = tracing.extract(request.trace)
            tracer.record("serving.queue", started - request.enqueued_at,
                          parent=ctx, backend=name,
                          priority=request.priority)
            if request.deadline is not None and request.deadline.expired:
                metrics.counter("serving.expired").inc()
                self._finish(request, Response(
                    EXPIRED, error="deadline expired in queue",
                    backend=name,
                    queue_seconds=started - request.enqueued_at,
                ), future)
            else:
                live.append((request, future))
                if batch_ctx is None or (ctx is not None and ctx.sampled
                                         and not batch_ctx.sampled):
                    batch_ctx = ctx
        if not live:
            return
        # The batch span lands in the first sampled live request's trace
        # (else the first live one's, where it is a no-op); the other
        # requests in the batch keep their request/queue spans in their own
        # traces (the batch is shared work, owned by one trace).
        with tracing.activate(batch_ctx), \
                tracing.span("serving.batch", backend=name, size=len(batch),
                             requests=len(live)):
            # Dedup identical payloads before dispatch: one backend slot per
            # distinct key (uncacheable requests stay distinct by id).
            groups: dict[Any, list] = {}
            for request, future in live:
                groups.setdefault(
                    request.key if request.key is not None else request.id, []
                ).append((request, future))
            uniques = [members[0][0].payload for members in groups.values()]
            if len(uniques) < len(live):
                metrics.counter("serving.batch.deduped").inc(
                    len(live) - len(uniques)
                )
            results: list[Any] | None = None
            failure: BaseException | None = None
            if entry.breaker.allow():
                try:
                    with tracing.span("serving.backend", backend=name,
                                      size=len(uniques)):
                        results = entry.backend.run_batch(uniques)
                    if len(results) != len(uniques):
                        raise ServingError(
                            f"backend {name!r} returned {len(results)} "
                            f"results for {len(uniques)} payloads"
                        )
                    entry.breaker.record_success()
                except Exception as exc:  # noqa: BLE001 - degrade below
                    entry.breaker.record_failure()
                    metrics.counter(f"serving.{name}.batch_failures").inc()
                    results, failure = None, exc
            else:
                failure = CircuitOpenError(
                    f"circuit serving.{name} is {entry.breaker.state}"
                )
            service = self._clock.monotonic() - started
            metrics.histogram(f"serving.{name}.batch.seconds").observe(service)
            for index, members in enumerate(groups.values()):
                response = self._group_response(
                    entry, members[0][0], results, index, failure,
                    batch_size=len(live), service=service, started=started,
                )
                for request, future in members:
                    self._finish(request, replace(
                        response,
                        queue_seconds=started - request.enqueued_at,
                    ), future)

    def _group_response(self, entry: _BackendEntry, request: Request,
                        results: list[Any] | None, index: int,
                        failure: BaseException | None, batch_size: int,
                        service: float, started: float) -> Response:
        name = entry.backend.name
        if results is not None:
            if request.key is not None:
                self.cache.put(request.key, results[index])
            return Response(OK, value=results[index], backend=name,
                            batch_size=batch_size, service_seconds=service)
        try:
            value = entry.backend.fallback(request.payload, failure)
        except Exception as exc:  # noqa: BLE001 - no degraded tier
            metrics.counter("serving.errors").inc()
            return Response(ERROR, error=str(exc), backend=name,
                            batch_size=batch_size, service_seconds=service)
        metrics.counter("serving.degraded").inc()
        degradation.record(component="serving", point=name,
                           action="served:degraded", error=str(failure))
        return Response(OK, value=value, backend=name, tier="degraded",
                        batch_size=batch_size, service_seconds=service)

    def _finish(self, request: Request, response: Response,
                future: ResponseFuture) -> None:
        """Resolve a request's future plus any coalesced flight joiners."""
        metrics.counter(f"serving.completed.{response.status}").inc()
        if response.ok and not response.cache_hit:
            metrics.histogram("serving.e2e.seconds").observe(
                response.queue_seconds + response.service_seconds
            )
        future.resolve(response)
        if request.span is not None:
            tracing.get_tracer().finish_span(
                request.span, status=response.status, tier=response.tier,
            )
        if request.key is not None:
            for joiner in self._flights.resolve(request.key):
                if joiner is not future:
                    joiner.resolve(replace(response, coalesced=True))
