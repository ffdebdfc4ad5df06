"""Process-backed workers: the morsel-driven pool and ``ProcessMap``.

Threads cannot speed up GIL-bound python work (BENCH_perf.json once
recorded pipeline search *losing* at 0.84× under a forced thread pool), so
this module adds the process sibling:

- :class:`ProcessPool` — a fixed set of forked workers pulling task
  indices ("morsels") from a shared queue.  Workers inherit the task
  callable and its data by **fork**, so nothing is pickled on the way in;
  only results cross the pipe on the way out.  A worker that dies
  mid-morsel (OOM-kill, segfault, the chaos suite's SIGKILL) surfaces as a
  per-task :class:`~repro.errors.WorkerLostError` outcome — the pool
  detects the death, re-routes unstarted morsels, finishes stragglers
  inline if every worker is gone, and **never hangs**;
- :class:`ProcessMap` — the :class:`~repro.par.base.BaseMap` backend over
  that pool: same input-order results, ``workers=0`` serial mode, retry
  and ``on_error`` semantics as the thread-backed
  :class:`~repro.par.ParallelMap`.  ``workers=None`` sizes the pool to
  the machine (serial on a single-CPU host, where forking only adds
  overhead — the process-level crossover policy).

Observability across the process boundary: the parent injects its
``par.map`` :class:`~repro.obs.tracing.TraceContext` into a dict carrier
(the PR 6 propagation protocol); each forked worker extracts and activates
it, times its ``par.chunk`` span in its own (discarded) tracer, and ships
the measured duration back with the results.  The parent re-attaches every
chunk as a finished span under the original context via
:meth:`~repro.obs.tracing.Tracer.record` — one span tree per map, even
when the children were separate processes.  Degradation events are
recorded in the **parent** (a child's process-global log dies with it).

This is the only module under ``src/repro`` allowed to import
``multiprocessing`` (CI-enforced, like the ``threading.Thread`` lint for
``par/pool.py``): process lifecycles have a single owner.

Caveat: results (and raised exceptions) must be picklable; an unpicklable
result degrades to a :class:`~repro.errors.RemoteTaskError` outcome
instead of poisoning the pipe.  The callable and items need **not** be
picklable — they ride the fork.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
from dataclasses import dataclass
from queue import Empty
from typing import Any, Callable, Sequence

from repro.errors import RemoteTaskError, WorkerLostError
from repro.obs import get_logger, metrics, tracing
from repro.obs.instrument import timed
from repro.par.base import BaseMap

log = get_logger("par.procpool")

#: Seconds between liveness sweeps while waiting on worker results.
POLL_INTERVAL = 0.05


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def default_process_workers(cap: int = 8) -> int:
    """The machine-aware default worker count for :class:`ProcessMap`.

    ``0`` (the serial mode) on a single-CPU host — forked workers cannot
    overlap there, so fan-out is pure overhead — else the CPU count,
    capped to keep fork + pipe costs proportionate.
    """
    cpus = available_cpus()
    return 0 if cpus < 2 else min(cpus, cap)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class TaskOutcome:
    """One morsel's fate: payload on success, the error otherwise."""

    index: int
    ok: bool
    value: Any = None
    error: BaseException | None = None


class ProcessPool:
    """Morsel-driven pool of forked workers.

    One-shot: :meth:`run` forks ``num_workers`` children, lets them pull
    task indices from a shared queue until it drains, collects per-task
    outcomes, and reaps every child before returning.  Created per map
    call, like :class:`~repro.par.pool.WorkerPool` is per ``map()``.
    """

    def __init__(self, name: str, num_workers: int,
                 poll_interval: float = POLL_INTERVAL):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.name = name
        self.num_workers = num_workers
        self.poll_interval = poll_interval

    # -- child side ----------------------------------------------------------

    @staticmethod
    def _worker_main(wid: int, task_fn, task_q, conn) -> None:
        """Pull morsels until the sentinel.

        Messages go back over a per-worker pipe with **synchronous**
        ``send_bytes`` (never an ``mp.Queue``: its feeder thread buffers
        puts, so a kill would silently drop results the task already
        finished).  The pipe preserves order and EOFs on death, so the
        parent reads every completed result before it sees the worker die.
        Messages are pre-pickled so a pickling failure downgrades to an
        error outcome instead of crashing the worker.
        """
        while True:
            index = task_q.get()
            if index is None:
                conn.send_bytes(pickle.dumps(("exit", wid)))
                conn.close()
                return
            conn.send_bytes(pickle.dumps(("claim", wid, index)))
            try:
                value = task_fn(index)
                ok, payload = True, value
            except Exception as exc:  # noqa: BLE001 - shipped to the parent
                ok, payload = False, exc
            try:
                message = pickle.dumps(("done", wid, index, ok, payload))
            except Exception as exc:  # noqa: BLE001 - unpicklable payload
                error = RemoteTaskError(
                    f"task {index} produced an unpicklable "
                    f"{'result' if ok else 'exception'}: {exc}"
                )
                message = pickle.dumps(("done", wid, index, False, error))
            conn.send_bytes(message)

    # -- parent side ---------------------------------------------------------

    def run(self, task_fn: Callable[[int], Any],
            num_tasks: int) -> list[TaskOutcome]:
        """Execute ``task_fn(i)`` for ``i in range(num_tasks)``; outcomes in
        index order.  ``task_fn`` runs in forked children (inherited, not
        pickled); its return values must be picklable."""
        if num_tasks <= 0:
            return []
        if not fork_available():
            # No fork on this platform: run inline, same outcome contract.
            return [self._run_local(task_fn, i) for i in range(num_tasks)]
        ctx = multiprocessing.get_context("fork")
        workers = min(self.num_workers, num_tasks)
        task_q = ctx.Queue()
        for i in range(num_tasks):
            task_q.put(i)
        for _ in range(workers):
            task_q.put(None)  # one shutdown sentinel per worker
        procs, conns = [], {}
        for wid in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=self._worker_main,
                               args=(wid, task_fn, task_q, child_conn),
                               name=f"repro-{self.name}-{wid}", daemon=True)
            proc.start()
            child_conn.close()  # parent's copy, else EOF never surfaces
            procs.append(proc)
            conns[parent_conn] = wid
        metrics.gauge(f"par.procpool.{self.name}.workers").set(workers)

        outcomes: dict[int, TaskOutcome] = {}
        pending = set(range(num_tasks))
        claims: dict[int, int] = {}  # wid -> index being executed
        try:
            while pending:
                if not conns:
                    # Nobody left to produce results: finish queued morsels
                    # inline, then write off the orphans (a worker killed
                    # between dequeue and claim-send leaves nothing behind).
                    self._drain_inline(task_fn, task_q, pending, outcomes)
                    for index in sorted(pending):
                        outcomes[index] = self._lost(index)
                    pending.clear()
                    break
                for conn in multiprocessing.connection.wait(
                        list(conns), timeout=self.poll_interval):
                    wid = conns[conn]
                    try:
                        msg = pickle.loads(conn.recv_bytes())
                    except (EOFError, OSError):
                        # Worker died; its claimed morsel (if any) is lost.
                        del conns[conn]
                        log.warning(
                            "worker %d of pool %r died (exitcode %s)",
                            wid, self.name, procs[wid].exitcode)
                        index = claims.pop(wid, None)
                        if index is not None and index in pending:
                            outcomes[index] = self._lost(index)
                            pending.discard(index)
                        continue
                    kind = msg[0]
                    if kind == "claim":
                        claims[msg[1]] = msg[2]
                    elif kind == "done":
                        _, _, index, ok, payload = msg
                        claims.pop(wid, None)
                        outcomes[index] = (
                            TaskOutcome(index, True, value=payload) if ok
                            else TaskOutcome(index, False, error=payload)
                        )
                        pending.discard(index)
                        metrics.counter(
                            f"par.procpool.{self.name}.tasks").inc()
                    elif kind == "exit":
                        del conns[conn]
        finally:
            self._reap(procs, task_q, conns)
        return [outcomes[i] for i in range(num_tasks)]

    def _run_local(self, task_fn, index: int) -> TaskOutcome:
        try:
            return TaskOutcome(index, True, value=task_fn(index))
        except Exception as exc:  # noqa: BLE001 - same contract as workers
            return TaskOutcome(index, False, error=exc)

    def _lost(self, index: int) -> TaskOutcome:
        metrics.counter(f"par.procpool.{self.name}.worker_lost").inc()
        return TaskOutcome(index, False, error=WorkerLostError(
            f"worker died before completing task {index} "
            f"of pool {self.name!r}"
        ))

    def _drain_inline(self, task_fn, task_q, pending: set[int],
                      outcomes: dict[int, TaskOutcome]) -> None:
        """Run morsels still sitting in the task queue on the parent."""
        while True:
            try:
                index = task_q.get(timeout=self.poll_interval)
            except Empty:
                return
            if index is None:
                continue  # a dead worker's unconsumed shutdown sentinel
            if index in pending:
                outcomes[index] = self._run_local(task_fn, index)
                pending.discard(index)

    def _reap(self, procs, task_q, conns) -> None:
        for proc in procs:
            proc.join(timeout=1.0)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in list(conns):
            conn.close()
        task_q.close()
        task_q.cancel_join_thread()
        metrics.gauge(f"par.procpool.{self.name}.workers").set(0)


class ProcessMap(BaseMap):
    """Ordered, chunked map over forked worker processes.

    The :class:`~repro.par.base.BaseMap` contract on process workers:
    results in input order, ``workers=0`` serial mode (identical results),
    retry inside the worker, error policy applied in the parent — a chunk
    whose worker was killed degrades (or raises) per item, never hangs the
    map, and every absorbed failure lands in the parent's
    :class:`~repro.resilience.DegradationLog`.

    ``workers=None`` self-sizes via :func:`default_process_workers`:
    serial on single-CPU machines, ``min(cpus, 8)`` otherwise.  Results
    must be picklable; the mapped callable and items ride the fork and
    need not be.
    """

    kind = "processes"

    def __init__(self, workers: int | None = None,
                 chunk_size: int | None = None, on_error: str = "raise",
                 fallback: Any = None, retry=None, name: str = "par"):
        self.auto_sized = workers is None
        if workers is None:
            workers = default_process_workers()
        super().__init__(workers=workers, chunk_size=chunk_size,
                         on_error=on_error, fallback=fallback, retry=retry,
                         name=name)

    def _run_dispatch(self, fn, items: Sequence[Any],
                      chunks: list[tuple[int, int]], results: list[Any],
                      errors: dict[int, BaseException], label: str,
                      ctx: tracing.TraceContext | None) -> None:
        carrier = tracing.inject(ctx) if ctx is not None else {}
        retry = self.retry

        def chunk_task(chunk_index: int):
            lo, hi = chunks[chunk_index]
            return _remote_chunk(fn, items, lo, hi, retry, label, carrier)

        pool = ProcessPool(label, min(self.workers, len(chunks)))
        for outcome in pool.run(chunk_task, len(chunks)):
            lo, hi = chunks[outcome.index]
            metrics.counter("par.chunks").inc()
            if not outcome.ok:
                # The whole chunk failed to report (worker lost, or the
                # remote chunk runner itself broke): apply the policy to
                # every item it covered.
                if self.on_error == "raise":
                    errors[lo] = outcome.error
                else:
                    for i in range(lo, hi):
                        self._degrade_item(results, i, label, outcome.error)
                        metrics.counter("par.items").inc()
                continue
            item_outcomes, duration, worker_pid = outcome.value
            self._attach_chunk_span(outcome.index, lo, hi, label, ctx,
                                    duration, worker_pid)
            for i, ok, payload in item_outcomes:
                if ok:
                    results[i] = payload
                elif self.on_error == "raise":
                    if i not in errors:
                        errors[i] = payload
                    continue  # mirror the serial path: skip the item count
                else:
                    self._degrade_item(results, i, label, payload)
                metrics.counter("par.items").inc()

    def _attach_chunk_span(self, index: int, lo: int, hi: int, label: str,
                           ctx: tracing.TraceContext | None,
                           duration: float, worker_pid: int) -> None:
        """Observe the child's measured chunk; under a sampled par.map,
        also re-parent it there as a finished span."""
        metrics.histogram("par.chunk.seconds").observe(duration)
        tracing.get_tracer().record(
            "par.chunk", duration, parent=ctx,
            label=label, chunk=index, size=hi - lo, remote=True,
            pid=worker_pid,
        )


def _remote_chunk(fn, items: Sequence[Any], lo: int, hi: int, retry,
                  label: str, carrier: dict[str, Any]):
    """Chunk body executed inside a forked worker.

    Returns ``(item_outcomes, duration, pid)`` where each item outcome is
    ``(index, ok, value_or_exception)``.  The chunk is timed whether or
    not its trace is sampled, and the duration always travels home: the
    child's tracer and registry die with the process, so the parent
    observes ``par.chunk.seconds`` and, for a sampled trace, re-attaches
    the chunk under the original ``par.map`` span.
    """
    ctx = tracing.extract(carrier)
    item_outcomes: list[tuple[int, bool, Any]] = []
    chunk = timed("par.chunk.seconds", span_name="par.chunk", label=label,
                  size=hi - lo, pid=os.getpid())
    with tracing.activate(ctx):
        with chunk:
            for i in range(lo, hi):
                try:
                    if retry is None:
                        value = fn(items[i])
                    else:
                        value = retry.call(lambda item=items[i]: fn(item),
                                           name=f"par.{label}")
                    item_outcomes.append((i, True, value))
                except Exception as exc:  # noqa: BLE001 - parent decides
                    item_outcomes.append((i, False, exc))
    return item_outcomes, chunk.seconds, os.getpid()
