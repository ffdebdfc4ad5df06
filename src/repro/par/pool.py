"""The worker pool: the only module under ``src/repro`` allowed to spawn
threads (CI-enforced — the lint rejects ``threading.Thread(`` anywhere else
in the library).

Both consumers of parallelism in the library build on this one class, so
thread lifecycles have a single owner:

- :class:`repro.serving.Server` drains its micro-batch schedulers with a
  pool;
- :class:`repro.par.ParallelMap` fans offline chunk work out over a
  short-lived pool per ``map()`` call.

A :class:`WorkerPool` runs ``num_workers`` daemon threads, each looping on a
caller-supplied ``fetch`` callable.  ``fetch`` blocks until work is
available and returns a zero-argument callable to execute, or ``None`` to
tell the worker to exit — all waiting strategy (condition variables, batch
windows) lives with the caller, so the pool itself contains no policy and
no sleeps.

A work item that raises is counted and logged, never propagated: a worker
thread must not die to a bad batch.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.obs import get_logger, metrics

log = get_logger("par.pool")


class WorkerPool:
    """Fixed-size pool of daemon workers draining a blocking ``fetch``."""

    def __init__(self, name: str, num_workers: int,
                 fetch: Callable[[], Optional[Callable[[], None]]],
                 metric_prefix: str = "serving.pool"):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.name = name
        self.num_workers = num_workers
        self._fetch = fetch
        self._prefix = metric_prefix
        self._threads: list[threading.Thread] = []
        self._started = False

    @property
    def running(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())

    def start(self) -> "WorkerPool":
        if self._started:
            return self
        self._started = True
        for i in range(self.num_workers):
            thread = threading.Thread(
                target=self._run, name=f"repro-{self.name}-{i}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        metrics.gauge(f"{self._prefix}.{self.name}.workers").set(self.running)
        return self

    def _run(self) -> None:
        while True:
            work = self._fetch()
            if work is None:
                break
            try:
                work()
                metrics.counter(f"{self._prefix}.{self.name}.tasks").inc()
            except Exception:  # noqa: BLE001 - workers must survive bad work
                metrics.counter(f"{self._prefix}.{self.name}.task_errors").inc()
                log.exception("worker task failed in pool %r", self.name)

    def join(self, timeout: float | None = 5.0) -> None:
        """Wait for workers to exit (after ``fetch`` has returned ``None``
        to each of them — the caller signals that, typically via a closed
        flag plus a condition broadcast, or by exhausting a finite work
        list as :class:`repro.par.ParallelMap` does)."""
        for thread in self._threads:
            thread.join(timeout)
        metrics.gauge(f"{self._prefix}.{self.name}.workers").set(self.running)
