"""repro.serving: the micro-batching serving runtime.

The ROADMAP's north star is serving heavy traffic, and §3.1/§3.2's framing
is that model-inference cost dominates data-prep workloads — so this layer
exists to *amortize* that cost the way continuous-batching inference
servers do: collect concurrent requests into micro-batches, deduplicate
identical work, and answer repeats from a cache.  Five pieces, built on
``repro.obs`` (PR 1) and ``repro.resilience`` (PR 2):

- **envelope** — typed :class:`Request`/:class:`Response` with priority,
  deadline and trace metadata; backpressure is a ``rejected`` *response*
  (429-style), never an exception;
- **scheduler** — :class:`MicroBatchScheduler`: bounded priority lanes,
  batches triggered by size (``max_batch``) or time (``batch_window`` on
  the injected clock); a pure state machine with zero sleeps;
- **admission** — :class:`AdmissionController`: queue-depth limits and
  priority-aware load shedding, recorded into the
  :class:`~repro.resilience.DegradationLog`;
- **cache** — :class:`ResultCache` (sharded LRU + TTL, hit/miss/eviction
  metrics) and :class:`SingleFlight` (identical in-flight requests are
  computed once);
- **server / backends** — :class:`Server` ties it together over a
  :class:`~repro.par.pool.WorkerPool` (the only sanctioned
  ``threading.Thread`` site in the library), with a
  :class:`~repro.resilience.CircuitBreaker` and a degraded-tier fallback
  per registered :class:`Backend`; :class:`SqlBackend` serves SQL over a
  :class:`~repro.sql.Database`.

Quickstart::

    from repro.serving import FMBackend, Server

    server = Server(workers=2, batch_window=0.005, max_batch=32)
    server.register(FMBackend(model))
    futures = [server.submit("fm", prompt) for prompt in prompts]
    answers = [f.result(timeout=10.0) for f in futures]
    server.close()

``Server(workers=0)`` is serial mode: batches run inline on :meth:`poll` /
:meth:`flush`, fully deterministic on a
:class:`~repro.resilience.FakeClock`.  See docs/serving.md for the design,
tuning knobs and metric names.
"""

from repro.par.pool import WorkerPool
from repro.serving.admission import AdmissionController
from repro.serving.cache import ResultCache, SingleFlight, stable_key
from repro.serving.envelope import (
    ERROR,
    EXPIRED,
    OK,
    PRIORITIES,
    REJECTED,
    STATUSES,
    Request,
    Response,
    ResponseFuture,
)
from repro.serving.scheduler import MicroBatchScheduler
from repro.serving.server import Backend, Server

__all__ = [
    "ERROR",
    "EXPIRED",
    "OK",
    "PRIORITIES",
    "REJECTED",
    "STATUSES",
    "AdmissionController",
    "Backend",
    "FMBackend",
    "MatcherBackend",
    "MicroBatchScheduler",
    "PipelineBackend",
    "Request",
    "Response",
    "ResponseFuture",
    "ResultCache",
    "Server",
    "SingleFlight",
    "SqlBackend",
    "WorkerPool",
    "stable_key",
]

#: Backends load on first use: the stock three wrap the model stack
#: (foundation, matching, pipelines, and through them nn / plm /
#: networkx), ``SqlBackend`` the SQL engine, and a process that serves
#: only one of them imports neither of the others.
_BACKENDS = {"FMBackend": "backends", "MatcherBackend": "backends",
             "PipelineBackend": "backends", "SqlBackend": "sql"}


def __getattr__(name: str):
    if name in _BACKENDS:
        from importlib import import_module

        module = import_module(f"repro.serving.{_BACKENDS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
