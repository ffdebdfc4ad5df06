"""repro.par: the parallel execution layer.

One contract, two backends, both deterministic by construction:

- :class:`BaseMap` — the shared map semantics: picklable configuration,
  chunked ordered results, a ``workers=0`` serial mode, per-chunk
  observability, and a resilience-aware error policy (``RetryPolicy`` for
  transient faults, ``DegradationLog`` + fallback values under
  ``on_error="degrade"``);
- :class:`ParallelMap` — the thread-backed dispatch, for I/O-bound or
  GIL-releasing work;
- :class:`ProcessMap` / :class:`ProcessPool` — the fork-backed dispatch
  for GIL-bound python (pipeline evaluation, shard kernels), with
  worker-loss detection and cross-process span re-parenting;
- :class:`WorkerPool` — the single sanctioned ``threading.Thread`` site
  under ``src/repro`` (CI-enforced), shared with the serving runtime;
  :mod:`repro.par.procpool` is likewise the single sanctioned
  ``multiprocessing`` site.

Quickstart::

    from repro.par import ParallelMap, ProcessMap

    pmap = ParallelMap(workers=4, chunk_size=8)
    squares = pmap.map(lambda x: x * x, range(100))   # input order, always
    assert squares == ParallelMap(workers=0).map(lambda x: x * x, range(100))

    procs = ProcessMap()        # sizes itself to the machine's CPUs
    assert procs.map(lambda x: x * x, range(100)) == squares

See docs/performance.md for the kernel inventory that fans out through
this layer, the thread/process crossover guidance, and the
perf-regression bench that guards it.
"""

from repro.par.base import DEFAULT_CHUNK_SIZE, ON_ERROR_MODES, BaseMap
from repro.par.parallel import ParallelMap
from repro.par.pool import WorkerPool
from repro.par.procpool import (
    ProcessMap,
    ProcessPool,
    available_cpus,
    default_process_workers,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ON_ERROR_MODES",
    "BaseMap",
    "ParallelMap",
    "ProcessMap",
    "ProcessPool",
    "WorkerPool",
    "available_cpus",
    "default_process_workers",
]
