"""Serve SQL: :class:`SqlBackend` answers SELECT text over a
:class:`~repro.sql.Database`.

- ``run_batch`` runs each payload through :meth:`Database.query`, so a
  served query gets the same optimizer, physical backends (columnar,
  key-index probe, shard kernels, maintained views) and template plan
  cache as a direct call;
- ``cache_key`` is the query's token stream (whitespace and keyword case
  normalized) plus the database's catalog ``version``, so re-registering
  a table retires every cached answer.  A query that reads a stream or a
  view is uncached (``None``): those change without a catalog change.
  Whether it reads only static tables comes from the database's template
  plan cache (:meth:`Database.reads_static`), which plans a new template
  there, so a served query is parsed at most once per template.  Stream
  and view reads reuse that plan too — only the answer is never cached,
  since ``run_batch`` binds the plan to the current snapshot.  Text that
  does not parse or plan is uncached too; it fails in ``run_batch``
  instead;
- ``fallback`` is the degraded tier: when the database fans shard kernels
  out over a ``pmap``, a failed query re-runs on the serial naive
  executor (``optimizer=False``), which never touches the pool — a lost
  worker costs latency, not the answer.  Without a ``pmap`` there is no
  cheaper path and the error propagates.

This module is loaded lazily (``repro.serving.SqlBackend``), so
importing :mod:`repro.serving` does not import :mod:`repro.sql`.
"""

from __future__ import annotations

from typing import Any

from repro.obs import get_logger, metrics
from repro.serving.cache import stable_key
from repro.serving.server import Backend
from repro.sql import Database, tokenize
from repro.table import Table

log = get_logger("serving.sql")


class SqlBackend(Backend):
    """Serve SELECT statements (payload = SQL text) over one database."""

    def __init__(self, db: Database, name: str = "sql"):
        self.db = db
        self.name = name

    def run_batch(self, payloads: list[str]) -> list[Table]:
        return [self.db.query(sql) for sql in payloads]

    def cache_key(self, payload: str) -> str | None:
        version = self.db.version
        try:
            tokens = tokenize(payload)
            static = self.db.reads_static(tokens)
        except Exception:                # reported by run_batch instead
            return None
        if not static:
            return None
        return stable_key(self.name, str(version), repr(tokens))

    def fallback(self, payload: str, error: BaseException) -> Any:
        if self.db.pmap is None:
            raise error
        log.warning("query degrading to the serial executor after: %s",
                    error)
        metrics.counter("serving.sql.serial_retries").inc()
        return self.db.query(payload, optimizer=False)
