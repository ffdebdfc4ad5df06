"""The process-global pipeline-run log: per-table outcomes + lineage edges.

Mirrors :mod:`repro.resilience.degradation`: the runner records one
:class:`TableResult` per table per run (status, row accounting, inputs) —
the same record its :class:`~repro.dlt.runner.RunResult` holds — and
:class:`~repro.obs.RunReport` snapshots the log into its ``dlt`` section
(schema v4), so every bench/report artifact explains which tables
materialized, what was quarantined, and how data flowed bronze→silver→gold.

``repro.obs`` never imports this module eagerly; the report reads it via
``sys.modules`` only when a pipeline actually ran (see
``repro.obs.report._dlt_section``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TableResult:
    """One table's outcome in one :meth:`~repro.dlt.Pipeline.run`,
    read-only: the run's results and the log share it.

    ``appended`` means the incremental-source tail path ran: only the
    source rows past the committed high-water mark went through the
    transform, and the output was unioned onto the checkpoint.
    ``rows_in``/``rows_out`` then count the *tail*, not history.
    """

    name: str
    layer: str
    status: str  # "materialized" | "appended" | "cached" | "failed" | "skipped"
    rows_in: int = 0
    rows_out: int = 0
    dropped: int = 0
    quarantined: int = 0
    warned: int = 0
    recomputed: bool = False
    error: str | None = None
    pipeline: str = ""
    inputs: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("materialized", "appended", "cached")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "pipeline": self.pipeline, "table": self.name,
            "layer": self.layer, "status": self.status,
            "rows_in": self.rows_in, "rows_out": self.rows_out,
            "dropped": self.dropped, "quarantined": self.quarantined,
            "warned": self.warned, "inputs": list(self.inputs),
            "recomputed": self.recomputed,
        }
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class DltLog:
    """Bounded, thread-safe outcome log (one per process, reset per run)."""

    max_events: int = 10_000
    dropped: int = 0
    _events: list[TableResult] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, event: TableResult) -> TableResult:
        with self._lock:
            if len(self._events) < self.max_events:
                self._events.append(event)
            else:
                self.dropped += 1
        return event

    def events(self) -> list[TableResult]:
        with self._lock:
            return list(self._events)

    def edges(self) -> list[tuple[str, str]]:
        """Deduplicated lineage edges ``(input, table)`` in first-seen order."""
        seen: set[tuple[str, str]] = set()
        out: list[tuple[str, str]] = []
        for event in self.events():
            for src in event.inputs:
                edge = (src, event.name)
                if edge not in seen:
                    seen.add(edge)
                    out.append(edge)
        return out

    def reset(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0


_LOG = DltLog()


def get_log() -> DltLog:
    """The process-global pipeline-run log."""
    return _LOG
