"""The pipeline runner: dependency-ordered, fault-isolated, checkpointed.

:class:`Pipeline` collects ``@table`` functions and external sources, then
:meth:`Pipeline.run` executes the resolved DAG:

- **staleness**: each table gets a fingerprint hashing its transform code,
  expectation signatures, and every input's fingerprint (sources hash
  their *content*).  A table whose fingerprint matches its committed
  checkpoint entry is loaded, not recomputed — so a refresh after one
  dirty source touches only the dirty subtree, and a run killed mid-way
  resumes from the last committed manifest;
- **expectations**: enforced in declaration order; ``drop`` violations are
  routed to a per-table quarantine table (original columns plus
  ``_expectation`` / ``_reason``), committed next to the table so counts
  survive resume;
- **failure isolation**: an exception inside a table's transform or a
  ``fail``-level expectation marks that table failed; ``on_error="halt"``
  stops the run, ``on_error="skip_downstream"`` skips only the failed
  table's consumers and keeps the rest of the DAG running.  Transform
  errors retry under the pipeline's :class:`~repro.resilience.RetryPolicy`
  when they are transient.  Checkpoint-write failures (the injected
  ``dlt.checkpoint.write`` crash) are *not* absorbed — they propagate like
  the process death they simulate, and the next run recovers;
- **observability**: one ``dlt.run`` span per run with a ``dlt.table``
  child per table (rows_in/rows_out/dropped/quarantined attributes),
  counters under ``dlt.*``, and a :class:`~repro.dlt.lineage.TableEvent`
  per table feeding RunReport's ``dlt`` section;
- **catalog**: tables of the configured layers (gold by default) register
  into a :class:`~repro.lake.DataLake` with ``overwrite=True``, so
  Symphony / text2sql route over pipeline outputs that refresh in place.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.dlt.checkpoint import CheckpointStore, ManifestEntry
from repro.dlt.decorators import TableDef, table_def
from repro.dlt.expectations import Expectation
from repro.dlt.graph import PipelineGraph
from repro.dlt.lineage import TableEvent, get_log
from repro.dlt.storage import fingerprint_parts
from repro.errors import DltError, ExpectationFailedError
from repro.obs import get_logger, instrument, metrics, span
from repro.resilience import RetryPolicy, degradation, faults
from repro.resilience.clock import Clock
from repro.table import Table
from repro.table.storage import table_hash

logger = get_logger("dlt")

#: Fault point wrapping every table transform invocation.
TABLE_FN_POINT = "dlt.table_fn"

#: Layers whose outputs register into the attached DataLake by default.
DEFAULT_REGISTER_LAYERS = ("gold",)

ON_ERROR_MODES = ("halt", "skip_downstream")


@dataclass
class TableResult:
    """One table's outcome in one :meth:`Pipeline.run`.

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

    @property
    def ok(self) -> bool:
        return self.status in ("materialized", "appended", "cached")

    def to_dict(self) -> dict[str, Any]:
        out = {
            "name": self.name, "layer": self.layer, "status": self.status,
            "rows_in": self.rows_in, "rows_out": self.rows_out,
            "dropped": self.dropped, "quarantined": self.quarantined,
            "warned": self.warned, "recomputed": self.recomputed,
        }
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class RunResult:
    """Everything one :meth:`Pipeline.run` produced."""

    pipeline: str
    results: dict[str, TableResult] = field(default_factory=dict)
    tables: dict[str, Table] = field(default_factory=dict)
    quarantines: dict[str, Table] = field(default_factory=dict)
    lineage: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        """True when every table materialized or loaded clean."""
        return all(r.ok for r in self.results.values())

    @property
    def computed(self) -> list[str]:
        """Tables whose transform actually ran (recomputation audit)."""
        return [name for name, r in self.results.items() if r.recomputed]

    @property
    def failed(self) -> list[str]:
        return [n for n, r in self.results.items() if r.status == "failed"]

    @property
    def skipped(self) -> list[str]:
        return [n for n, r in self.results.items() if r.status == "skipped"]

    def table(self, name: str) -> Table:
        if name not in self.tables:
            raise DltError(f"table {name!r} did not materialize in this run")
        return self.tables[name]

    def quarantine(self, name: str) -> Table | None:
        """The quarantine table for ``name`` (None when nothing dropped)."""
        return self.quarantines.get(name)

    def render(self) -> str:
        lines = [f"== pipeline run: {self.pipeline} =="]
        for result in self.results.values():
            line = (f"[{result.layer}] {result.name}: {result.status}"
                    f" rows={result.rows_in}->{result.rows_out}")
            if result.quarantined:
                line += f" quarantined={result.quarantined}"
            if result.warned:
                line += f" warned={result.warned}"
            if result.error:
                line += f" ({result.error})"
            lines.append(line)
        return "\n".join(lines)


class Pipeline:
    """A declared medallion pipeline: tables + sources + run policies."""

    def __init__(self, name: str = "dlt", *,
                 checkpoint_dir: str | Path | None = None,
                 lake: Any | None = None,
                 register_layers: tuple[str, ...] = DEFAULT_REGISTER_LAYERS,
                 retry: RetryPolicy | None = None,
                 clock: Clock | None = None):
        self.name = name
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.lake = lake
        self.register_layers = tuple(register_layers)
        self.retry = retry
        self.clock = clock
        self.defs: dict[str, TableDef] = {}
        self.sources: dict[str, Table | Callable[[], Table]] = {}
        self.incremental_sources: set[str] = set()

    # -- declaration -------------------------------------------------------

    def add(self, *items: Callable[..., Any] | TableDef) -> "Pipeline":
        """Register ``@table`` functions (or TableDefs); chainable."""
        for item in items:
            tdef = item if isinstance(item, TableDef) else table_def(item)
            if tdef.name in self.defs or tdef.name in self.sources:
                raise DltError(f"duplicate table name {tdef.name!r}")
            self.defs[tdef.name] = tdef
        return self

    def source(self, name: str, data: Table | Callable[[], Table], *,
               incremental: bool = False) -> "Pipeline":
        """Register an external input (a Table, or a callable producing one).

        Sources are content-hashed each run: mutating a source's data
        dirties exactly the tables downstream of it.

        ``incremental=True`` declares the source *append-only*: refreshes
        record a high-water mark (row count + prefix content hash) per
        consumer checkpoint, and a consumer declared
        ``@table(incremental=True)`` whose prefix still matches applies
        the transform to the appended tail only, unioning it onto the
        committed state.  A rewritten prefix is detected by the hash check
        and falls back to a full recompute — the flag can never serve
        wrong data, only faster refreshes.
        """
        if name in self.defs or name in self.sources:
            raise DltError(f"duplicate source name {name!r}")
        self.sources[name] = data
        if incremental:
            self.incremental_sources.add(name)
        return self

    def graph(self) -> PipelineGraph:
        """The validated dependency DAG (raises PipelineGraphError)."""
        return PipelineGraph(self.defs, self.sources)

    # -- execution ---------------------------------------------------------

    def run(self, *, full_refresh: bool = False,
            on_error: str = "halt") -> RunResult:
        """Execute the DAG; see the module docstring for semantics."""
        if on_error not in ON_ERROR_MODES:
            raise DltError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        graph = self.graph()
        order = graph.topo_order()
        store = (CheckpointStore(self.checkpoint_dir)
                 if self.checkpoint_dir is not None else None)
        run = RunResult(pipeline=self.name, lineage=graph.edges())
        fingerprints: dict[str, str] = {}
        halted = False

        with span("dlt.run", pipeline=self.name, tables=len(order)):
            source_tables, source_hashes = self._materialize_sources(
                fingerprints)
            for name in order:
                tdef = self.defs[name]
                if halted or self._inputs_unavailable(tdef, run):
                    reason = "halted" if halted else "upstream failed"
                    self._record_skip(run, tdef, reason)
                    continue
                fingerprint = self._fingerprint(tdef, fingerprints)
                fingerprints[name] = fingerprint
                base_fp = self._tail_base_fingerprint(tdef)
                source_state = (
                    self._source_state(tdef, source_tables, source_hashes)
                    if base_fp is not None else None
                )

                # Fingerprints are compared on the unvalidated entry; the
                # files are hash-validated once, by the read that serves
                # them.
                entry = (store.entry(name)
                         if store is not None and not full_refresh else None)
                if entry is not None:
                    if self._load_cached(store, tdef, entry, fingerprint,
                                         run):
                        continue
                    handled = self._apply_tail(
                        store, tdef, entry, fingerprint, base_fp,
                        source_state, source_tables, run, on_error=on_error,
                    )
                    if handled is not None:
                        if not handled and on_error == "halt":
                            halted = True
                        continue

                ok = self._compute(tdef, fingerprint, source_tables, store,
                                   run, on_error=on_error,
                                   base_fingerprint=base_fp,
                                   source_state=source_state)
                if not ok and on_error == "halt":
                    halted = True
        return run

    def refresh(self, *, on_error: str = "halt") -> RunResult:
        """Incremental run: recompute only stale/dirty tables."""
        return self.run(full_refresh=False, on_error=on_error)

    # -- internals ---------------------------------------------------------

    def _materialize_sources(
            self, fingerprints: dict[str, str],
    ) -> tuple[dict[str, Table], dict[str, str]]:
        """Each source's table and content hash (hashed once a run)."""
        tables: dict[str, Table] = {}
        hashes: dict[str, str] = {}
        for name, source in self.sources.items():
            data = source() if callable(source) else source
            if not isinstance(data, Table):
                raise DltError(
                    f"source {name!r} must produce a Table, got {type(data)}"
                )
            tables[name] = data
            hashes[name] = table_hash(data)
            fingerprints[name] = f"src:{hashes[name]}"
        return tables, hashes

    @staticmethod
    def _inputs_unavailable(tdef: TableDef, run: RunResult) -> bool:
        return any(
            dep in run.results and not run.results[dep].ok
            for dep in tdef.inputs
        )

    def _fingerprint(self, tdef: TableDef,
                     fingerprints: dict[str, str]) -> str:
        """Content-hashed identity: code + contracts + upstream state."""
        return fingerprint_parts(
            tdef.name, tdef.layer, _code_hash(tdef.fn),
            *[sig for exp in tdef.expectations for sig in exp.signature()],
            *[fingerprints[dep] for dep in tdef.inputs],
        )

    def _tail_base_fingerprint(self, tdef: TableDef) -> str | None:
        """The table's identity *excluding* source content, or None.

        Non-None marks the table eligible for the incremental-source tail
        path: the transform is declared linear (``incremental=True``), it
        has exactly one input, and that input is an append-only source.
        Multi-input incremental transforms are out of scope (narrow
        wiring): linearity per argument does not compose across arguments
        for joins, so the runner refuses rather than guesses.
        """
        if not tdef.incremental or len(tdef.inputs) != 1:
            return None
        if tdef.inputs[0] not in self.incremental_sources:
            return None
        return fingerprint_parts(
            "base", tdef.name, tdef.layer, _code_hash(tdef.fn),
            *[sig for exp in tdef.expectations for sig in exp.signature()],
            *tdef.inputs,
        )

    @staticmethod
    def _source_state(tdef: TableDef, source_tables: dict[str, Table],
                      source_hashes: dict[str, str]) -> dict[str, Any]:
        """High-water mark + content hash per input source, at commit time."""
        return {
            dep: {"rows": source_tables[dep].num_rows,
                  "hash": source_hashes[dep]}
            for dep in tdef.inputs
        }

    @staticmethod
    def _read_committed(
            store: CheckpointStore, name: str, entry: ManifestEntry,
    ) -> tuple[Table, Table | None] | None:
        """The committed table and quarantine, each hash-validated by
        the read itself; None when either file is missing or corrupt."""
        table = store.read_table(name, entry)
        if table is None:
            return None
        quarantine = store.read_quarantine(name, entry)
        if quarantine is None and entry.quarantine_file is not None:
            return None
        return table, quarantine

    def _apply_tail(self, store: CheckpointStore, tdef: TableDef,
                    entry: ManifestEntry, fingerprint: str,
                    base_fp: str | None, source_state: dict[str, Any] | None,
                    source_tables: dict[str, Table], run: RunResult, *,
                    on_error: str) -> bool | None:
        """Try the append-only tail path; None = ineligible (fall through).

        Eligibility beyond :meth:`_tail_base_fingerprint`: a committed
        checkpoint entry with the same base fingerprint whose recorded
        high-water mark still prefix-hashes into the current source.  When
        it holds, the transform + expectations run over the appended tail
        only and the result is unioned onto the committed table — cost
        proportional to the tail, with the full fingerprint re-recorded so
        downstream staleness stays content-driven.
        """
        if (base_fp is None or entry.base_fingerprint != base_fp
                or not entry.source_state):
            return None
        src_name = tdef.inputs[0]
        current = source_tables[src_name]
        recorded = entry.source_state.get(src_name)
        if recorded is None:
            return None
        hwm = int(recorded["rows"])
        if current.num_rows <= hwm:
            return None                      # shrunk/rewritten: recompute
        if table_hash(current.slice(0, hwm)) != recorded["hash"]:
            metrics.counter("dlt.incremental.prefix_rewritten").inc()
            return None                      # prefix mutated: recompute
        committed = self._read_committed(store, tdef.name, entry)
        if committed is None:
            return None
        cached, quarantine = committed
        tail = current.slice(hwm)

        with instrument.timed("dlt.table.seconds", span_name="dlt.table",
                              table=tdef.name, layer=tdef.layer) as table_span:
            try:
                out_tail = self._call_fn(tdef, [tail])
                rows_in = out_tail.num_rows
                out_tail, tail_quarantine, dropped, warned = (
                    self._apply_expectations(tdef, out_tail)
                )
            except Exception as exc:  # noqa: BLE001 - per-table isolation
                run.results[tdef.name] = TableResult(
                    tdef.name, tdef.layer, "failed", error=str(exc),
                )
                metrics.counter("dlt.tables.failed").inc()
                table_span.set(status="failed", error=str(exc))
                degradation.record(
                    "dlt", tdef.name,
                    "halt" if on_error == "halt" else "skip_downstream",
                    error=str(exc),
                )
                logger.warning("table %s tail failed: %s", tdef.name, exc)
                get_log().record(TableEvent(
                    pipeline=self.name, table=tdef.name, layer=tdef.layer,
                    status="failed", inputs=tdef.inputs, error=str(exc),
                ))
                return False

            out = cached.union(out_tail)
            if tail_quarantine is not None and tail_quarantine.num_rows:
                quarantine = (tail_quarantine if quarantine is None
                              else quarantine.union(tail_quarantine))
            table_span.set(
                status="appended", rows_in=rows_in,
                rows_out=out_tail.num_rows, dropped=dropped,
                tail_rows=tail.num_rows, total_rows=out.num_rows,
            )
            store.commit(
                tdef.name, fingerprint, out, quarantine,
                base_fingerprint=base_fp, source_state=source_state,
            )

        run.tables[tdef.name] = out
        if quarantine is not None and quarantine.num_rows:
            run.quarantines[tdef.name] = quarantine
        quarantined = 0 if quarantine is None else quarantine.num_rows
        run.results[tdef.name] = TableResult(
            tdef.name, tdef.layer, "appended",
            rows_in=rows_in, rows_out=out_tail.num_rows, dropped=dropped,
            quarantined=quarantined, warned=warned, recomputed=True,
        )
        metrics.counter("dlt.tables.appended").inc()
        metrics.counter("dlt.incremental.tail_rows").inc(tail.num_rows)
        self._register(tdef, out)
        get_log().record(TableEvent(
            pipeline=self.name, table=tdef.name, layer=tdef.layer,
            status="appended", rows_in=rows_in, rows_out=out_tail.num_rows,
            dropped=dropped, quarantined=quarantined, warned=warned,
            inputs=tdef.inputs, recomputed=True,
        ))
        return True

    def _record_skip(self, run: RunResult, tdef: TableDef,
                     reason: str) -> None:
        run.results[tdef.name] = TableResult(
            tdef.name, tdef.layer, "skipped", error=reason
        )
        metrics.counter("dlt.tables.skipped").inc()
        get_log().record(TableEvent(
            pipeline=self.name, table=tdef.name, layer=tdef.layer,
            status="skipped", inputs=tdef.inputs, error=reason,
        ))

    def _load_cached(self, store: CheckpointStore, tdef: TableDef,
                     entry: ManifestEntry, fingerprint: str,
                     run: RunResult) -> bool:
        """Serve a committed-and-clean table from the checkpoint."""
        if entry.fingerprint != fingerprint:
            return False
        committed = self._read_committed(store, tdef.name, entry)
        if committed is None:
            return False
        cached, quarantine = committed
        run.tables[tdef.name] = cached
        if quarantine is not None:
            run.quarantines[tdef.name] = quarantine
        run.results[tdef.name] = TableResult(
            tdef.name, tdef.layer, "cached",
            rows_in=cached.num_rows, rows_out=cached.num_rows,
            quarantined=entry.quarantined, recomputed=False,
        )
        metrics.counter("dlt.tables.cached").inc()
        self._register(tdef, cached)
        get_log().record(TableEvent(
            pipeline=self.name, table=tdef.name, layer=tdef.layer,
            status="cached", rows_in=cached.num_rows,
            rows_out=cached.num_rows, quarantined=entry.quarantined,
            inputs=tdef.inputs, recomputed=False,
        ))
        return True

    def _compute(self, tdef: TableDef, fingerprint: str,
                 source_tables: dict[str, Table],
                 store: CheckpointStore | None, run: RunResult, *,
                 on_error: str, base_fingerprint: str | None = None,
                 source_state: dict[str, Any] | None = None) -> bool:
        """Run one table's transform + expectations, then commit it.

        Transform/expectation failures are isolated per ``on_error``;
        checkpoint-write failures propagate (simulated process death).
        """
        inputs = [
            run.tables[dep] if dep in run.tables else source_tables[dep]
            for dep in tdef.inputs
        ]
        with instrument.timed("dlt.table.seconds", span_name="dlt.table",
                              table=tdef.name, layer=tdef.layer) as table_span:
            try:
                out = self._call_fn(tdef, inputs)
                rows_in = out.num_rows
                out, quarantine, dropped, warned = (
                    self._apply_expectations(tdef, out)
                )
            except Exception as exc:  # noqa: BLE001 - per-table isolation
                run.results[tdef.name] = TableResult(
                    tdef.name, tdef.layer, "failed", error=str(exc),
                )
                metrics.counter("dlt.tables.failed").inc()
                table_span.set(status="failed", error=str(exc))
                degradation.record(
                    "dlt", tdef.name,
                    "halt" if on_error == "halt" else "skip_downstream",
                    error=str(exc),
                )
                logger.warning("table %s failed: %s", tdef.name, exc)
                get_log().record(TableEvent(
                    pipeline=self.name, table=tdef.name, layer=tdef.layer,
                    status="failed", inputs=tdef.inputs, error=str(exc),
                ))
                return False

            table_span.set(
                status="materialized", rows_in=rows_in,
                rows_out=out.num_rows, dropped=dropped,
                quarantined=0 if quarantine is None else quarantine.num_rows,
            )
            # The commit is deliberately NOT isolated: a failure here means
            # the materialization did not durably happen, and the safe
            # reaction is the one a process kill gets — stop and resume.
            if store is not None:
                store.commit(
                    tdef.name, fingerprint, out, quarantine,
                    base_fingerprint=base_fingerprint,
                    source_state=source_state,
                )

        run.tables[tdef.name] = out
        if quarantine is not None and quarantine.num_rows:
            run.quarantines[tdef.name] = quarantine
        run.results[tdef.name] = TableResult(
            tdef.name, tdef.layer, "materialized",
            rows_in=rows_in, rows_out=out.num_rows, dropped=dropped,
            quarantined=0 if quarantine is None else quarantine.num_rows,
            warned=warned, recomputed=True,
        )
        metrics.counter("dlt.tables.materialized").inc()
        metrics.counter(f"dlt.table.{tdef.name}.computed").inc()
        self._register(tdef, out)
        get_log().record(TableEvent(
            pipeline=self.name, table=tdef.name, layer=tdef.layer,
            status="materialized", rows_in=rows_in, rows_out=out.num_rows,
            dropped=dropped,
            quarantined=0 if quarantine is None else quarantine.num_rows,
            warned=warned, inputs=tdef.inputs, recomputed=True,
        ))
        return True

    def _call_fn(self, tdef: TableDef, inputs: list[Table]) -> Table:
        def invoke() -> Table:
            faults.point(TABLE_FN_POINT)
            out = tdef.fn(*inputs)
            if not isinstance(out, Table):
                raise DltError(
                    f"table {tdef.name!r} returned {type(out).__name__}, "
                    f"expected a Table"
                )
            return out

        if self.retry is not None:
            return self.retry.call(
                invoke, name=f"dlt.{tdef.name}", clock=self.clock
            )
        return invoke()

    def _apply_expectations(
            self, tdef: TableDef, table: Table,
    ) -> tuple[Table, Table | None, int, int]:
        """Enforce contracts in declaration order on the surviving rows."""
        quarantine: Table | None = None
        dropped = warned = 0
        for exp in tdef.expectations:
            mask = exp.predicate.mask(table)
            violations = int(table.num_rows - int(mask.sum()))
            if violations == 0:
                metrics.counter("dlt.expect.pass").inc()
                continue
            if exp.action == "warn":
                warned += violations
                metrics.counter("dlt.expect.warn_rows").inc(violations)
                logger.warning(
                    "expectation %s.%s: %d rows violate (kept)",
                    tdef.name, exp.name, violations,
                )
            elif exp.action == "drop":
                quarantine = self._quarantine_rows(
                    table, exp, mask, quarantine
                )
                table = table.filter(mask)
                dropped += violations
                metrics.counter("dlt.expect.drop_rows").inc(violations)
                metrics.counter("dlt.rows.quarantined").inc(violations)
            else:  # fail
                metrics.counter("dlt.expect.fail").inc()
                raise ExpectationFailedError(
                    f"{tdef.name}: expectation {exp.name!r} failed for "
                    f"{violations} of {table.num_rows} rows"
                )
        return table, quarantine, dropped, warned

    @staticmethod
    def _quarantine_rows(table: Table, exp: Expectation, mask: np.ndarray,
                         quarantine: Table | None) -> Table:
        failing = np.flatnonzero(~mask)
        bad = table.filter(~mask)
        reasons = exp.predicate.reasons(table, failing)
        bad = bad.with_column(
            "_expectation", "str", [exp.name] * bad.num_rows
        ).with_column("_reason", "str", list(reasons))
        return bad if quarantine is None else quarantine.union(bad)

    def _register(self, tdef: TableDef, table: Table) -> None:
        if self.lake is None or tdef.layer not in self.register_layers:
            return
        self.lake.add_table(
            tdef.name, table,
            description=tdef.description
            or f"{tdef.layer} table of pipeline {self.name}",
            overwrite=True,
        )


def _code_hash(fn: Callable[..., Any]) -> str:
    """Fingerprint a transform's logic.

    Source text when available (survives process restarts and tracks
    edits); bytecode + consts as the fallback for callables without
    retrievable source.
    """
    try:
        return fingerprint_parts("src", inspect.getsource(fn))
    except (OSError, TypeError):
        code = getattr(fn, "__code__", None)
        if code is None:
            return fingerprint_parts("name", repr(fn))
        return fingerprint_parts(
            "code", code.co_code.hex(), repr(code.co_consts), code.co_names
        )
