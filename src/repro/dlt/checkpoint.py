"""Crash-safe checkpoint store: atomic per-table commits + one manifest.

The commit protocol makes a killed pipeline run resumable without ever
serving a torn table:

1. the table (and its quarantine, when non-empty) is encoded in the
   binary table format (:mod:`repro.table.storage`) and written to a
   **content-addressed** file — ``tables/<name>-<hash>.tbl`` — via
   :func:`~repro.table.storage.write_atomic` (write-temp → flush → fsync
   → atomic rename → directory fsync).  The previous version's file is
   untouched until the new commit is fully durable;
2. the manifest (``MANIFEST.json``), mapping table name → fingerprint +
   data file + content hash, is rewritten the same way.  The rename is
   the commit point;
3. only after the manifest rename are data files no longer referenced by
   any entry garbage-collected.

A crash at *any* point — including mid-manifest-write, which the chaos
harness injects via the ``dlt.checkpoint.write`` fault point — leaves
either the old manifest (pointing at intact old files) or the new one
(pointing at intact new files).  Stray ``*.tmp`` and unreferenced data
files are swept when the store reopens.  Every read re-hashes the bytes
it decodes against the entry's content hash, so even external corruption
downgrades to "recompute", never to "serve torn data".  Data files of
the earlier JSON format (``*.json``, format 1) are still read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.dlt.storage import table_from_json
from repro.errors import CheckpointError, StorageError
from repro.obs import metrics
from repro.resilience import faults
from repro.table import Table
from repro.table.storage import (
    TABLE_SUFFIX,
    content_hash,
    decode_table,
    encode_table,
    write_atomic,
)

MANIFEST_NAME = "MANIFEST.json"
#: Bumped on breaking changes to the manifest layout.
MANIFEST_FORMAT = 1

#: The chaos injection point armed by crash-recovery tests: it fires at
#: three stages of :meth:`CheckpointStore.commit` (before the data write,
#: between data write and manifest write, and mid-manifest-commit), so a
#: seeded run kills the "process" at varying torn-write positions.
CHECKPOINT_WRITE_POINT = "dlt.checkpoint.write"


@dataclass(frozen=True)
class ManifestEntry:
    """One committed table: identity, location, and integrity hashes.

    ``base_fingerprint`` and ``source_state`` exist only for tables on the
    incremental-source path: the base fingerprint hashes code + contracts
    but NOT source content, and ``source_state`` records each append-only
    source's high-water mark (``rows``) and content hash at commit time.
    A later refresh whose source grew — but whose first ``rows`` rows
    still hash to the recorded value — applies only the tail instead of
    recomputing history (docs/dlt.md).
    """

    table: str
    fingerprint: str
    data_file: str
    data_hash: str
    rows: int
    quarantine_file: str | None = None
    quarantine_hash: str | None = None
    quarantined: int = 0
    base_fingerprint: str | None = None
    source_state: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "table": self.table,
            "fingerprint": self.fingerprint,
            "data_file": self.data_file,
            "data_hash": self.data_hash,
            "rows": self.rows,
            "quarantine_file": self.quarantine_file,
            "quarantine_hash": self.quarantine_hash,
            "quarantined": self.quarantined,
            "base_fingerprint": self.base_fingerprint,
            "source_state": self.source_state,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ManifestEntry":
        return cls(
            table=data["table"],
            fingerprint=data["fingerprint"],
            data_file=data["data_file"],
            data_hash=data["data_hash"],
            rows=int(data.get("rows", 0)),
            quarantine_file=data.get("quarantine_file"),
            quarantine_hash=data.get("quarantine_hash"),
            quarantined=int(data.get("quarantined", 0)),
            base_fingerprint=data.get("base_fingerprint"),
            source_state=data.get("source_state"),
        )


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


class CheckpointStore:
    """Atomic, content-hashed materialization store under one directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.tables_dir = self.root / "tables"
        self.tables_dir.mkdir(parents=True, exist_ok=True)
        self._sweep()

    def _sweep(self) -> None:
        """Remove debris a crash can leave: temp files and data files no
        manifest entry references."""
        for tmp in self.root.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
        referenced = set()
        for entry in self.load_manifest().values():
            referenced.add(entry.data_file)
            if entry.quarantine_file:
                referenced.add(entry.quarantine_file)
        for data in self.tables_dir.iterdir():  # temp files included
            if data.name not in referenced:
                data.unlink(missing_ok=True)

    # -- manifest ----------------------------------------------------------

    def load_manifest(self) -> dict[str, ManifestEntry]:
        """The committed state; ``{}`` when absent (or unreadable — an
        unparseable manifest degrades to "nothing committed", never to
        serving bad data)."""
        path = self.root / MANIFEST_NAME
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if payload.get("format") != MANIFEST_FORMAT:
            return {}
        return {
            name: ManifestEntry.from_dict(entry)
            for name, entry in payload.get("tables", {}).items()
        }

    def _write_manifest(self, manifest: dict[str, ManifestEntry]) -> None:
        payload = {
            "format": MANIFEST_FORMAT,
            "tables": {name: e.to_dict() for name, e in manifest.items()},
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        # Stage 3 fires between the temp file's fsync and the rename (the
        # commit point) — a crash there must leave the previous manifest
        # authoritative.
        write_atomic(self.root / MANIFEST_NAME, text.encode("utf-8"),
                     before_replace=lambda: faults.point(
                         CHECKPOINT_WRITE_POINT))

    # -- reads -------------------------------------------------------------

    def entry(self, name: str) -> ManifestEntry | None:
        """The manifest entry for ``name``, not validated — the runner
        compares fingerprints on it first and validates only by reading
        (:meth:`read_table`)."""
        return self.load_manifest().get(name)

    def committed(self, name: str) -> ManifestEntry | None:
        """The validated manifest entry for ``name``, else None.

        Validation re-hashes the referenced files; any mismatch (missing,
        truncated, corrupted) disqualifies the entry.  The runner does not
        call this: :meth:`read_table` validates the bytes it decodes.
        """
        entry = self.entry(name)
        if entry is None or self._valid_bytes(
                entry.data_file, entry.data_hash) is None:
            return None
        if entry.quarantine_file is not None and self._valid_bytes(
                entry.quarantine_file, entry.quarantine_hash or "") is None:
            return None
        return entry

    def read_table(self, name: str,
                   entry: ManifestEntry | None = None) -> Table | None:
        """The committed table, or None when absent/invalid.

        The bytes decoded are the bytes hashed against ``entry`` (looked
        up when not given), so a table is validated exactly once, on the
        read that serves it.
        """
        entry = entry if entry is not None else self.entry(name)
        if entry is None:
            return None
        return self._read(entry.data_file, entry.data_hash)

    def read_quarantine(self, name: str,
                        entry: ManifestEntry | None = None) -> Table | None:
        """The committed quarantine table, or None when there is none (or
        its file is invalid — check ``entry.quarantine_file`` to tell)."""
        entry = entry if entry is not None else self.entry(name)
        if entry is None or entry.quarantine_file is None:
            return None
        return self._read(entry.quarantine_file, entry.quarantine_hash or "")

    def _valid_bytes(self, file_name: str, expected_hash: str) -> bytes | None:
        """The file's bytes when they hash to ``expected_hash``, else None
        (counted as ``dlt.checkpoint.invalid``)."""
        try:
            data = (self.tables_dir / file_name).read_bytes()
        except OSError:
            data = None
        if data is None or content_hash(data) != expected_hash:
            metrics.counter("dlt.checkpoint.invalid").inc()
            return None
        return data

    def _read(self, file_name: str, expected_hash: str) -> Table | None:
        data = self._valid_bytes(file_name, expected_hash)
        if data is None:
            return None
        if file_name.endswith(".json"):
            return table_from_json(data)
        try:
            return decode_table(data)
        except StorageError as exc:
            raise CheckpointError(f"{file_name}: {exc}") from exc

    # -- commit ------------------------------------------------------------

    def commit(self, name: str, fingerprint: str, table: Table,
               quarantine: Table | None = None, *,
               base_fingerprint: str | None = None,
               source_state: dict[str, Any] | None = None) -> ManifestEntry:
        """Atomically materialize ``table`` (+ quarantine) under ``name``.

        Raising anywhere inside — including the injected
        ``dlt.checkpoint.write`` faults — leaves the store in its previous
        committed state (modulo unreferenced debris the next open sweeps).
        """
        # Stage 1: crash before anything touches disk.
        faults.point(CHECKPOINT_WRITE_POINT)
        safe = _safe_name(name)
        data_file, data_hash = self._write_table(safe, table)

        quarantine_file = quarantine_hash = None
        quarantined = 0
        if quarantine is not None and quarantine.num_rows:
            quarantine_file, quarantine_hash = self._write_table(
                f"{safe}-quarantine", quarantine)
            quarantined = quarantine.num_rows

        # Stage 2: data durable, manifest still pointing at the old state.
        faults.point(CHECKPOINT_WRITE_POINT)
        manifest = self.load_manifest()
        old = manifest.get(name)
        entry = ManifestEntry(
            table=name, fingerprint=fingerprint,
            data_file=data_file, data_hash=data_hash, rows=table.num_rows,
            quarantine_file=quarantine_file, quarantine_hash=quarantine_hash,
            quarantined=quarantined,
            base_fingerprint=base_fingerprint, source_state=source_state,
        )
        manifest[name] = entry
        self._write_manifest(manifest)  # stage 3 fires inside
        metrics.counter("dlt.checkpoint.commits").inc()

        # Post-commit: the old version (if any) is now unreferenced.
        if old is not None:
            for stale in (old.data_file, old.quarantine_file):
                if stale and stale not in (data_file, quarantine_file):
                    (self.tables_dir / stale).unlink(missing_ok=True)
        return entry

    def _write_table(self, stem: str, table: Table) -> tuple[str, str]:
        """Durably write ``table`` to its content-addressed file; returns
        ``(file name, content hash)``."""
        data = encode_table(table)
        digest = content_hash(data)
        file_name = f"{stem}-{digest[:12]}{TABLE_SUFFIX}"
        write_atomic(self.tables_dir / file_name, data)
        return file_name, digest

    # -- maintenance -------------------------------------------------------

    def invalidate(self, name: str) -> None:
        """Drop ``name`` from the committed state (its next run recomputes)."""
        manifest = self.load_manifest()
        entry = manifest.pop(name, None)
        if entry is None:
            return
        self._write_manifest(manifest)
        for stale in (entry.data_file, entry.quarantine_file):
            if stale:
                (self.tables_dir / stale).unlink(missing_ok=True)

    def clear(self) -> None:
        """Forget everything (full-refresh semantics)."""
        (self.root / MANIFEST_NAME).unlink(missing_ok=True)
        self._sweep()

    def __len__(self) -> int:
        return len(self.load_manifest())

