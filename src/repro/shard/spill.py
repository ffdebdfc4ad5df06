"""Out-of-core partitions: content-addressed shard files on disk.

A :class:`ShardStore` spills a :class:`~repro.shard.PartitionedTable` to
a directory and restores it lazily — the restored table holds
:class:`SpilledShard` handles, so only the shard a kernel is currently
working on occupies memory (and a forked worker loads just its own
shard).  Storage is :mod:`repro.table.storage`, the same format and
durable-write path :class:`~repro.dlt.CheckpointStore` uses:

- each shard is encoded by :func:`~repro.table.storage.encode_table`
  (exact round-trip including null masks, unicode strings, and the
  int64-overflow object fallback; fixed-width columns are raw ``.npy``
  buffers, so a shard loads without a Python object per numeric cell);
- shard files are **content-addressed** (``<name>-<shard>-<hash12>.tbl``)
  and every write goes through :func:`~repro.table.storage.write_atomic`
  (write-temp → flush → fsync → ``os.replace`` → directory fsync), so a
  crash never exposes a partial shard;
- a per-name manifest records the partitioner (via ``to_dict``), the
  schema, and each shard's file + full content hash; loads re-hash the
  file and raise :class:`~repro.errors.ShardError` on any mismatch or
  undecodable payload;
- ``*.tmp`` debris and unreferenced shard files are swept at open.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.errors import ShardError, StorageError
from repro.obs import get_logger, metrics
from repro.shard.partition import partitioner_from_dict
from repro.shard.table import PartitionedTable
from repro.table import Schema, Table
from repro.table.storage import (
    TABLE_SUFFIX,
    content_hash,
    decode_table,
    encode_table,
    fsync_dir,
    write_atomic,
)

log = get_logger("shard.spill")

MANIFEST_SUFFIX = ".manifest.json"


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


class SpilledShard:
    """Handle to one on-disk shard; loads (and verifies) on ``get()``."""

    __slots__ = ("path", "expected_hash", "num_rows")

    def __init__(self, path: Path, expected_hash: str, num_rows: int):
        self.path = Path(path)
        self.expected_hash = expected_hash
        self.num_rows = num_rows

    def get(self) -> Table:
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise ShardError(f"spilled shard missing: {self.path}") from exc
        if content_hash(data) != self.expected_hash:
            raise ShardError(
                f"spilled shard corrupt (hash mismatch): {self.path}"
            )
        metrics.counter("shard.spill.loads").inc()
        try:
            return decode_table(data)
        except StorageError as exc:
            raise ShardError(
                f"spilled shard corrupt ({exc}): {self.path}"
            ) from exc

    def __repr__(self) -> str:
        return f"SpilledShard({self.path.name}, rows={self.num_rows})"


class ShardStore:
    """Directory of spilled partitioned tables, one manifest per name."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep()

    def _sweep(self) -> None:
        for tmp in self.root.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
        referenced = set()
        for name in self.names():
            try:
                manifest = self._load_manifest(name)
            except ShardError:
                continue
            for entry in manifest["shards"]:
                referenced.add(entry["file"])
        for data in self.root.glob(f"*{TABLE_SUFFIX}"):
            if data.name not in referenced:
                data.unlink(missing_ok=True)

    # -- manifests ---------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(
            p.name[:-len(MANIFEST_SUFFIX)]
            for p in self.root.glob(f"*{MANIFEST_SUFFIX}")
        )

    def _manifest_path(self, name: str) -> Path:
        return self.root / f"{_safe_name(name)}{MANIFEST_SUFFIX}"

    def _load_manifest(self, name: str) -> dict:
        path = self._manifest_path(name)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ShardError(
                f"no readable spill manifest for {name!r}"
            ) from exc

    # -- spill / restore ---------------------------------------------------

    def spill(self, ptable: PartitionedTable,
              name: str) -> PartitionedTable:
        """Write every shard to disk; returns the same logical table backed
        by :class:`SpilledShard` handles (in-memory shards are released as
        soon as the caller drops its own reference)."""
        safe = _safe_name(name)
        entries = []
        handles = []
        for i in range(ptable.num_shards):
            table = ptable.shard(i)
            data = encode_table(table)
            digest = content_hash(data)
            file_name = f"{safe}-{i:04d}-{digest[:12]}{TABLE_SUFFIX}"
            path = self.root / file_name
            if not path.exists():
                write_atomic(path, data)
            entries.append({"file": file_name, "hash": digest,
                            "rows": table.num_rows})
            handles.append(SpilledShard(path, digest, table.num_rows))
        manifest = {
            "name": name,
            "partitioner": ptable.partitioner.to_dict(),
            "schema": [[f.name, f.dtype] for f in ptable.schema],
            "shards": entries,
        }
        write_atomic(self._manifest_path(name),
                     json.dumps(manifest, indent=1, sort_keys=True).encode())
        metrics.counter("shard.spill.writes").inc(ptable.num_shards)
        log.info("spilled %r: %d shards, %d rows", name,
                 ptable.num_shards, ptable.num_rows)
        return PartitionedTable(ptable.schema, handles, ptable.partitioner)

    def restore(self, name: str) -> PartitionedTable:
        """Rebuild a spilled table lazily — no shard loads until a kernel
        asks for it."""
        manifest = self._load_manifest(name)
        partitioner = partitioner_from_dict(manifest["partitioner"])
        schema = Schema([(n, d) for n, d in manifest["schema"]])
        handles = [
            SpilledShard(self.root / entry["file"], entry["hash"],
                         int(entry["rows"]))
            for entry in manifest["shards"]
        ]
        return PartitionedTable(schema, handles, partitioner)

    def stream(self, name: str):
        """Yield ``(shard_index, Table)`` one shard at a time — the
        out-of-core iteration primitive (at most one shard in memory)."""
        restored = self.restore(name)
        for i in range(restored.num_shards):
            yield i, restored.shard(i)

    def delete(self, name: str) -> None:
        manifest_path = self._manifest_path(name)
        try:
            manifest = self._load_manifest(name)
        except ShardError:
            manifest = {"shards": []}
        for entry in manifest["shards"]:
            (self.root / entry["file"]).unlink(missing_ok=True)
        manifest_path.unlink(missing_ok=True)
        fsync_dir(self.root)
