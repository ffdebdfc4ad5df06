"""Format-1 checkpoint reader and fingerprint hashing.

Checkpoint tables are written in the binary format of
:mod:`repro.table.storage` (``<name>-<hash12>.tbl``).  Stores written
before it hold format-1 files (``<name>-<hash12>.json``): compact JSON
carrying the explicit schema, one JSON value per cell, ``null`` for
nulls.  :func:`table_from_json` reads those, so an old checkpoint stays
servable until its table's next recompute replaces it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import CheckpointError
from repro.table import Column, Field, Schema, Table

#: The format number carried inside a JSON table payload.
STORAGE_FORMAT = 1


def table_from_json(text: str | bytes) -> Table:
    """Rebuild a table from a format-1 JSON payload.

    Columns rebuild through the trusted constructor with the recorded
    dtypes — values were validated before serialization, and no inference
    runs, so the round trip is exact.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(f"corrupt table payload: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != STORAGE_FORMAT:
        raise CheckpointError(
            f"unsupported table payload format: "
            f"{payload.get('format') if isinstance(payload, dict) else payload!r}"
        )
    schema = Schema([Field(name, dtype) for name, dtype in payload["schema"]])
    columns = [
        Column.build(values, field.dtype)
        for field, values in zip(schema, payload["columns"])
    ]
    return Table.from_columns(schema, columns)


def fingerprint_parts(*parts: Any) -> str:
    """Hash an ordered sequence of fingerprint components into one id."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()
