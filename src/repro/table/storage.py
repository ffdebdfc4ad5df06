"""One binary table format: checkpoint files, spill files, content hashes.

:func:`encode_table` turns a :class:`~repro.table.Table` into bytes that
depend on its *logical* content only, so the same bytes serve as a file
payload (``repro.dlt`` checkpoints, ``repro.shard`` spill) and as the input
of :func:`table_hash`, the content fingerprint ``repro.dlt`` compares
across processes and runs.  :func:`decode_table` reverses it exactly:
dtypes are recorded, never re-inferred, and ``-0.0``, non-null NaN,
ints beyond int64 and any unicode (``"\\x00"``, astral characters)
survive the round trip.

Layout, little-endian throughout (docs/table.md has the full table):

- header: magic ``b"RPTABLE\\0"``, ``u16`` format version, ``u64`` row
  count, ``u32`` column count, then per column a ``u32``-length-prefixed
  UTF-8 name, a ``u8`` dtype code and a ``u8`` value encoding;
- per column, in schema order: the null mask (``np.packbits``) as an
  ``.npy`` ``uint8`` array, then the values —
  ``FIXED``: one ``.npy`` array in the narrowest dtype that holds every
  value exactly (int8–int64, float32/float64, bool);
  ``UTF8``: the byte length of each string as a narrowed ``.npy`` int
  array, a ``u64`` byte count and the concatenated UTF-8 bytes;
  ``TAGGED``: an int or float column that does not fit int64 / float64
  (the object-dtype fallback), written like ``UTF8`` with one
  ``i<decimal>`` / ``f<float.hex>`` text per value.

Null slots are rewritten to the dtype sentinel (``""`` for strings) and
NaNs to one bit pattern before encoding, and an object-dtype column whose
values fit int64 / float64 is written like the numpy-backed column it
equals: tables with the same schema, masks and non-null values encode to
the same bytes, whatever their masked slots held or how they are stored.
Every
``.npy`` array is read back with ``allow_pickle=False``; a truncated or
malformed payload raises :class:`~repro.errors.StorageError`.

:func:`write_atomic` and :func:`fsync_dir` are the one durable-write
path both stores use: temp file, flush, fsync, rename, directory fsync.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import SchemaError, StorageError
from repro.table.column import NUMPY_DTYPES, SENTINELS, Column
from repro.table.schema import Schema
from repro.table.table import Table

MAGIC = b"RPTABLE\x00"
#: Bumped on breaking changes to the byte layout (format 1 was the JSON
#: payload that ``repro.dlt.storage.table_from_json`` still reads).
FORMAT_VERSION = 2
#: File suffix of encoded tables on disk.
TABLE_SUFFIX = ".tbl"

FIXED, UTF8, TAGGED = 0, 1, 2

_HEADER = struct.Struct("<8sHQI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_DTYPE_CODES = {"int": 0, "float": 1, "str": 2, "bool": 3}
_DTYPE_NAMES = {code: name for name, code in _DTYPE_CODES.items()}
_INTS = tuple(np.dtype(d) for d in ("<i1", "<i2", "<i4", "<i8"))
_STORED = {
    "int": _INTS,
    "float": (np.dtype("<f4"), np.dtype("<f8")),
    "bool": (np.dtype("|b1"),),
}
_MASK = (np.dtype("|u1"),)


# -- encoding ----------------------------------------------------------------


def encode_table(table: Table) -> bytes:
    """The table's deterministic binary encoding (see module docstring)."""
    return b"".join(_encode_parts(table))


def table_hash(table: Table) -> str:
    """Content fingerprint: :func:`content_hash` of :func:`encode_table`,
    computed without joining the encoded parts."""
    digest = hashlib.blake2b(digest_size=16)
    for part in _encode_parts(table):
        digest.update(part)
    return digest.hexdigest()


def content_hash(data: bytes) -> str:
    """Stable blake2b content hash (hex) of serialized bytes."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _encode_parts(table: Table) -> list:
    header = [_HEADER.pack(MAGIC, FORMAT_VERSION, table.num_rows,
                           table.num_columns)]
    body = io.BytesIO()
    for field, column in zip(table.schema, table.columns()):
        name = field.name.encode("utf-8")
        encoding = _encode_column(body, column, field.dtype)
        header.append(_U32.pack(len(name)) + name
                      + bytes((_DTYPE_CODES[field.dtype], encoding)))
    return [*header, body.getbuffer()]


def _encode_column(out: io.BytesIO, column: Column, dtype: str) -> int:
    """Write one column's mask and values; returns its value encoding."""
    mask = column.mask
    _write_npy(out, np.packbits(mask))
    values = column.values
    if dtype == "str":
        strings = np.where(mask, "", values) if mask.any() else values
        _write_strings(out, strings.tolist())
        return UTF8
    if values.dtype == object:
        try:
            values = np.array(values.tolist(), dtype=NUMPY_DTYPES[dtype])
        except OverflowError:
            _write_strings(out, _tagged(values, mask, dtype))
            return TAGGED
    _write_npy(out, _narrowest(_canonical(values, mask, dtype), dtype))
    return FIXED


def _canonical(values: np.ndarray, mask: np.ndarray,
               dtype: str) -> np.ndarray:
    """Storage-dtype values with the sentinel in null slots and one NaN."""
    if dtype == "float":
        return np.where(mask | np.isnan(values), np.nan,
                        values).astype("<f8", copy=False)
    values = values.astype(_STORED[dtype][-1], copy=False)
    return np.where(mask, SENTINELS[dtype], values) if mask.any() else values


def _narrowest(values: np.ndarray, dtype: str) -> np.ndarray:
    """The smallest stored dtype that holds every value bit-exactly."""
    if dtype == "int":
        lo, hi = ((int(values.min()), int(values.max())) if len(values)
                  else (0, 0))
        for candidate in _INTS:
            info = np.iinfo(candidate)
            if info.min <= lo and hi <= info.max:
                return values.astype(candidate, copy=False)
    elif dtype == "float":
        with np.errstate(over="ignore"):
            narrow = values.astype("<f4")
        if np.array_equal(narrow.astype("<f8").view("<i8"),
                          values.view("<i8")):
            return narrow
    return values


def _tagged(values: np.ndarray, mask: np.ndarray, dtype: str) -> list[str]:
    """``i<decimal>`` / ``f<float.hex>`` texts for an object-dtype column
    holding values beyond int64 / float64."""
    sentinel = SENTINELS[dtype]
    return [
        f"i{int(v)}" if isinstance(v, (int, np.integer))
        else "f" + float(v).hex()
        for v in (sentinel if null else v
                  for v, null in zip(values.tolist(), mask.tolist()))
    ]


def _write_strings(out: io.BytesIO, strings: list[str]) -> None:
    joined = "".join(strings)
    if joined.isascii():
        blob = joined.encode("ascii")
        lengths = np.fromiter(map(len, strings), np.int64, len(strings))
    else:
        try:
            encoded = [s.encode("utf-8") for s in strings]
        except UnicodeEncodeError as exc:
            raise StorageError(
                f"string not encodable as UTF-8: {exc}") from exc
        blob = b"".join(encoded)
        lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    _write_npy(out, _narrowest(lengths, "int"))
    out.write(_U64.pack(len(blob)))
    out.write(blob)


def _write_npy(out: io.BytesIO, array: np.ndarray) -> None:
    np.lib.format.write_array(out, array, version=(1, 0), allow_pickle=False)


# -- decoding ----------------------------------------------------------------


def decode_table(data: bytes) -> Table:
    """Rebuild the table :func:`encode_table` produced; raises
    :class:`~repro.errors.StorageError` on a truncated, malformed or
    unknown-version payload."""
    buf = io.BytesIO(data)
    try:
        magic, version, num_rows, num_columns = _HEADER.unpack(
            _read_exact(buf, _HEADER.size))
        if magic != MAGIC:
            raise StorageError("not an encoded table (bad magic)")
        if version != FORMAT_VERSION:
            raise StorageError(f"unsupported table format version {version}")
        layout = []
        for _ in range(num_columns):
            (size,) = _U32.unpack(_read_exact(buf, _U32.size))
            name = _read_exact(buf, size).decode("utf-8")
            code, encoding = _read_exact(buf, 2)
            if code not in _DTYPE_NAMES:
                raise StorageError(f"column {name!r}: unknown dtype {code}")
            layout.append((name, _DTYPE_NAMES[code], encoding))
        schema = Schema([(name, dtype) for name, dtype, _ in layout])
        columns = tuple(_decode_column(buf, dtype, encoding, num_rows)
                        for _, dtype, encoding in layout)
        if buf.read(1):
            raise StorageError("trailing bytes after the last column")
    except (ValueError, EOFError, SchemaError) as exc:
        # ValueError covers numpy's .npy header and short-read errors and
        # UnicodeDecodeError; StorageError itself is not one.
        raise StorageError(f"corrupt table payload: {exc}") from exc
    return Table._trusted(schema, columns, num_rows)


def _decode_column(buf: io.BytesIO, dtype: str, encoding: int,
                   n: int) -> Column:
    mask = np.unpackbits(_read_npy(buf, _MASK, (n + 7) // 8),
                         count=n).astype(bool)
    if encoding == FIXED and dtype != "str":
        values = _read_npy(buf, _STORED[dtype], n)
        values = values.astype(NUMPY_DTYPES[dtype], copy=False)
    elif encoding == UTF8 and dtype == "str":
        values = _object_array(_read_strings(buf, n))
        values[mask] = None
    elif encoding == TAGGED and dtype in ("int", "float"):
        values = _object_array([_untag(t) for t in _read_strings(buf, n)])
    else:
        raise StorageError(f"encoding {encoding} is invalid for {dtype}")
    return Column(dtype, values, mask)


def _untag(text: str) -> int | float:
    if text[:1] == "i":
        return int(text[1:])
    if text[:1] == "f":
        return float.fromhex(text[1:])
    raise StorageError(f"bad tagged value {text!r}")


def _read_strings(buf: io.BytesIO, n: int) -> list[str]:
    lengths = _read_npy(buf, _INTS, n).astype(np.int64)
    (size,) = _U64.unpack(_read_exact(buf, _U64.size))
    blob = _read_exact(buf, size)
    if n and (lengths.min() < 0 or int(lengths.sum()) != size):
        raise StorageError("string lengths disagree with the byte count")
    ends = np.cumsum(lengths)
    starts = (ends - lengths).tolist()
    ends = ends.tolist()
    if blob.isascii():               # byte offsets are character offsets
        text = blob.decode("ascii")
        return [text[a:b] for a, b in zip(starts, ends)]
    return [blob[a:b].decode("utf-8") for a, b in zip(starts, ends)]


def _object_array(items: list) -> np.ndarray:
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


def _read_npy(buf: io.BytesIO, allowed: tuple, n: int) -> np.ndarray:
    array = np.lib.format.read_array(buf, allow_pickle=False)
    if array.dtype not in allowed or array.shape != (n,):
        raise StorageError(f"unexpected array {array.dtype}{array.shape}, "
                           f"wanted ({n},) of {[str(d) for d in allowed]}")
    return array


def _read_exact(buf: io.BytesIO, size: int) -> bytes:
    data = buf.read(size)
    if len(data) != size:
        raise StorageError(f"truncated payload: wanted {size} bytes, "
                           f"got {len(data)}")
    return data


# -- durable writes ----------------------------------------------------------


def fsync_dir(path: Path) -> None:
    """fsync a directory so a rename inside it is durable (best-effort:
    not every platform can open a directory)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: Path, data: bytes, *,
                 before_replace: Callable[[], None] | None = None) -> None:
    """write-temp → flush → fsync → rename → directory fsync.

    Readers see the old file or the complete new one, never a partial
    write.  ``before_replace`` runs after the temp file is durable and
    before the rename — the window a crash-injection test aims at.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if before_replace is not None:
        before_replace()
    os.replace(tmp, path)
    fsync_dir(path.parent)
