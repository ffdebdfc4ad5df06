"""Relational table substrate (no pandas): numpy-backed typed columns with
explicit null masks, vectorized joins/grouping, trusted fast-path
construction, content row hashing (docs/table.md)."""

from repro.table.column import NUMPY_DTYPES, SENTINELS, Column, row_codes
from repro.table.hashing import HashIndex, hash_column, hash_rows
from repro.table.schema import DTYPES, Field, Schema, coerce, infer_dtype, validate
from repro.table.table import Table, segment_group_by

__all__ = [
    "Column",
    "DTYPES",
    "Field",
    "HashIndex",
    "NUMPY_DTYPES",
    "SENTINELS",
    "Schema",
    "Table",
    "coerce",
    "hash_column",
    "hash_rows",
    "infer_dtype",
    "row_codes",
    "segment_group_by",
    "validate",
]
