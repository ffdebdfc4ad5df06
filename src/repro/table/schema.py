"""Schema definitions for the relational :class:`~repro.table.Table` substrate.

A :class:`Schema` is an ordered list of :class:`Field` objects.  Types are
deliberately small — the four scalar types cover everything the data
preparation stack needs, and ``None`` is the universal null.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SchemaError, TypeMismatchError

#: The scalar types a column may hold.
DTYPES = ("int", "float", "str", "bool")

#: Distinct projections memoized per schema (queries project a handful).
_MAX_PROJECTIONS = 256

_PYTHON_TYPES = {
    "int": int,
    "float": (int, float),
    "str": str,
    "bool": bool,
}


def infer_dtype(values: Iterable[Any]) -> str:
    """Infer the narrowest dtype that fits every non-null value.

    Falls back to ``"str"`` when values are mixed or all null, mirroring the
    permissive behaviour of CSV ingestion tools.
    """
    seen: set[str] = set()
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            seen.add("bool")
        elif isinstance(value, int):
            seen.add("int")
        elif isinstance(value, float):
            seen.add("float")
        else:
            seen.add("str")
    if not seen:
        return "str"
    if seen == {"bool"}:
        return "bool"
    if seen <= {"int"}:
        return "int"
    if seen <= {"int", "float"}:
        return "float"
    return "str"


def coerce(value: Any, dtype: str) -> Any:
    """Coerce ``value`` to ``dtype``, raising :class:`TypeMismatchError` on failure.

    ``None`` passes through untouched; it is a valid member of every type.
    """
    if value is None:
        return None
    if dtype == "str":
        return value if isinstance(value, str) else str(value)
    if dtype == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
        raise TypeMismatchError(f"cannot coerce {value!r} to bool")
    if dtype == "int":
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError as exc:
                raise TypeMismatchError(f"cannot coerce {value!r} to int") from exc
        raise TypeMismatchError(f"cannot coerce {value!r} to int")
    if dtype == "float":
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError as exc:
                raise TypeMismatchError(f"cannot coerce {value!r} to float") from exc
        raise TypeMismatchError(f"cannot coerce {value!r} to float")
    raise SchemaError(f"unknown dtype {dtype!r}")


def validate(value: Any, dtype: str) -> bool:
    """Return True when ``value`` already conforms to ``dtype`` (or is null)."""
    if value is None:
        return True
    if dtype not in _PYTHON_TYPES:
        raise SchemaError(f"unknown dtype {dtype!r}")
    if dtype in ("int", "float") and isinstance(value, bool):
        return False
    return isinstance(value, _PYTHON_TYPES[dtype])


@dataclass(frozen=True)
class Field:
    """A named, typed column slot in a :class:`Schema`."""

    name: str
    dtype: str

    def __post_init__(self) -> None:
        if self.dtype not in DTYPES:
            raise SchemaError(
                f"field {self.name!r}: dtype must be one of {DTYPES}, got {self.dtype!r}"
            )
        if not self.name:
            raise SchemaError("field name must be non-empty")


class Schema:
    """An ordered, name-unique collection of :class:`Field` objects."""

    def __init__(self, fields: Iterable[Field | tuple[str, str]]):
        normalized = [f if isinstance(f, Field) else Field(*f) for f in fields]
        names = [f.name for f in normalized]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {duplicates}")
        self._fields = tuple(normalized)
        self._index = {f.name: i for i, f in enumerate(self._fields)}
        self._projections: dict[tuple[str, ...], Schema] | None = None

    def __reduce__(self):
        # The projection memo is a cache: pickles carry the fields only.
        return (Schema, (self._fields,))

    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    @property
    def names(self) -> list[str]:
        return [f.name for f in self._fields]

    @property
    def dtypes(self) -> list[str]:
        return [f.dtype for f in self._fields]

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.dtype}" for f in self._fields)
        return f"Schema({inner})"

    def field(self, name: str) -> Field:
        """Look up a field by name, raising :class:`SchemaError` when absent."""
        try:
            return self._fields[self._index[name]]
        except KeyError as exc:
            raise SchemaError(
                f"no column {name!r}; available: {self.names}"
            ) from exc

    def index_of(self, name: str) -> int:
        """Positional index of ``name`` within the schema."""
        if name not in self._index:
            raise SchemaError(f"no column {name!r}; available: {self.names}")
        return self._index[name]

    def dtype_of(self, name: str) -> str:
        return self.field(name).dtype

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Return a new schema with columns renamed per ``mapping``."""
        for old in mapping:
            if old not in self._index:
                raise SchemaError(f"cannot rename missing column {old!r}")
        return Schema(
            Field(mapping.get(f.name, f.name), f.dtype) for f in self._fields
        )

    def project(self, names: Sequence[str]) -> "Schema":
        """Return the sub-schema containing ``names`` in the given order.

        Schemas are immutable, so each distinct projection is built once
        and shared: every table projected to the same names holds one
        schema object instead of its own copy.
        """
        key = tuple(names)
        if self._projections is None:
            self._projections = {}
        sub = self._projections.get(key)
        if sub is None:
            sub = Schema(self.field(n) for n in key)
            if len(self._projections) < _MAX_PROJECTIONS:
                self._projections[key] = sub
        return sub

    def drop(self, names: list[str]) -> "Schema":
        """Return the schema without the given columns."""
        missing = [n for n in names if n not in self._index]
        if missing:
            raise SchemaError(f"cannot drop missing columns {missing}")
        keep = set(self.names) - set(names)
        return Schema(f for f in self._fields if f.name in keep)
