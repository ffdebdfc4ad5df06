"""An immutable, in-memory relational table on a numpy columnar core.

This is the storage substrate for the whole library: the SQL engine, the data
lake, the cleaning stack and the pipeline operators all move :class:`Table`
objects around.  Design points:

- columnar storage (one :class:`~repro.table.column.Column` per column: a
  numpy value array plus an explicit null mask, ``None`` as the logical null);
- every operation returns a *new* table, so pipeline stages cannot trample
  each other's inputs — tables freely share immutable column objects;
- the API is intentionally the relational core (select / project / join /
  group by / order by) plus the handful of cell-level mutators the cleaning
  stack needs (``with_cell``, ``with_cells``, ``map_column``);
- cell-level validation runs exactly once, on entry: the public constructor
  checks every value, while kernels and trusted builders
  (:meth:`Table.from_columns`) construct from already-validated columns and
  skip revalidation entirely (docs/table.md, "trusted construction");
- the hot relational kernels (``filter`` / ``join`` / ``group_by`` /
  ``order_by`` / ``distinct`` / ``union`` / ``_take``) are vectorized over
  the numpy arrays; thin ``*_reference`` twins keep the row-at-a-time
  implementations for equivalence and perf testing
  (``benchmarks/bench_ext_table.py``).
"""

from __future__ import annotations

import csv
import io
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.obs import metrics
from repro.obs.instrument import timed
from repro.table.aggregate import Groups, lookup, output_fields
from repro.table.column import Column, factorize_objects, row_codes
from repro.table.schema import Field, Schema, coerce, infer_dtype

Row = tuple[Any, ...]

#: dtype -> cell types :func:`coerce` returns unchanged: ``None`` and the
#: dtype's exact python type.  Anything else (``bool`` in an ``int``
#: column, ``int`` in a ``float`` one) takes the coercing path.
_EXACT_TYPES: dict[str, frozenset[type]] = {
    "int": frozenset({int, type(None)}),
    "float": frozenset({float, type(None)}),
    "str": frozenset({str, type(None)}),
    "bool": frozenset({bool, type(None)}),
}

class Table:
    """An immutable relational table with a fixed :class:`Schema`."""

    def __init__(self, schema: Schema, columns: Sequence[Sequence[Any]]):
        if len(columns) != len(schema):
            raise SchemaError(
                f"schema has {len(schema)} columns but {len(columns)} were given"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        built: list[Column] = []
        for field, column in zip(schema, columns):
            if isinstance(column, Column):
                built.append(column)       # already validated — trusted
            else:
                built.append(Column.from_pylist(
                    column, field.dtype, check=True, name=field.name
                ))
        self._schema = schema
        self._columns = tuple(built)
        self._num_rows = len(built[0]) if built else 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_columns(cls, schema: Schema,
                     columns: Sequence[Column]) -> "Table":
        """Trusted fast-path constructor.

        ``columns`` must already satisfy the schema (built by
        :meth:`Column.build` from typed values, or produced by table
        kernels).  Only O(columns) structural checks run here — no per-cell
        validation.  See docs/table.md for the invariant.
        """
        if len(columns) != len(schema):
            raise SchemaError(
                f"schema has {len(schema)} columns but {len(columns)} were given"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        return cls._trusted(schema, tuple(columns))

    @classmethod
    def _trusted(cls, schema: Schema, columns: tuple[Column, ...],
                 num_rows: int | None = None) -> "Table":
        """Internal zero-check constructor for kernel outputs."""
        table = cls.__new__(cls)
        table._schema = schema
        table._columns = columns
        if num_rows is None:
            num_rows = len(columns[0]) if columns else 0
        table._num_rows = num_rows
        return table

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[Any]],
        schema: Schema | Sequence[tuple[str, str]] | None = None,
        names: Sequence[str] | None = None,
    ) -> "Table":
        """Build a table from row tuples.

        Either ``schema`` is given, or ``names`` is given and dtypes are
        inferred per column.
        """
        materialized = [tuple(r) for r in rows]
        if schema is not None and not isinstance(schema, Schema):
            schema = Schema(schema)
        if schema is None:
            if names is None:
                raise SchemaError("from_rows needs either a schema or column names")
            for row in materialized:
                if len(row) != len(names):
                    raise SchemaError(
                        f"row {row!r} has {len(row)} values but {len(names)} names given"
                    )
            cols = [[r[i] for r in materialized] for i in range(len(names))]
            schema = Schema(Field(n, infer_dtype(c)) for n, c in zip(names, cols))
            built = [
                Column.build([coerce(v, f.dtype) for v in c], f.dtype)
                for f, c in zip(schema, cols)
            ]
            return cls._trusted(schema, tuple(built))
        for row in materialized:
            if len(row) != len(schema):
                raise SchemaError(
                    f"row {row!r} has {len(row)} values; schema expects {len(schema)}"
                )
        built = []
        for i, field in enumerate(schema):
            cells = [row[i] for row in materialized]
            # coerce() is the identity on None and on the dtype's exact
            # python type, so a column made only of those skips it.
            if not set(map(type, cells)) <= _EXACT_TYPES[field.dtype]:
                cells = [coerce(v, field.dtype) for v in cells]
            built.append(Column.build(cells, field.dtype))
        return cls._trusted(schema, tuple(built), num_rows=len(materialized))

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> "Table":
        """Append rows, validating only the new slice.

        The delta-friendly fast path: each appended row passes the same
        per-cell coercion the ``from_rows`` boundary runs, the new tail is
        built through trusted construction, and the existing column arrays
        are concatenated untouched — never re-validated.  Appending a batch
        therefore costs O(existing + new) array copy but only O(new)
        validation, which is what makes high-frequency append streams
        (:mod:`repro.ivm`) affordable.
        """
        materialized = [tuple(r) for r in rows]
        if not materialized:
            return Table._trusted(self._schema, self._columns,
                                  num_rows=self._num_rows)
        return Table.concat([self, Table.from_rows(materialized, self._schema)])

    @classmethod
    def from_dict(cls, data: dict[str, Sequence[Any]]) -> "Table":
        """Build a table from ``{column name: values}`` with inferred dtypes."""
        schema = Schema(Field(n, infer_dtype(v)) for n, v in data.items())
        built = [
            Column.build([coerce(v, f.dtype) for v in values], f.dtype)
            for f, values in zip(schema, data.values())
        ]
        return cls._trusted(schema, tuple(built))

    @classmethod
    def empty(cls, schema: Schema | Sequence[tuple[str, str]]) -> "Table":
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        return cls._trusted(
            schema, tuple(Column.empty(f.dtype) for f in schema), num_rows=0
        )

    @classmethod
    def from_csv(cls, text: str, delimiter: str = ",") -> "Table":
        """Parse CSV text (header row required); dtypes are inferred.

        Empty strings become nulls, matching the usual CSV convention.
        """
        reader = csv.reader(io.StringIO(text), delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise SchemaError("CSV input is empty") from exc
        raw_rows = [row for row in reader if row]
        parsed = [
            tuple(None if cell == "" else cell for cell in row) for row in raw_rows
        ]
        cols: list[list[Any]] = [[r[i] for r in parsed] for i in range(len(header))]
        fields = []
        built = []
        for name, col in zip(header, cols):
            dtype = _csv_dtype(col)
            built.append(Column.build([coerce(v, dtype) for v in col], dtype))
            fields.append(Field(name, dtype))
        return cls._trusted(Schema(fields), tuple(built), num_rows=len(parsed))

    # -- inspection --------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_columns(self) -> int:
        return len(self._schema)

    def column(self, name: str) -> list[Any]:
        """Return a copy of the named column's values (``None`` = null)."""
        return self._columns[self._schema.index_of(name)].to_pylist()

    def columns(self) -> tuple[Column, ...]:
        """The underlying :class:`Column` objects in schema order.

        Columns are immutable by convention; combining them with
        :meth:`from_columns` stays on the trusted-construction path (the
        ``repro.ivm`` delta layer assembles join outputs this way).
        """
        return self._columns

    def column_array(self, name: str) -> np.ndarray:
        """The raw numpy value array of a column (read-only view).

        Masked (null) slots hold the dtype sentinel — pair with
        :meth:`null_mask` before trusting any value.
        """
        arr = self._columns[self._schema.index_of(name)].values.view()
        arr.flags.writeable = False
        return arr

    def null_mask(self, name: str) -> np.ndarray:
        """Boolean null mask of a column (read-only view; True = null)."""
        mask = self._columns[self._schema.index_of(name)].mask.view()
        mask.flags.writeable = False
        return mask

    def row(self, i: int) -> Row:
        if not -self._num_rows <= i < self._num_rows:
            raise IndexError(f"row {i} out of range for table of {self._num_rows}")
        return tuple(col.value_at(i) for col in self._columns)

    def rows(self) -> Iterator[Row]:
        cols = [c.to_pylist() for c in self._columns]
        for i in range(self._num_rows):
            yield tuple(col[i] for col in cols)

    def row_dicts(self) -> Iterator[dict[str, Any]]:
        names = self._schema.names
        for row in self.rows():
            yield dict(zip(names, row))

    def cell(self, i: int, name: str) -> Any:
        return self._columns[self._schema.index_of(name)].value_at(i)

    def __len__(self) -> int:
        return self._num_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema != other._schema:
            return False
        return all(a.equals(b) for a, b in zip(self._columns, other._columns))

    def __hash__(self) -> int:  # tables are mutable-free; hash by content
        return hash((
            self._schema,
            tuple(tuple(c.to_pylist()) for c in self._columns),
        ))

    def __repr__(self) -> str:
        return f"Table({self._schema!r}, rows={self._num_rows})"

    def to_csv(self, delimiter: str = ",") -> str:
        out = io.StringIO()
        writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
        writer.writerow(self._schema.names)
        for row in self.rows():
            writer.writerow(["" if v is None else v for v in row])
        return out.getvalue()

    def pretty(self, max_rows: int = 20) -> str:
        """Fixed-width textual rendering, for examples and benches."""
        names = self._schema.names
        shown = [tuple("∅" if v is None else str(v) for v in r) for r in self.rows()]
        shown = shown[:max_rows]
        widths = [len(n) for n in names]
        for row in shown:
            widths = [max(w, len(v)) for w, v in zip(widths, row)]
        line = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = "\n".join(
            " | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in shown
        )
        tail = "" if self._num_rows <= max_rows else f"\n… {self._num_rows - max_rows} more rows"
        return f"{line}\n{sep}\n{body}{tail}" if body else f"{line}\n{sep}{tail}"

    def stats(self) -> dict[str, dict[str, Any]]:
        """Exact per-column statistics (see :mod:`repro.table.explain`).

        Memoized on the table: columns are immutable after construction
        (every mutating operation builds a new ``Table``), so the first
        call's ``np.unique`` pass is reused by the optimizer's join
        reordering and repeated EXPLAIN ANALYZE — no invalidation needed.
        Treat the returned dicts as read-only.
        """
        cached = self.__dict__.get("_stats")
        if cached is None:
            from repro.table.explain import column_stats

            cached = self.__dict__["_stats"] = column_stats(self)
        return cached

    def explain(self) -> str:
        """Text report of the per-column statistics :meth:`stats` computes."""
        from repro.table.explain import render_stats

        return render_stats(self)

    # -- relational operators ---------------------------------------------

    def select(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        """Keep rows for which ``predicate(row_dict)`` is truthy.

        The predicate is an opaque callable, so this is inherently
        row-at-a-time; callers that can phrase the condition as a boolean
        mask should use :meth:`filter` instead.
        """
        names = self._schema.names
        cols = [c.to_pylist() for c in self._columns]
        keep = [
            i for i in range(self._num_rows)
            if predicate(dict(zip(names, (col[i] for col in cols))))
        ]
        return self._take(keep)

    def filter(self, keep: Sequence[bool] | np.ndarray) -> "Table":
        """Vectorized row filter by boolean mask (True = keep)."""
        with timed("table.filter.seconds", span_name="table.filter") as s:
            keep = np.asarray(keep, dtype=bool)
            if keep.shape != (self._num_rows,):
                raise SchemaError(
                    f"filter mask has shape {keep.shape}; table has "
                    f"{self._num_rows} rows"
                )
            cols = tuple(c.compress(keep) for c in self._columns)
            rows_out = int(keep.sum())
            out = Table._trusted(self._schema, cols, num_rows=rows_out)
            metrics.counter("table.rows_scanned").inc(self._num_rows)
            s.set(rows_in=self._num_rows, rows_out=rows_out,
                  selectivity=(rows_out / self._num_rows
                               if self._num_rows else None))
        return out

    def lookup(self, name: str, value: Any) -> "Table":
        """Rows whose column ``name`` equals ``value``, in row order.

        Probes the column's memoized key index (:meth:`Column.lookup`)
        instead of scanning: the first lookup on a column sorts it once,
        later ones cost a binary search plus the matched rows.  Equality is
        numpy's, as in ``filter(column_array(name) == value)``; nulls never
        match.
        """
        with timed("table.lookup.seconds", span_name="table.lookup") as s:
            rows, lo, hi = self._columns[self._schema.index_of(name)].lookup(
                np.asarray([value]))
            out = self._take(rows[lo[0]:hi[0]])
            metrics.counter("table.rows_scanned").inc(out._num_rows)
            s.set(rows_out=out._num_rows)
        return out

    def filter_reference(self, keep: Sequence[bool] | np.ndarray) -> "Table":
        """Row-at-a-time twin of :meth:`filter` (equivalence/perf baseline)."""
        keep = list(keep)
        if len(keep) != self._num_rows:
            raise SchemaError(
                f"filter mask has {len(keep)} entries; table has "
                f"{self._num_rows} rows"
            )
        indices = [i for i, flag in enumerate(keep) if flag]
        cols = [c.to_pylist() for c in self._columns]
        picked = [
            Column.build([col[i] for i in indices], c.dtype)
            for col, c in zip(cols, self._columns)
        ]
        return Table._trusted(self._schema, tuple(picked),
                              num_rows=len(indices))

    def project(self, names: Sequence[str]) -> "Table":
        """Keep only the named columns, in the given order."""
        names = list(names)
        sub = self._schema.project(names)
        cols = tuple(self._columns[self._schema.index_of(n)] for n in names)
        return Table._trusted(sub, cols, num_rows=self._num_rows)

    def drop(self, names: Sequence[str]) -> "Table":
        keep = [n for n in self._schema.names if n not in set(names)]
        self._schema.drop(list(names))  # validates
        return self.project(keep)

    def rename(self, mapping: dict[str, str]) -> "Table":
        return Table._trusted(self._schema.rename(mapping), self._columns,
                              num_rows=self._num_rows)

    def with_column(self, name: str, dtype: str, values: Sequence[Any]) -> "Table":
        """Append a column; values are coerced to ``dtype``."""
        if name in self._schema:
            raise SchemaError(f"column {name!r} already exists")
        if len(values) != self._num_rows:
            raise SchemaError(
                f"column has {len(values)} values; table has {self._num_rows} rows"
            )
        schema = Schema(list(self._schema.fields) + [Field(name, dtype)])
        new = Column.build([coerce(v, dtype) for v in values], dtype)
        return Table._trusted(schema, self._columns + (new,),
                              num_rows=self._num_rows)

    def with_cell(self, i: int, name: str, value: Any) -> "Table":
        """Return a copy with one cell replaced (the repair primitive)."""
        return self.with_cells(name, {i: value})

    def with_cells(self, name: str, updates: dict[int, Any]) -> "Table":
        """Replace several cells of one column in a single copy.

        The batch form of :meth:`with_cell` — the imputers use it to fill
        every hole with one column rebuild instead of one table copy per
        cell.  Values are coerced to the column dtype; ``None`` writes a
        null.
        """
        j = self._schema.index_of(name)
        col = self._columns[j]
        if not updates:
            return Table._trusted(self._schema, self._columns,
                                  num_rows=self._num_rows)
        dtype = self._schema.dtypes[j]
        coerced = {}
        for i, value in updates.items():
            if not -self._num_rows <= i < self._num_rows:
                raise IndexError(
                    f"row {i} out of range for table of {self._num_rows}"
                )
            coerced[i] = coerce(value, dtype)
        try:
            values = col.values.copy()
            mask = col.mask.copy()
            for i, value in coerced.items():
                if value is None:
                    mask[i] = True
                else:
                    values[i] = value
                    mask[i] = False
            new_col = Column(dtype, values, mask)
        except OverflowError:       # int beyond int64 — rebuild off-fast-path
            pylist = col.to_pylist()
            for i, value in coerced.items():
                pylist[i] = value
            new_col = Column.build(pylist, dtype)
        cols = list(self._columns)
        cols[j] = new_col
        return Table._trusted(self._schema, tuple(cols),
                              num_rows=self._num_rows)

    def map_column(self, name: str, fn: Callable[[Any], Any], dtype: str | None = None) -> "Table":
        """Apply ``fn`` to every value of a column (nulls included)."""
        j = self._schema.index_of(name)
        new_dtype = dtype or self._schema.dtypes[j]
        mapped = Column.build(
            [coerce(fn(v), new_dtype) for v in self._columns[j].to_pylist()],
            new_dtype,
        )
        cols = list(self._columns)
        cols[j] = mapped
        fields = [
            Field(f.name, new_dtype if f.name == name else f.dtype)
            for f in self._schema
        ]
        return Table._trusted(Schema(fields), tuple(cols),
                              num_rows=self._num_rows)

    def order_by(self, name: str, descending: bool = False) -> "Table":
        """Sort rows by a column; nulls sort last regardless of direction.

        The sort is stable: rows with equal keys keep their original
        relative order in both directions.
        """
        col = self._columns[self._schema.index_of(name)]
        valid_idx = np.flatnonzero(~col.mask)
        null_idx = np.flatnonzero(col.mask)
        vals = col.values[valid_idx]
        if descending:
            # Stable descending: stable-ascending argsort of the reversed
            # array, reversed and re-mapped, keeps ties in original order.
            s = np.argsort(vals[::-1], kind="stable")
            order = (len(vals) - 1) - s[::-1]
        else:
            order = np.argsort(vals, kind="stable")
        return self._take(np.concatenate([valid_idx[order], null_idx]))

    def limit(self, n: int) -> "Table":
        return self._take(np.arange(min(max(n, 0), self._num_rows)))

    def slice(self, start: int, stop: int | None = None) -> "Table":
        """Rows ``[start, stop)`` with python-slice clamping semantics."""
        indices = np.arange(self._num_rows)[slice(start, stop)]
        return self._take(indices)

    def row_codes(self) -> np.ndarray:
        """Dense row-equality codes: equal rows (nulls matching nulls, the
        GROUP BY convention) share a code in ``[0, distinct rows)``.

        The whole-row factorization under :meth:`distinct`, and the
        consolidation key of the :mod:`repro.ivm` Z-set layer.
        """
        if not self._columns:
            raise SchemaError("row_codes needs at least one column")
        return row_codes(self._columns)

    def distinct(self) -> "Table":
        """Drop duplicate rows, keeping the first occurrence of each."""
        if self._num_rows == 0:
            return self._take(np.empty(0, dtype=np.intp))
        if not self._columns:
            return self._take(np.array([0]))
        codes = self.row_codes()
        _uniq, first = np.unique(codes, return_index=True)
        return self._take(np.sort(first))

    def union(self, other: "Table") -> "Table":
        """Concatenate rows of two tables with identical schemas."""
        if self._schema != other._schema:
            raise SchemaError(
                f"union requires identical schemas: {self._schema} vs {other._schema}"
            )
        return Table.concat([self, other])

    @staticmethod
    def concat(tables: Sequence["Table"],
               schema: Schema | None = None) -> "Table":
        """Concatenate tables columnwise: one allocation per column, masks
        preserved exactly.

        ``schema`` defaults to the first table's.  The tables' schemas are
        trusted to match it (callers check, as :meth:`union` does).
        """
        schema = tables[0]._schema if schema is None else schema
        columns = tuple(
            Column(field.dtype,
                   np.concatenate([t._columns[j].values for t in tables]),
                   np.concatenate([t._columns[j].mask for t in tables]))
            for j, field in enumerate(schema)
        )
        return Table._trusted(schema, columns,
                              num_rows=sum(t._num_rows for t in tables))

    def join(
        self,
        other: "Table",
        on: Sequence[tuple[str, str]] | str,
        how: str = "inner",
        suffix: str = "_r",
    ) -> "Table":
        """Vectorized equi-join: a single numeric key probes the right
        column's memoized key index, other keys use factorized key codes.

        ``on`` is a column name shared by both sides, or a list of
        ``(left, right)`` name pairs.  ``how`` is ``inner`` or ``left``.
        Join keys compare by equality; null keys never match (SQL
        semantics).  Right-side columns that clash with a left-side name get
        ``suffix``.  Matches for each left row come out in right-row order,
        matching :meth:`join_reference`.
        """
        with timed("table.join.seconds", span_name="table.join",
                   how=how) as s:
            pairs, left_keys, right_keys, out_schema, kept_right_idx = (
                self._join_plan(other, on, how, suffix)
            )
            n_left, n_right = self._num_rows, other._num_rows
            left_take, right_take, counts = self._join_take_arrays(
                other, left_keys, right_keys, how
            )
            total = len(left_take)
            cols = [c.take(left_take) for c in self._columns]
            cols += [
                other._columns[j].take_or_null(right_take)
                for j in kept_right_idx
            ]
            out = Table._trusted(out_schema, tuple(cols), num_rows=total)
            metrics.counter("table.rows_scanned").inc(n_left + n_right)
            s.set(left_rows=n_left, right_rows=n_right, rows_out=total,
                  match_rate=(int((counts > 0).sum()) / n_left
                              if n_left else None))
        return out

    def join_indices(
        self,
        other: "Table",
        on: Sequence[tuple[str, str]] | str,
        how: str = "inner",
        suffix: str = "_r",
    ) -> tuple[np.ndarray, np.ndarray, Schema, list[int]]:
        """The row-index pairs :meth:`join` would emit, without materializing
        any output columns.

        Returns ``(left_take, right_take, out_schema, kept_right_idx)``:
        gathering ``self`` rows at ``left_take`` and ``other`` rows at
        ``right_take`` (``-1`` marks an unmatched left row under
        ``how="left"``; ``kept_right_idx`` lists the right-side columns the
        output keeps) reproduces :meth:`join` exactly.  Callers that carry
        side arrays through a join — the :mod:`repro.ivm` delta layer
        multiplies per-row weight vectors — gather them with the same index
        arrays instead of round-tripping through a column.
        """
        _pairs, left_keys, right_keys, out_schema, kept_right_idx = (
            self._join_plan(other, on, how, suffix)
        )
        left_take, right_take, _counts = self._join_take_arrays(
            other, left_keys, right_keys, how
        )
        return left_take, right_take, out_schema, kept_right_idx

    def _join_take_arrays(
        self, other: "Table", left_keys: list[int], right_keys: list[int],
        how: str,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The vectorized probe shared by :meth:`join` / :meth:`join_indices`:
        sorted-right binary search, then repeat expansion.

        A single numpy-typed key (int / float / bool on both sides) probes
        the right column's memoized key index (:meth:`Column.lookup`).
        Multi-column and object keys (str, ints beyond int64) search
        factorized key codes.  Returns ``(left_take, right_take, counts)``
        where ``counts`` is the per-left-row match count (drives the join
        span's match_rate).
        """
        n_left = self._num_rows
        lcols = [self._columns[j] for j in left_keys]
        rcols = [other._columns[j] for j in right_keys]
        if (len(lcols) == 1 and lcols[0].values.dtype != object
                and rcols[0].values.dtype != object):
            r_sorted, lo, hi = rcols[0].lookup(lcols[0].values)
            counts = np.where(lcols[0].mask, 0, hi - lo)
            return _expand_matches(r_sorted, lo, counts, how)

        l_codes, r_codes, any_null_l = _factorize_key_pairs(lcols, rcols)
        if r_codes is None:          # keys can never match (str vs number)
            counts = np.zeros(n_left, dtype=np.int64)
            lo = np.zeros(n_left, dtype=np.int64)
            r_sorted = np.empty(0, dtype=np.intp)
        else:
            valid_r = np.flatnonzero(~_null_rows(rcols))
            r_sorted = valid_r[np.argsort(r_codes[valid_r], kind="stable")]
            sorted_codes = r_codes[r_sorted]
            probe = np.where(any_null_l, np.int64(-1), l_codes)
            lo = np.searchsorted(sorted_codes, probe, side="left")
            hi = np.searchsorted(sorted_codes, probe, side="right")
            counts = np.where(any_null_l, 0, hi - lo)
        return _expand_matches(r_sorted, lo, counts, how)

    def join_reference(
        self,
        other: "Table",
        on: Sequence[tuple[str, str]] | str,
        how: str = "inner",
        suffix: str = "_r",
    ) -> "Table":
        """Row-at-a-time hash-join twin of :meth:`join`."""
        pairs, left_keys, right_keys, out_schema, kept_right_idx = (
            self._join_plan(other, on, how, suffix)
        )
        left_cols = [c.to_pylist() for c in self._columns]
        right_cols = [c.to_pylist() for c in other._columns]

        index: dict[Row, list[int]] = {}
        for i in range(other._num_rows):
            key = tuple(right_cols[k][i] for k in right_keys)
            if any(v is None for v in key):
                continue
            index.setdefault(key, []).append(i)

        out_rows: list[Row] = []
        null_right = (None,) * len(kept_right_idx)
        for i in range(self._num_rows):
            key = tuple(left_cols[k][i] for k in left_keys)
            left_row = tuple(col[i] for col in left_cols)
            matches = [] if any(v is None for v in key) else index.get(key, [])
            if matches:
                for j in matches:
                    right_row = tuple(right_cols[k][j] for k in kept_right_idx)
                    out_rows.append(left_row + right_row)
            elif how == "left":
                out_rows.append(left_row + null_right)
        return Table.from_rows(out_rows, schema=out_schema)

    def _join_plan(
        self, other: "Table", on: Sequence[tuple[str, str]] | str,
        how: str, suffix: str,
    ) -> tuple[list[tuple[str, str]], list[int], list[int], Schema, list[int]]:
        """Shared validation + output-schema construction for both joins."""
        if how not in ("inner", "left"):
            raise SchemaError(f"unsupported join type {how!r}")
        if isinstance(on, str):
            pairs = [(on, on)]
        else:
            pairs = [(l, r) for l, r in on]
        left_keys = [self._schema.index_of(l) for l, _ in pairs]
        right_keys = [other._schema.index_of(r) for _, r in pairs]

        right_drop = {other._schema.index_of(r) for l, r in pairs if l == r}
        right_fields = []
        left_names = set(self._schema.names)
        kept_right_idx = []
        for j, field in enumerate(other._schema):
            if j in right_drop:
                continue
            kept_right_idx.append(j)
            name = field.name
            if name in left_names:
                name = name + suffix
            right_fields.append(Field(name, field.dtype))
        out_schema = Schema(list(self._schema.fields) + right_fields)
        return pairs, left_keys, right_keys, out_schema, kept_right_idx

    def group_by(
        self,
        keys: Sequence[str],
        aggregates: Sequence[tuple[str, str | None, str]],
    ) -> "Table":
        """Group rows and compute aggregates, vectorized.

        ``aggregates`` is a list of ``(function, column, output name)``:
        count / sum / min / max / avg over a column, or ``count_star``
        (column ``None``), with the aggregate algebra's semantics
        (docs/table.md, "Aggregate semantics").  Groups come out in
        first-appearance order, matching :meth:`group_by_reference`.
        """
        return segment_group_by(self, keys, aggregates)

    def group_by_reference(
        self,
        keys: Sequence[str],
        aggregates: Sequence[tuple[str, str | None, str]],
    ) -> "Table":
        """Row-at-a-time twin of :meth:`group_by`: each group's values
        through the algebra's row reduce."""
        keys = list(keys)
        out_fields = output_fields(self._schema, keys, aggregates)
        key_idx = [self._schema.index_of(k) for k in keys]
        cols = [c.to_pylist() for c in self._columns]
        specs = []
        for name, col, _out in aggregates:
            fn = lookup(name)
            specs.append((fn, cols[self._schema.index_of(col)]
                          if fn.takes_column else None))

        groups: dict[Row, list[int]] = {}
        for i in range(self._num_rows):
            groups.setdefault(tuple(cols[k][i] for k in key_idx), []).append(i)

        out_rows = []
        for key, rows in groups.items():
            row: list[Any] = list(key)
            for fn, values in specs:
                row.append(fn.reduce(rows if values is None
                                     else [values[i] for i in rows]))
            out_rows.append(tuple(row))
        return Table.from_rows(out_rows, schema=Schema(out_fields))

    def sample(self, n: int, rng) -> "Table":
        """Take ``n`` rows uniformly without replacement using ``rng``
        (a :class:`numpy.random.Generator`)."""
        n = min(n, self._num_rows)
        idx = np.sort(rng.choice(self._num_rows, size=n, replace=False))
        return self._take(idx)

    # -- internals ----------------------------------------------------------

    def _take(self, indices: Sequence[int] | np.ndarray) -> "Table":
        idx = np.asarray(indices, dtype=np.intp)
        cols = tuple(c.take(idx) for c in self._columns)
        return Table._trusted(self._schema, cols, num_rows=len(idx))


def _null_rows(columns: list[Column]) -> np.ndarray:
    """Rows where any of the given columns is null."""
    out = columns[0].mask.copy()
    for col in columns[1:]:
        out |= col.mask
    return out


def _expand_matches(
    r_sorted: np.ndarray, lo: np.ndarray, counts: np.ndarray, how: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left row ``i`` matches right rows ``r_sorted[lo[i]:lo[i] + counts[i]]``;
    expand to ``(left_take, right_take, counts)`` (``-1`` marks the unmatched
    left rows a ``how="left"`` join keeps)."""
    n_left = len(counts)
    if how == "inner":
        out_counts = counts
    else:
        out_counts = np.maximum(counts, 1)
    total = int(out_counts.sum())
    left_take = np.repeat(np.arange(n_left), out_counts)
    offsets = np.cumsum(out_counts) - out_counts
    within = np.arange(total) - np.repeat(offsets, out_counts)
    if len(r_sorted):
        slot = np.minimum(np.repeat(lo, out_counts) + within,
                          len(r_sorted) - 1)
        right_take = r_sorted[slot]
    else:
        right_take = np.full(total, -1, dtype=np.intp)
    if how == "left":
        matched = np.repeat(counts > 0, out_counts)
        right_take = np.where(matched, right_take, -1)
    return left_take, right_take, counts


def _factorize_key_pairs(
    left: list[Column], right: list[Column],
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """Shared factorization of join keys: codes that are equal exactly when
    the key tuples compare equal.

    Returns ``(left_codes, right_codes, left_any_null)``; the code arrays
    are ``None`` when the key dtypes can never match (string vs numeric),
    so the join degenerates to "no matches" without comparing values.
    """
    n_left, n_right = len(left[0]), len(right[0])
    left_any_null = _null_rows(left)
    for lc, rc in zip(left, right):
        if (lc.dtype == "str") != (rc.dtype == "str"):
            return None, None, left_any_null

    l_comb = np.zeros(n_left, dtype=np.int64)
    r_comb = np.zeros(n_right, dtype=np.int64)
    for lc, rc in zip(left, right):
        lv, rv = ~lc.mask, ~rc.mask
        lvals, rvals = lc.values[lv], rc.values[rv]
        l_codes = np.zeros(n_left, dtype=np.int64)
        r_codes = np.zeros(n_right, dtype=np.int64)
        if len(lvals) or len(rvals):
            if lvals.dtype == object and rvals.dtype == object:
                # Str keys (or oversized-int fallbacks): one shared hash
                # pass beats sort-based factorization, which would compare
                # python objects element-by-element.
                shared: dict = {}
                l_sub, _ = factorize_objects(lvals, shared)
                r_sub, cardinality = factorize_objects(rvals, shared)
            else:
                both = np.concatenate([lvals, rvals])
                uniq = np.unique(both)
                l_sub = np.searchsorted(uniq, lvals)
                r_sub = np.searchsorted(uniq, rvals)
                cardinality = len(uniq)
            l_codes[lv] = l_sub
            r_codes[rv] = r_sub
        else:
            cardinality = 1
        # Combine with the previous keys, then densify so the running code
        # stays < n and never overflows across many key columns.
        combined = np.concatenate(
            [l_comb * cardinality + l_codes, r_comb * cardinality + r_codes]
        )
        _, inverse = np.unique(combined, return_inverse=True)
        l_comb, r_comb = inverse[:n_left], inverse[n_left:]
    return l_comb, r_comb, left_any_null


def segment_group_by(
    table: Table,
    keys: Sequence[str],
    aggregates: Sequence[tuple[str, str | None, str]],
    *,
    codes: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> Table:
    """The vectorized GROUP BY core behind :meth:`Table.group_by`.

    Exposed as a function so the sharded kernels (:mod:`repro.shard`) run
    the *same* aggregation code per shard instead of a parallel
    reimplementation that could drift.  ``codes`` (dense row → group ids in
    the :func:`~repro.table.column.row_codes` convention: every value in
    ``[0, num_groups)`` occupied, nulls bucketed per key column) and
    ``order`` (a stable argsort of ``codes``) may be passed precomputed —
    a shard index amortizes both at partition time, which is where the
    sharded group-by speedup comes from.
    """
    with timed("table.group_by.seconds", span_name="table.group_by") as s:
        keys = list(keys)
        schema = table.schema
        out_fields = output_fields(schema, keys, aggregates)
        key_idx = [schema.index_of(k) for k in keys]

        columns = table.columns()
        n = table.num_rows
        if n == 0:
            s.set(rows_in=0, groups=0)
            return Table.empty(Schema(out_fields))

        if codes is None:
            if key_idx:
                codes = row_codes([columns[j] for j in key_idx])
            else:
                codes = np.zeros(n, dtype=np.int64)
        # One stable sort by group code, shared by every aggregate; within
        # a group the original row order survives, matching the reference.
        # Codes are dense (every value in [0, num_groups) occupied), so the
        # segment boundaries of the sorted codes enumerate the groups and
        # the first row of each segment is the group's first appearance.
        if order is None:
            order = np.argsort(codes, kind="stable")
        sorted_gids = codes[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_gids[1:] != sorted_gids[:-1]]
        )
        first_idx = order[starts]
        # Output groups in first-appearance order.
        appearance = np.argsort(first_idx, kind="stable")
        groups = Groups(order, sorted_gids, len(starts), appearance)

        out_cols = [
            columns[j].take(first_idx[appearance]) for j in key_idx
        ]
        for name, col, _out in aggregates:
            fn = lookup(name)
            out_cols.append(fn.segment(
                columns[schema.index_of(col)] if fn.takes_column else None,
                groups))
        out = Table._trusted(Schema(out_fields), tuple(out_cols),
                             num_rows=groups.num_groups)
        metrics.counter("table.rows_scanned").inc(n)
        s.set(rows_in=n, groups=groups.num_groups)
    return out


def _csv_dtype(values: list[Any]) -> str:
    """Infer a dtype for CSV cells, which all arrive as str/None."""
    def looks_int(s: str) -> bool:
        try:
            int(s)
            return True
        except ValueError:
            return False

    def looks_float(s: str) -> bool:
        try:
            float(s)
            return True
        except ValueError:
            return False

    non_null = [v for v in values if v is not None]
    if not non_null:
        return "str"
    if all(looks_int(v) for v in non_null):
        return "int"
    if all(looks_float(v) for v in non_null):
        return "float"
    lowered = {v.strip().lower() for v in non_null}
    if lowered <= {"true", "false"}:
        return "bool"
    return "str"
