"""Sharded relational kernels: filter / join / group_by / distinct.

Each kernel decomposes a query over a :class:`~repro.shard.
PartitionedTable` into independent per-shard morsels, runs them serially
or through any :class:`~repro.par.BaseMap` (thread- or process-backed —
pass a :class:`~repro.par.ProcessMap` for multi-core), and merges.  The
single-table kernels on :class:`~repro.table.Table` remain the oracles:
every sharded result is row-identical (after canonical ordering) to the
corresponding whole-table call, a property the randomized suite in
``tests/test_shard_properties.py`` enforces.

Why sharding helps even before parallelism: co-location plus the
:class:`~repro.shard.ShardIndex` (key codes, stable order, group
segments, amortized at partition time) lets ``join`` probe
pre-factorized, pre-sorted build sides and lets ``group_by`` skip the
factorize + sort that dominates the cold kernel.  Process workers then
multiply that across cores.

Exactness arguments, per kernel:

- ``filter`` — row-local, trivially exact; the mask never moves a row, so
  the output keeps the input's partitioning.
- ``join`` — hash (or shared-bounds range) partitioning on the join keys
  puts every pair of matching rows in the same shard, so the union of
  per-shard joins is exactly the whole join.  Small build sides skip
  repartitioning entirely and broadcast to every probe shard.
- ``group_by`` — when the partition keys are a subset of the group keys,
  no group straddles shards and per-shard aggregation is exact as-is;
  otherwise each shard emits the partial aggregates that
  :mod:`repro.table.aggregate` decomposes each function into, and they
  merge exactly (docs/table.md, "Aggregate semantics").
- ``distinct`` — duplicate rows agree on every column, hence on the
  partition keys, hence co-locate; per-shard distinct is globally exact.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.instrument import timed
from repro.par.base import BaseMap
from repro.shard.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
)
from repro.shard.table import MemoryShard, PartitionedTable, ShardIndex
from repro.table import Schema, Table
from repro.table.aggregate import lookup, output_fields
from repro.table.table import _factorize_key_pairs, segment_group_by

#: Right sides at or below this many rows join by broadcast (shipped whole
#: to every probe shard) instead of repartitioning.  See
#: docs/performance.md for the crossover reasoning.
BROADCAST_LIMIT = 50_000


def _shard_map(pmap: BaseMap | None, fn: Callable[[int], Any], n: int,
               name: str) -> list[Any]:
    """Run ``fn`` over shard indices — serial, or one shard per chunk on
    the caller's map.  ``on_error`` is forced to ``raise``: degrading a
    shard to a fallback value would silently corrupt the merged result."""
    if pmap is None or n <= 1:
        return [fn(i) for i in range(n)]
    runner = pmap.with_options(chunk_size=1, on_error="raise")
    return runner.map(fn, range(n), name=name)


def concat_tables(schema: Schema, tables: Sequence[Table]) -> Table:
    """Concatenate same-schema tables columnwise (:meth:`Table.concat`
    under ``schema``)."""
    return Table.concat(tables, schema)


# -- filter ----------------------------------------------------------------

def filter(ptable: PartitionedTable,  # noqa: A001 - mirrors Table.filter
           predicate: Callable[[Table], np.ndarray],
           pmap: BaseMap | None = None) -> PartitionedTable:
    """Keep rows where ``predicate(shard_table)`` is True, per shard.

    ``predicate`` must be row-local (a boolean mask per shard).  For the
    process-backed path it must be picklable-by-fork, i.e. any callable —
    it rides into the worker with the shard.  The output keeps the input's
    partitioning: a filter never moves rows between shards.
    """
    with timed("shard.filter.seconds", span_name="shard.filter",
               shards=ptable.num_shards, rows_in=ptable.num_rows) as s:
        def task(i: int) -> Table:
            t = ptable.shard(i)
            return t.filter(np.asarray(predicate(t), dtype=bool))

        parts = _shard_map(pmap, task, ptable.num_shards, "shard.filter")
        out = PartitionedTable(ptable.schema,
                               [MemoryShard(t) for t in parts],
                               ptable.partitioner)
        s.set(rows_out=out.num_rows)
    return out


# -- distinct --------------------------------------------------------------

def distinct(ptable: PartitionedTable,
             pmap: BaseMap | None = None) -> PartitionedTable:
    """Per-shard :meth:`Table.distinct`; exact globally because duplicate
    rows agree on the partition keys and therefore co-locate."""
    with timed("shard.distinct.seconds", span_name="shard.distinct",
               shards=ptable.num_shards, rows_in=ptable.num_rows) as s:
        parts = _shard_map(pmap, lambda i: ptable.shard(i).distinct(),
                           ptable.num_shards, "shard.distinct")
        out = PartitionedTable(ptable.schema,
                               [MemoryShard(t) for t in parts],
                               ptable.partitioner)
        s.set(rows_out=out.num_rows)
    return out


# -- join ------------------------------------------------------------------

def _normalize_on(on: Sequence[tuple[str, str]] | str
                  ) -> list[tuple[str, str]]:
    if isinstance(on, str):
        return [(on, on)]
    return [(l, r) for l, r in on]


def _co_located(lp: Partitioner, rp: Partitioner, l_keys: Sequence[str],
                r_keys: Sequence[str]) -> bool:
    """Do these partitionings put matching join keys in the same shard?"""
    if lp.num_shards != rp.num_shards or lp.kind != rp.kind:
        return False
    if lp.keys != tuple(l_keys) or rp.keys != tuple(r_keys):
        return False
    if isinstance(lp, RangePartitioner) and isinstance(rp, RangePartitioner):
        return lp.bounds == rp.bounds
    return True


def _aligned_partitioner(template: Partitioner,
                         keys: Sequence[str]) -> Partitioner:
    """The partitioner that co-locates ``keys`` with ``template``'s
    shards (same kind, shard count, and bounds — only the key names
    differ)."""
    if isinstance(template, RangePartitioner):
        return RangePartitioner(key=keys[0], bounds=template.bounds)
    return HashPartitioner(keys=tuple(keys),
                           num_shards=template.num_shards)


def _indexed_join_shard(lt: Table, rt: Table, lidx: ShardIndex,
                        ridx: ShardIndex, plan, how: str) -> Table:
    """Co-located hash join of one shard pair via the cached indexes.

    Both sides' rows are already grouped by key (dense codes + stable
    order + segment starts); only the cross-shard *group* remap runs here
    — factorizing one representative row per group, O(groups) not O(rows)
    — before the standard repeat-expansion gather.  Matches per left row
    come out in right-row order, identical to :meth:`Table.join`.
    """
    _pairs, left_keys, right_keys, out_schema, kept_right_idx = plan
    n_left, n_right = lt.num_rows, rt.num_rows
    lcols_all, rcols_all = lt.columns(), rt.columns()

    # Remap left group ids to right group ids by comparing one
    # representative row per group across the shard pair.
    l2r = np.full(lidx.num_groups, -1, dtype=np.int64)
    if lidx.num_groups and ridx.num_groups:
        l_reps = [lcols_all[j].take(lidx.reps) for j in left_keys]
        r_reps = [rcols_all[j].take(ridx.reps) for j in right_keys]
        l_codes, r_codes, l_any_null = _factorize_key_pairs(l_reps, r_reps)
        if r_codes is not None:
            valid_r = np.flatnonzero(~ridx.group_null)
            rs = valid_r[np.argsort(r_codes[valid_r], kind="stable")]
            if len(rs):
                sorted_codes = r_codes[rs]
                probe = np.where(lidx.group_null | l_any_null,
                                 np.int64(-1), l_codes)
                lo = np.searchsorted(sorted_codes, probe, side="left")
                hi = np.searchsorted(sorted_codes, probe, side="right")
                l2r = np.where(hi > lo,
                               rs[np.minimum(lo, len(rs) - 1)], -1)

    rg = l2r[lidx.codes] if n_left else np.empty(0, dtype=np.int64)
    if ridx.num_groups:
        counts = np.where(rg >= 0, ridx.sizes[np.maximum(rg, 0)], 0)
    else:
        counts = np.zeros(n_left, dtype=np.int64)
    out_counts = counts if how == "inner" else np.maximum(counts, 1)
    total = int(out_counts.sum())
    left_take = np.repeat(np.arange(n_left), out_counts)
    offsets = np.cumsum(out_counts) - out_counts
    within = np.arange(total) - np.repeat(offsets, out_counts)
    if n_right:
        rg_out = rg[left_take]
        start = np.where(rg_out >= 0,
                         ridx.starts[np.maximum(rg_out, 0)], 0)
        right_take = ridx.order[np.minimum(start + within, n_right - 1)]
    else:
        right_take = np.full(total, -1, dtype=np.intp)
    if how == "left":
        matched = np.repeat(counts > 0, out_counts)
        right_take = np.where(matched, right_take, -1)

    cols = [c.take(left_take) for c in lcols_all]
    cols += [rcols_all[j].take_or_null(right_take) for j in kept_right_idx]
    return Table._trusted(out_schema, tuple(cols), num_rows=total)


def join(left: PartitionedTable, right: "PartitionedTable | Table",
         on: Sequence[tuple[str, str]] | str, how: str = "inner",
         suffix: str = "_r", pmap: BaseMap | None = None,
         broadcast_limit: int = BROADCAST_LIMIT) -> Table:
    """Sharded equi-join; same semantics as :meth:`Table.join`.

    Strategy, in order: **broadcast** when the build (right) side is small
    enough to ship whole to every probe shard; **co-located** per-shard
    indexed hash join when both sides are partitioned compatibly on the
    join keys (repartitioning whichever side is not).  Output rows equal
    the single-table join's exactly, as an unordered multiset.
    """
    pairs = _normalize_on(on)
    l_keys = [l for l, _ in pairs]
    r_keys = [r for _, r in pairs]
    with timed("shard.join.seconds", span_name="shard.join", how=how) as s:
        right_rows = right.num_rows
        if right_rows <= broadcast_limit:
            right_table = (right.to_table()
                           if isinstance(right, PartitionedTable) else right)
            s.set(strategy="broadcast", shards=left.num_shards)
            parts = _shard_map(
                pmap,
                lambda i: left.shard(i).join(right_table, on, how, suffix),
                left.num_shards, "shard.join")
            schema = (parts[0].schema if parts else
                      left.shard(0)._join_plan(right_table, on, how,
                                               suffix)[3])
            out = concat_tables(schema, parts)
            s.set(rows_out=out.num_rows)
            return out

        # Co-located path: align both sides on the join keys.
        if left.partitioner.keys != tuple(l_keys):
            left = PartitionedTable.partition(
                left.to_table(),
                HashPartitioner(tuple(l_keys), left.num_shards))
        if not (isinstance(right, PartitionedTable)
                and _co_located(left.partitioner, right.partitioner,
                                l_keys, r_keys)):
            right_table = (right.to_table()
                           if isinstance(right, PartitionedTable) else right)
            right = PartitionedTable.partition(
                right_table,
                _aligned_partitioner(left.partitioner, r_keys))
        s.set(strategy="colocated", shards=left.num_shards)

        plan = _join_plan_for(left, right, on, how, suffix)
        lk, rk = tuple(l_keys), tuple(r_keys)

        def task(i: int) -> Table:
            return _indexed_join_shard(
                left.shard(i), right.shard(i),
                left.index(i, lk), right.index(i, rk), plan, how)

        parts = _shard_map(pmap, task, left.num_shards, "shard.join")
        out = concat_tables(plan[3], parts)
        s.set(rows_out=out.num_rows)
    return out


def _join_plan_for(left: PartitionedTable, right: PartitionedTable,
                   on, how: str, suffix: str):
    """Schema-level join plan (key indices, output schema) — computed once
    from the partitioned schemas, shared by every shard task."""
    lt = Table.empty(left.schema)
    rt = Table.empty(right.schema)
    return lt._join_plan(rt, on, how, suffix)


# -- group_by --------------------------------------------------------------

def group_by(ptable: PartitionedTable, keys: Sequence[str],
             aggregates: Sequence[tuple[str, str | None, str]],
             pmap: BaseMap | None = None) -> Table:
    """Sharded GROUP BY; same semantics as :meth:`Table.group_by`.

    Two plans: when the partition keys are a subset of the group keys, no
    group spans shards, so each shard aggregates independently (reusing
    its cached :class:`~repro.shard.ShardIndex` codes when the key tuples
    match — the fast path) and results concatenate.  Otherwise each shard
    emits partial aggregates that merge exactly, as the aggregate algebra
    decomposes them.  Group order differs from the single-table kernel
    (canonical-order equivalence only).
    """
    keys = list(keys)
    with timed("shard.group_by.seconds", span_name="shard.group_by",
               shards=ptable.num_shards) as s:
        if set(ptable.partitioner.keys) <= set(keys):
            s.set(strategy="partitioned")
            out = _group_by_partitioned(ptable, keys, aggregates, pmap)
        else:
            s.set(strategy="merge")
            out = _group_by_merge(ptable, keys, aggregates, pmap)
        s.set(groups=out.num_rows)
    return out


def _group_by_partitioned(ptable: PartitionedTable, keys: list[str],
                          aggregates, pmap: BaseMap | None) -> Table:
    key_tuple = tuple(keys)

    def task(i: int) -> Table:
        handle = ptable.shards[i]
        table = ptable.shard(i)
        idx = (handle.cached_index(key_tuple)
               if isinstance(handle, MemoryShard) else None)
        if idx is not None:
            return segment_group_by(table, keys, aggregates,
                                    codes=idx.codes, order=idx.order)
        return segment_group_by(table, keys, aggregates)

    parts = _shard_map(pmap, task, ptable.num_shards, "shard.group_by")
    return concat_tables(parts[0].schema, parts)


def _group_by_merge(ptable: PartitionedTable, keys: list[str],
                    aggregates, pmap: BaseMap | None) -> Table:
    """Each shard computes every aggregate's ``partials``; the partials
    merge by their ``merge`` functions and each aggregate finalizes from
    its merged partials — exact by the algebra's decomposition."""
    schema = ptable.schema
    fns = [lookup(name) for name, _col, _out in aggregates]
    partial_specs: list[tuple[str, str | None, str]] = []
    for fn, (_name, col, _out) in zip(fns, aggregates):
        for part in fn.partials:
            slot = f"__p{len(partial_specs)}"
            while slot in schema.names:
                slot = "_" + slot
            partial_specs.append((part, col, slot))

    parts = _shard_map(pmap,
                       lambda i: ptable.shard(i).group_by(keys,
                                                          partial_specs),
                       ptable.num_shards, "shard.group_by")
    merged = concat_tables(parts[0].schema, parts).group_by(
        keys, [(lookup(part).merge, slot, slot)
               for part, _col, slot in partial_specs])
    columns = merged.columns()
    partials = iter(columns[len(keys):])
    out_cols = list(columns[:len(keys)]) + [
        fn.finalize([next(partials) for _ in fn.partials]) for fn in fns]
    return Table._trusted(Schema(output_fields(schema, keys, aggregates)),
                          tuple(out_cols), num_rows=merged.num_rows)


__all__ = [
    "BROADCAST_LIMIT",
    "concat_tables",
    "distinct",
    "filter",
    "group_by",
    "join",
]
