"""repro.shard: partitioned tables and morsel-driven parallel execution.

The scale-out layer over the single-table kernels: a
:class:`PartitionedTable` splits a :class:`~repro.table.Table` into
hash- or range-partitioned shards (zero-copy, with per-shard key indexes
amortized at partition time), the kernels in :mod:`repro.shard.kernels`
run filter / join / group_by / distinct shard-at-a-time — serially or
over :class:`~repro.par.ProcessMap` workers — with the single-table
kernels kept as exactness oracles, and :class:`ShardStore` spills
partitions to content-addressed files so tables larger than memory
stream one shard at a time.  Queries reach the kernels through
:mod:`repro.sql`, whose physical planner binds them for partitioned
tables.

Quickstart::

    from repro.shard import PartitionedTable, kernels
    from repro.par import ProcessMap

    pt = PartitionedTable.partition(orders, keys=["customer"],
                                    num_shards=8, build_indexes=True)
    pmap = ProcessMap()          # sizes itself to the machine
    totals = kernels.group_by(pt, ["customer"],
                              [("sum", "amount", "total")], pmap=pmap)
    joined = kernels.join(pt, customers, on="customer", pmap=pmap)

See docs/performance.md (sharding section) for partitioner choice,
join strategy crossovers, and the spill format; docs/architecture.md for
the data-flow diagram.
"""

from repro.shard import kernels
from repro.shard.kernels import BROADCAST_LIMIT, concat_tables
from repro.shard.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    choose_partitioner,
    hash_column,
    hash_rows,
    partitioner_from_dict,
)
from repro.shard.spill import ShardStore, SpilledShard
from repro.shard.table import MemoryShard, PartitionedTable, ShardIndex

__all__ = [
    "BROADCAST_LIMIT",
    "HashPartitioner",
    "MemoryShard",
    "PartitionedTable",
    "Partitioner",
    "RangePartitioner",
    "ShardIndex",
    "ShardStore",
    "SpilledShard",
    "choose_partitioner",
    "concat_tables",
    "hash_column",
    "hash_rows",
    "kernels",
    "partitioner_from_dict",
]
