"""Incremental view maintenance (DBSP-style) on the columnar core.

Tables become Z-sets (weighted multisets over :class:`~repro.table.Table`
payloads), updates become ``(row, ±1)`` deltas, and the relational
kernels get incremental twins so a materialized view stays fresh in time
proportional to the delta, not the table (docs/ivm.md).

Quick start::

    from repro.ivm import StreamTable

    orders = StreamTable(initial_orders, name="orders")
    users = StreamTable(initial_users, name="users")
    spend = (
        orders.view()
        .filter(lambda t: t.column_array("amount") > 0)
        .join(users, on="user_id")
        .group_by(["country"], [("sum", "amount", "total")])
        .materialize("spend_by_country")
    )
    orders.insert_rows([(17, "u3", 12.5)])   # view updates incrementally
    spend.table()                            # always fresh
"""

from repro.ivm.operators import (
    GROUP_AGGREGATES,
    DistinctNode,
    FilterNode,
    GroupByNode,
    IntegrateNode,
    JoinNode,
    Node,
    ProjectNode,
    ScanNode,
    Trace,
    UnionNode,
)
from repro.ivm.view import (
    PUSH_POINT,
    MaterializedView,
    StreamTable,
    ViewBuilder,
)
from repro.ivm.zset import Delta, ZSet

__all__ = [
    "Delta",
    "DistinctNode",
    "FilterNode",
    "GROUP_AGGREGATES",
    "GroupByNode",
    "IntegrateNode",
    "JoinNode",
    "MaterializedView",
    "Node",
    "ProjectNode",
    "PUSH_POINT",
    "ScanNode",
    "StreamTable",
    "Trace",
    "UnionNode",
    "ViewBuilder",
    "ZSet",
]
