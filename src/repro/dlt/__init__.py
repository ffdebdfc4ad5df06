"""repro.dlt: declarative medallion pipelines with data-quality contracts.

The paper's data-preparation pipeline story ends at *search* — this package
is the production half: declare tables as plain functions over
:class:`~repro.table.Table`, layer them bronze → silver → gold, attach
expectations, and let the runner handle ordering, failure isolation,
quarantine, and crash-safe incremental refresh.

Quickstart::

    from repro import dlt

    @dlt.table(layer="bronze")
    def orders(raw_orders):               # parameter name = dependency
        return raw_orders

    @dlt.table(layer="silver")
    @dlt.expect_or_drop("valid_qty", dlt.col("qty") > 0)
    @dlt.expect("known_region", dlt.col("region").not_null())
    def clean_orders(orders):
        return orders

    pipe = (dlt.Pipeline("demo", checkpoint_dir="ckpt")
            .source("raw_orders", raw)
            .add(orders, clean_orders))
    result = pipe.run()
    result.quarantine("clean_orders")     # dropped rows + reasons

Expectation semantics (stackable, enforced top-to-bottom):

========================  ==============================================
``@expect``               violations counted + warned, rows kept
``@expect_or_drop``       violating rows removed → per-table quarantine
``@expect_or_fail``       table fails; downstream skipped or run halted
========================  ==============================================

``pipe.run()`` is incremental by default: each table's checkpoint
fingerprint hashes its code, expectations, and inputs, so re-running after
a crash (or after one source changes) recomputes only the stale subtree —
see :mod:`repro.dlt.checkpoint` for the torn-write-proof commit protocol
and docs/dlt.md for the full tour.
"""

from repro.dlt.checkpoint import (
    CHECKPOINT_WRITE_POINT,
    CheckpointStore,
    ManifestEntry,
)
from repro.dlt.decorators import (
    LAYERS,
    TableDef,
    expect,
    expect_or_drop,
    expect_or_fail,
    table,
    table_def,
)
from repro.dlt.expectations import (
    ColumnExpr,
    DetectorPredicate,
    Expectation,
    Predicate,
    col,
    from_detector,
    not_null,
)
from repro.dlt.graph import PipelineGraph
from repro.dlt.lineage import DltLog, TableEvent, get_log
from repro.dlt.runner import (
    TABLE_FN_POINT,
    Pipeline,
    RunResult,
    TableResult,
)
from repro.dlt.storage import table_from_json
from repro.table.storage import table_hash

__all__ = [
    "CHECKPOINT_WRITE_POINT",
    "CheckpointStore",
    "ColumnExpr",
    "DetectorPredicate",
    "DltLog",
    "Expectation",
    "LAYERS",
    "ManifestEntry",
    "Pipeline",
    "PipelineGraph",
    "Predicate",
    "RunResult",
    "TABLE_FN_POINT",
    "TableDef",
    "TableEvent",
    "TableResult",
    "col",
    "expect",
    "expect_or_drop",
    "expect_or_fail",
    "from_detector",
    "get_log",
    "not_null",
    "table",
    "table_def",
    "table_from_json",
    "table_hash",
]
