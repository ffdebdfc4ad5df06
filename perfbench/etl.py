"""The ``etl`` workload: no server; one driver thread repeats a cycle of
pipeline refreshes and out-of-core storage steps.

One cycle, each step timed on its own, in fresh checkpoint and spill
directories:

1. ``full_refresh`` — ``Pipeline.run(full_refresh=True)`` of a bronze →
   silver (drop expectations and quarantine) → join → gold pipeline over
   an append-only source;
2. ``incremental`` (×``INCREMENTS``) — ``refresh()`` after a 1% append;
3. ``resume`` — ``refresh()`` after the dimension source changed;
4. ``spill`` — ``ShardStore.spill`` of an 8-shard partitioned table;
5. ``restore_scan`` — ``restore`` plus a shard-at-a-time group-by over it.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import gen
from perfbench.common import build_table, dir_bytes, pct, scratch_dir
from perfbench.oracle import Oracle
from perfbench.trace import layer_self, self_times, shares, trees

INCREMENTS = 3
APPEND_SHARE = 0.01
SPILL_FIELDS = [("oid", "int"), ("cust_id", "int"), ("amount", "float"),
                ("status", "str")]


# -- the pipeline's table functions ------------------------------------------------


def bronze_orders(raw_orders):
    keep = raw_orders.column_array("status") != "returned"
    return raw_orders.filter(keep).project(
        ["oid", "cust_id", "amount", "qty", "day"])


def silver_orders(bronze_orders):
    return bronze_orders


def enriched_orders(silver_orders, customers):
    return silver_orders.join(customers, on=[("cust_id", "cid")])


def revenue_by_segment(enriched_orders):
    return enriched_orders.group_by(
        ["region", "segment"],
        [("sum", "amount", "revenue"), ("count", "amount", "orders"),
         ("max", "amount", "largest")])


GOLD_SQL = ("SELECT region, segment, SUM(amount), COUNT(amount), MAX(amount) "
            "FROM raw JOIN {customers} ON cust_id = cid "
            "WHERE idx < {n} AND status <> 'returned' AND amount > 0 "
            "AND cust_id IS NOT NULL GROUP BY region, segment")
QUARANTINE_SQL = ("SELECT COUNT(*) FROM raw WHERE idx < {n} "
                  "AND status <> 'returned' "
                  "AND (COALESCE(amount > 0, 0) = 0 OR cust_id IS NULL)")


def pipeline(checkpoint_dir, sources: dict, tracer=None):
    """The pipeline over ``sources`` (read at each run, so swapping an
    entry is how the driver appends or changes a source)."""
    from repro import dlt
    from repro.dlt import Expectation, TableDef

    def fn(f):
        return f if tracer is None else tracer.wrap("dlt.transform", f)

    silver_rules = (
        Expectation("positive_amount", dlt.col("amount") > 0, "drop"),
        Expectation("known_customer", dlt.col("cust_id").not_null(), "drop"),
        Expectation("qty_present", dlt.col("qty").not_null(), "warn"),
    )
    pipe = dlt.Pipeline("etl", checkpoint_dir=checkpoint_dir)
    pipe.source("raw_orders", lambda: sources["raw"], incremental=True)
    pipe.source("customers", lambda: sources["customers"])
    pipe.add(
        TableDef("bronze_orders", "bronze", fn(bronze_orders),
                 ("raw_orders",), incremental=True),
        TableDef("silver_orders", "silver", fn(silver_orders),
                 ("bronze_orders",), silver_rules),
        TableDef("enriched_orders", "silver", fn(enriched_orders),
                 ("silver_orders", "customers")),
        TableDef("revenue_by_segment", "gold", fn(revenue_by_segment),
                 ("enriched_orders",)),
    )
    return pipe


# -- inputs and set-up ---------------------------------------------------------------


class Inputs:
    def __init__(self, seed: int, sizes: gen.Sizes):
        rng = np.random.default_rng([seed, 0])
        self.seed = seed
        self.sizes = sizes
        self.base_rows = sizes.etl_rows
        step = max(1, int(sizes.etl_rows * APPEND_SHARE))
        self.row_counts = [self.base_rows + i * step
                           for i in range(INCREMENTS + 1)]
        self.raw = gen.etl_orders(rng, self.row_counts[-1], sizes.customers)
        self.customers = gen.customers(rng, sizes.customers)
        self.customers_v2 = gen.changed_customers(rng, self.customers)
        big = gen.orders(rng, sizes.spill_rows, sizes.customers, 1)
        self.spill = gen.Columns(SPILL_FIELDS,
                                 {n: big[n] for n, _ in SPILL_FIELDS})


def _slice(cols: gen.Columns, n: int) -> gen.Columns:
    return gen.Columns(cols.fields, {k: (v[:n], m[:n])
                                     for k, (v, m) in cols.items()})


class Env:
    def __init__(self, raws, customers, customers_v2, ptable):
        self.raws = raws
        self.customers = customers
        self.customers_v2 = customers_v2
        self.ptable = ptable

    def close(self) -> None:
        self.raws = self.ptable = None


def setup(inputs: Inputs):
    """Source tables for every refresh, and the partitioned table to
    spill; returns ``(env, seconds)``."""
    from repro.shard import PartitionedTable

    start = time.perf_counter()
    raws = [build_table(_slice(inputs.raw, n)) for n in inputs.row_counts]
    customers = build_table(inputs.customers)
    customers_v2 = build_table(inputs.customers_v2)
    ptable = PartitionedTable.partition(
        build_table(inputs.spill), keys=["cust_id"],
        num_shards=inputs.sizes.spill_shards)
    return (Env(raws, customers, customers_v2, ptable),
            time.perf_counter() - start)


# -- the driver ------------------------------------------------------------------------


class Step:
    __slots__ = ("cycle", "name", "seconds", "result", "root_id", "state",
                 "bytes")

    def __init__(self, cycle, name):
        self.cycle = cycle
        self.name = name
        self.seconds = 0.0
        self.result = None
        self.root_id = None
        self.state = None
        self.bytes = 0


def _timed(step: Step, tracer, fn, summarize):
    """Time ``fn()``; keep only ``summarize(result)`` for the checks."""
    if tracer is None:
        start = time.perf_counter()
        result = fn()
        step.seconds = time.perf_counter() - start
    else:
        with tracer.span(f"etl.{step.name}") as root:
            result = fn()
        step.root_id = root.id
        step.seconds = root.duration
    step.result = summarize(result)


def _run_summary(run) -> dict:
    gold = run.tables.get("revenue_by_segment")
    quarantine = run.quarantine("silver_orders")
    return {
        "ok": run.ok,
        "failed": run.failed,
        "gold": [] if gold is None else [tuple(r) for r in gold.rows()],
        "quarantined": 0 if quarantine is None else quarantine.num_rows,
        "computed": len(run.computed),
        "tables": len(run.results),
        "rows": sum(t.num_rows for t in run.tables.values())
        + sum(q.num_rows for q in run.quarantines.values()),
    }


def cycle(env: Env, index: int, tracer=None) -> list[Step]:
    """One full cycle in fresh directories; returns its timed steps."""
    from repro.dlt import table_hash
    from repro.shard import ShardStore, kernels

    steps = []
    sources = {"raw": env.raws[0], "customers": env.customers}
    with scratch_dir() as work:
        pipe = pipeline(work / "checkpoint", sources, tracer)
        step = Step(index, "full_refresh")
        _timed(step, tracer, lambda: pipe.run(full_refresh=True),
               _run_summary)
        step.state = (0, "customers")
        step.bytes = dir_bytes(work / "checkpoint")
        steps.append(step)
        for i in range(1, INCREMENTS + 1):
            sources["raw"] = env.raws[i]
            step = Step(index, "incremental")
            _timed(step, tracer, pipe.refresh, _run_summary)
            step.state = (i, "customers")
            steps.append(step)
        sources["customers"] = env.customers_v2
        step = Step(index, "resume")
        _timed(step, tracer, pipe.refresh, _run_summary)
        step.state = (INCREMENTS, "customers_v2")
        steps.append(step)

        store = ShardStore(work / "spill")
        step = Step(index, "spill")
        _timed(step, tracer, lambda: store.spill(env.ptable, "orders"),
               lambda _: None)
        step.bytes = dir_bytes(work / "spill")
        steps.append(step)

        def restore_scan():
            restored = store.restore("orders")
            totals = kernels.group_by(
                restored, ["cust_id"],
                [("sum", "amount", "total"), ("count", "amount", "n")])
            return restored, totals

        def scan_summary(result):
            restored, totals = result
            return {
                "shard_rows": [h.num_rows for h in restored.shards],
                "keys": totals.column_array("cust_id"),
                "total": totals.column_array("total"),
                "n": totals.column_array("n"),
                # Re-reading every shard is costly: hash them once a run.
                "hashes": ([table_hash(restored.shard(i))
                            for i in range(restored.num_shards)]
                           if index == 0 else None),
            }

        step = Step(index, "restore_scan")
        _timed(step, tracer, restore_scan, scan_summary)
        step.bytes = steps[-1].bytes
        steps.append(step)
    return steps


def drive(env: Env, seconds: float, tracer=None):
    """Whole cycles while another one ends nearer to ``seconds`` of timed
    steps than stopping would; at least one."""
    steps: list[Step] = []
    spent = last = 0.0
    index = 0
    while not steps or spent + last / 2 < seconds:
        batch = cycle(env, index, tracer)
        last = sum(s.seconds for s in batch)
        spent += last
        steps += batch
        index += 1
    return steps, spent


# -- checks ----------------------------------------------------------------------------


def check(inputs: Inputs, env: Env, steps: list[Step]) -> list[str]:
    """Gold tables and quarantine counts against sqlite; restored shards
    by row count every cycle and by ``table_hash`` in the first; the
    streamed aggregate against numpy sums over the generated rows."""
    from repro.dlt import table_hash

    errors = []
    oracle = Oracle()
    try:
        oracle.load("raw", [("idx", "int")] + inputs.raw.fields,
                    [(i,) + row for i, row in enumerate(inputs.raw.rows())],
                    index="idx")
        oracle.load("customers", gen.CUSTOMER_FIELDS,
                    inputs.customers.rows(), key="cid")
        oracle.load("customers_v2", gen.CUSTOMER_FIELDS,
                    inputs.customers_v2.rows(), key="cid")
        for step in steps:
            if step.state is None:
                continue
            run = step.result
            where = f"cycle {step.cycle} {step.name}"
            if not run["ok"]:
                errors.append(f"{where}: failed {run['failed']}")
                continue
            n = inputs.row_counts[step.state[0]]
            want = oracle.answer(GOLD_SQL.format(customers=step.state[1],
                                                 n=n))[1]
            if sorted(run["gold"]) != sorted(want):
                errors.append(f"{where}: gold differs")
            want_q = oracle.answer(QUARANTINE_SQL.format(n=n))[1][0][0]
            if run["quarantined"] != want_q:
                errors.append(f"{where}: quarantined {run['quarantined']} "
                              f"rows, expected {want_q}")
    finally:
        oracle.close()

    cust, _ = inputs.spill["cust_id"]
    amount, _ = inputs.spill["amount"]
    want_total = np.bincount(cust, weights=amount)
    want_n = np.bincount(cust)
    want_rows = [h.num_rows for h in env.ptable.shards]
    want_hashes = None
    for step in steps:
        if step.name != "restore_scan":
            continue
        scan = step.result
        if scan["shard_rows"] != want_rows:
            errors.append(f"cycle {step.cycle}: restored shard rows "
                          f"{scan['shard_rows']}")
        keys = scan["keys"]
        if (not np.array_equal(scan["total"], want_total[keys])
                or not np.array_equal(scan["n"], want_n[keys])
                or len(keys) != np.count_nonzero(want_n)):
            errors.append(f"cycle {step.cycle}: streamed aggregate differs")
        if scan["hashes"] is not None:
            if want_hashes is None:
                want_hashes = [table_hash(env.ptable.shard(i))
                               for i in range(env.ptable.num_shards)]
            if scan["hashes"] != want_hashes:
                errors.append(f"cycle {step.cycle}: restored shard hashes "
                              f"differ")
    return errors


# -- metrics ---------------------------------------------------------------------------


def _by_cycle(steps: list[Step]) -> list[list[Step]]:
    cycles: dict[int, list[Step]] = {}
    for step in steps:
        cycles.setdefault(step.cycle, []).append(step)
    return list(cycles.values())


def end_to_end(steps: list[Step]) -> tuple[dict, dict]:
    """The mean incremental refresh (the recurring step), the p95 of all
    steps, and steps per second.  The mean, not the median: on a shared
    2-CPU virtual machine the CPU speed switched between two levels every
    few seconds, and the median of a run's incremental refreshes flipped
    between them (11% spread over five seeds against 7% for the mean)."""
    cycles = _by_cycle(steps)
    seconds = [s.seconds for s in steps]

    def median_of(name):
        return float(np.median([s.seconds for s in steps if s.name == name]))

    metrics = {
        "latency_ms": float(np.mean([s.seconds for s in steps
                                     if s.name == "incremental"])) * 1e3,
        "latency_p95_ms": pct(seconds, 95) * 1e3,
        "throughput_qps": len(steps) / sum(seconds),
    }
    report = {
        "steps": len(steps),
        "cycles": len(cycles),
        "full_refresh_s": median_of("full_refresh"),
        "incremental_refresh_s": median_of("incremental"),
        "resume_s": median_of("resume"),
        "spill_s": median_of("spill"),
        "restore_scan_s": median_of("restore_scan"),
        "checkpoint_mb": steps[0].bytes / 1e6,
        "spill_mb": next(s.bytes for s in steps if s.name == "spill") / 1e6,
    }
    return metrics, report


def cycle_seconds(steps: list[Step]) -> float:
    """Median time of one cycle's timed steps."""
    return float(np.median([sum(s.seconds for s in c)
                            for c in _by_cycle(steps)]))


def per_layer(tracer, steps: list[Step], env: Env) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run; the dlt times are seconds per
    cycle (median over cycles)."""
    roots = trees(tracer.spans)
    cycles: dict[int, dict] = {}
    layer_rows = []
    shard_self, table_self, table_calls = [], [], []
    rows_in = rows_out = 0
    recomputed = tables = 0
    load_bytes = load_s = 0.0
    spill_rates = []
    for step in steps:
        root = roots[step.root_id]
        spans = self_times(root)
        names = {s.id: s.name for s, _ in spans}
        selfs = layer_self(root)
        layer_rows.append((root, selfs))
        shard_self.append(selfs["shard"] * 1e3)
        table_self.append(selfs["table"] * 1e3)
        table_calls.append(sum(s.layer == "table" for s, _ in spans))
        acc = cycles.setdefault(step.cycle, dict.fromkeys(
            ("write", "read", "mask", "transform", "self"), 0.0))
        for s, own in spans:
            if s.attrs and "rows_in" in s.attrs:
                rows_in += s.attrs["rows_in"]
                rows_out += s.attrs["rows_out"]
            if s.name == "dlt.commit":
                acc["write"] += s.duration
            elif s.name in ("dlt.read_table", "dlt.read_quarantine"):
                acc["read"] += s.duration
            elif s.name == "dlt.mask" and names.get(s.parent) != "dlt.mask":
                acc["mask"] += s.duration
            elif s.name == "dlt.transform":
                acc["transform"] += s.duration
            elif s.name in ("dlt.run", "dlt.refresh"):
                acc["self"] += own
            elif s.name == "shard.load":
                load_s += s.duration
            elif s.name == "shard.spill":
                spill_rates.append(step.bytes / 1e6 / s.duration)
        if step.name == "restore_scan":
            load_bytes += step.bytes
        if step.name in ("incremental", "resume"):
            recomputed += step.result["computed"]
            tables += step.result["tables"]
    full = next(s for s in steps if s.name == "full_refresh")
    spilled = next(s.bytes for s in steps if s.name == "spill")

    def med(key):
        return float(np.median([c[key] for c in cycles.values()]))

    metrics = {
        "table.self_ms.p50": pct(table_self, 50),
        "table.rows_in_per_row_out": rows_in / max(1, rows_out),
        "table.calls_per_query": float(np.mean(table_calls)),
        "shard.self_ms.p99": pct(shard_self, 99),
        "shard.spill_mb_s": float(np.median(spill_rates)),
        "shard.load_mb_s": load_bytes / 1e6 / load_s if load_s else 0.0,
        "shard.disk_bytes_per_row": spilled / env.ptable.num_rows,
        "dlt.checkpoint_write_s": med("write"),
        "dlt.checkpoint_read_s": med("read"),
        "dlt.checkpoint_bytes_per_row": full.bytes / max(1,
                                                         full.result["rows"]),
        "dlt.expectation_s": med("mask"),
        "dlt.transform_s": med("transform"),
        "dlt.self_s": med("self"),
        "dlt.recompute_ratio": recomputed / max(1, tables),
    }
    all_shares = shares(layer_rows)
    return metrics, {"steps": len(layer_rows), "shares": all_shares,
                     "unattributed_share": all_shares["unattributed"]}
