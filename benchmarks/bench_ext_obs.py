"""EXT-OBS: the span-overhead gate on real hot paths, and the trace export.

Each case runs the same operations at the library-default span sample
rate (:data:`repro.obs.tracing.DEFAULT_SAMPLE_RATE`) and at rate 0 (no
spans), and asserts the default costs under :data:`OVERHEAD_LIMIT` (5%)
more.  The cases are the paths the library actually serves:

- ``point`` — untraced ``db.query`` primary-key lookups;
- ``join`` — the same lookup joined to a dimension table;
- ``ivm_push`` — 1000-row deltas pushed through a filter → join →
  group-by view;
- ``served`` — serial-mode serving of point lookups (request, cache,
  admission, queue, batch and backend spans on top of the query's).

The operations run in short blocks, each timed at both rates back to
back (alternating which goes first) so warmup, frequency drift and host
noise hit both sides alike; a case's overhead is the median per-block
ratio over :data:`REPEATS` passes.  ``obs.overhead_fraction`` is the
worst case.

A final fully traced (rate 1) pass of the served case writes
``BENCH_obs_trace.json`` — the Chrome trace-event / Perfetto export the
CI obs job uploads — and checks every request produced one complete
tree.  The run also writes ``BENCH_obs.json`` (shared artifact schema).

Knob: ``REPRO_OBS_BENCH_REQUESTS`` sets the lookups per pass, in blocks
of :data:`BLOCK`; the push case runs as many blocks of :data:`PUSH_BLOCK`
pushes.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import REPO_ROOT, bench_artifact, run_once
from repro import obs
from repro.ivm import Delta, StreamTable
from repro.obs.tracing import DEFAULT_SAMPLE_RATE
from repro.serving import Server, SqlBackend
from repro.sql import Database
from repro.table import Table

#: The CI gate: each case at the default sample rate may exceed rate 0
#: by at most this fraction.
OVERHEAD_LIMIT = 0.05

REPEATS = 7
#: A timed block of lookups spans two sampling strides, so every
#: default-rate block keeps two traces.
BLOCK = 2 * round(1 / DEFAULT_SAMPLE_RATE)
#: Pushes are ~30x slower than lookups; short blocks keep each pair inside
#: one phase of the host, and every fourth default-rate block keeps a trace.
PUSH_BLOCK = 8
#: Requests in the fully traced pass exported as the trace artifact.
TRACED_REQUESTS = 8

ORDERS = 50_000
CUSTOMERS = 1_000
PUSH_ROWS = 1_000
PUSH_BASE = 4_000

LOOKUP = "SELECT oid, amount FROM orders WHERE oid = {}"
JOIN = ("SELECT oid, amount, region FROM orders JOIN customers "
        "ON cust_id = cid WHERE oid = {}")


def _tables() -> tuple[Table, Table]:
    rng = np.random.default_rng(5)
    orders = Table.from_dict({
        "oid": list(range(ORDERS)),
        "cust_id": rng.integers(0, CUSTOMERS, ORDERS).tolist(),
        "amount": (rng.integers(-100, 1000, ORDERS) * 0.25).tolist(),
    })
    customers = Table.from_dict({
        "cid": list(range(CUSTOMERS)),
        "region": [f"region-{c % 12}" for c in range(CUSTOMERS)],
    })
    return orders, customers


def _keys(n: int) -> list[int]:
    return np.random.default_rng(11).integers(0, ORDERS, n).tolist()


def _query_case(db: Database, sql: str, blocks: int):
    keys = _keys(blocks * BLOCK)

    def run(block: int) -> None:
        for key in keys[block * BLOCK:(block + 1) * BLOCK]:
            db.query(sql.format(key))

    return run


def _served_case(db: Database, blocks: int, size: int = BLOCK):
    keys = _keys(blocks * size)

    def run(block: int) -> None:
        # A fresh server per block: every key misses the response cache.
        server = Server(workers=0, batch_window=0.0, max_batch=8)
        server.register(SqlBackend(db))
        futures = [server.submit("sql", LOOKUP.format(key))
                   for key in keys[block * size:(block + 1) * size]]
        server.flush()
        server.close()
        assert all(f.result(1.0).ok for f in futures)

    return run


def _push_case(orders: Table, customers: Table):
    # A small base keeps the join trace's periodic compaction (at twice
    # its consolidated size) a few pushes apart, so every block carries
    # its share of it instead of some blocks one ~50 ms spike.
    stream = StreamTable(orders.limit(PUSH_BASE), name="orders")
    users = StreamTable(customers, name="customers")
    (stream.view()
     .filter(lambda t: t.column_array("amount") > 0)
     .join(users, on=[("cust_id", "cid")])
     .group_by(["region"], [("sum", "amount", "total"),
                            ("count", "amount", "n")])
     .materialize("spend_by_region"))
    rng = np.random.default_rng(13)
    fresh = Table.from_dict({
        "oid": list(range(ORDERS, ORDERS + PUSH_ROWS)),
        "cust_id": rng.integers(0, CUSTOMERS, PUSH_ROWS).tolist(),
        "amount": (rng.integers(-100, 1000, PUSH_ROWS) * 0.25).tolist(),
    })
    # Insert then retract the same rows: every push is PUSH_ROWS entries
    # and the view's state does not grow across blocks.
    deltas = [Delta.inserts(fresh), Delta.deletes(fresh)]

    def run(block: int) -> None:
        for i in range(PUSH_BLOCK):
            stream.push(deltas[i % 2])

    return run


def _measure(run, blocks: int) -> dict[str, float]:
    """Per-block timings at rate 0 and at the default rate, interleaved.

    Every block runs once at each rate, back to back and alternating which
    goes first; the overhead is the median of the per-block ratios, so a
    burst of host noise spoils a pair, not the estimate.  Roots decided at
    rate 0 do not advance the sampling stride, so the default-rate blocks
    together keep exactly one root in ``1 / DEFAULT_SAMPLE_RATE``.
    """
    tracer = obs.get_tracer()
    run(0)  # warmup: key indexes, plan-cache templates, view traces
    obs.reset()
    times: dict[float, list[float]] = {0.0: [], DEFAULT_SAMPLE_RATE: []}
    ratios = []
    for repeat in range(REPEATS):
        for block in range(blocks):
            order = (0.0, DEFAULT_SAMPLE_RATE)
            for rate in order if (repeat + block) % 2 == 0 else order[::-1]:
                tracer.sample_rate = rate
                start = time.perf_counter()
                run(block)
                times[rate].append(time.perf_counter() - start)
            ratios.append(times[DEFAULT_SAMPLE_RATE][-1] / times[0.0][-1])
    return {
        "off_block_seconds": float(np.median(times[0.0])),
        "default_block_seconds": float(np.median(times[DEFAULT_SAMPLE_RATE])),
        "overhead_fraction": float(np.median(ratios)) - 1.0,
        "pairs": len(ratios),
    }


def test_ext_obs_overhead_and_trace_export(benchmark):
    requests = int(os.environ.get("REPRO_OBS_BENCH_REQUESTS", "960"))
    blocks = max(requests // BLOCK, 1)
    orders, customers = _tables()
    db = Database({"orders": orders, "customers": customers})
    #: name -> (run one block, operations per block, blocks per pass)
    cases = {
        "point": (_query_case(db, LOOKUP, blocks), BLOCK, blocks),
        "join": (_query_case(db, JOIN, blocks), BLOCK, blocks),
        "ivm_push": (_push_case(orders, customers), PUSH_BLOCK, blocks),
        "served": (_served_case(db, blocks), BLOCK, blocks),
    }
    tracer = obs.get_tracer()

    def experiment():
        results = {name: _measure(run, n)
                   for name, (run, _, n) in cases.items()}
        # Leave one fully traced served pass for the exported artifact (the
        # obs_run_report fixture restores the rate afterwards).
        obs.reset()
        tracer.sample_rate = 1.0
        _served_case(db, 1, TRACED_REQUESTS)(0)
        return results

    results = run_once(benchmark, experiment)
    per_case = {}
    for name, result in results.items():
        ops = cases[name][1]
        per_case[name] = {
            "ops_per_block": ops,
            "off_us_per_op": result["off_block_seconds"] / ops * 1e6,
            "default_us_per_op": result["default_block_seconds"] / ops * 1e6,
            **result,
        }
    overhead = max(c["overhead_fraction"] for c in per_case.values())

    roots = tracer.roots()
    req_roots = [r for r in roots if r.name == "serving.request"]
    assert len(req_roots) == TRACED_REQUESTS
    spans_per_request = sum(
        1 + r.total_descendants() for r in req_roots
    ) / len(req_roots)
    # Every request produced one complete tree across the serving stages.
    for root in req_roots:
        names = {s.name for s in root.walk()}
        assert {"serving.admission", "serving.queue", "serving.batch",
                "serving.backend", "sql.query"} <= names, names
    trace_path = REPO_ROOT / "BENCH_obs_trace.json"
    obs.save_chrome_trace(trace_path, roots, process_name="ext-obs")

    from repro.evaluation import ResultTable

    table = ResultTable(
        f"EXT-OBS: span overhead at sample rate {DEFAULT_SAMPLE_RATE:g} vs "
        f"0 (median over interleaved block pairs, {REPEATS} passes)",
        ["case", "rate 0 (us/op)", "default (us/op)", "overhead"],
    )
    for name, c in per_case.items():
        table.add(name, f"{c['off_us_per_op']:.1f}",
                  f"{c['default_us_per_op']:.1f}",
                  f"{c['overhead_fraction']:+.2%}")
    table.add("max", "", "", f"{overhead:+.2%}")
    table.add("limit", "", "", f"{OVERHEAD_LIMIT:.0%}")
    table.add("spans per traced request", "", "", f"{spans_per_request:.1f}")
    table.show()

    bench_artifact("obs", {
        "requests": requests,
        "blocks": blocks,
        "repeats": REPEATS,
        "sample_rate": DEFAULT_SAMPLE_RATE,
        "cases": per_case,
        "overhead_fraction": overhead,
        "overhead_limit": OVERHEAD_LIMIT,
        "spans_per_request": spans_per_request,
        "trace_artifact": trace_path.name,
    })

    # The gate: default-rate spans cost < 5% on every hot path.
    for name, c in per_case.items():
        assert c["overhead_fraction"] < OVERHEAD_LIMIT, (
            f"{name}: span overhead {c['overhead_fraction']:+.2%} >= "
            f"{OVERHEAD_LIMIT:.0%}"
        )
