"""The two served workloads, ``point`` and ``dashboard``.

Both drive one :class:`repro.serving.Server` (one worker, library
defaults otherwise) in a closed loop from a single driver thread that
sends bursts of four requests.  No serving backend runs SQL yet, so SQL
reaches the server through :class:`SqlAdapter`, a benchmark-side
``Backend`` whose ``run_batch`` calls ``Database.query``; dashboard writes
go through :class:`PushAdapter` on the same server.  One worker serializes
pushes and view reads, which ``repro.ivm`` requires (it has no locks).
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
from repro.serving import Backend

from perfbench import gen
from perfbench.common import build_table, pct
from perfbench.oracle import Oracle, table_rows
from perfbench.trace import (Patches, Span, layer_self, self_times, shares,
                             trees)

INFLIGHT = 4
#: A request unresolved this long aborts the run (``ServingError``).
STALL_SECONDS = 60.0


class Versions:
    """The push adapter's counter: how many writes the stream has seen."""

    def __init__(self):
        self.value = 0


class Payload:
    __slots__ = ("rid", "sql", "key", "rows")

    def __init__(self, rid, sql=None, key=None, rows=None):
        self.rid = rid
        self.sql = sql
        self.key = key
        self.rows = rows


def _batch(adapter, payloads, one):
    """Run ``one`` per payload; in a traced run each payload's spans hang
    under a ``serving.batch`` span in its own request's tree."""
    tracer = adapter.tracer
    if tracer is None:
        return [one(p) for p in payloads]
    start = time.perf_counter()
    spans = [tracer.open("serving.batch", parent=adapter.roots[p.rid],
                         start=start) for p in payloads]
    out = []
    for payload, span in zip(payloads, spans):
        with tracer.active(span):
            out.append(one(payload))
    end = time.perf_counter()
    for span in spans:
        tracer.close(span, end)
    return out


class SqlAdapter(Backend):
    """Serve SQL text through ``Database.query``; the result is
    ``(data version, table)``.  Cacheable payloads carry their normalized
    SQL as the key; reads of streams and views carry ``None``."""

    name = "sql"

    def __init__(self, db, versions, tracer=None, roots=None):
        self.db = db
        self.versions = versions
        self.tracer = tracer
        self.roots = roots

    def _one(self, payload):
        version = self.versions.value
        return version, self.db.query(payload.sql)

    def run_batch(self, payloads):
        return _batch(self, payloads, self._one)

    def cache_key(self, payload):
        return payload.key


class PushAdapter(Backend):
    """Apply one churn write (inserts, then deletes) to ``live_orders``;
    the result is the data version after it."""

    name = "push"

    def __init__(self, stream, versions, tracer=None, roots=None):
        self.stream = stream
        self.versions = versions
        self.tracer = tracer
        self.roots = roots

    def _one(self, payload):
        inserts, deletes = payload.rows
        payload.rows = None
        self.stream.insert_rows(inserts)
        self.stream.delete_rows(deletes)
        self.versions.value += 1
        return self.versions.value

    def run_batch(self, payloads):
        return _batch(self, payloads, self._one)


def normalize(sql: str) -> str:
    return " ".join(sql.split())


# -- set-up -------------------------------------------------------------------


class Inputs:
    """Everything generated from the seed, before any library object."""

    def __init__(self, workload: str, seed: int, sizes: gen.Sizes):
        rng = np.random.default_rng([seed, 0])
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.orders = gen.orders(rng, sizes.orders, sizes.customers,
                                 sizes.products)
        self.customers = gen.customers(rng, sizes.customers)
        if workload == "dashboard":
            self.products = gen.products(rng, sizes.products)
            self.live = gen.orders(rng, sizes.orders, sizes.customers,
                                   sizes.products, first_oid=10_000_001)


class Env:
    """One set-up instance: database, server and adapters."""

    def __init__(self, db, server, sql, push=None, stream=None):
        self.db = db
        self.server = server
        self.sql = sql
        self.push = push
        self.stream = stream
        self.roots: dict = {}

    def trace_into(self, tracer) -> None:
        for adapter in (self.sql, self.push):
            if adapter is not None:
                adapter.tracer, adapter.roots = tracer, self.roots

    def close(self) -> None:
        self.server.close()
        if self.stream is not None:
            self.db.view("live_by_seg").detach()


def setup(inputs: Inputs):
    """Build the served system from the inputs; returns ``(env, seconds)``
    from the first table constructed to the server ready for traffic."""
    from repro.serving import Server
    from repro.shard import PartitionedTable
    from repro.sql import Database

    start = time.perf_counter()
    orders = build_table(inputs.orders)
    customers = build_table(inputs.customers)
    db = Database({"orders": orders, "customers": customers})
    versions = Versions()
    stream = None
    if inputs.workload == "dashboard":
        db.register("products", build_table(inputs.products))
        db.register("orders_p", PartitionedTable.partition(
            orders, keys=["cust_id"], num_shards=8, build_indexes=True))
        stream = db.register_stream("live_orders", build_table(inputs.live))
        db.register_stream("live_customers", customers)
        db.create_view("live_by_seg", gen.VIEW_SQL)
    for name in ("orders", "customers", "products", "orders_p"):
        if name in db.table_names():
            db.stats_of(name)          # warm the Table.stats memo
    server = Server(workers=1)
    sql = SqlAdapter(db, versions)
    server.register(sql)
    push = None
    if stream is not None:
        push = PushAdapter(stream, versions)
        server.register(push)
    return Env(db, server, sql, push, stream), time.perf_counter() - start


# -- the closed loop -----------------------------------------------------------


class Record:
    __slots__ = ("rid", "kind", "template", "sql", "ordinal", "t0", "t1",
                 "response", "root_id")

    def __init__(self, rid, kind, template, sql, ordinal):
        self.rid = rid
        self.kind = kind
        self.template = template
        self.sql = sql
        self.ordinal = ordinal
        self.t0 = self.t1 = None
        self.response = None
        self.root_id = None

    @property
    def latency(self) -> float:
        return self.t1 - self.t0


def requests(inputs: Inputs):
    """The seeded request stream as ``(kind, template, sql)``."""
    if inputs.workload == "point":
        for template, sql in gen.point_requests(inputs.seed,
                                                inputs.sizes.orders):
            yield "static", template, sql
    else:
        yield from gen.dashboard_requests(inputs.seed)


def _stamping(resolved: dict):
    """A ``ResponseFuture.resolve`` replacement that records each future's
    first resolution time in ``resolved``, on the resolving thread."""

    def make(original):
        def resolve(future, response):
            resolved.setdefault(future, time.perf_counter())
            original(future, response)

        return resolve

    return make


def drive(env: Env, inputs: Inputs, seconds: float, tracer=None):
    """Closed loop for ``seconds``; returns ``(records, wall seconds)``.

    The driver submits a burst of ``INFLIGHT`` requests and waits until all
    of them have resolved before it sends the next burst.  Each request is
    timed from its own submit to its own resolution, stamped by
    ``ResponseFuture.resolve`` itself (wrapped for the run).
    """
    from repro.serving import ResponseFuture

    stream = requests(inputs)
    writes = (gen.LiveOrders(inputs.seed, inputs.live, inputs.sizes.customers,
                             inputs.sizes.products)
              if inputs.workload == "dashboard" else None)
    records: list[Record] = []
    resolved: dict = {}
    n_writes = 0
    start = time.perf_counter()
    deadline = start + seconds
    with Patches() as patches:
        patches.replace(ResponseFuture, "resolve", _stamping(resolved))
        while time.perf_counter() < deadline:
            sent = []
            for _ in range(INFLIGHT):
                kind, template, sql = next(stream)
                rid = len(records) + 1
                if kind == "write":
                    n_writes += 1
                    payload = Payload(rid, rows=writes.next_write())
                    backend = "push"
                else:
                    key = normalize(sql) if kind in ("static", "shard") else None
                    payload = Payload(rid, sql=sql, key=key)
                    backend = "sql"
                rec = Record(rid, kind, template, sql,
                             n_writes if kind == "write" else None)
                records.append(rec)
                root = None
                if tracer is not None:
                    root = tracer.open("request")
                    env.roots[rid] = root
                    rec.root_id = root.id
                rec.t0 = time.perf_counter()
                if root is not None:
                    with tracer.active(root):
                        future = env.server.submit(backend, payload)
                else:
                    future = env.server.submit(backend, payload)
                sent.append((rec, future, root))
            for rec, future, root in sent:
                rec.response = future.result(STALL_SECONDS)
                rec.t1 = resolved.pop(future)
                if root is not None:
                    tracer.close(root, rec.t1)
    last = max((r.t1 for r in records), default=start)
    return records, last - start


# -- checks --------------------------------------------------------------------


def check(inputs: Inputs, records: list[Record]) -> list[str]:
    """Every wrong or failed request, as ``"rid: reason"`` lines."""
    errors = []
    for rec in records:
        if rec.response is None or not rec.response.ok:
            status = rec.response.status if rec.response else "unresolved"
            error = rec.response.error if rec.response else ""
            errors.append(f"{rec.rid}: {status} {error}")
    ok = [r for r in records if r.response is not None and r.response.ok]
    if inputs.workload == "point":
        errors += _check_point(inputs, ok)
    else:
        errors += _check_dashboard(inputs, ok)
    return errors


def _check_point(inputs: Inputs, records) -> list[str]:
    """Lookups against the generator's own rows."""
    orders = inputs.orders.rows()
    customers = {row[0]: row for row in inputs.customers.rows()}
    errors = []
    for rec in records:
        key = int(rec.sql.rsplit("=", 1)[1])
        row = orders[key - 1]
        if rec.template == "lookup":
            want = (["oid", "cust_id", "prod_id", "amount", "qty", "status",
                     "day"], [row])
        else:
            _, region, segment = customers[row[1]]
            want = (["oid", "amount", "status", "region", "segment"],
                    [(row[0], row[3], row[5], region, segment)])
        got = table_rows(rec.response.value[1])
        if got != want:
            errors.append(f"{rec.rid}: {got} != {want}")
    return errors


def _static_oracle(inputs: Inputs) -> Oracle:
    oracle = Oracle()
    oracle.load("orders", gen.ORDER_FIELDS, inputs.orders.rows(),
                index="day")
    oracle.load("customers", gen.CUSTOMER_FIELDS, inputs.customers.rows(),
                key="cid")
    oracle.load("products", gen.PRODUCT_FIELDS, inputs.products.rows(),
                key="pid")
    oracle.execute("CREATE VIEW orders_p AS SELECT * FROM orders")
    return oracle


class ViewOracle:
    """The dashboard view maintained row by row in plain Python from the
    generator's deltas; its state at any version is checked against
    sqlite's answer to the view's own SQL at a few versions."""

    def __init__(self, rows, customers):
        self.customers = {c[0]: (c[1], c[2]) for c in customers}
        self.groups: dict = {}
        for row in rows:
            self.apply(row, 1)

    def apply(self, row, weight: int) -> None:
        _, cust, _, amount, _, status, _ = row
        group = self.customers.get(cust)
        if status == "returned" or group is None:
            return
        state = self.groups.setdefault(group, [0, 0.0, Counter()])
        state[0] += weight
        state[1] += weight * amount
        state[2][amount] += weight
        if state[2][amount] == 0:
            del state[2][amount]
        if state[0] == 0:
            del self.groups[group]

    def rows(self) -> list[tuple]:
        return [(region, segment, n, total, max(amounts))
                for (region, segment), (n, total, amounts)
                in self.groups.items()]


def _check_dashboard(inputs: Inputs, records) -> list[str]:
    errors = []
    oracle = _static_oracle(inputs)
    try:
        for rec in records:
            if rec.kind in ("static", "shard"):
                problem = oracle.check(rec.sql, rec.response.value[1])
                if problem:
                    errors.append(f"{rec.rid} {rec.template}: {problem}")
    finally:
        oracle.close()
    writes = [r for r in records if r.kind == "write"]
    for rec in writes:
        if rec.response.value != rec.ordinal:
            errors.append(f"{rec.rid}: write applied as version "
                          f"{rec.response.value}, expected {rec.ordinal}")
    reads = {}
    for rec in records:
        if rec.kind == "view":
            reads.setdefault(rec.response.value[0], []).append(rec)
    versions = max((rec.ordinal for rec in writes), default=0)
    errors += _check_views(inputs, reads, versions)
    return errors


def _check_views(inputs: Inputs, reads: dict, n_writes: int) -> list[str]:
    """View reads at the version each was served at; the Python view is
    cross-checked against sqlite at the first, middle and last version."""
    errors = []
    live = gen.LiveOrders(inputs.seed, inputs.live, inputs.sizes.customers,
                          inputs.sizes.products)
    view = ViewOracle(inputs.live.rows(), inputs.customers.rows())
    base = Oracle()
    base.load("live_orders", gen.ORDER_FIELDS, inputs.live.rows(),
              key="oid")
    base.load("live_customers", gen.CUSTOMER_FIELDS,
              inputs.customers.rows(), key="cid")
    snap = Oracle()
    fields = [("region", "str"), ("segment", "str"), ("n", "int"),
              ("total", "float"), ("top", "float")]
    samples = {0, n_writes // 2, n_writes}
    try:
        for version in range(n_writes + 1):
            if version:
                inserts, deletes = live.next_write()
                for row in inserts:
                    view.apply(row, 1)
                for row in deletes:
                    view.apply(row, -1)
                base.executemany(
                    "INSERT INTO live_orders VALUES (?, ?, ?, ?, ?, ?, ?)",
                    inserts)
                base.executemany("DELETE FROM live_orders WHERE oid = ?",
                                 [(row[0],) for row in deletes])
            if version in samples:
                if Counter(view.rows()) != Counter(base.answer(gen.VIEW_SQL)[1]):
                    errors.append(f"view oracle disagrees with sqlite at "
                                  f"version {version}")
            if version in reads:
                snap.load("live_by_seg", fields, view.rows())
                for rec in reads[version]:
                    problem = snap.check(rec.sql, rec.response.value[1])
                    if problem:
                        errors.append(f"{rec.rid} {rec.template}@{version}: "
                                      f"{problem}")
    finally:
        base.close()
        snap.close()
    return errors


# -- metrics ---------------------------------------------------------------------


def end_to_end(records, wall: float) -> tuple[dict, dict]:
    """``(metrics, report)`` of an untraced run: read latency percentiles
    over every read of the run, and requests per second of wall.  Taken
    over the whole run they spread less from run to run than medians of
    per-window figures, and p95 less than p99 (p99 is in the report)."""
    reads = [r.latency * 1e3 for r in records if r.kind != "write"]
    writes = [r.latency * 1e3 for r in records if r.kind == "write"]
    metrics = {
        "latency_ms": pct(reads, 50),
        "latency_p95_ms": pct(reads, 95),
        "throughput_qps": len(records) / wall,
    }
    report = {
        "reads": len(reads),
        "writes": len(writes),
        "p99_ms": pct(reads, 99),
        "write_p50_ms": pct(writes, 50),
        "write_p95_ms": pct(writes, 95),
        "wall_s": wall,
    }
    return metrics, report


def traffic(records, cache_capacity: int | None) -> dict:
    """The traffic properties the workload was built to have."""
    seen = set()
    repeats = 0
    kinds = Counter(r.kind for r in records)
    for rec in records:
        if rec.sql is not None:
            repeats += rec.sql in seen
            seen.add(rec.sql)
    n = max(1, len(records))
    return {
        "distinct_sql": len(seen),
        "cache_capacity": cache_capacity,
        "exact_repeat_share": repeats / n,
        "shares": {k: v / n for k, v in sorted(kinds.items())},
        "write_delta_rows": 2 * gen.WRITE_ROWS if kinds["write"] else 0,
    }




def per_layer(tracer, records) -> tuple[dict, dict]:
    """``(metrics, attribution)`` of a traced run; metrics of layers the
    workload does not reach read 0 (see README.md for each metric)."""
    roots = trees(tracer.spans)
    reads, writes = [], []
    for rec in records:
        root = roots.get(rec.root_id)
        if root is None or rec.response is None:
            continue
        batch = next((c for c in root.children if c.name == "serving.batch"),
                     None)
        if batch is not None and rec.response.queue_seconds > 0:
            queue_span = Span(-rec.rid, "serving.queue",
                              batch.start - rec.response.queue_seconds, root)
            queue_span.end = batch.start
            queue_span.children = []
            root.children.append(queue_span)
        (writes if rec.kind == "write" else reads).append(
            (rec, root, layer_self(root), self_times(root)))

    served = [rec for rec, _, _, _ in reads if not rec.response.cache_hit]
    queries = [(selfs, spans) for _, _, selfs, spans in reads
               if any(s.name == "sql.query" for s, _ in spans)]

    def durations(name, trees_):
        return [s.duration for _, _, _, spans in trees_
                for s, _ in spans if s.name == name]

    def summed(spans, names):
        return sum(s.duration for s, _ in spans if s.name in names)

    rows_in = sum(s.attrs.get("rows_in", 0) for _, spans in queries
                  for s, _ in spans if s.attrs)
    rows_out = sum(s.attrs["rows_out"] for _, spans in queries
                   for s, _ in spans if s.name == "sql.query" and s.attrs)
    pushes = [(s.duration, s.attrs["rows"]) for _, _, _, spans in writes
              for s, _ in spans if s.name == "ivm.push"]
    ms = 1e3
    metrics = {
        "serving.self_ms.p50": pct([sf["serving"] * ms
                                    for _, _, sf, _ in reads], 50),
        "serving.queue_ms.p50": pct([r.response.queue_seconds * ms
                                     for r in served], 50),
        "serving.batch_size.mean": (float(np.mean([r.response.batch_size
                                                   for r in served]))
                                    if served else 0.0),
        "serving.cache_hit_ratio": (sum(r.response.cache_hit
                                        for r, _, _, _ in reads)
                                    / max(1, len(reads))),
        "sql.parse_ms.p50": pct([d * ms for d in durations("sql.parse",
                                                           reads)], 50),
        "sql.plan_ms.p50": pct([summed(spans, ("sql.compile", "sql.optimize",
                                               "sql.bind")) * ms
                                for _, spans in queries], 50),
        "sql.self_ms.p50": pct([sf["sql"] * ms for sf, _ in queries], 50),
        "table.self_ms.p50": pct([sf["table"] * ms for sf, _ in queries], 50),
        "table.rows_in_per_row_out": rows_in / max(1, rows_out),
        "table.calls_per_query": (float(np.mean([
            sum(s.layer == "table" for s, _ in spans)
            for _, spans in queries])) if queries else 0.0),
        "shard.self_ms.p99": pct([sf["shard"] * ms for sf, _ in queries], 99),
        "ivm.push_ms.p50": pct([d * ms for d, _ in pushes], 50),
        "ivm.push_ms.p95": pct([d * ms for d, _ in pushes], 95),
        "ivm.delta_rows_per_push": (float(np.mean([n for _, n in pushes]))
                                    if pushes else 0.0),
        "ivm.view_read_ms.p50": pct([d * ms for d in durations(
            "ivm.view_read", reads)], 50),
    }
    return metrics, attribution(
        [(root, selfs) for _, root, selfs, _ in reads],
        [(root, selfs) for _, root, selfs, _ in reads + writes])


def attribution(read_trees, all_trees) -> dict:
    """Where latency goes: ``shares`` for the reads around the median
    read latency (45th-55th percentile), ``busy_shares`` for all requests,
    writes included."""
    if not read_trees:
        return {"band_requests": 0, "unattributed_share": 0.0}
    latencies = np.array([root.duration for root, _ in read_trees])
    lo, hi = np.percentile(latencies, [45, 55])
    band = [(root, selfs) for root, selfs in read_trees
            if lo <= root.duration <= hi]
    band_shares = shares(band)
    return {
        "band_requests": len(band),
        "band_latency_ms": float(np.mean([r.duration for r, _ in band])) * 1e3,
        "shares": band_shares,
        "unattributed_share": band_shares["unattributed"],
        "busy_shares": shares(all_trees),
    }
