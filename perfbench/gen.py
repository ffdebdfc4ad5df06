"""Seeded input generation for the three workloads.

Everything the library under test receives is made here from the workload
seed, as plain numpy arrays and SQL strings; building library objects from
them is set-up work and lives with each workload.  Amounts sit on a dyadic
grid (multiples of 0.25, far below 2**53), so SUM and AVG are exact in any
summation order and the oracle can compare them with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REGIONS = [f"r{i}" for i in range(8)]
SEGMENTS = ["consumer", "corporate", "smb", "public"]
STATUSES = ["placed", "shipped", "delivered", "returned"]
CATEGORIES = [f"c{i:02d}" for i in range(20)]

ORDER_FIELDS = [("oid", "int"), ("cust_id", "int"), ("prod_id", "int"),
                ("amount", "float"), ("qty", "int"), ("status", "str"),
                ("day", "int")]
CUSTOMER_FIELDS = [("cid", "int"), ("region", "str"), ("segment", "str")]
PRODUCT_FIELDS = [("pid", "int"), ("category", "str"), ("price", "float")]


@dataclass(frozen=True)
class Sizes:
    """Row counts of one workload instance; ``scale`` shrinks them for
    smoke runs."""

    orders: int = 100_000
    customers: int = 10_000
    products: int = 2_000
    etl_rows: int = 40_000
    spill_rows: int = 200_000
    spill_shards: int = 8

    @classmethod
    def scaled(cls, scale: float) -> "Sizes":
        base = cls()
        return cls(orders=max(200, int(base.orders * scale)),
                   customers=max(40, int(base.customers * scale)),
                   products=max(20, int(base.products * scale)),
                   etl_rows=max(400, int(base.etl_rows * scale)),
                   spill_rows=max(800, int(base.spill_rows * scale)))


class Columns(dict):
    """Column name -> (values, null mask); ``fields`` keeps schema order."""

    def __init__(self, fields, data):
        super().__init__(data)
        self.fields = list(fields)

    def rows(self, lo: int = 0, hi: int | None = None) -> list[tuple]:
        """Python row tuples with ``None`` for nulls (the oracle's view)."""
        cols = []
        for name, _ in self.fields:
            values, mask = self[name]
            out = values[lo:hi].tolist()
            for i in np.flatnonzero(mask[lo:hi]).tolist():
                out[i] = None
            cols.append(out)
        return list(zip(*cols))


def _pick(rng, options, n):
    return np.array(options, dtype=object)[rng.integers(0, len(options), n)]


def _nullable(values, mask):
    """Values with the table layer's sentinel in NULL slots."""
    values = values.copy()
    values[mask] = np.nan if values.dtype.kind == "f" else 0
    return values, mask


def orders(rng, n: int, n_customers: int, n_products: int,
           first_oid: int = 1) -> Columns:
    """``n`` orders with unique ``oid``s; ~2% of ``qty`` is NULL."""
    none = np.zeros(n, dtype=bool)
    return Columns(ORDER_FIELDS, {
        "oid": (np.arange(first_oid, first_oid + n, dtype=np.int64), none),
        "cust_id": (rng.integers(1, n_customers + 1, n).astype(np.int64),
                    none),
        "prod_id": (rng.integers(1, n_products + 1, n).astype(np.int64),
                    none),
        "amount": (rng.integers(1, 4001, n) * 0.25, none),
        "qty": _nullable(rng.integers(1, 21, n).astype(np.int64),
                         rng.random(n) < 0.02),
        "status": (_pick(rng, STATUSES, n), none),
        "day": (rng.integers(0, 365, n).astype(np.int64), none),
    })


def customers(rng, n: int) -> Columns:
    none = np.zeros(n, dtype=bool)
    return Columns(CUSTOMER_FIELDS, {
        "cid": (np.arange(1, n + 1, dtype=np.int64), none),
        "region": (_pick(rng, REGIONS, n), none),
        "segment": (_pick(rng, SEGMENTS, n), none),
    })


def products(rng, n: int) -> Columns:
    none = np.zeros(n, dtype=bool)
    return Columns(PRODUCT_FIELDS, {
        "pid": (np.arange(1, n + 1, dtype=np.int64), none),
        "category": (_pick(rng, CATEGORIES, n), none),
        "price": (rng.integers(4, 2000, n) * 0.25, none),
    })


def etl_orders(rng, n: int, n_customers: int) -> Columns:
    """The append-only ETL source: ~1% non-positive and ~0.5% NULL
    amounts, ~0.5% NULL customers, so both drop expectations fire."""
    cols = orders(rng, n, n_customers, 1)
    amount, _ = cols["amount"]
    bad = rng.random(n) < 0.01
    amount = np.where(bad, -amount, amount)
    cols["amount"] = _nullable(amount, rng.random(n) < 0.005)
    cust, _ = cols["cust_id"]
    cols["cust_id"] = _nullable(cust, rng.random(n) < 0.005)
    del cols["prod_id"]
    cols.fields = [f for f in cols.fields if f[0] != "prod_id"]
    return cols


def changed_customers(rng, base: Columns, share: float = 0.05) -> Columns:
    """A dimension update: ``share`` of the customers move region."""
    region, mask = base["region"]
    moved = rng.random(len(region)) < share
    region = np.where(moved, _pick(rng, REGIONS, len(region)), region)
    out = Columns(base.fields, dict(base))
    out["region"] = (region, mask)
    return out


# -- request streams -----------------------------------------------------------


def point_requests(seed: int, n_orders: int):
    """Endless seeded stream of ``(template, sql)`` primary-key lookups:
    uniform keys over all orders, 30% of them joined to ``customers``."""
    rng = np.random.default_rng([seed, 1])
    while True:
        keys = rng.integers(1, n_orders + 1, 4096).tolist()
        joined = (rng.random(4096) < 0.3).tolist()
        for key, join in zip(keys, joined):
            if join:
                yield "lookup_join", (
                    f"SELECT oid, amount, status, region, segment FROM orders "
                    f"JOIN customers ON cust_id = cid WHERE oid = {key}")
            else:
                yield "lookup", (
                    f"SELECT oid, cust_id, prod_id, amount, qty, status, day "
                    f"FROM orders WHERE oid = {key}")


def _static_templates() -> list[tuple[str, str]]:
    """The dashboard's parameter combinations over static tables."""
    out = []
    for cat in CATEGORIES:
        for start in range(0, 360, 30):
            out.append(("region_revenue", (
                f"SELECT region, COUNT(*) AS n, SUM(amount) AS revenue, "
                f"AVG(amount) AS avg_amount FROM orders "
                f"JOIN customers ON cust_id = cid "
                f"JOIN products ON prod_id = pid "
                f"WHERE category = '{cat}' AND day BETWEEN {start} "
                f"AND {start + 29} GROUP BY region ORDER BY region")))
    for status in STATUSES:
        for day in range(0, 350, 14):
            out.append(("top_customers", (
                f"SELECT cust_id, SUM(amount) AS total FROM orders "
                f"WHERE status = '{status}' AND day >= {day} "
                f"GROUP BY cust_id ORDER BY total DESC LIMIT 10")))
    for start in range(0, 360, 6):
        out.append(("top_categories", (
            f"SELECT category, SUM(qty) AS units, MAX(amount) AS biggest "
            f"FROM orders JOIN products ON prod_id = pid "
            f"WHERE day BETWEEN {start} AND {start + 44} AND qty > 2 "
            f"GROUP BY category ORDER BY units DESC LIMIT 5")))
    return out


STATIC_TEMPLATES = _static_templates()

#: The dashboard's maintained view over the two streams.
VIEW_SQL = ("SELECT region, segment, COUNT(*) AS n, SUM(amount) AS total, "
            "MAX(amount) AS top FROM live_orders "
            "JOIN live_customers ON cust_id = cid "
            "WHERE status <> 'returned' GROUP BY region, segment")

#: Request shares of the dashboard mix.  View reads outnumber cache hits,
#: so the median read is a view read (milliseconds), not a cache hit whose
#: ~50 µs latency swings with host load.
WRITE_SHARE = 0.10
VIEW_SHARE = 0.5
SHARD_SHARE = 0.035
#: Rows inserted and rows deleted by one dashboard write.
WRITE_ROWS = 500


def dashboard_requests(seed: int):
    """Endless seeded stream of ``(kind, template, sql)``; writes carry
    ``sql=None`` and are generated by :class:`LiveOrders`."""
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(len(STATIC_TEMPLATES))
    weights = 1.0 / np.arange(1, len(order) + 1) ** 1.1
    weights /= weights.sum()
    while True:
        kinds = rng.random(4096)
        ranks = rng.choice(len(order), 4096, p=weights)
        regions = rng.integers(0, len(REGIONS), 4096)
        tops = rng.random(4096) < 0.5
        d0 = rng.integers(0, 300, 4096)
        widths = rng.integers(10, 60, 4096)
        for i in range(4096):
            u = kinds[i]
            if u < WRITE_SHARE:
                yield "write", "churn", None
            elif u < WRITE_SHARE + VIEW_SHARE:
                region = REGIONS[regions[i]]
                if tops[i]:
                    yield "view", "view_top", (
                        f"SELECT segment, n, total, top FROM live_by_seg "
                        f"WHERE region = '{region}' ORDER BY total DESC "
                        f"LIMIT 2")
                else:
                    yield "view", "view_region", (
                        f"SELECT segment, n, total, top FROM live_by_seg "
                        f"WHERE region = '{region}' ORDER BY segment")
            elif u < WRITE_SHARE + VIEW_SHARE + SHARD_SHARE:
                yield "shard", "shard_top", (
                    f"SELECT cust_id, COUNT(oid) AS n, SUM(amount) AS total "
                    f"FROM orders_p WHERE day BETWEEN {d0[i]} "
                    f"AND {d0[i] + widths[i]} GROUP BY cust_id "
                    f"ORDER BY total DESC LIMIT 10")
            else:
                template, sql = STATIC_TEMPLATES[order[ranks[i]]]
                yield "static", template, sql


class LiveOrders:
    """The seeded write stream over ``live_orders``: each write deletes
    ``WRITE_ROWS`` random live rows and inserts as many new ones, so the
    stream keeps its size.  Replaying it from the same seed and start rows
    yields the same deltas, which is how the oracle follows the versions."""

    def __init__(self, seed: int, start: Columns, n_customers: int,
                 n_products: int):
        self.rng = np.random.default_rng([seed, 3])
        self.cols = {name: values.copy() for name, (values, _) in start.items()}
        self.masks = {name: mask.copy() for name, (_, mask) in start.items()}
        self.fields = start.fields
        self.next_oid = int(self.cols["oid"].max()) + 1
        self.n_customers = n_customers
        self.n_products = n_products

    def _rows(self, idx) -> list[tuple]:
        cols = []
        for name, _ in self.fields:
            out = self.cols[name][idx].tolist()
            for i in np.flatnonzero(self.masks[name][idx]).tolist():
                out[i] = None
            cols.append(out)
        return list(zip(*cols))

    def next_write(self) -> tuple[list[tuple], list[tuple]]:
        """``(inserts, deletes)`` of the next write."""
        n = WRITE_ROWS
        idx = self.rng.choice(len(self.cols["oid"]), n, replace=False)
        deletes = self._rows(idx)
        fresh = orders(self.rng, n, self.n_customers, self.n_products,
                       first_oid=self.next_oid)
        self.next_oid += n
        for name, (values, mask) in fresh.items():
            self.cols[name][idx] = values
            self.masks[name][idx] = mask
        return self._rows(idx), deletes
