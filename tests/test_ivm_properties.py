"""Randomized incremental == batch equivalence for repro.ivm.

The batch kernels on Table are the semantics.  Each property run drives a
seeded stream of delta batches — inserts (including duplicates), deletes,
re-inserts of previously deleted rows, null keys, empty deltas — through
materialized views of every incremental operator, asserting after each
batch that the maintained result equals recomputing the same query from
the stream snapshot with the batch kernels.

Float note: values are drawn from a dyadic grid (multiples of 0.25, small
magnitudes), where float addition is exact in any order — so sum/avg
equivalence is exact equality, not approximate (docs/ivm.md).

The chaos cases arm the seeded FaultInjector at the ``ivm.push`` point
and assert the documented atomicity: a failed push leaves the stream and
every registered view exactly as they were.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import obs
from repro.errors import FaultInjectionError
from repro.ivm import PUSH_POINT, StreamTable
from repro.resilience import FaultInjector, set_injector
from repro.table import Table

FACT_SCHEMA = [("k", "int"), ("cat", "str"), ("v", "float")]
DIM_SCHEMA = [("k", "int"), ("label", "str")]

AGGS = [
    ("count", "v", "n"), ("sum", "v", "total"),
    ("min", "v", "lo"), ("max", "v", "hi"), ("avg", "v", "mean"),
]


def bag(table: Table) -> Counter:
    return Counter(table.rows())


def random_fact_row(rng: random.Random) -> tuple:
    k = rng.choice([None, 0, 1, 2, 3, 4])
    cat = rng.choice([None, "a", "b", "c"])
    v = rng.choice([None, *(i * 0.25 for i in range(-32, 33))])
    return (k, cat, v)


def random_dim_row(rng: random.Random) -> tuple:
    return (rng.choice([None, 0, 1, 2, 3, 4]),
            rng.choice(["x", "y", "z"]))


def mutate(rng: random.Random, stream: StreamTable, state: Counter,
           make_row) -> None:
    """One random delta batch: insert / delete / re-insert / empty."""
    op = rng.random()
    if op < 0.15 and state:
        # delete a random sub-multiset of live rows
        rows = list(state.elements())
        batch = rng.sample(rows, k=rng.randint(1, min(4, len(rows))))
        stream.delete_rows(batch)
        state.subtract(batch)
        state += Counter()  # drop zeros
    elif op < 0.25:
        stream.insert_rows([])  # empty delta: must be a clean no-op
    else:
        batch = [make_row(rng) for _ in range(rng.randint(1, 6))]
        if state and rng.random() < 0.5:
            batch.append(rng.choice(list(state)))  # duplicate a live row
        stream.insert_rows(batch)
        state.update(batch)


def positive_mask(table: Table):
    return table.column_array("v") > 0


class TestIncrementalEqualsBatch:
    """One seeded run per operator; 3 seeds x ~40 batches each."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_filter(self, seed):
        rng = random.Random(seed)
        stream = StreamTable(FACT_SCHEMA, name="facts")
        view = stream.view().filter(positive_mask).materialize("f")
        state: Counter = Counter()
        for _ in range(40):
            mutate(rng, stream, state, random_fact_row)
            snap = stream.snapshot()
            assert bag(view.table()) == bag(snap.filter(positive_mask(snap)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_join(self, seed):
        rng = random.Random(seed)
        facts = StreamTable(FACT_SCHEMA, name="facts")
        dims = StreamTable(DIM_SCHEMA, name="dims")
        view = facts.view().join(dims, on="k").materialize("j")
        fstate: Counter = Counter()
        dstate: Counter = Counter()
        for _ in range(40):
            if rng.random() < 0.5:
                mutate(rng, facts, fstate, random_fact_row)
            else:
                mutate(rng, dims, dstate, random_dim_row)
            batch = facts.snapshot().join(dims.snapshot(), on="k")
            assert bag(view.table()) == bag(batch)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_group_by(self, seed):
        rng = random.Random(seed)
        stream = StreamTable(FACT_SCHEMA, name="facts")
        view = stream.view().group_by(["cat"], AGGS).materialize("g")
        state: Counter = Counter()
        for _ in range(40):
            mutate(rng, stream, state, random_fact_row)
            batch = stream.snapshot().group_by(["cat"], AGGS)
            assert bag(view.table()) == bag(batch)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distinct(self, seed):
        rng = random.Random(seed)
        stream = StreamTable(FACT_SCHEMA, name="facts")
        view = stream.view().project(["k", "cat"]).distinct().materialize("d")
        state: Counter = Counter()
        for _ in range(40):
            mutate(rng, stream, state, random_fact_row)
            batch = stream.snapshot().project(["k", "cat"]).distinct()
            assert bag(view.table()) == bag(batch)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_group_by_bulk_fold_large_batches(self, seed):
        """Batches past the vectorized-fold threshold (64 rows) must agree
        with batch too — covers the numpy bucket path for every aggregate,
        with nulls in keys and values and bulk deletes."""
        rng = random.Random(seed)
        stream = StreamTable(FACT_SCHEMA, name="facts")
        view = stream.view().group_by(["k", "cat"], AGGS).materialize("g")
        state: Counter = Counter()
        for _ in range(6):
            batch = [random_fact_row(rng) for _ in range(200)]
            stream.insert_rows(batch)
            state.update(batch)
            live = list(state.elements())
            dels = rng.sample(live, k=min(150, len(live)))
            stream.delete_rows(dels)
            state.subtract(dels)
            state += Counter()  # drop zeros
            batch_result = stream.snapshot().group_by(["k", "cat"], AGGS)
            assert bag(view.table()) == bag(batch_result)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_composed_filter_join_group_by(self, seed):
        """The tentpole chain, exercising the chain rule end to end."""
        rng = random.Random(seed)
        facts = StreamTable(FACT_SCHEMA, name="facts")
        dims = StreamTable(DIM_SCHEMA, name="dims")
        view = (
            facts.view()
            .filter(positive_mask)
            .join(dims, on="k")
            .group_by(["label"], [("sum", "v", "total"), ("count", "v", "n")])
            .materialize("chain")
        )
        fstate: Counter = Counter()
        dstate: Counter = Counter()
        for _ in range(50):
            if rng.random() < 0.6:
                mutate(rng, facts, fstate, random_fact_row)
            else:
                mutate(rng, dims, dstate, random_dim_row)
            snap = facts.snapshot()
            batch = (
                snap.filter(positive_mask(snap))
                .join(dims.snapshot(), on="k")
                .group_by(["label"],
                          [("sum", "v", "total"), ("count", "v", "n")])
            )
            assert bag(view.table()) == bag(batch)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sql_view_equals_batch_query(self, seed):
        from repro.sql import Database

        rng = random.Random(seed)
        db = Database()
        facts = db.register_stream("facts", Table.empty(FACT_SCHEMA))
        dims = db.register_stream("dims", Table.empty(DIM_SCHEMA))
        sql = ("SELECT label, COUNT(*) AS n, SUM(v) AS total "
               "FROM facts JOIN dims ON facts.k = dims.k "
               "WHERE v > 0 GROUP BY label")
        view = db.create_view("chain", sql)
        fstate: Counter = Counter()
        dstate: Counter = Counter()
        for _ in range(30):
            if rng.random() < 0.6:
                mutate(rng, facts, fstate, random_fact_row)
            else:
                mutate(rng, dims, dstate, random_dim_row)
            # optimizer=False: the fixed-order batch oracle, not the
            # (view-substituting) plan-based path.
            assert bag(view.table()) == bag(db.query(sql, optimizer=False))


class TestPushAtomicityUnderChaos:
    def _arm(self, rate: float, seed: int = 7) -> FaultInjector:
        injector = FaultInjector(seed=seed)
        injector.configure(PUSH_POINT, rate=rate, mode="raise")
        return injector

    def test_failed_push_mutates_nothing(self):
        stream = StreamTable(FACT_SCHEMA, name="facts")
        stream.insert_rows([(1, "a", 1.0), (2, "b", 2.0)])
        view = stream.view().group_by(["cat"], AGGS).materialize("g")
        before_stream = bag(stream.snapshot())
        before_view = bag(view.table())
        previous = set_injector(self._arm(rate=1.0))
        try:
            with pytest.raises(FaultInjectionError):
                stream.insert_rows([(3, "c", 3.0)])
            with pytest.raises(FaultInjectionError):
                stream.delete_rows([(1, "a", 1.0)])
        finally:
            set_injector(previous)
        assert bag(stream.snapshot()) == before_stream
        assert bag(view.table()) == before_view
        # disarmed: the same delta applies cleanly afterwards
        stream.insert_rows([(3, "c", 3.0)])
        assert bag(view.table()) == bag(stream.snapshot().group_by(["cat"], AGGS))

    def test_mid_stream_faults_preserve_equivalence(self):
        """Inject at 30%: every failed push is dropped whole, so the view
        still equals the batch recompute of whatever actually landed."""
        rng = random.Random(3)
        stream = StreamTable(FACT_SCHEMA, name="facts")
        view = stream.view().group_by(["cat"], AGGS).materialize("g")
        state: Counter = Counter()
        injected = 0
        previous = set_injector(self._arm(rate=0.3, seed=11))
        try:
            for _ in range(60):
                shadow = Counter(state)
                try:
                    mutate(rng, stream, state, random_fact_row)
                except FaultInjectionError:
                    state = shadow  # the batch never landed
                    injected += 1
        finally:
            set_injector(previous)
        assert injected > 0, "chaos run injected nothing; raise the rate"
        assert bag(stream.snapshot()) == Counter(
            {row: n for row, n in state.items() if n > 0}
        )
        batch = stream.snapshot().group_by(["cat"], AGGS)
        assert bag(view.table()) == bag(batch)


# -- min/max extreme cache --------------------------------------------------

EXT_SCHEMA = [("g", "str"), ("f", "float"), ("i", "int")]
EXT_AGGS = [("min", "f", "f_lo"), ("max", "f", "f_hi"),
            ("min", "i", "i_lo"), ("max", "i", "i_hi")]
NAN = float("nan")


def canon(value):
    """Exact identity of a cell: floats by bit pattern, so ``-0.0`` and
    ``0.0`` differ and every NaN is equal to every other."""
    if isinstance(value, float):
        return "nan" if value != value else value.hex()
    return value


def random_ext_row(rng: random.Random, nan: bool) -> tuple:
    # ints in the float column and a bool in the int column take the
    # coercing ingest path; the rest are exact-typed.
    floats = [None, -0.0, 0.0, 1, 1.0, -2.5, 2.5, 3, 7.0, -7]
    if nan:
        floats += [NAN, NAN]
    return (rng.choice("abcd"), rng.choice(floats),
            rng.choice([None, -3, 0, 1, True, 2, 5]))


def nan_wins(pick, values):
    """``pick(values)``, except that a NaN among them wins, as it does in
    the batch kernel's ``np.maximum`` / ``np.minimum`` reduce."""
    nans = [v for v in values if v != v]
    return nans[0] if nans else pick(values)


class ExtremeReference:
    """Per group, net multiplicity per value folded in push order (the
    node's own order), with min/max recomputed from scratch on every
    read — the definition the cached extremes must reproduce exactly."""

    def __init__(self) -> None:
        self.groups: dict = {}

    def push(self, rows: list, weight: int) -> None:
        for g, f, i in Table.from_rows(rows, schema=EXT_SCHEMA).rows():
            state = self.groups.setdefault(g, [0, {}, {}])
            state[0] += weight
            for net, v in ((state[1], f), (state[2], i)):
                if v is None:
                    continue
                new = net.get(v, 0) + weight
                if new:
                    net[v] = new
                else:
                    del net[v]
        for g in [g for g, state in self.groups.items() if state[0] <= 0]:
            del self.groups[g]

    def rows(self) -> dict:
        out = {}
        for g, (_n, fnet, inet) in self.groups.items():
            out[g] = tuple(canon(nan_wins(pick, net) if net else None)
                           for net in (fnet, inet) for pick in (min, max))
        return out


class TestExtremeCache:
    """Cached min/max extremes equal ``min(net)`` / ``max(net)`` exactly
    under retractions, through both fold paths."""

    @staticmethod
    def _live(state: Counter, group=None) -> list:
        """Deletable live rows (a NaN row can never be matched again)."""
        return [row for row in state.elements()
                if row[1] == row[1] and (group is None or row[0] == group)]

    def _check(self, view, stream, reference: ExtremeReference,
               nan: bool) -> None:
        got = {row[0]: tuple(canon(v) for v in row[1:])
               for row in view.table().rows()}
        assert got == reference.rows()
        if not nan:
            batch = stream.snapshot().group_by(["g"], EXT_AGGS)
            assert bag(view.table()) == bag(batch)

    def _targeted(self, rng: random.Random, state: Counter) -> tuple:
        """``(inserts, deletes)`` aimed at one group's extremes."""
        group = rng.choice("abcd")
        live = self._live(state, group)
        op = rng.random()
        if not live or op < 0.2:
            # (re)birth: a fresh group, or more rows for a live one
            return [random_ext_row(rng, False) for _ in range(3)], []
        with_f = [r for r in live if r[1] is not None] or live
        if op < 0.5:
            # retract the current min or max (one copy of it)
            pick = max if rng.random() < 0.5 else min
            return [], [pick(with_f, key=lambda r: r[1] or 0)]
        if op < 0.75:
            # tie: more copies of the current max, then delete one
            top = max(with_f, key=lambda r: r[1] or 0)
            return [top, top], [top]
        # empty the group (it is reborn by a later insert)
        return [], live

    @pytest.mark.parametrize("bulk", [False, True])
    @pytest.mark.parametrize("nan", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_extremes_equal_recomputed_min_max(self, seed, nan, bulk):
        obs.reset()
        rng = random.Random(seed)
        stream = StreamTable(EXT_SCHEMA, name="e")
        view = stream.view().group_by(["g"], EXT_AGGS).materialize("x")
        reference = ExtremeReference()
        state: Counter = Counter()
        pad = 70 if bulk else 0          # past the 64-row bulk threshold
        for _ in range(60):
            inserts, deletes = self._targeted(rng, state)
            inserts = inserts + [random_ext_row(rng, nan)
                                 for _ in range(pad or rng.randint(0, 3))]
            if inserts:
                stream.insert_rows(inserts)
                reference.push(inserts, 1)
                state.update(inserts)
                self._check(view, stream, reference, nan)
            spare = self._live(state - Counter(deletes))
            deletes = deletes + rng.sample(spare, k=min(pad, len(spare)))
            if deletes:
                stream.delete_rows(deletes)
                reference.push(deletes, -1)
                state.subtract(deletes)
                state += Counter()  # drop zeros
                self._check(view, stream, reference, nan)
        rescans = obs.metrics.counter("ivm.group.extreme_rescans").value
        assert rescans > 0, "no extreme was ever retracted"

    def test_nan_order_and_signed_zero(self):
        """The extremes follow ``max``/``min``'s insertion-order fold,
        except that any NaN wins (as in the batch kernel): ``0.0``/``-0.0``
        are one value whose first spelling is the one reported."""
        stream = StreamTable(EXT_SCHEMA, name="e")
        view = stream.view().group_by(["g"], EXT_AGGS).materialize("x")

        def f_lo_hi(group):
            (row,) = [r for r in view.table().rows() if r[0] == group]
            return row[1], row[2]

        stream.insert_rows([("a", 1.0, 0)])
        stream.insert_rows([("a", NAN, 0)])
        stream.insert_rows([("a", 5.0, 0)])
        lo, hi = f_lo_hi("a")                   # ([1.0, nan, 5.0]): NaN wins
        assert lo != lo and hi != hi
        stream.delete_rows([("a", 1.0, 0)])
        lo, hi = f_lo_hi("a")                   # ([nan, 5.0])
        assert lo != lo and hi != hi

        stream.insert_rows([("b", -1.0, 0), ("b", 0.0, 0), ("b", -0.0, 0)])
        assert canon(f_lo_hi("b")[1]) == canon(0.0)
        stream.delete_rows([("b", -0.0, 0)])    # one copy of the tie
        assert canon(f_lo_hi("b")[1]) == canon(0.0)
        stream.delete_rows([("b", 0.0, 0)])     # last copy: rescan
        assert f_lo_hi("b") == (-1.0, -1.0)
        stream.insert_rows([("b", -0.0, 0)])
        assert canon(f_lo_hi("b")[1]) == canon(-0.0)


# -- join traces --------------------------------------------------------------


class TestAppendOnlyTrace:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_pushes_across_compaction(self, seed):
        """Both sides push in random order while the traces compact; the
        view equals the batch join after every push."""
        obs.reset()
        rng = random.Random(seed)
        facts = StreamTable(FACT_SCHEMA, name="facts")
        dims = StreamTable(DIM_SCHEMA, name="dims")
        view = facts.view().join(dims, on="k").materialize("j")
        fstate: Counter = Counter()
        dstate: Counter = Counter()
        for _ in range(80):
            if rng.random() < 0.6:
                mutate(rng, facts, fstate, random_fact_row)
            else:
                mutate(rng, dims, dstate, random_dim_row)
            batch = facts.snapshot().join(dims.snapshot(), on="k")
            assert bag(view.table()) == bag(batch)
        metrics = obs.metrics
        assert metrics.counter("ivm.trace.compactions").value > 0
        assert metrics.counter("ivm.trace.concats").value > 0
