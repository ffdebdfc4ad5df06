"""Head sampling: each root decides once, by a deterministic stride, and
every descendant inherits the decision across threads and processes.

Pinned here: the stride itself, complete served trees with no stray
roots, ``par.map`` inheritance under both map backends, metrics that do
not depend on the rate, an unsampled path that builds no span and spends
no id, the ``REPRO_OBS_SPANS`` grammar, and the two timings that must not
read 0 when a trace is unsampled (EXPLAIN ANALYZE stages and remote
``par.chunk.seconds``) — plus the orphan count under concurrent finishes.
"""

import re
import sys
import threading

import pytest

from repro import obs
from repro.obs import tracing
from repro.obs.tracing import (
    DEFAULT_SAMPLE_RATE,
    TraceContext,
    Tracer,
    rate_from_env,
)
from repro.par import ParallelMap, ProcessMap
from repro.par.procpool import fork_available
from repro.serving import Server, SqlBackend
from repro.sql import Database
from repro.table import Table

LOOKUP = "SELECT id, name FROM orders WHERE id = {}"
JOIN = ("SELECT id, region FROM orders JOIN customers ON cust = cid "
        "WHERE id = {}")


def _db(rows: int = 128) -> Database:
    orders = Table.from_dict({
        "id": list(range(rows)),
        "name": [f"n{i}" for i in range(rows)],
        "cust": [i % 8 for i in range(rows)],
    })
    customers = Table.from_dict({
        "cid": list(range(8)),
        "region": [f"r{i % 3}" for i in range(8)],
    })
    return Database({"orders": orders, "customers": customers})


@pytest.fixture
def tracer():
    return obs.get_tracer()


class TestStride:
    def test_every_kth_root_is_kept_with_its_children(self, tracer):
        tracer.sample_rate = 0.25
        for i in range(1, 17):
            with obs.span(f"root{i}"):
                with obs.span("child"):
                    pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["root4", "root8", "root12",
                                           "root16"]
        assert all([c.name for c in r.children] == ["child"] for r in roots)

    def test_manual_and_recorded_roots_count_toward_the_stride(self, tracer):
        tracer.sample_rate = 0.5
        first = tracer.start_span("manual1")
        tracer.finish_span(first)
        tracer.record("recorded2", 0.001)
        second = tracer.start_span("manual3")
        tracer.finish_span(second)
        tracer.record("recorded4", 0.001)
        assert [r.name for r in tracer.roots()] == ["recorded2", "recorded4"]

    def test_unsampled_children_never_become_roots(self, tracer):
        tracer.sample_rate = 0.5
        with obs.span("unsampled"):
            with obs.span("would.be.root2"):
                with obs.span("deeper"):
                    pass
            assert tracing.current_context().sampled is False
        with obs.span("sampled"):
            pass
        assert [r.name for r in tracer.roots()] == ["sampled"]

    def test_rate_must_be_a_fraction(self, tracer):
        with pytest.raises(ValueError):
            tracer.sample_rate = 1.5
        with pytest.raises(ValueError):
            tracer.sample_rate = -0.1

    def test_set_enabled_is_rate_one_or_zero(self, tracer):
        obs.set_enabled(False)
        assert tracer.sample_rate == 0.0 and not tracer.enabled
        obs.set_enabled(True)
        assert tracer.sample_rate == 1.0 and tracer.enabled


class TestPropagation:
    def test_unsampled_context_round_trips_through_a_carrier(self, tracer):
        tracer.sample_rate = 0.0
        with obs.span("off") as s:
            carrier = tracing.inject(s.context)
        ctx = tracing.extract(carrier)
        assert ctx is not None and ctx.sampled is False
        tracer.sample_rate = 1.0
        with tracing.activate(ctx):
            with obs.span("remote.child") as child:
                child.set(seen=True)
            assert tracing.current_span() is None
        assert tracer.roots() == []

    def test_sampled_carrier_has_no_mark(self, tracer):
        with obs.span("on") as s:
            carrier = tracing.inject(s.context)
        assert carrier[tracing.TRACEPARENT_KEY] == f"{s.trace_id}-{s.span_id}"
        assert tracing.extract(carrier).sampled is True


def _served(lookups: int, workers: int, sequential: bool) -> list:
    server = Server(workers=workers, batch_window=0.0005, max_batch=8)
    server.register(SqlBackend(_db(lookups)))
    with server:
        if sequential:
            responses = [server.call("sql", LOOKUP.format(i))
                         for i in range(lookups)]
        else:
            futures = [server.submit("sql", LOOKUP.format(i))
                       for i in range(lookups)]
            responses = [f.result(10.0) for f in futures]
    assert all(r.ok and r.value.num_rows == 1 for r in responses)
    return responses


class TestServing:
    def test_retained_roots_are_complete_request_trees(self, tracer):
        tracer.sample_rate = 0.25
        _served(64, workers=2, sequential=True)
        roots = tracer.roots()
        assert len(roots) == 16
        for root in roots:
            assert root.name == "serving.request"
            names = {s.name for s in root.walk()}
            assert {"serving.cache", "serving.admission", "serving.queue",
                    "serving.batch", "serving.backend",
                    "sql.query"} <= names, names
            assert {s.trace_id for s in root.walk()} == {root.trace_id}
        assert tracer.orphans == 0

    def test_concurrent_batches_leave_no_stray_roots(self, tracer):
        tracer.sample_rate = 0.25
        _served(64, workers=2, sequential=False)
        roots = tracer.roots()
        assert len(roots) == 16
        assert {r.name for r in roots} == {"serving.request"}
        for root in roots:
            names = {s.name for s in root.walk()}
            assert {"serving.admission", "serving.queue"} <= names
            if "serving.batch" in names:
                assert {"serving.backend", "sql.query"} <= names
        assert tracer.orphans == 0


class TestParMapInheritance:
    def test_thread_chunks_follow_the_map_decision(self, tracer):
        tracer.sample_rate = 0.25
        pmap = ParallelMap(workers=2, chunk_size=4)
        for _ in range(8):
            assert pmap.map(lambda x: x * 2, range(16)) == \
                [x * 2 for x in range(16)]
        roots = tracer.roots()
        assert [r.name for r in roots] == ["par.map", "par.map"]
        for root in roots:
            chunks = [s for s in root.walk() if s.name == "par.chunk"]
            assert len(chunks) == 4
        assert tracer.orphans == 0
        assert obs.get_registry().histogram("par.chunk.seconds").count == 32

    @pytest.mark.skipif(not fork_available(),
                        reason="process backend requires fork")
    def test_process_chunks_follow_the_map_decision(self, tracer):
        tracer.sample_rate = 0.5
        pmap = ProcessMap(workers=2, chunk_size=2)
        for _ in range(2):
            assert pmap.map(lambda x: x + 1, range(4)) == [1, 2, 3, 4]
        (root,) = tracer.roots()
        assert root.name == "par.map"
        chunks = [s for s in root.walk() if s.name == "par.chunk"]
        assert len(chunks) == 2
        assert all(c.attributes["remote"] is True for c in chunks)
        assert tracer.orphans == 0

    @pytest.mark.skipif(not fork_available(),
                        reason="process backend requires fork")
    def test_remote_chunk_seconds_are_timed_at_rate_zero(self, tracer):
        tracer.sample_rate = 0.0

        def work(x):
            return sum(range(20000 + x))

        ProcessMap(workers=2, chunk_size=2).map(work, range(8))
        hist = obs.get_registry().histogram("par.chunk.seconds")
        assert hist.count == 4
        assert hist.total > 0.0
        assert tracer.roots() == []


def _metric_counts() -> dict:
    """Counter values and histogram observation counts: what a workload
    did, independent of how long it took."""
    out = {}
    for name, summary in obs.get_registry().snapshot().items():
        if summary["kind"] == "counter":
            out[name] = summary["value"]
        elif summary["kind"] == "histogram" and name.endswith("seconds"):
            out[name] = summary["count"]
    return out


def _workload() -> None:
    db = _db()
    for i in range(20):
        db.query(LOOKUP.format(i))
        db.query(JOIN.format(i))
    server = Server(workers=0, batch_window=0.0, max_batch=4)
    server.register(SqlBackend(db))
    futures = [server.submit("sql", LOOKUP.format(i % 12)) for i in range(24)]
    server.flush()
    server.close()
    assert all(f.result(1.0).ok for f in futures)
    ParallelMap(workers=0, chunk_size=4).map(lambda x: x, range(12))


class TestMetricsAlwaysOn:
    def test_counts_do_not_depend_on_the_rate(self, tracer):
        tracer.sample_rate = 0.0
        _workload()
        off = _metric_counts()
        obs.reset()
        tracer.sample_rate = 1.0
        _workload()
        on = _metric_counts()
        assert off == on
        assert off["sql.plan_cache.hit"] > 0
        assert off["table.lookup.seconds"] > 0


class TestUnsampledCost:
    def test_rate_zero_builds_no_span_and_spends_no_id(self, tracer,
                                                       monkeypatch):
        tracer.sample_rate = 0.0
        built = []
        init = tracing.Span.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs.get("name"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(tracing.Span, "__init__", counting_init)
        ids_before = repr(tracing._IDS)
        _served(100, workers=2, sequential=False)
        assert built == []
        assert repr(tracing._IDS) == ids_before
        assert tracer.roots() == [] and tracer._index == {}

    def test_unsampled_span_is_the_shared_noop(self, tracer):
        tracer.sample_rate = 0.0
        assert obs.span("a") is obs.span("b")
        assert tracing.activate(None) is tracing.activate(None)
        with obs.span("a") as s:
            assert s.set(x=1) is s
            assert s.context.sampled is False


class TestEnvironment:
    @pytest.mark.parametrize("value, rate", [
        (None, DEFAULT_SAMPLE_RATE), ("", DEFAULT_SAMPLE_RATE),
        ("0", 0.0), ("off", 0.0), ("OFF", 0.0),
        ("1", 1.0), ("on", 1.0), (" On ", 1.0),
        ("0.25", 0.25), ("0.0625", 0.0625),
    ])
    def test_accepted_values(self, value, rate):
        assert rate_from_env(value) == rate

    @pytest.mark.parametrize("value", [
        "yes", "true", "2", "-0.5", "1.5", "nan", "inf", "1/16", "0x1",
    ])
    def test_rejected_values(self, value):
        with pytest.raises(ValueError, match="REPRO_OBS_SPANS"):
            rate_from_env(value)

    def test_a_new_tracer_reads_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_SPANS", "0.5")
        assert Tracer().sample_rate == 0.5
        monkeypatch.setenv("REPRO_OBS_SPANS", "off")
        assert not Tracer().enabled
        monkeypatch.delenv("REPRO_OBS_SPANS")
        assert Tracer().sample_rate == DEFAULT_SAMPLE_RATE
        monkeypatch.setenv("REPRO_OBS_SPANS", "sometimes")
        with pytest.raises(ValueError):
            Tracer()


class TestExplainAnalyze:
    @pytest.mark.parametrize("rate", [0.0, DEFAULT_SAMPLE_RATE])
    def test_every_stage_is_timed_whatever_the_rate(self, tracer, rate):
        tracer.sample_rate = rate
        db = _db()
        sql = ("SELECT region, COUNT(*) AS n FROM orders JOIN customers "
               "ON cust = cid WHERE id < 100 GROUP BY region "
               "ORDER BY n DESC LIMIT 2")
        for _ in range(4):
            text = db.explain(sql, analyze=True)
            stages = [line for line in text.splitlines()
                      if line.lstrip().startswith("-> ")
                      and "time=" in line]
            assert len(stages) >= 5, text
            for line in stages:
                (ms,) = re.findall(r"time=([0-9.]+)ms", line)
                assert float(ms) > 0.0, line


class TestOrphanCount:
    def test_concurrent_orphans_are_all_counted(self, tracer):
        """Every finish under a missing remote parent counts once, however
        the finishing threads interleave."""
        gone = TraceContext("evicted-trace", "evicted-span")
        threads, per_thread = 8, 250

        def finish_late_children():
            for _ in range(per_thread):
                tracer.record("late.child", 0.0, parent=gone)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=finish_late_children)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert tracer.orphans == threads * per_thread
