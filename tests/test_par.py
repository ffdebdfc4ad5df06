"""repro.par: ParallelMap determinism, error policy, chaos behavior, and
the shared WorkerPool."""

from __future__ import annotations

import pickle
import threading
import time
from contextlib import contextmanager

import pytest

from repro import obs, resilience
from repro.errors import FaultInjectionError
from repro.par import DEFAULT_CHUNK_SIZE, ParallelMap, WorkerPool
from repro.resilience import FaultInjector, RetryPolicy, get_log, set_injector


@pytest.fixture(autouse=True)
def _reset_state():
    obs.reset()
    resilience.reset()
    yield


@contextmanager
def chaos(points: dict, seed: int = 7, mode: str = "raise"):
    """Arm a scoped injector at {point: rate}; restore the previous one."""
    injector = FaultInjector(seed=seed)
    for name, rate in points.items():
        injector.configure(name, rate=rate, mode=mode)
    previous = set_injector(injector)
    try:
        yield injector
    finally:
        set_injector(previous)


class TestParallelMapBasics:
    def test_empty_items(self):
        assert ParallelMap(workers=4).map(lambda x: x, []) == []

    def test_results_in_input_order(self):
        def slow_for_small(x):
            time.sleep(0.002 if x < 4 else 0.0)
            return x * x

        out = ParallelMap(workers=4, chunk_size=1).map(slow_for_small,
                                                       range(12))
        assert out == [x * x for x in range(12)]

    def test_serial_equals_parallel(self):
        items = list(range(57))
        serial = ParallelMap(workers=0).map(lambda x: x * 3, items)
        pooled = ParallelMap(workers=4).map(lambda x: x * 3, items)
        assert serial == pooled

    def test_chunking_is_worker_independent(self):
        pmap = ParallelMap(workers=0)
        assert pmap._chunks(40) == ParallelMap(workers=8)._chunks(40)
        assert pmap._chunks(0) == []
        assert pmap._chunks(DEFAULT_CHUNK_SIZE + 1)[-1] == (
            DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1
        )

    def test_picklable(self):
        pmap = ParallelMap(workers=4, chunk_size=8, on_error="degrade",
                           fallback=-1, retry=RetryPolicy(max_attempts=2))
        clone = pickle.loads(pickle.dumps(pmap))
        assert clone.workers == 4
        assert clone.chunk_size == 8
        assert clone.on_error == "degrade"
        assert clone.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ParallelMap(workers=-1)
        with pytest.raises(ValueError):
            ParallelMap(chunk_size=0)
        with pytest.raises(ValueError):
            ParallelMap(on_error="explode")


class TestParallelMapErrors:
    def test_raise_mode_surfaces_lowest_index_error(self):
        def boom_on_odd(x):
            if x % 2:
                raise ValueError(f"bad {x}")
            return x

        for workers in (0, 4):
            pmap = ParallelMap(workers=workers, chunk_size=2)
            with pytest.raises(ValueError, match="bad 1"):
                pmap.map(boom_on_odd, range(20))

    def test_degrade_mode_substitutes_fallback_and_records(self):
        def boom_on_multiples_of_5(x):
            if x % 5 == 0:
                raise ValueError(f"bad {x}")
            return x

        pmap = ParallelMap(workers=4, chunk_size=3, on_error="degrade",
                           fallback=-99)
        out = pmap.map(boom_on_multiples_of_5, range(20), name="degrading")
        expected = [-99 if x % 5 == 0 else x for x in range(20)]
        assert out == expected
        events = [e for e in get_log().events() if e.component == "par"]
        assert len(events) == 4
        assert {e.point for e in events} == {
            f"degrading[{i}]" for i in (0, 5, 10, 15)
        }

    def test_retry_recovers_transient_failures(self):
        attempts: dict[int, int] = {}
        lock = threading.Lock()

        def flaky(x):
            with lock:
                attempts[x] = attempts.get(x, 0) + 1
                if attempts[x] == 1:
                    raise FaultInjectionError("first attempt always fails")
            return x

        pmap = ParallelMap(workers=4, chunk_size=2,
                           retry=RetryPolicy(max_attempts=3,
                                             base_delay=0.001))
        assert pmap.map(flaky, range(10)) == list(range(10))
        assert all(count == 2 for count in attempts.values())

    def test_non_transient_errors_are_not_retried(self):
        calls = []

        def boom(x):
            calls.append(x)
            raise KeyError(x)

        pmap = ParallelMap(workers=0,
                           retry=RetryPolicy(max_attempts=5,
                                             base_delay=0.001))
        with pytest.raises(KeyError):
            pmap.map(boom, [1])
        assert calls == [1]


class TestParallelMapChaos:
    def test_chaos_degrades_per_item_and_never_hangs(self):
        """Injected faults under ``on_error="degrade"`` poison individual
        slots, never the map: every call returns, in order, quickly."""
        def work(x):
            resilience.faults.point("par.test")
            return x * 2

        with chaos({"par.test": 0.4}, seed=3):
            pmap = ParallelMap(workers=4, chunk_size=2, on_error="degrade",
                               fallback=None)
            start = time.perf_counter()
            out = pmap.map(work, range(40), name="chaotic")
            elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert len(out) == 40
        degraded = [i for i, v in enumerate(out) if v is None]
        assert degraded, "expected the injector to hit at least one item"
        for i, value in enumerate(out):
            assert value is None or value == i * 2
        events = [e for e in get_log().events() if e.component == "par"]
        assert {e.point for e in events} == {f"chaotic[{i}]" for i in degraded}

    def test_chaos_with_retry_recovers_most_items(self):
        def work(x):
            resilience.faults.point("par.retry")
            return x

        with chaos({"par.retry": 0.3}, seed=5):
            pmap = ParallelMap(workers=2, chunk_size=4, on_error="degrade",
                               fallback=None,
                               retry=RetryPolicy(max_attempts=4,
                                                 base_delay=0.001))
            out = pmap.map(work, range(30))
        recovered = sum(1 for v in out if v is not None)
        # Four attempts at 30% fault rate: the overwhelming majority land.
        assert recovered >= 25


class TestWorkerPool:
    def test_drains_work_and_survives_bad_tasks(self):
        done = []
        lock = threading.Lock()
        work = list(range(10))

        def fetch():
            with lock:
                if not work:
                    return None
                item = work.pop()

            def run():
                if item == 5:
                    raise RuntimeError("bad task")
                done.append(item)

            return run

        pool = WorkerPool("t", 3, fetch).start()
        pool.join(timeout=5.0)
        assert pool.running == 0
        assert sorted(done) == [i for i in range(10) if i != 5]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool("t", 0, lambda: None)

    def test_serving_reexport_is_same_class(self):
        import repro.par.pool
        import repro.serving

        assert repro.serving.WorkerPool is repro.par.pool.WorkerPool
