"""Chaos property test: random pipeline DAGs killed at random checkpoint
writes must resume to a byte-identical committed state.

The property (ISSUE 7's crash-recovery acceptance): for any DAG shape and
any kill position inside ``dlt.checkpoint.write``,

1. a killed run followed by ``refresh()`` converges to exactly the
   committed state (manifest text and data files) of an uninterrupted run;
2. tables committed clean before the kill are **not** recomputed (asserted
   via per-table run counters);
3. quarantine contents and counts survive the crash/resume cycle.

DAGs, expectation placement, and kill points are all drawn from a seeded
rng, so failures reproduce from the printed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import dlt
from repro.resilience.faults import FaultInjectionError, set_injector
from repro.table import Table


class KillNth:
    """Raise on the n-th hit of one fault point (deterministic kill)."""

    def __init__(self, point: str, nth: int):
        self.point_name = point
        self.nth = nth
        self.calls = 0

    def point(self, name, **kwargs):
        if name != self.point_name:
            return
        self.calls += 1
        if self.calls == self.nth:
            raise FaultInjectionError(f"injected kill #{self.nth} at {name}")


class CountingInjector(KillNth):
    """Count fires without killing (to size the kill-point space)."""

    def __init__(self, point: str):
        super().__init__(point, nth=-1)


def random_source(rng: np.random.Generator, rows: int = 30) -> Table:
    values = rng.integers(-5, 50, size=rows)
    nulls = rng.random(rows) < 0.15
    return Table.from_dict({
        "k": list(range(rows)),
        "v": [None if n else int(v) for v, n in zip(values, nulls)],
    })


def build_random_pipeline(tmp_path, rng_seed: int, counters: dict):
    """A random 4–7 table DAG over one source, with random expectations.

    Table ``t{i}`` reads 1–2 uniformly drawn earlier tables (or the
    source), so every draw is a valid DAG; about half the tables carry a
    drop-expectation so quarantine paths are exercised.
    """
    rng = np.random.default_rng(rng_seed)
    source = random_source(rng)
    num_tables = int(rng.integers(4, 8))
    names = [f"t{i}" for i in range(num_tables)]
    fns = []

    for i, name in enumerate(names):
        upstream = ["src"] + names[:i]
        k = min(len(upstream), int(rng.integers(1, 3)))
        picked = list(rng.choice(upstream, size=k, replace=False))
        layer = ("bronze", "silver", "gold")[min(i, 2) if i < 3
                                             else int(rng.integers(3))]

        def make_fn(table_name, inputs_):
            def fn(*tables):
                counters[table_name] = counters.get(table_name, 0) + 1
                out = tables[0]
                for other in tables[1:]:
                    if other.num_rows < out.num_rows:
                        out = other
                return out
            fn.__name__ = table_name
            return fn

        fn = make_fn(name, picked)
        # Parameter names drive dependency resolution, so rebuild the
        # signature to match the picked upstream tables.
        import inspect
        fn.__signature__ = inspect.Signature([
            inspect.Parameter(p, inspect.Parameter.POSITIONAL_OR_KEYWORD)
            for p in picked
        ])

        decorated = dlt.table(fn, name=name, layer=layer)
        if rng.random() < 0.5:
            decorated = dlt.expect_or_drop(
                f"{name}_v_ok", dlt.col("v") >= 0)(decorated)
        if rng.random() < 0.3:
            decorated = dlt.expect(
                f"{name}_v_known", dlt.col("v").not_null())(decorated)
        fns.append(decorated)

    pipe = dlt.Pipeline(f"chaos{rng_seed}", checkpoint_dir=tmp_path)
    pipe.source("src", source)
    pipe.add(*fns)
    return pipe


def committed_state(root) -> dict[str, bytes]:
    """Every committed file's bytes — manifest and binary data files —
    keyed by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[str(path.relative_to(root))] = path.read_bytes()
    return out


@pytest.mark.parametrize("dag_seed", range(6))
def test_random_dag_random_kill_resumes_identically(dag_seed, tmp_path):
    # Uninterrupted reference run.
    ref_dir = tmp_path / "ref"
    ref_counters: dict[str, int] = {}
    ref_pipe = build_random_pipeline(ref_dir, dag_seed, ref_counters)
    ref_result = ref_pipe.run()
    assert ref_result.ok
    ref_state = committed_state(ref_dir)
    ref_quarantines = {
        name: (q.column("k"), q.column("_reason"))
        for name, q in ref_result.quarantines.items()
    }

    # Count the checkpoint-write fires to know the kill-point space.
    probe_dir = tmp_path / "probe"
    probe = CountingInjector(dlt.CHECKPOINT_WRITE_POINT)
    previous = set_injector(probe)
    try:
        build_random_pipeline(probe_dir, dag_seed, {}).run()
    finally:
        set_injector(previous)
    assert probe.calls >= 3

    # Kill at three rng-drawn positions (first, last, and one in between,
    # rng-chosen so different DAG seeds cover different stages).
    rng = np.random.default_rng(1000 + dag_seed)
    kill_points = {1, probe.calls, int(rng.integers(1, probe.calls + 1))}
    for kill_at in sorted(kill_points):
        work = tmp_path / f"kill{kill_at}"
        counters: dict[str, int] = {}
        pipe = build_random_pipeline(work, dag_seed, counters)
        previous = set_injector(KillNth(dlt.CHECKPOINT_WRITE_POINT, kill_at))
        try:
            with pytest.raises(FaultInjectionError):
                pipe.run()
        finally:
            set_injector(previous)
        counters_at_kill = dict(counters)

        resumed = build_random_pipeline(work, dag_seed, counters).run()
        assert resumed.ok, (dag_seed, kill_at)

        # Property 1: byte-identical committed state.
        assert committed_state(work) == ref_state, (dag_seed, kill_at)

        # Property 2: tables committed clean before the kill did not rerun.
        order = ref_pipe.graph().topo_order()
        committed_before_kill = (kill_at - 1) // 3
        for name in order[:committed_before_kill]:
            assert counters[name] == counters_at_kill[name], \
                (dag_seed, kill_at, name)

        # Property 3: quarantine contents survive crash + resume.
        assert {
            name: (q.column("k"), q.column("_reason"))
            for name, q in resumed.quarantines.items()
        } == ref_quarantines, (dag_seed, kill_at)


def test_kill_during_resume_also_recovers(tmp_path):
    """A second crash during the resume itself still converges."""
    ref_dir = tmp_path / "ref"
    build_random_pipeline(ref_dir, 42, {}).run()
    ref_state = committed_state(ref_dir)

    work = tmp_path / "work"
    counters: dict[str, int] = {}
    # first crash
    previous = set_injector(KillNth(dlt.CHECKPOINT_WRITE_POINT, 2))
    try:
        with pytest.raises(FaultInjectionError):
            build_random_pipeline(work, 42, counters).run()
    finally:
        set_injector(previous)
    # crash again mid-resume
    previous = set_injector(KillNth(dlt.CHECKPOINT_WRITE_POINT, 4))
    try:
        with pytest.raises(FaultInjectionError):
            build_random_pipeline(work, 42, counters).run()
    finally:
        set_injector(previous)
    # third attempt runs clean
    result = build_random_pipeline(work, 42, counters).run()
    assert result.ok
    assert committed_state(work) == ref_state


def test_chaos_rate_mode_eventually_completes(tmp_path):
    """Under the seeded process-wide injector (the CI chaos job's setup),
    repeated refreshes make monotone progress and converge."""
    from repro.resilience.faults import FaultInjector

    ref_dir = tmp_path / "ref"
    build_random_pipeline(ref_dir, 7, {}).run()
    ref_state = committed_state(ref_dir)

    work = tmp_path / "work"
    injector = FaultInjector(seed=1234)
    injector.configure(dlt.CHECKPOINT_WRITE_POINT, rate=0.3)
    previous = set_injector(injector)
    completed = False
    try:
        for _attempt in range(30):
            try:
                result = build_random_pipeline(work, 7, {}).run()
            except FaultInjectionError:
                continue
            if result.ok:
                completed = True
                break
    finally:
        set_injector(previous)
    assert completed, "pipeline never completed under 30% checkpoint faults"
    assert committed_state(work) == ref_state
