#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the library at its
defaults.  ``--trace 1`` spends half the time untraced and half with
timing wrappers around each layer's public calls, and reports the
per-layer metrics plus the tracing overhead; it writes every span it
recorded to ``.perfbench_out/`` as JSON lines.  ``--workload all`` runs the
three workloads one after another, each in its own process.  Every output
is checked against an independent oracle outside the timed region.

Human-readable lines start with ``#``; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point", "dashboard", "etl")

END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_qps": "req/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "serving.self_ms.p50": "ms",
    "serving.queue_ms.p50": "ms",
    "serving.batch_size.mean": "requests",
    "serving.cache_hit_ratio": "fraction",
    "sql.parse_ms.p50": "ms",
    "sql.plan_ms.p50": "ms",
    "sql.self_ms.p50": "ms",
    "sql.exact_repeat_share": "fraction",
    "table.self_ms.p50": "ms",
    "table.rows_in_per_row_out": "ratio",
    "table.calls_per_query": "calls",
    "shard.self_ms.p99": "ms",
    "shard.spill_mb_s": "MB/s",
    "shard.load_mb_s": "MB/s",
    "shard.disk_bytes_per_row": "B/row",
    "ivm.push_ms.p50": "ms",
    "ivm.push_ms.p95": "ms",
    "ivm.delta_rows_per_push": "rows",
    "ivm.view_read_ms.p50": "ms",
    "dlt.checkpoint_write_s": "s",
    "dlt.checkpoint_read_s": "s",
    "dlt.checkpoint_bytes_per_row": "B/row",
    "dlt.expectation_s": "s",
    "dlt.transform_s": "s",
    "dlt.self_s": "s",
    "dlt.recompute_ratio": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_share": "fraction",
}


def _library_path() -> bool:
    """Put the checkout's ``src`` on the path; False when it is missing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    """One run; returns the result object plus a ``report`` section."""
    from perfbench import gen

    sizes = gen.Sizes.scaled(scale)
    if workload == "etl":
        result = _run_etl(seed, seconds, trace, sizes)
    else:
        result = _run_served(workload, seed, seconds, trace, sizes)
    tracer = result["report"].pop("tracer", None)
    if tracer is not None:
        from perfbench.common import SPANS_DIR

        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(path)
        result["report"]["spans_file"] = str(path.relative_to(ROOT))
    return result


def _traced(drive):
    from perfbench.trace import Patches, Tracer, install

    tracer = Tracer()
    with Patches(tracer) as patches:
        install(patches)
        out = drive(tracer)
    return tracer, out


def _run_served(workload, seed, seconds, trace, sizes):
    from perfbench import served
    from perfbench.common import (fresh_run_state, pct, peak_rss_mb,
                                  setup_times)

    inputs = served.Inputs(workload, seed, sizes)
    if not trace:
        def build():
            return served.setup(inputs)

        setups = setup_times(build)
        env, _ = build()
        fresh_run_state()
        gc.collect()
        records, wall = served.drive(env, inputs, seconds)
        rss = peak_rss_mb()
        env.close()
        setups += setup_times(build)
        errors = served.check(inputs, records)
        metrics, report = served.end_to_end(records, wall)
        metrics.update(setup_s=statistics.median(setups), peak_rss_mb=rss)
        report["setups"] = len(setups)
        report["traffic"] = served.traffic(records, _cache_capacity())
        return _result(END_TO_END, metrics, len(records), errors, report)

    def phase(tracer=None):
        env, _ = served.setup(inputs)
        fresh_run_state()
        gc.collect()
        if tracer is not None:
            env.trace_into(tracer)
        try:
            return served.drive(env, inputs, seconds / 2, tracer)
        finally:
            env.close()

    plain, _ = phase()
    tracer, (records, _) = _traced(phase)
    errors = served.check(inputs, plain + records)
    metrics, attribution = served.per_layer(tracer, records)

    def p50(recs):
        return pct([r.latency for r in recs if r.kind != "write"], 50)

    metrics["trace.overhead_frac"] = p50(records) / p50(plain) - 1.0
    metrics["trace.unattributed_share"] = attribution["unattributed_share"]
    metrics["sql.exact_repeat_share"] = served.traffic(
        records, None)["exact_repeat_share"]
    return _result(PER_LAYER, metrics, len(plain) + len(records), errors,
                   {"attribution": attribution, "tracer": tracer})


def _cache_capacity():
    """The result cache's default capacity, read from ``Server``'s
    signature (the workloads run the server at its defaults)."""
    import inspect

    from repro.serving import Server

    param = inspect.signature(Server).parameters.get("cache_capacity")
    return None if param is None else param.default


def _run_etl(seed, seconds, trace, sizes):
    from perfbench import etl
    from perfbench.common import fresh_run_state, peak_rss_mb, setup_times

    inputs = etl.Inputs(seed, sizes)
    if not trace:
        def build():
            return etl.setup(inputs)

        setups = setup_times(build)
        env, _ = build()
        fresh_run_state()
        gc.collect()
        steps, _ = etl.drive(env, seconds)
        rss = peak_rss_mb()
        errors = etl.check(inputs, env, steps)
        env.close()
        setups += setup_times(build)
        metrics, report = etl.end_to_end(steps)
        metrics.update(setup_s=statistics.median(setups), peak_rss_mb=rss)
        report["setups"] = len(setups)
        return _result(END_TO_END, metrics, len(steps), errors, report)

    env, _ = etl.setup(inputs)
    fresh_run_state()
    gc.collect()
    plain, _ = etl.drive(env, seconds / 2)
    fresh_run_state()
    tracer, (steps, _) = _traced(lambda t: etl.drive(env, seconds / 2, t))
    errors = etl.check(inputs, env, plain + steps)
    metrics, attribution = etl.per_layer(tracer, steps, env)
    metrics["trace.overhead_frac"] = (etl.cycle_seconds(steps)
                                      / etl.cycle_seconds(plain) - 1.0)
    metrics["trace.unattributed_share"] = attribution["unattributed_share"]
    return _result(PER_LAYER, metrics, len(plain) + len(steps), errors,
                   {"attribution": attribution, "tracer": tracer})


def _result(names: dict, metrics: dict, attempted: int, errors: list,
            report: dict) -> dict:
    from perfbench.common import environment

    values = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
              for name, unit in names.items()}
    report = dict(report, environment=environment(),
                  error_rate=len(errors) / max(1, attempted),
                  errors=errors[:10])
    return {"correct": not errors, "attempted": attempted,
            "failed": len(errors), "metrics": values, "report": report}


def _print(workload: str, result: dict) -> None:
    report = result.pop("report")
    for name, metric in result["metrics"].items():
        print(f"# {workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# {workload} error_rate = {report['error_rate']:.6g} fraction "
          f"({result['failed']} of {result['attempted']})")
    print("# report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _library_path():
        print("perfbench: no library sources at src/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status |= subprocess.run(cmd, check=False).returncode
        return status
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print(args.workload, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
