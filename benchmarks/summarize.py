"""Collect BENCH_*.json artifacts into one summary and gate regressions.

The continuous perf-regression harness has two modes:

- **collect** (default): read every ``BENCH_*.json`` the benches wrote at
  the repo root (shared schema — see ``bench_artifact`` in
  ``benchmarks/conftest.py``), flatten the comparable scalar metrics
  (speedups, throughputs, recovery/hit rates, overhead fractions) into a
  dotted namespace, and write ``BENCH_summary.json`` stamped with each
  artifact's git revision (``revs``; the top-level ``git_rev`` is their
  common revision, or ``"mixed"``) and the environment manifest;
- **compare** (``--compare BASELINE``): check the collected metrics
  against a committed baseline file and **exit nonzero** when any metric
  regresses beyond its tolerance.  Direction is per metric: names
  containing ``overhead`` or ending in ``seconds`` regress upward,
  everything else (speedups, rates, throughputs) regresses downward.

Baseline format (``benchmarks/BENCH_baseline.json``)::

    {
      "schema_version": 1,
      "tolerance": 0.25,              # default relative tolerance
      "metrics": {
        "obs.overhead_fraction": {"max": 0.05},
        "chaos.recovery_rate":   {"min": 0.90},
        "serving.speedup":       {"value": 3.0, "tolerance": 0.5}
      }
    }

``min``/``max`` are absolute bounds; ``value`` is a reference point
checked with the (per-metric or default) relative tolerance in the
metric's regression direction.  Metrics listed in the baseline but absent
from the collected artifacts count as regressions — a silently
disappearing bench must fail the gate.  An artifact flagged
``"smoke": true`` ran at CI size, where full-size floors do not apply, so
its baselined metrics are checked for presence only.

Usage::

    python benchmarks/summarize.py [--out BENCH_summary.json]
    python benchmarks/summarize.py --compare benchmarks/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Summary schema, bumped on breaking changes.
SUMMARY_SCHEMA_VERSION = 1

#: Artifacts that are outputs of this script, never inputs.
_SKIP = {"BENCH_summary.json", "BENCH_baseline.json"}

#: A numeric leaf is "comparable" (lands in the flat metrics namespace)
#: when its key path contains one of these substrings.
_COMPARABLE = ("speedup", "throughput", "rps", "recovery", "overhead",
               "hit_ratio", "seconds")

#: Keys that are configuration, not measurement, even when numeric.
_EXCLUDE = ("floor", "limit", "tolerance")


def _flatten(prefix: str, node: Any, out: dict[str, float]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, out)
        return
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return
    lowered = prefix.lower()
    if any(token in lowered for token in _EXCLUDE):
        return
    if any(token in lowered for token in _COMPARABLE):
        out[prefix] = float(node)


def collect(root: Path = REPO_ROOT) -> dict[str, Any]:
    """Merge every BENCH_*.json artifact into one summary dict."""
    benches: dict[str, Any] = {}
    metrics: dict[str, float] = {}
    revs: dict[str, str] = {}
    environment: dict[str, Any] = {}
    for path in sorted(root.glob("BENCH_*.json")):
        if path.name in _SKIP or path.name.endswith("_trace.json"):
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        name = data.get("bench") or path.stem.replace("BENCH_", "")
        benches[name] = data
        revs[name] = data.get("git_rev", "unknown")
        environment = data.get("environment", environment)
        payload = {
            k: v for k, v in data.items()
            if k not in ("schema_version", "bench", "git_rev",
                         "generated_at", "environment")
        }
        _flatten(name, payload, metrics)
    common = set(revs.values())
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "git_rev": (common.pop() if len(common) == 1
                    else "mixed" if common else "unknown"),
        "revs": revs,
        "environment": environment,
        "benches": benches,
        "metrics": metrics,
    }


def _lower_is_better(name: str) -> bool:
    lowered = name.lower()
    return "overhead" in lowered or lowered.endswith("seconds")


def compare(summary: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Regression messages (empty = the gate passes)."""
    default_tol = float(baseline.get("tolerance", 0.25))
    metrics = summary.get("metrics", {})
    smoke = {bench for bench, data in summary.get("benches", {}).items()
             if data.get("smoke")}
    failures: list[str] = []
    for name, spec in baseline.get("metrics", {}).items():
        actual = metrics.get(name)
        if actual is None:
            failures.append(f"{name}: missing from collected artifacts")
            continue
        if name.split(".", 1)[0] in smoke:
            continue
        if "max" in spec and actual > float(spec["max"]):
            failures.append(f"{name}: {actual:.6g} > max {spec['max']:.6g}")
        if "min" in spec and actual < float(spec["min"]):
            failures.append(f"{name}: {actual:.6g} < min {spec['min']:.6g}")
        if "value" in spec:
            ref = float(spec["value"])
            tol = float(spec.get("tolerance", default_tol))
            if _lower_is_better(name):
                bound = ref * (1.0 + tol)
                if actual > bound:
                    failures.append(
                        f"{name}: {actual:.6g} > {bound:.6g} "
                        f"(baseline {ref:.6g} +{tol:.0%})"
                    )
            else:
                bound = ref * (1.0 - tol)
                if actual < bound:
                    failures.append(
                        f"{name}: {actual:.6g} < {bound:.6g} "
                        f"(baseline {ref:.6g} -{tol:.0%})"
                    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="directory holding BENCH_*.json artifacts")
    parser.add_argument("--out", type=Path, default=None,
                        help="summary output path "
                             "(default <root>/BENCH_summary.json)")
    parser.add_argument("--compare", type=Path, default=None,
                        help="baseline file; exit 1 on regressions")
    args = parser.parse_args(argv)

    summary = collect(args.root)
    out = args.out or (args.root / "BENCH_summary.json")
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out} ({len(summary['benches'])} benches, "
          f"{len(summary['metrics'])} metrics, rev {summary['git_rev'][:12]})")

    if args.compare is None:
        return 0
    baseline = json.loads(args.compare.read_text())
    failures = compare(summary, baseline)
    if failures:
        print(f"PERF REGRESSION vs {args.compare}:", file=sys.stderr)
        for message in failures:
            print(f"  {message}", file=sys.stderr)
        return 1
    checked = len(baseline.get("metrics", {}))
    smoke = sorted(name for name, data in summary["benches"].items()
                   if data.get("smoke"))
    note = f" ({', '.join(smoke)}: smoke runs, presence only)" if smoke else ""
    print(f"compare OK: {checked} baselined metrics within tolerance{note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
