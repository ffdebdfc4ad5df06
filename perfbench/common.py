"""Helpers shared by the workloads: table construction, percentiles,
memory and the environment stamp."""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: The checkout root: the benchmark reads and writes only below it.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for checkpoints and spills (ignored by git).
SCRATCH = ROOT / ".perfbench_tmp"
#: Where traced runs write their spans (ignored by git).
SPANS_DIR = ROOT / ".perfbench_out"


def build_table(cols):
    """A library table from generated columns (the trusted constructor)."""
    from repro.table import Column, Schema, Table

    return Table.from_columns(
        Schema(cols.fields),
        [Column(dtype, cols[name][0], cols[name][1])
         for name, dtype in cols.fields])


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: One group of timed set-ups: at least this many ...
SETUP_MIN_REPEATS = 3
#: ... and more, up to this many, while their total stays under the budget.
SETUP_MAX_REPEATS = 20
SETUP_BUDGET_S = 3.0


def setup_times(build) -> list[float]:
    """Run ``build()`` -> ``(env, seconds)`` as one group of timed set-ups
    (see ``SETUP_*``); tears each env down and returns the seconds."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or (
            len(times) < SETUP_MAX_REPEATS and sum(times) < SETUP_BUDGET_S):
        gc.collect()
        fresh_run_state()
        env, seconds = build()
        env.close()
        times.append(seconds)
    return times


def fresh_run_state() -> None:
    """Reset the library's process-global counters, span buffer and
    degradation log so nothing carries over between phases."""
    from repro import obs, resilience

    obs.reset()
    resilience.reset()


@contextmanager
def scratch_dir():
    """A fresh directory under the checkout, removed afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    from repro.obs import get_tracer

    tracer = get_tracer()
    return {
        "git_rev": git_rev(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "library_spans": {"enabled": tracer.enabled,
                          "max_roots": tracer.max_roots},
        "fsync": "library default (checkpoint and spill fsync kept)",
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
