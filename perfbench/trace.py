"""Outside-in tracing for the traced run: timing wrappers around each
layer's public calls, spans kept in memory, and the self-time rollup.

A span is ``(name, start, end, parent)``; its layer is the name's prefix
before the first dot.  Spans nest through a per-thread stack, and the
serving adapter parents spans across the thread hop explicitly.  The
rollup clips every child to its parent and to its earlier siblings, so a
tree's self times sum to its root's duration by construction: the root's
own self time is the ``unattributed`` remainder that no wrapper covered.
What the clipping cuts away (siblings running at once on two threads, or
a wrapper counting the same time twice) is measured by :func:`clipped`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

LAYERS = ("serving", "sql", "table", "shard", "ivm", "dlt")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs", "children")

    def __init__(self, sid, name, start, parent, attrs=None):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent.id if parent is not None else None
        self.attrs = attrs
        self.children = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        out = {"id": self.id, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent}
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """In-memory span recorder shared by every wrapper of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, parent=None, start=None, attrs=None) -> Span:
        """Start a span under ``parent`` (default: this thread's open
        span); it is recorded but not pushed."""
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        span = Span(next(self._ids), name,
                    time.perf_counter() if start is None else start,
                    parent, attrs)
        self.spans.append(span)
        return span

    @staticmethod
    def close(span: Span, end=None) -> None:
        span.end = time.perf_counter() if end is None else end

    @contextmanager
    def active(self, span: Span):
        """Make ``span`` the parent of spans this thread opens."""
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()

    @contextmanager
    def span(self, name, attrs=None):
        span = self.open(name, attrs=attrs)
        try:
            with self.active(span):
                yield span
        finally:
            self.close(span)

    def wrap(self, name, fn, attrs=None):
        """``fn`` timed as span ``name``; ``attrs(args, kwargs, result)``
        may add counts measured at the boundary."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = tracer.open(name)
            try:
                with tracer.active(span):
                    result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return timed

    def write(self, path) -> None:
        """Write every finished span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                if span.end is not None:
                    out.write(json.dumps(span.to_dict()) + "\n")


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self._undo: list[tuple] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Time ``owner.attr`` as span ``name``."""
        self.replace(owner, attr,
                     lambda original: self.tracer.wrap(name, original, attrs))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _rows_in(args, kwargs, result):
    rows = args[0].num_rows
    other = args[1] if len(args) > 1 else kwargs.get("other")
    if hasattr(other, "num_rows"):
        rows += other.num_rows
    return {"rows_in": rows, "rows_out": getattr(result, "num_rows", 0)}


def _rows_out(args, kwargs, result):
    return {"rows_out": result.num_rows}


def _delta_rows(args, kwargs, result):
    return {"rows": len(args[1])}


def install(patches: Patches) -> None:
    """Wrap the public calls of every traced layer (see README.md)."""
    from repro.dlt import checkpoint, expectations, runner
    from repro.ivm import view
    from repro.serving import server
    from repro.shard import kernels, spill
    from repro.sql import engine, plan
    from repro.table import table

    patches.wrap(server.Server, "submit", "serving.submit")
    patches.wrap(engine.Database, "query", "sql.query", _rows_out)
    patches.wrap(engine, "parse_sql", "sql.parse")
    patches.wrap(plan, "compile_query", "sql.compile")
    patches.wrap(engine, "optimize", "sql.optimize")
    patches.wrap(engine, "bind", "sql.bind")
    for method in ("filter", "join", "group_by", "order_by", "select"):
        patches.wrap(table.Table, method, f"table.{method}", _rows_in)
    for method in ("project", "limit"):
        patches.wrap(table.Table, method, f"table.{method}")
    for fn in ("filter", "join", "group_by", "distinct"):
        patches.wrap(kernels, fn, f"shard.{fn}")
    patches.wrap(spill.ShardStore, "spill", "shard.spill")
    patches.wrap(spill.ShardStore, "restore", "shard.restore")
    patches.wrap(spill.SpilledShard, "get", "shard.load")
    patches.wrap(view.StreamTable, "insert_rows", "ivm.insert_rows")
    patches.wrap(view.StreamTable, "delete_rows", "ivm.delete_rows")
    patches.wrap(view.StreamTable, "push", "ivm.push", _delta_rows)
    patches.wrap(view.MaterializedView, "table", "ivm.view_read")
    patches.wrap(runner.Pipeline, "run", "dlt.run")
    patches.wrap(runner.Pipeline, "refresh", "dlt.refresh")
    patches.wrap(checkpoint.CheckpointStore, "commit", "dlt.commit")
    patches.wrap(checkpoint.CheckpointStore, "read_table", "dlt.read_table")
    patches.wrap(checkpoint.CheckpointStore, "read_quarantine",
                 "dlt.read_quarantine")
    for cls in _subclasses(expectations.Predicate):
        if "mask" in cls.__dict__:
            patches.wrap(cls, "mask", "dlt.mask")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


# -- rollup --------------------------------------------------------------------


def trees(spans: list[Span]) -> dict[int, Span]:
    """Link finished spans into trees; returns root id -> root span."""
    by_id = {s.id: s for s in spans if s.end is not None}
    roots = {}
    for span in by_id.values():
        span.children = []
    for span in by_id.values():
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            parent.children.append(span)
        elif span.parent is None:
            roots[span.id] = span
    return roots


def _clip(span: Span, lo: float, hi: float):
    """``(child, start, end)`` for each child of ``span``, clipped to
    ``[lo, hi]`` and to the end of its earlier siblings."""
    cursor = lo
    for child in sorted(span.children, key=lambda c: c.start):
        start = max(child.start, cursor)
        end = max(start, min(child.end, hi))
        yield child, start, end
        cursor = end


def self_times(root: Span) -> list[tuple[Span, float]]:
    """``(span, self seconds)`` for every span of a tree; they sum to the
    root's duration."""
    out = []

    def walk(span, lo, hi):
        covered = 0.0
        for child, start, end in _clip(span, lo, hi):
            covered += end - start
            walk(child, start, end)
        out.append((span, (hi - lo) - covered))

    walk(root, root.start, root.end)
    return out


def clipped(root: Span) -> float:
    """Span-seconds the rollup cut away in a tree, summed over its spans:
    children overlapping an earlier sibling or outliving their parent."""

    def walk(span, lo, hi):
        cut = 0.0
        for child, start, end in _clip(span, lo, hi):
            cut += child.duration - (end - start) + walk(child, start, end)
        return cut

    return walk(root, root.start, root.end)


def layer_self(root: Span) -> dict[str, float]:
    """Self seconds per layer; the root's own self time is
    ``unattributed``."""
    out = dict.fromkeys(LAYERS, 0.0)
    out["unattributed"] = 0.0
    for span, own in self_times(root):
        key = "unattributed" if span is root else span.layer
        out[key] = out.get(key, 0.0) + own
    return out


def shares(trees_) -> dict:
    """Each layer's self time, the unattributed remainder, and the time the
    rollup clipped, as shares of the summed duration of ``(root,
    layer_self(root))`` trees."""
    total = sum(root.duration for root, _ in trees_)
    out = {k: sum(selfs[k] for _, selfs in trees_) / total
           for k in list(LAYERS) + ["unattributed"]}
    out["clipped"] = sum(clipped(root) for root, _ in trees_) / total
    return out
