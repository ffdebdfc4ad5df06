"""Tracing: nested, timed span trees with cross-thread trace propagation.

The everyday API is still a single context manager::

    from repro.obs import span

    with span("plm.pretrain", steps=120) as s:
        ...                      # nested spans attach as children
        s.set(final_loss=0.42)   # attributes may be added mid-flight

Spans opened while another span is active on the *same thread* become
children of that span; spans opened with no active parent become roots and
are collected by the process-global :class:`Tracer`.

v2 adds **trace-context propagation**, the in-process analogue of
distributed tracing:

- every span carries ``trace_id`` / ``span_id`` / ``parent_id``;
- :class:`TraceContext` names a position in a trace and travels through
  plain dict carriers via :func:`inject` / :func:`extract` (a W3C
  ``traceparent``-style string plus baggage), e.g. riding on
  ``serving.Request.trace``;
- :func:`activate` installs an extracted context on the current thread, so
  a span opened on a worker thread attaches under its logical parent from
  another thread — one serving request renders as a single span tree
  across admission → queue → batch → backend → cache;
- :meth:`Tracer.start_span` / :meth:`Tracer.finish_span` are the manual
  (non-context-manager) form for spans whose lifetime crosses function
  boundaries (a request span opened at submit, finished at resolution);
- :meth:`Tracer.record` attaches an already-measured duration as a
  finished span (queue wait, externally-timed phases).

Cross-thread attachment works through a span index holding every retained
span whose context was handed out (``Span.context``); a finished span
whose remote parent has been evicted (or never existed) becomes a root and
bumps the ``orphans`` counter.  Roots are capped (FIFO) so a long-lived
process cannot grow without bound; the number of dropped roots is reported
in snapshots and the index entries of evicted trees are purged with them.

**Head sampling** (Dapper; OpenTelemetry's parent-based ratio sampler):
each root decides once whether its trace is recorded and every descendant
inherits the decision, across threads and processes too (an unsampled
:class:`TraceContext` propagates a "not sampled" mark).  The decision is a
deterministic stride — with ``Tracer.sample_rate`` r, every
``round(1/r)``-th root is kept — so the library default
(:data:`DEFAULT_SAMPLE_RATE`) costs a traced tree only on one request in
32.  ``REPRO_OBS_SPANS`` sets the rate (``0``/``off``, ``1``/``on``
or a fraction) and :func:`set_enabled` is the rate-1 / rate-0 shorthand.
An unsampled ``span`` / ``activate`` / ``start_span`` / ``record`` costs
one thread-stack check and hands back a shared class-based no-op: no
span object, no id, no index entry.  A sampled span costs two
``perf_counter`` calls, an id allocation and a couple of list appends.
Metrics (counters, histograms) are never sampled.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Carrier key for the ``<trace_id>-<span_id>`` position string.
TRACEPARENT_KEY = "traceparent"
#: Carrier key for propagated baggage (a flat str->str dict).
BAGGAGE_KEY = "baggage"
#: The W3C ``trace-flags`` value an unsampled position carries as a third
#: ``traceparent`` field; a header without it is sampled.
NOT_SAMPLED = "00"

#: Library-default head-sampling rate: one root in 32 keeps its tree.  The
#: hot-path gate (``benchmarks/bench_ext_obs.py``, limit 5%) read 2-5% for
#: point lookups at 1/16 and 2-3% at 1/32 on a 2-CPU x86-64 container: a
#: sampled lookup pays its spans on cold code paths, about 25% of the
#: lookup.
DEFAULT_SAMPLE_RATE = 1 / 32

_IDS = itertools.count(1)


def _new_id() -> str:
    """A short process-unique hex id (``itertools.count`` is atomic)."""
    return f"{next(_IDS):012x}"


def rate_from_env(value: str | None) -> float:
    """The sample rate a ``REPRO_OBS_SPANS`` value asks for.

    Unset or empty is :data:`DEFAULT_SAMPLE_RATE`; ``0`` / ``off`` is 0,
    ``1`` / ``on`` is 1, and a number in [0, 1] is itself.  Anything else
    raises :class:`ValueError` rather than silently tracing (or not).
    """
    if value is None or not value.strip():
        return DEFAULT_SAMPLE_RATE
    word = value.strip().lower()
    if word in ("0", "off"):
        return 0.0
    if word in ("1", "on"):
        return 1.0
    try:
        rate = float(word)
    except ValueError:
        rate = -1.0
    if not 0.0 <= rate <= 1.0:
        raise ValueError(
            f"REPRO_OBS_SPANS={value!r}: expected 0/off, 1/on or a sample "
            f"rate in [0, 1]"
        )
    return rate


@dataclass(frozen=True)
class TraceContext:
    """A position inside a trace: which trace, which span, plus baggage.

    ``sampled=False`` marks a position inside an unsampled trace: spans
    opened under it are no-ops, wherever the context travels.
    """

    trace_id: str
    span_id: str
    baggage: tuple[tuple[str, str], ...] = ()
    sampled: bool = True

    def with_baggage(self, **items: str) -> "TraceContext":
        merged = dict(self.baggage)
        merged.update({k: str(v) for k, v in items.items()})
        return TraceContext(self.trace_id, self.span_id,
                            tuple(sorted(merged.items())), self.sampled)

    def baggage_dict(self) -> dict[str, str]:
        return dict(self.baggage)


#: The one unsampled position: no ids, no baggage.  Every unsampled
#: context is normalized to it on a thread's stack.
_UNSAMPLED = TraceContext("", "", sampled=False)


@dataclass(slots=True)
class Span:
    """One timed operation, possibly with children."""

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    start: float = 0.0           # perf_counter seconds (monotonic)
    duration: float | None = None  # None while still open
    trace_id: str = ""
    span_id: str = ""
    parent_id: str | None = None
    thread_id: int = 0
    #: The tracer that retains this span, so a propagated context can be
    #: indexed there; cleared when the span's tree is evicted.
    tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def finished(self) -> bool:
        return self.duration is not None

    @property
    def context(self) -> TraceContext:
        """This span's position as a propagatable :class:`TraceContext`.

        Handing the position out is what lets another thread attach under
        this span, so it enters the tracer's span index here.
        """
        if self.tracer is not None:
            self.tracer._index_span(self)
        return TraceContext(self.trace_id, self.span_id)

    def total_descendants(self) -> int:
        return len(self.children) + sum(
            c.total_descendants() for c in self.children
        )

    def find(self, name: str) -> "Span | None":
        """Depth-first search for the first descendant (or self) by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over self and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.trace_id:
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
            out["start_s"] = self.start
            out["thread_id"] = self.thread_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            attributes=dict(data.get("attributes", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
            duration=data.get("duration_s"),
            start=data.get("start_s", 0.0),
            trace_id=data.get("trace_id", ""),
            span_id=data.get("span_id", ""),
            parent_id=data.get("parent_id"),
            thread_id=data.get("thread_id", 0),
        )

    def render(self, indent: int = 0) -> str:
        """Human-readable tree, one span per line."""
        dur = "open" if self.duration is None else f"{self.duration * 1e3:.2f}ms"
        attrs = ""
        if self.attributes:
            attrs = " " + " ".join(
                f"{k}={v}" for k, v in sorted(self.attributes.items())
            )
        lines = [f"{'  ' * indent}{self.name} [{dur}]{attrs}"]
        lines.extend(c.render(indent + 1) for c in self.children)
        return "\n".join(lines)


class _NoopSpan(Span):
    """The shared span an unsampled trace hands out; also its own no-op
    context manager, so an unsampled ``with span(...)`` allocates nothing."""

    __slots__ = ()

    def __init__(self):
        super().__init__(name="noop", duration=0.0)

    def set(self, **attributes: Any) -> "Span":
        return self

    @property
    def context(self) -> TraceContext:
        return _UNSAMPLED

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NOOP = _NoopSpan()


class _Push:
    """Pushes one trace position onto the calling thread's stack for the
    duration of a block: a sampled remote context (:meth:`Tracer.activate`)
    or the unsampled mark, under which spans are no-ops instead of new
    roots (one shared instance per tracer)."""

    __slots__ = ("_local", "_position")

    def __init__(self, local: threading.local, position: TraceContext):
        self._local = local
        self._position = position

    def __enter__(self) -> Span:
        self._local.stack.append(self._position)
        return _NOOP

    def __exit__(self, *exc_info: Any) -> None:
        self._local.stack.pop()


class _Scope:
    """The context manager of one sampled span."""

    __slots__ = ("_tracer", "_stack", "_node", "_parent")

    def __init__(self, tracer: "Tracer", stack: list[Any], node: Span,
                 parent: Any):
        self._tracer = tracer
        self._stack = stack
        self._node = node
        self._parent = parent

    def __enter__(self) -> Span:
        node = self._node
        self._stack.append(node)
        node.start = time.perf_counter()
        return node

    def __exit__(self, *exc_info: Any) -> None:
        node = self._node
        node.duration = time.perf_counter() - node.start
        self._stack.pop()
        self._tracer._close(node, self._parent)


class _ThreadState(threading.local):
    def __init__(self):
        #: Open spans, activated contexts and unsampled marks, innermost
        #: last.
        self.stack: list[Any] = []


class Tracer:
    """Collects finished root spans; one per process (see :func:`get_tracer`).

    Roots are capped (FIFO) so a long-lived process cannot grow without
    bound; the number of dropped roots is reported in snapshots and the
    span index entries of every evicted tree are purged alongside it.
    """

    def __init__(self, max_roots: int = 4096, enabled: bool | None = None):
        self.max_roots = max_roots
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self.dropped = 0
        #: Finished spans whose remote parent could not be found (evicted,
        #: reset, or never recorded) — they were promoted to roots instead.
        self.orphans = 0
        self._local = _ThreadState()
        self._unsampled = _Push(self._local, _UNSAMPLED)
        #: span_id -> Span for every retained span whose context was handed
        #: out — the only spans another thread can attach under.
        self._index: dict[str, Span] = {}
        #: Roots decided so far, for the stride (restarted by reset()).
        self._roots_seen = itertools.count(1)
        if enabled is None:
            self.sample_rate = rate_from_env(os.environ.get("REPRO_OBS_SPANS"))
        else:
            self.enabled = enabled

    # -- sampling ------------------------------------------------------------

    @property
    def sample_rate(self) -> float:
        """Fraction of roots whose trace is recorded (0 = no spans)."""
        return self._rate

    @sample_rate.setter
    def sample_rate(self, rate: float) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self._rate = rate
        #: Keep every ``_stride``-th root (0 keeps none).
        self._stride = round(1.0 / rate) if rate > 0.0 else 0

    @property
    def enabled(self) -> bool:
        """Whether any root is sampled (``sample_rate > 0``)."""
        return self._rate > 0.0

    @enabled.setter
    def enabled(self, flag: bool) -> None:
        self.sample_rate = 1.0 if flag else 0.0

    def _sample_root(self) -> bool:
        """The head decision for a new root: the deterministic stride."""
        stride = self._stride
        return stride == 1 or (
            stride > 1 and next(self._roots_seen) % stride == 0)

    def _unsampled_root(self) -> Any:
        # At rate 0 every root decides "no" anyway, so nothing need mark
        # the thread; otherwise the mark keeps descendants from becoming
        # roots of their own.
        return self._unsampled if self._stride else _NOOP

    # -- thread-local active stack (open spans + activated contexts) --------

    def current(self) -> Span | None:
        """The innermost open span on this thread, or None.

        An activated remote :class:`TraceContext` is *not* a span — there
        is nothing to attach attributes to — so it reports None.
        """
        stack = self._local.stack
        top = stack[-1] if stack else None
        return top if isinstance(top, Span) else None

    def current_context(self) -> TraceContext | None:
        """The innermost trace position on this thread, or None.

        Inside an unsampled trace this is the unsampled position
        (``sampled=False``), so what is opened or propagated from here
        inherits the decision.  At rate 0 every root decides "no" anyway
        and nothing marks the thread, so it is None there.
        """
        stack = self._local.stack
        if not stack:
            return None
        top = stack[-1]
        return top.context if isinstance(top, Span) else top

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Any:
        """Context manager timing a block as a span (yields the span).

        Under an unsampled parent, or as an unsampled root, it is a shared
        no-op yielding a span whose ``set`` does nothing.
        """
        stack = self._local.stack
        if stack:
            parent = stack[-1]
            if parent is _UNSAMPLED:
                return _NOOP
        elif not self._sample_root():
            return self._unsampled_root()
        else:
            parent = None
        return _Scope(self, stack, self._open(name, parent, attributes),
                      parent)

    def sampled_span(self, name: str, **attributes: Any) -> Any:
        """:meth:`span`, recorded whatever the sample rate.

        For spans whose timings are themselves the product (EXPLAIN
        ANALYZE reads its stage times off them): under a sampled parent it
        is an ordinary child; otherwise it starts its own sampled root.
        """
        stack = self._local.stack
        parent = stack[-1] if stack else None
        if parent is _UNSAMPLED:
            parent = None
        return _Scope(self, stack, self._open(name, parent, attributes),
                      parent)

    def activate(self, ctx: TraceContext | None) -> Any:
        """Install a remote trace position on this thread.

        Spans opened while the context is innermost become its children
        even though the parent span lives on (or lived on) another thread;
        under an unsampled context they are no-ops.  ``None`` activates
        nothing and is allowed so call sites can pass an optional context
        through unconditionally.
        """
        if ctx is None:
            return _NOOP
        if not ctx.sampled:
            return self._unsampled_root()
        return _Push(self._local, ctx)

    def start_span(self, name: str, parent: TraceContext | None = None,
                   **attributes: Any) -> Span:
        """Open a span *without* putting it on this thread's stack.

        The manual form for spans whose lifetime crosses function (or
        thread) boundaries — finish with :meth:`finish_span`.  ``parent``
        anchors it in an existing trace; None starts a new trace (a root,
        subject to sampling).
        """
        if parent is None:
            if not self._sample_root():
                return _NOOP
        elif not parent.sampled:
            return _NOOP
        node = self._open(name, parent, attributes)
        node.start = time.perf_counter()
        return node

    def finish_span(self, span: Span, **attributes: Any) -> None:
        """Finish a span opened by :meth:`start_span` (idempotent)."""
        if span is _NOOP or span.finished:
            return
        span.attributes.update(attributes)
        span.duration = time.perf_counter() - span.start
        # Manual spans always attach by id (their parent, if any, was given
        # as a TraceContext), so replay the remote-parent path.
        parent_ctx = (TraceContext(span.trace_id, span.parent_id)
                      if span.parent_id is not None else None)
        self._close(span, parent_ctx)

    def record(self, name: str, duration: float,
               parent: TraceContext | None = None, **attributes: Any) -> Span:
        """Attach an already-measured duration as a finished span.

        For phases timed by other means (queue waits measured on the
        serving clock, imported timings): the span is created finished and
        attached under ``parent`` (or becomes a root, subject to sampling).
        """
        if parent is None:
            if not self._sample_root():
                return _NOOP
        elif not parent.sampled:
            return _NOOP
        node = self._open(name, parent, attributes)
        node.duration = float(duration)
        self._close(node, parent)
        return node

    # -- internals -----------------------------------------------------------

    def _open(self, name: str, parent: Any, attributes: dict[str, Any]) -> Span:
        if parent is None:
            trace_id, parent_id = _new_id(), None
        else:
            # A Span or a TraceContext: both name their trace and span.
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(name, attributes, [], 0.0, None, trace_id, _new_id(),
                    parent_id, threading.get_ident(), self)

    def _index_span(self, node: Span) -> None:
        with self._lock:
            self._index[node.span_id] = node

    def _close(self, node: Span, parent: Any) -> None:
        if isinstance(parent, Span):
            # Same-thread nesting: the parent is still open on this thread's
            # stack, so the eager append cannot race its own finish.
            parent.children.append(node)
        elif isinstance(parent, TraceContext):
            self._attach_remote(node, parent)
        else:
            self._add_root(node)

    def _attach_remote(self, node: Span, ctx: TraceContext) -> None:
        with self._lock:
            target = self._index.get(ctx.span_id)
            if target is not None:
                target.children.append(node)
                return
            # Parent evicted/reset before the child finished: promote to
            # root.
            self.orphans += 1
        node.set(orphaned=True)
        self._add_root(node)

    def _add_root(self, node: Span) -> None:
        with self._lock:
            self._roots.append(node)
            overflow = len(self._roots) - self.max_roots
            if overflow > 0:
                for evicted in self._roots[:overflow]:
                    self._forget(evicted)
                del self._roots[:overflow]
                self.dropped += overflow

    def _forget(self, root: Span) -> None:
        """Purge an evicted tree from the cross-thread index; a context
        read off it later finds no parent (its children become orphans)."""
        for span in root.walk():
            span.tracer = None
            self._index.pop(span.span_id, None)

    # -- inspection / lifecycle ---------------------------------------------

    def roots(self) -> list[Span]:
        """Finished root spans, oldest first (a copy)."""
        with self._lock:
            return list(self._roots)

    def find(self, name: str) -> Span | None:
        for root in self.roots():
            found = root.find(name)
            if found is not None:
                return found
        return None

    def reset(self) -> None:
        """Drop all collected roots and restart the sampling stride (open
        spans on live stacks survive)."""
        with self._lock:
            self._roots.clear()
            self._index.clear()
            self.dropped = 0
            self.orphans = 0
            self._roots_seen = itertools.count(1)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "roots": [r.to_dict() for r in self._roots],
                "dropped": self.dropped,
                "orphans": self.orphans,
            }


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer every instrumented module records into."""
    return _TRACER


def span(name: str, **attributes: Any):
    """Open a span on the global tracer (the usual entry point)."""
    return _TRACER.span(name, **attributes)


def current_span() -> Span | None:
    """The innermost open span on the calling thread, or None."""
    return _TRACER.current()


def current_context() -> TraceContext | None:
    """The calling thread's trace position, or None outside any trace."""
    return _TRACER.current_context()


def activate(ctx: TraceContext | None):
    """Install a (possibly None) remote context on the calling thread."""
    return _TRACER.activate(ctx)


def set_enabled(enabled: bool) -> None:
    """Record every trace (True: rate 1) or none (False: rate 0); metrics
    are unaffected."""
    _TRACER.enabled = bool(enabled)


def inject(ctx: TraceContext | None = None,
           carrier: dict[str, Any] | None = None) -> dict[str, Any]:
    """Write a trace position into a dict carrier and return the carrier.

    Defaults to the calling thread's current context; a no-op (returning
    the carrier unchanged) when there is no context to propagate.  An
    unsampled position writes only the :data:`NOT_SAMPLED` mark.
    """
    if carrier is None:
        carrier = {}
    if ctx is None:
        ctx = current_context()
    if ctx is None:
        return carrier
    if not ctx.sampled:
        carrier[TRACEPARENT_KEY] = f"--{NOT_SAMPLED}"
        return carrier
    carrier[TRACEPARENT_KEY] = f"{ctx.trace_id}-{ctx.span_id}"
    if ctx.baggage:
        carrier[BAGGAGE_KEY] = ctx.baggage_dict()
    return carrier


def extract(carrier: dict[str, Any] | None) -> TraceContext | None:
    """Read a trace position out of a dict carrier, or None if absent."""
    if not carrier:
        return None
    header = carrier.get(TRACEPARENT_KEY)
    if not isinstance(header, str) or "-" not in header:
        return None
    trace_id, _, rest = header.partition("-")
    span_id, _, flags = rest.partition("-")
    if flags == NOT_SAMPLED:
        return _UNSAMPLED
    if not trace_id or not span_id:
        return None
    baggage = carrier.get(BAGGAGE_KEY) or {}
    if not isinstance(baggage, dict):
        baggage = {}
    return TraceContext(
        trace_id, span_id,
        tuple(sorted((str(k), str(v)) for k, v in baggage.items())),
    )
