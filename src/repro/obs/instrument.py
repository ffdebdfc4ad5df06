"""Instrumentation helpers shared by the hot-path call sites.

Two shapes cover every instrumented module:

- :func:`timed` — context manager observing a block's wall-clock into a
  latency histogram (optionally also a span);
- :func:`timed_fn` — decorator form of the same for whole functions.

Both lean on the process-global registry/tracer, so call sites stay one
line and carry no handles.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, TypeVar

from repro.obs.metrics import histogram
from repro.obs.tracing import span as _span

F = TypeVar("F", bound=Callable[..., Any])


class _Timed:
    """The context manager :func:`timed` returns (one small object; the
    span part is the tracer's shared no-op when the trace is unsampled)."""

    __slots__ = ("_histogram", "_span", "_start", "seconds")

    def __init__(self, histogram_: Any, span_cm: Any):
        self._histogram = histogram_
        self._span = span_cm
        #: The block's wall-clock once it has exited, sampled or not.
        self.seconds: float | None = None

    def __enter__(self) -> Any:
        entered = None if self._span is None else self._span.__enter__()
        self._start = time.perf_counter()
        return entered

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self._start
        self._histogram.observe(self.seconds)
        if self._span is not None:
            self._span.__exit__(*exc_info)


def timed(metric_name: str, span_name: str | None = None,
          **attributes: Any) -> _Timed:
    """Time a block into ``histogram(metric_name)``.

    When ``span_name`` is given, the block also opens a span (nesting under
    any active parent), so the duration shows up both in aggregate
    (histogram percentiles) and in context (the span tree); the span is
    yielded so the block can attach result attributes (row counts,
    selectivities).  Without a span name the yield is ``None``.  The
    histogram always records; the span follows the trace's sampling
    decision (:mod:`repro.obs.tracing`).  After the block the manager's
    ``seconds`` holds the measured duration.

    This helper is the sanctioned way for library code to measure
    wall-clock: raw ``time.perf_counter()`` timing outside ``repro/obs``
    and ``repro/resilience`` is CI-linted away.
    """
    return _Timed(histogram(metric_name),
                  None if span_name is None else _span(span_name, **attributes))


def timed_fn(metric_name: str, span_name: str | None = None) -> Callable[[F], F]:
    """Decorator: record every call's wall-clock into a latency histogram."""

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with timed(metric_name, span_name=span_name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate
