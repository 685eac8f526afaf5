"""Structured span tracing for planner, simulator and resilience layers.

The paper's claims are about *where bytes flow and when*; this module
turns a run into an inspectable timeline instead of a post-hoc summary.
A :class:`Tracer` collects **hierarchical spans** — plan → proxy-select →
transfer-round → flow — each carrying free-form attributes (bytes, k,
path ids, fault events).  Two clock domains coexist:

* ``wall`` spans time the *library* (planning cost, simulation cost) on
  the process clock, opened and closed by the context-manager API;
* ``sim`` spans time the *machine* (flow activity, rounds) in simulated
  seconds and are recorded post-hoc via :meth:`Tracer.record`, because
  the fluid simulator knows their boundaries exactly.

A process-wide registry (:func:`get_tracer` / :func:`set_tracer`) lets
deep layers emit spans without threading a tracer through every call;
the default :data:`NULL_TRACER` makes every emission a no-op so the
disabled path adds no measurable overhead (see
``benchmarks/bench_simulator_perf.py`` and ``docs/OBSERVABILITY.md``).

Exporters produce JSONL (one span per line, grep/pandas friendly) and
the Chrome ``trace_event`` format loadable in Perfetto or
``chrome://tracing``; the Chrome exporter also renders
:class:`~repro.obs.metrics.TimeSeriesProbe` samples as counter tracks,
so mid-run effects like a CapacityEvent capacity dip are visible as a
per-link utilisation time series.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.util.validation import ConfigError

#: Clock domain of spans opened by the context-manager API.
WALL = "wall"
#: Clock domain of spans recorded from simulated time.
SIM = "sim"


@dataclass
class Span:
    """One timed operation, possibly with children.

    ``t0``/``t1`` are seconds in the span's clock ``domain``: offsets
    from the tracer's epoch for ``wall`` spans, absolute simulated time
    for ``sim`` spans.  ``t1`` is ``None`` while the span is open.
    """

    name: str
    domain: str
    t0: float
    t1: "float | None" = None
    cat: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self


class _NullSpan:
    """Inert span handed out by the :class:`NullTracer`."""

    __slots__ = ()
    name = ""
    domain = WALL
    t0 = 0.0
    t1 = 0.0
    cat = ""
    duration = 0.0

    @property
    def attrs(self) -> dict:
        return {}

    @property
    def children(self) -> list:
        return []

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``span`` returns a shared inert object usable both as a context
    manager and as a span (``.set`` accepted and discarded), so
    instrumented code needs no ``if enabled`` branches.
    """

    enabled = False
    roots: tuple = ()
    n_dropped = 0

    def span(self, name: str, *, cat: str = "", **attrs: Any) -> _NullSpan:
        """Hand out the shared inert span."""
        return _NULL_SPAN

    def record(self, name, t0, t1, *, cat="", domain=SIM, parent=None, **attrs) -> None:
        """Discard the span."""
        return None

    def start(self, name: str, *, cat: str = "", **attrs: Any) -> _NullSpan:
        """Hand out the shared inert span."""
        return _NULL_SPAN

    def end(self, span) -> None:
        """Nothing to close."""
        return None

    def current(self) -> None:
        """There is never an open span."""
        return None

    def iter_spans(self) -> Iterator[Span]:
        """Nothing is ever stored."""
        return iter(())

    def clear(self) -> None:
        """Nothing to clear."""
        return None


class _OpenSpan:
    """Context manager binding one wall span to the tracer stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def set(self, **attrs: Any) -> Span:
        return self.span.set(**attrs)

    def __enter__(self) -> Span:
        self._tracer._stack.append(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self.span.t1 = self._tracer._now()
        popped = self._tracer._stack.pop()
        if popped is not self.span:  # pragma: no cover - stack discipline
            raise ConfigError("span stack corrupted: exited a non-innermost span")


class Tracer:
    """Collects a forest of spans for one process (or one run).

    Args:
        clock: wall-clock source (seconds; monotonic preferred).
        max_spans: hard cap on stored spans; further emissions are
            counted in ``n_dropped`` instead of stored, so a runaway
            loop cannot exhaust memory.
        max_flow_spans: cap on per-flow ``sim`` spans one simulator run
            may record (flows beyond it still simulate, they are just
            not individually traced).
    """

    enabled = True

    def __init__(
        self,
        *,
        clock=time.perf_counter,
        max_spans: int = 200_000,
        max_flow_spans: int = 2000,
    ):
        if max_spans < 1:
            raise ConfigError(f"max_spans must be >= 1, got {max_spans}")
        if max_flow_spans < 0:
            raise ConfigError(f"max_flow_spans must be >= 0, got {max_flow_spans}")
        self._clock = clock
        self._epoch = clock()
        self.max_spans = max_spans
        self.max_flow_spans = max_flow_spans
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._n_spans = 0
        self.n_dropped = 0

    # -- time ----------------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._epoch

    # -- emission ------------------------------------------------------------

    def _attach(self, span: Span, parent: "Span | None" = None) -> "Span | None":
        if self._n_spans >= self.max_spans:
            self.n_dropped += 1
            return None
        self._n_spans += 1
        if parent is not None:
            parent.children.append(span)
        elif self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    def span(self, name: str, *, cat: str = "", **attrs: Any):
        """Open a wall-clock span as a context manager.

        The span nests under the innermost open span.  Attributes may be
        given up front or attached later via ``Span.set`` inside the
        ``with`` block.
        """
        span = Span(name=name, domain=WALL, t0=self._now(), cat=cat, attrs=dict(attrs))
        if self._attach(span) is None:
            return _NULL_SPAN
        return _OpenSpan(self, span)

    def start(self, name: str, *, cat: str = "", **attrs: Any) -> "Span | _NullSpan":
        """Open a wall-clock span *off* the nesting stack; close it with
        :meth:`end`.

        For work that suspends while unrelated spans open and close — a
        generator holding a span across ``yield`` — which the stack
        discipline of :meth:`span` forbids.  The span nests under the
        innermost span open now, and parents nothing itself.
        """
        span = Span(name=name, domain=WALL, t0=self._now(), cat=cat, attrs=dict(attrs))
        return _NULL_SPAN if self._attach(span) is None else span

    def end(self, span: "Span | _NullSpan") -> None:
        """Close a span opened by :meth:`start`."""
        if isinstance(span, Span):
            span.t1 = self._now()

    def record(
        self,
        name: str,
        t0: float,
        t1: float,
        *,
        cat: str = "",
        domain: str = SIM,
        parent: "Span | None" = None,
        **attrs: Any,
    ) -> "Span | None":
        """Record an already-completed span (simulated-time events).

        Nests under ``parent`` when given, else under the innermost
        *open* wall span — so sim-domain flow and round spans hang off
        the operation that produced them.
        """
        if t1 < t0:
            raise ConfigError(f"span {name!r}: t1 {t1} precedes t0 {t0}")
        span = Span(name=name, domain=domain, t0=float(t0), t1=float(t1), cat=cat, attrs=dict(attrs))
        return self._attach(span, parent)

    def current(self) -> "Span | None":
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- inspection ----------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        """All stored spans, depth-first, parents before children."""
        stack = list(reversed(self.roots))
        while stack:
            s = stack.pop()
            yield s
            stack.extend(reversed(s.children))

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Total duration and count per span name (closed spans only)."""
        out: dict[str, dict[str, float]] = {}
        for s in self.iter_spans():
            if s.t1 is None:
                continue
            rec = out.setdefault(s.name, {"count": 0, "total_s": 0.0})
            rec["count"] += 1
            rec["total_s"] += s.duration
        return out

    def clear(self) -> None:
        """Drop all stored spans (open spans on the stack are kept)."""
        self.roots.clear()
        self._n_spans = len(self._stack)
        self.n_dropped = 0


#: The process-wide disabled tracer (zero overhead).
NULL_TRACER = NullTracer()
_tracer: "Tracer | NullTracer" = NULL_TRACER


def get_tracer() -> "Tracer | NullTracer":
    """The process-wide tracer (the null tracer unless one was set)."""
    return _tracer


def set_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Install ``tracer`` process-wide (``None`` restores the null tracer)."""
    global _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return _tracer


@contextlib.contextmanager
def use_tracer(tracer: "Tracer | NullTracer"):
    """Temporarily install ``tracer`` (restores the previous one on exit)."""
    prev = get_tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(prev)


def traced(name: "str | None" = None, *, cat: str = ""):
    """Decorator: run the function inside a wall span on the global tracer."""

    def deco(fn):
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with get_tracer().span(span_name, cat=cat):
                return fn(*args, **kwargs)

        return wrapper

    return deco


# -- validation ---------------------------------------------------------------


def validate_well_nested(spans: Iterable[Span], *, tol: float = 1e-9) -> int:
    """Assert every closed span's children lie within it and share its
    domain's monotonicity; returns the number of spans checked.

    Raises :class:`~repro.util.validation.ConfigError` on the first
    violation — used by tests and the CI trace smoke check.
    """
    n = 0
    stack = [(None, s) for s in spans]
    while stack:
        parent, s = stack.pop()
        n += 1
        if s.t1 is not None and s.t1 < s.t0 - tol:
            raise ConfigError(f"span {s.name!r}: negative duration ({s.t0} -> {s.t1})")
        if parent is not None and parent.t1 is not None and parent.domain == s.domain:
            if s.t0 < parent.t0 - tol or (s.t1 is not None and s.t1 > parent.t1 + tol):
                raise ConfigError(
                    f"span {s.name!r} [{s.t0}, {s.t1}] escapes parent "
                    f"{parent.name!r} [{parent.t0}, {parent.t1}]"
                )
        stack.extend((s, c) for c in s.children)
    return n


# -- exporters ----------------------------------------------------------------


def _span_dict(span: Span, parent_id: "int | None", sid: int) -> dict:
    return {
        "id": sid,
        "parent": parent_id,
        "name": span.name,
        "cat": span.cat,
        "domain": span.domain,
        "t0": span.t0,
        "t1": span.t1,
        "attrs": span.attrs,
    }


def export_jsonl(tracer: "Tracer | NullTracer", out=None) -> str:
    """Serialise all spans as JSON Lines (one span per line, ``parent``
    linking by id).  Writes to ``out`` (a path or file object) when
    given; always returns the text.
    """
    buf = io.StringIO()
    sid = 0
    stack = [(None, s) for s in reversed(list(tracer.roots))]
    while stack:
        parent_id, s = stack.pop()
        sid += 1
        buf.write(json.dumps(_span_dict(s, parent_id, sid), default=str) + "\n")
        stack.extend((sid, c) for c in reversed(s.children))
    text = buf.getvalue()
    _write_out(out, text)
    return text


def _write_out(out, text: str) -> None:
    if out is None:
        return
    if hasattr(out, "write"):
        out.write(text)
    else:
        # Atomic replace: a run killed mid-export never leaves a torn
        # trace file behind (see repro.util.atomicio).
        from repro.util.atomicio import atomic_write_text

        atomic_write_text(out, text, durable=False)


def export_chrome(
    tracer: "Tracer | NullTracer",
    out=None,
    *,
    probe=None,
    top_links: int = 16,
    indent: "int | None" = None,
) -> str:
    """Serialise spans (and optionally probe samples) as a Chrome
    ``trace_event`` JSON document, loadable in Perfetto.

    Wall spans land on pid 0 ("wall clock"), sim spans on pid 1
    ("simulated time"); all timestamps are microseconds.  When a
    :class:`~repro.obs.metrics.TimeSeriesProbe` is given, its samples
    become counter (``"ph": "C"``) tracks on the sim timeline: per-link
    rate for the ``top_links`` hottest links, aggregate goodput, active
    flows, and per-link queue depth — a capacity dip shows up as a
    visible trough in the affected link's rate track.
    """
    if top_links < 0:
        raise ConfigError(f"top_links must be >= 0, got {top_links}")
    events: list[dict] = [
        {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "wall clock"}},
        {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "simulated time"}},
    ]
    for s in tracer.iter_spans():
        if s.t1 is None:
            continue
        pid = 0 if s.domain == WALL else 1
        events.append(
            {
                "name": s.name,
                "cat": s.cat or s.domain,
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": s.t0 * 1e6,
                "dur": max(s.duration, 0.0) * 1e6,
                "args": {k: _jsonable(v) for k, v in s.attrs.items()},
            }
        )
    if probe is not None and probe.samples:
        events.extend(_probe_counter_events(probe, top_links))
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    text = json.dumps(doc, indent=indent, default=str)
    _write_out(out, text)
    return text


def _jsonable(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def _probe_counter_events(probe, top_links: int) -> list[dict]:
    """Counter tracks from probe samples (hottest links by peak rate)."""
    peak: dict[int, float] = {}
    for s in probe.samples:
        for g, r in s.link_rate.items():
            if r > peak.get(g, 0.0):
                peak[g] = r
    hot = sorted(peak, key=lambda g: -peak[g])[:top_links]
    events: list[dict] = []
    for s in probe.samples:
        ts = s.t * 1e6
        events.append(
            {
                "name": "goodput",
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": ts,
                "args": {"delivered_GB": s.delivered_bytes / 1e9},
            }
        )
        events.append(
            {
                "name": "active_flows",
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": ts,
                "args": {"flows": s.active_flows},
            }
        )
        for g in hot:
            events.append(
                {
                    "name": f"link{g}",
                    "ph": "C",
                    "pid": 1,
                    "tid": 0,
                    "ts": ts,
                    "args": {
                        "rate_GBps": s.link_rate.get(g, 0.0) / 1e9,
                        "utilization": s.link_util.get(g, 0.0),
                        "queue_depth": s.queue_depth.get(g, 0),
                    },
                }
            )
    return events
