"""Outside-in layer tracing for the benchmark's traced run.

The program is never edited: :func:`install` replaces each layer's
public entry point *at its point of use* (a class attribute, or a module
global bound by ``from ... import``) with a wrapper that records a span
``(id, name, start, end, parent)`` into a :class:`SpanRecorder`.  Spans
are held in memory and written out once, at the end of the run.

A span's *self time* is its duration minus the time its child spans
cover.  The recorder aggregates duration, self time and call count per
span name as it goes, plus any counts a wrapper attaches (flows built,
rate updates, extents sealed), so the per-layer metrics never need the
stored spans; storage is capped so a long run cannot exhaust memory.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.n_dropped = 0
        self._next_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self.total: "defaultdict[str, float]" = defaultdict(float)
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.calls: "defaultdict[str, int]" = defaultdict(int)
        self.counts: "defaultdict[str, float]" = defaultdict(float)

    def call(self, name: str, fn, args, kwargs, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``count(args, result)`` returns ``{counter: value}`` pairs added
        to :attr:`counts` under ``"<name>.<counter>"``.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0]  # [span id, time covered by child spans]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            with self._lock:
                if len(self.spans) < self.max_spans:
                    self.spans.append((sid, name, t0, t1, parent))
                else:
                    self.n_dropped += 1
                self.total[name] += dur
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
        if count is not None:
            extra = count(args, result)
            with self._lock:
                for k, v in extra.items():
                    self.counts[f"{name}.{k}"] += v
        return result

    def write_jsonl(self, path) -> None:
        """Write the stored spans as JSON lines, in id order (a last line
        counts spans dropped past ``max_spans``)."""
        with open(path, "w") as f:
            for sid, name, t0, t1, parent in sorted(self.spans):
                f.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": None if parent < 0 else parent,
                }) + "\n")
            if self.n_dropped:
                f.write(json.dumps({"dropped": self.n_dropped}) + "\n")


class Patcher:
    """Replaces attributes with span-recording wrappers; :meth:`undo`
    puts every original back."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._saved: list[tuple[object, str, bool, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        own = attr in vars(owner)
        orig = getattr(owner, attr)
        rec = self.rec

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return rec.call(name, orig, args, kwargs, count)

        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def wrap_builder(self, owner, attr: str, name: str) -> None:
        """Wrap a flow builder whose first argument is a ``FlowProgram``;
        counts the flows it appends as ``<name>.flows``."""
        orig = getattr(owner, attr)
        rec = self.rec

        @functools.wraps(orig)
        def wrapper(prog, *args, **kwargs):
            before = len(prog.flows)
            try:
                return rec.call(name, orig, (prog, *args), kwargs)
            finally:
                with rec._lock:
                    rec.counts[f"{name}.flows"] += len(prog.flows) - before

        self._saved.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            owner, attr, own, orig = self._saved.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)


def install(rec: SpanRecorder) -> Patcher:
    """Wrap every layer entry point the per-layer metrics name."""
    import repro.core as core_pkg
    import repro.core.iomove as iomove
    import repro.core.multipath as multipath
    import repro.resilience.executor as executor
    import repro.service.scenarios as scenarios
    from repro.core.planner import TransferPlanner
    from repro.network.batchsim import BatchFlowSim
    from repro.network.flowsim import FlowSim
    from repro.resilience.ledger import TransferLedger
    from repro.resilience.planner import ResilientPlanner
    from repro.routing.deterministic import DimOrderRouter
    from repro.service.service import ScenarioService

    p = Patcher(rec)
    p.wrap(ScenarioService, "submit", "service.submit")
    # ResilientPlanner first: it inherits find_plan, and fault-aware
    # planning must not be counted as core planning.
    p.wrap(ResilientPlanner, "find_plan", "resilience.planner.find_plan")
    p.wrap(ResilientPlanner, "plan", "resilience.planner")
    p.wrap(ResilientPlanner, "find_replacements", "resilience.planner")
    p.wrap(TransferPlanner, "find_plan", "core.planner.find_plan")
    p.wrap(DimOrderRouter, "path", "routing.paths")
    p.wrap(DimOrderRouter, "paths", "routing.paths")
    p.wrap(scenarios, "run_transfer", "core.multipath.run_transfer")
    p.wrap_builder(multipath, "build_multipath_flows", "core.multipath.flow_build")
    p.wrap_builder(multipath, "build_direct_flows", "core.multipath.flow_build")
    p.wrap(FlowSim, "run", "network.flowsim.run",
           count=lambda a, r: {"flows": len(a[1]), "rate_updates": r.n_rate_updates})
    p.wrap(BatchFlowSim, "simulate_many", "network.batchsim.simulate",
           count=lambda a, r: {"scenarios": len(a[1])})
    p.wrap(executor, "run_resilient_transfer_many", "resilience.executor")
    for attr, fn in list(vars(TransferLedger).items()):
        if inspect.isfunction(fn) and not attr.startswith("_"):
            count = None
            if attr == "seal":
                count = lambda a, r: {"extents": len(a[0].extents)}  # noqa: E731
            p.wrap(TransferLedger, attr, "resilience.ledger", count=count)
    p.wrap(core_pkg, "run_io_movement", "core.iomove")
    p.wrap(iomove, "plan_aggregation", "core.aggregation.plan")
    p.wrap_builder(iomove, "aggregation_flows", "core.aggregation.flows_build")
    p.wrap(iomove, "plan_collective_write", "mpi.mpiio.plan")
    p.wrap_builder(iomove, "collective_write_flows", "mpi.mpiio.flows_build")
    return p
