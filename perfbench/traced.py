"""The traced run: per-layer metrics, measured from outside the program.

After the untraced timed phase, the same number of rounds runs again
with every layer entry point wrapped (``layers.install``); the ratio of
the two phases' wall times is ``tracing.overhead_frac``.  Layer times
are *self* times per operation, so layers nested in one another are not
counted twice.

``serve-transfer`` runs its layers in a spawned worker, which the
wrappers cannot reach.  Its service metrics come in situ, from client
timestamps and each result's ``stage_s``; its planner, routing, flow
build and simulator metrics come from replaying one round of the same
requests in-process through ``execute_request`` (in isolation).

Finally one round runs with the program's own ``repro.obs`` tracer on,
and each ``obs_gap.*`` metric is the mean gap, per program span,
between the benchmark's outside timing of a layer and the program's
span for it (enclosing minus enclosed, in microseconds).
"""

from __future__ import annotations

import json
from pathlib import Path

import layers
from workloads import timed

#: Program spans and the outside timings they are compared with:
#: (span name, outside span names, True if the program span encloses
#: the outside timing).
OBS_GAPS = (
    ("service.plan", ("core.planner.find_plan",), True),
    ("service.simulate", ("core.multipath.run_transfer", "core.iomove"), True),
    ("transfer", ("core.multipath.run_transfer",), False),
    ("proxy-select", ("core.planner.find_plan", "resilience.planner.find_plan"), False),
    ("io-movement", ("core.iomove",), False),
)


def layer_metrics(rec: layers.SpanRecorder, n: int) -> dict:
    """Per-operation layer metrics from one recorder over ``n`` ops."""
    def per(x):
        return x / n if n else 0.0

    def self_ms(*names):
        return 1e3 * per(sum(rec.self_s[k] for k in names))

    ru = rec.counts["network.flowsim.run.rate_updates"]
    bcalls = rec.calls["network.batchsim.simulate"]
    return {
        "core.planner.find_plan_us": 1e3 * self_ms("core.planner.find_plan"),
        "core.planner.calls": per(rec.calls["core.planner.find_plan"]),
        "routing.paths_ms": self_ms("routing.paths"),
        "core.multipath.flow_build_ms": self_ms("core.multipath.flow_build"),
        "core.multipath.flows": per(rec.counts["core.multipath.flow_build.flows"]),
        "network.flowsim.run_ms": self_ms("network.flowsim.run"),
        "network.flowsim.rate_updates": per(ru),
        "network.flowsim.us_per_rate_update":
            1e6 * rec.self_s["network.flowsim.run"] / ru if ru else 0.0,
        "network.flowsim.flows": per(rec.counts["network.flowsim.run.flows"]),
        "network.batchsim.simulate_ms": self_ms("network.batchsim.simulate"),
        "network.batchsim.calls": per(bcalls),
        "network.batchsim.scenarios_per_call":
            rec.counts["network.batchsim.simulate.scenarios"] / bcalls if bcalls else 0.0,
        "resilience.executor.self_ms": self_ms("resilience.executor"),
        "resilience.ledger.ms": self_ms("resilience.ledger"),
        "resilience.ledger.extents": per(rec.counts["resilience.ledger.extents"]),
        "resilience.planner.ms": self_ms("resilience.planner", "resilience.planner.find_plan"),
        "core.aggregation.plan_ms": self_ms("core.aggregation.plan"),
        "core.aggregation.flows": per(rec.counts["core.aggregation.flows_build.flows"]),
        "mpi.mpiio.plan_ms": self_ms("mpi.mpiio.plan"),
        "mpi.mpiio.flows": per(rec.counts["mpi.mpiio.flows_build.flows"]),
        "core.iomove.build_ms": self_ms(
            "core.iomove", "core.aggregation.flows_build", "mpi.mpiio.flows_build"),
    }


def _recorded(fn):
    """Run ``fn`` with every layer wrapped; returns the recorder."""
    rec = layers.SpanRecorder()
    patch = layers.install(rec)
    try:
        fn()
    finally:
        patch.undo()
    return rec


def obs_gaps(w) -> dict:
    """One in-process round with the program's tracer on as well."""
    from repro.obs.trace import Tracer, use_tracer

    if not getattr(w, "program_tracer_ok", True):
        return {f"obs_gap.{span}_us": 0.0 for span, _, _ in OBS_GAPS}

    tracer = Tracer(max_flow_spans=0)
    with use_tracer(tracer):
        rec = _recorded(w.replay)
    inside = tracer.breakdown()
    out = {}
    for span, outside_names, encloses in OBS_GAPS:
        count = inside.get(span, {}).get("count", 0)
        gap = 0.0
        if count:
            outside = sum(rec.total[k] for k in outside_names)
            diff = inside[span]["total_s"] - outside
            gap = 1e6 * (diff if encloses else -diff) / count
        out[f"obs_gap.{span}_us"] = gap
    return out


def run(w, rounds_u, args, out_dir: Path):
    """Traced phase + isolation replay + program-span gaps.

    Returns ``(metrics, traced_rounds)``.
    """
    from repro.obs import get_registry

    fallback = get_registry().counter("resilience.batch.fallback")
    fb0 = fallback.value
    rounds_t: list = []
    rec = _recorded(lambda: rounds_t.extend(timed(w, None, nrounds=len(rounds_u))))
    nops = sum(len(r.latencies) for r in rounds_t)
    values = dict.fromkeys(unit_table(), 0.0)
    if hasattr(w, "situ_metrics"):  # serve-transfer: layers live in the worker
        values.update(w.situ_metrics(rounds_t))
        w.replay(w.distinct)  # warm this process's machine and route caches
        iso = _recorded(w.replay)
        values.update(layer_metrics(iso, len(w.requests)))
        iso.write_jsonl(_trace_path(out_dir, args, "isolation"))
    else:
        values.update(layer_metrics(rec, nops))
    if hasattr(w, "resilience_metrics"):
        values.update(w.resilience_metrics(rounds_t))
        values["resilience.executor.batch_fallbacks"] = (fallback.value - fb0) / nops
    values["tracing.overhead_frac"] = (
        sum(r.norm_busy_s() for r in rounds_t) / sum(r.norm_busy_s() for r in rounds_u) - 1.0)
    values.update(obs_gaps(w))
    rec.write_jsonl(_trace_path(out_dir, args, "traced"))
    units = unit_table()
    return {k: {"value": values[k], "unit": units[k]} for k in units}, rounds_t


def _trace_path(out_dir: Path, args, phase: str) -> Path:
    out_dir.mkdir(exist_ok=True)
    return out_dir / f"spans-{args.workload}-seed{args.seed}-{phase}.jsonl"


def unit_table() -> dict:
    """Per-layer metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}
