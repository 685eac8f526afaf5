"""The four benchmark workloads.

Each workload builds its inputs from the ``--seed`` alone, then runs
*rounds*: one round is a fixed list of operations, identical in every
round of a run, so a run's counts and ``sim_GBps`` do not depend on how
many rounds fit in the measured window.  An operation is what a caller
waits on:

* ``serve-transfer`` -- one request to a live ``ScenarioService``, from
  ``submit`` to its terminal result;
* ``campaign-faulted`` -- one ``run_transfer_many`` call over a faulted
  recovery campaign;
* ``io-topology`` / ``io-collective`` -- one in-process
  ``execute_request("io", ...)`` write.

The program is driven only through request params and public entry
points; no approximation or engine-selection argument is ever passed,
so every operation runs with the program's own defaults.
"""

from __future__ import annotations

import math
import queue
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

MiB = 1 << 20


@dataclass
class Round:
    """What one round produced."""

    latencies: list = field(default_factory=list)  # host seconds per op
    kinds: list = field(default_factory=list)  # which of the round's ops each was
    outputs: list = field(default_factory=list)  # per-op outputs
    scenarios: int = 0  # scenarios completed
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0  # host seconds the round took
    refs: list = field(default_factory=list)  # reference-kernel seconds per op
    speeds: list = field(default_factory=list)  # host-speed factor per op

    def norm_latencies(self) -> list:
        """Per-op host times, speed-normalised where measured."""
        if not self.speeds:
            return list(self.latencies)
        return [x * s for x, s in zip(self.latencies, self.speeds)]

    def norm_busy_s(self) -> float:
        """The round's host time: the sum of its (sequential) ops,
        speed-normalised, or its raw wall time when ops overlap."""
        return math.fsum(self.norm_latencies()) if self.speeds else self.wall_s


#: Host time of one reference-kernel pass on a quiet machine [s].  Only
#: its constancy matters: it fixes the scale of speed-normalised times.
REF_NOMINAL_S = 0.011
_REF_X = np.random.default_rng(0).random(50_000)  # small: adds ~1 MiB of RSS
_REF_IDX = np.random.default_rng(1).integers(0, 4096, 50_000)


def _reference_pass() -> float:
    """One pass of a fixed Python + numpy kernel; its host seconds."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(60_000):
        k = i & 1023
        d[k] = d.get(k, 0) + i * i
    acc = np.zeros(4096)
    for _ in range(4):
        x = _REF_X.copy()
        x.sort()
        np.add.at(acc, _REF_IDX, x)
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Median host time of three reference-kernel passes, now."""
    return statistics.median(_reference_pass() for _ in range(3))


def host_speed() -> float:
    """Factor that rescales host time measured now to the reference
    speed (``REF_NOMINAL_S`` over the kernel's current time).

    On a shared 2-vCPU x86_64 VM, host speed drifted by up to 2x over
    tens of seconds, for pure Python and numpy alike, which no number of
    repetitions inside one run averages out.
    CPU-bound workloads therefore report host times multiplied by this
    factor, measured next to every operation.
    """
    return REF_NOMINAL_S / reference_seconds()


def timed(w, seconds: "float | None", nrounds: "int | None" = None) -> list[Round]:
    """Run whole rounds until ``seconds`` have passed (or ``nrounds``).

    For a speed-normalised workload, the reference kernel is timed after
    every operation; each op's factor uses the median of its own and its
    neighbours' reference times (nine kernel passes, ~1-2 s apart).
    """
    rounds = []
    t0 = time.perf_counter()
    while True:
        rnd = Round()
        t = time.perf_counter()
        w.run_round(rnd, reference_seconds if w.SPEED_NORMALISED else None)
        rnd.wall_s = time.perf_counter() - t
        rounds.append(rnd)
        if nrounds is not None:
            if len(rounds) >= nrounds:
                break
        elif time.perf_counter() - t0 >= seconds:
            break
    refs = [x for r in rounds for x in r.refs]
    k = 0
    for r in rounds:
        for _ in r.refs:
            near = refs[max(0, k - 1): k + 2]
            r.speeds.append(REF_NOMINAL_S / statistics.median(near))
            k += 1
    return rounds


def tail_ms(rounds: list[Round]) -> float:
    """``op_p99_ms``: the 99th percentile of operation host time [ms].

    With at least 1000 operations (ten beyond the 99th percentile) it is
    the empirical percentile.  With fewer, the percentile would be the
    slowest single operation, which host noise sets more than the
    program.  Those workloads repeat a few operations of fixed work, so
    their 99th percentile is estimated as the median time of the
    slowest kind of operation.
    """
    lat = [x for r in rounds for x in r.norm_latencies()]
    if len(lat) >= 1000:
        return 1e3 * percentile(lat, 0.99)
    by_kind: dict = {}
    for r in rounds:
        for kind, x in zip(r.kinds, r.norm_latencies()):
            by_kind.setdefault(kind, []).append(x)
    return 1e3 * max(statistics.median(v) for v in by_kind.values())


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ---------------------------------------------------------------------------
# serve-transfer


@dataclass
class _Req:
    kind: str
    params: dict

    @property
    def key(self) -> tuple:
        return (self.kind, tuple(sorted(self.params.items())))


class ServeTransfer:
    """A live service, one worker, one closed-loop client, two requests
    outstanding; a seeded p2p/group/fanin mix at 512 nodes, 8 MiB."""

    name = "serve-transfer"
    # Request latency here is set by the supervisor's sleep-based polling
    # tick, not by CPU speed (measured: round medians do not follow the
    # reference kernel), so host times are reported raw.
    SPEED_NORMALISED = False
    NNODES = 512
    NBYTES = 8 * MiB
    POOL = 64  # distinct p2p pairs: more than the simulator's 8-entry caches
    MIX = (("p2p", 128), ("group", 64), ("fanin", 64))
    OUTSTANDING = 2

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        pool: list[tuple[int, int]] = []
        while len(pool) < self.POOL:
            s, d = rng.randrange(self.NNODES), rng.randrange(self.NNODES)
            if s != d and (s, d) not in pool:
                pool.append((s, d))
        kinds = [k for k, n in self.MIX for _ in range(n)]
        rng.shuffle(kinds)
        self.requests: list[_Req] = []
        for kind in kinds:
            params = {"nnodes": self.NNODES, "nbytes": self.NBYTES}
            if kind == "p2p":
                s, d = rng.choice(pool)
                params.update(src=s, dst=d)
            self.requests.append(_Req(kind, params))
        self.distinct = list({r.key: r for r in self.requests}.values())
        self.svc = None
        self._round_no = 0

    def setup(self) -> None:
        from repro.service import ScenarioService, ServiceConfig

        self._done: queue.Queue = queue.Queue()
        self.svc = ScenarioService(
            ServiceConfig(workers=1, queue_cap=8, admission="static"),
            on_result=lambda res: self._done.put((time.perf_counter(), res)),
        )
        self._drive(self.distinct, "warm")

    def _drive(self, reqs: list[_Req], tag: str, rnd: "Round | None" = None) -> Round:
        from repro.service import ScenarioRequest

        rnd = Round() if rnd is None else rnd
        records: list = [None] * len(reqs)
        inflight: dict = {}

        def submit(i: int) -> None:
            rid = f"{tag}.{i}"
            t0 = time.perf_counter()
            self.svc.submit(ScenarioRequest(id=rid, kind=reqs[i].kind,
                                            params=reqs[i].params))
            inflight[rid] = (i, t0, time.perf_counter() - t0)

        nxt = 0
        while nxt < min(self.OUTSTANDING, len(reqs)):
            submit(nxt)
            nxt += 1
        for _ in range(len(reqs)):
            t_done, res = self._done.get(timeout=120)
            i, t0, submit_s = inflight.pop(res.id)
            records[i] = {
                "key": reqs[i].key, "status": res.status, "payload": res.payload,
                "checksum": res.checksum, "degraded": res.degraded,
                "tier": res.tier, "stage_s": sum(res.stage_s.values()),
                "latency_s": t_done - t0, "submit_s": submit_s,
            }
            if nxt < len(reqs):
                submit(nxt)
                nxt += 1
        rnd.outputs = records
        rnd.latencies = [r["latency_s"] for r in records]
        rnd.kinds = [r.kind for r in reqs]
        rnd.attempted = len(records)
        rnd.failed = sum(1 for r in records if r["status"] != "completed")
        rnd.scenarios = rnd.attempted - rnd.failed
        return rnd

    def run_round(self, rnd: Round, reference=None) -> None:
        """One closed-loop pass over the round's requests (host times
        are never speed-normalised here, so ``reference`` is unused)."""
        self._round_no += 1
        self._drive(self.requests, f"r{self._round_no}", rnd)

    def sim_totals(self, rnd: Round) -> tuple[float, float]:
        done = [r["payload"] for r in rnd.outputs if r["status"] == "completed"]
        return (math.fsum(p["total_bytes"] for p in done),
                math.fsum(p["makespan_s"] for p in done))

    def peak_rss_mb(self) -> float:
        import multiprocessing

        workers = sum(_vm_hwm_mb(p.pid) for p in multiprocessing.active_children())
        return _self_rss_mb() + workers

    def close(self) -> None:
        if self.svc is None:
            return
        self.svc.close(drain=True, timeout=60)
        self.svc = None
        # The service's queues started the standard library's resource
        # tracker process.  Once their semaphores are collected, stop and
        # reap it, so the benchmark leaves no process of its own behind.
        import gc
        from multiprocessing import resource_tracker

        gc.collect()
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    def replay(self, reqs: "list[_Req] | None" = None) -> None:
        """Run requests in-process, as the worker would (isolation)."""
        from repro.service import execute_request

        for r in reqs if reqs is not None else self.requests:
            execute_request(r.kind, r.params)

    def claims(self, rounds: list[Round]) -> list[oracle.Claim]:
        from repro.service import execute_request

        out: list[oracle.Claim] = []
        expected: dict = {}
        for r in self.distinct:
            with oracle.capture_programs() as progs:
                payload, _, _ = execute_request(r.kind, r.params)
            expected[r.key] = payload
            cap, params, flows, _ = progs[-1]
            out.append(oracle.Claim("replay", oracle.check_replay, {
                "label": f"{r.kind} {r.params}", "makespan": payload["makespan_s"],
                "replay": oracle.seed_makespan(cap, params, flows)}))
        for rnd in rounds:
            for rec in rnd.outputs:
                if rec["status"] != "completed":
                    continue  # counted in ``failed``
                out.append(oracle.Claim("service", oracle.check_service_record, {
                    "label": f"service {rec['key']}", "rec": rec,
                    "expected": expected[rec["key"]]}))
        return out

    def situ_metrics(self, rounds: list[Round]) -> dict:
        recs = [r for rnd in rounds for r in rnd.outputs if r["status"] == "completed"]
        stage = [r["stage_s"] for r in recs]
        return {
            "service.submit_us": 1e6 * statistics.median(r["submit_s"] for r in recs),
            "service.outside_worker_ms": 1e3 * statistics.median(
                r["latency_s"] - r["stage_s"] for r in recs),
            "service.worker_stage_ms": 1e3 * statistics.median(stage),
            "service.worker_busy_frac": math.fsum(stage) / sum(r.wall_s for r in rounds),
        }


# ---------------------------------------------------------------------------
# campaign-faulted


class CampaignFaulted:
    """A few hundred p2p/group/fanin scenarios at 128 nodes: a third with
    link faults drawn on their own planned routes inside their fault-free
    makespan, a sixth with silent-corruption models, the rest clean."""

    name = "campaign-faulted"
    # The program's own repro.obs tracer cannot be on during a batched
    # resilient run: the executor's per-scenario generators hold their
    # round spans open across ``yield``, so their exits interleave and
    # the tracer raises "span stack corrupted".
    program_tracer_ok = False
    SPEED_NORMALISED = True
    NNODES = 128
    GEOMETRIES = ("p2p", "group", "fanin")
    SIZES_MIB = (2, 4, 6, 8)
    #: Scenarios per geometry x size cell: a third link-faulted, a sixth
    #: corrupted, half clean.
    CLASS_MIX = (("link", 6), ("sdc", 3), ("free", 9))
    N = len(GEOMETRIES) * len(SIZES_MIB) * sum(k for _, k in CLASS_MIX)  # 216
    LINK_KINDS = ("hard-down", "brownout", "flapping", "cascading")
    SDC_KINDS = ("bit-flip", "corrupting-proxy")

    def __init__(self, seed: int):
        rng = self.rng = random.Random(f"{self.name}:{seed}")
        n = self.NNODES
        # Every seed runs the same mix -- each geometry x size cell holds
        # the same scenarios per fault class -- so seeds vary only the
        # nodes, the order and the fault draws.
        scen = [(g, mib, cls) for g in self.GEOMETRIES for mib in self.SIZES_MIB
                for cls, k in self.CLASS_MIX for _ in range(k)]
        rng.shuffle(scen)
        self.classes = [cls for _, _, cls in scen]
        # The k-th scenario of a class gets that class's k-th fault kind,
        # so each kind occurs equally often.
        seen = {cls: 0 for cls, _ in self.CLASS_MIX}
        self.kind_index = []
        for cls in self.classes:
            self.kind_index.append(seen[cls])
            seen[cls] += 1
        self.pair_sets: list[list[tuple[int, int]]] = []
        self.nbytes: list[int] = []
        for g, mib, _ in scen:
            nodes = rng.sample(range(n), 6)
            if g == "p2p":
                pairs = [(nodes[0], nodes[1])]
            elif g == "group":
                pairs = [(nodes[0], nodes[3]), (nodes[1], nodes[4]), (nodes[2], nodes[5])]
            else:
                pairs = [(nodes[0], nodes[3]), (nodes[1], nodes[3]), (nodes[2], nodes[3])]
            self.pair_sets.append(pairs)
            self.nbytes.append(mib * MiB)

    def setup(self) -> None:
        from repro.core.multipath import TransferSpec, run_transfer_many
        from repro.machine import mira_system

        self._run_many = run_transfer_many
        self.system = mira_system(nnodes=self.NNODES)
        self.spec_sets = [
            [TransferSpec(src=s, dst=d, nbytes=nb) for s, d in pairs]
            for pairs, nb in zip(self.pair_sets, self.nbytes)
        ]
        base = run_transfer_many(self.system, self.spec_sets,
                                 traces=[None] * self.N)
        self.traces, self.sdcs, self.fault_kinds = [], [], []
        for i, out in enumerate(base):
            trace, sdc, kind = self._draw(i, out)
            self.traces.append(trace)
            self.sdcs.append(sdc)
            self.fault_kinds.append(kind)
        self.run_round(Round())  # warm-up

    def _routes(self, i: int, out) -> tuple[list[tuple[int, ...]], set[int], list[int]]:
        """Carrier routes (direct-path links removed), direct-path links
        and proxies of scenario ``i``'s fault-free plan."""
        direct = {l for s in self.spec_sets[i]
                  for l in self.system.compute_path(s.src, s.dst).links}
        routes, proxies = [], []
        for plan in out.resilience.plans:
            if plan.strategy != "proxy":
                continue
            asg = plan.assignment
            for j in range(asg.k):
                r = tuple(l for l in asg.phase1[j].links + asg.phase2[j].links
                          if l not in direct)
                if r:
                    routes.append(r)
                    proxies.append(asg.proxies[j])
        return routes, direct, proxies

    def _draw(self, i: int, out):
        """Seeded faults for scenario ``i``.  Links of every pair's direct
        path are never taken down, so every pair keeps a surviving route."""
        from repro.machine.faults import FaultEvent, FaultTrace, SDCModel

        cls = self.classes[i]
        if cls == "free":
            return None, None, "none"
        rng = self.rng
        m = out.makespan
        routes, direct, proxies = self._routes(i, out)
        events: list = []

        def down(links, start, end=math.inf, factor=0.0):
            events.extend(FaultEvent(link=l, factor=factor, start=start, end=end)
                          for l in sorted(set(links)))

        if cls == "sdc":
            kind = self.SDC_KINDS[self.kind_index[i] % len(self.SDC_KINDS)]
            if kind == "corrupting-proxy" and proxies:
                return None, SDCModel(corrupt_proxies={rng.choice(proxies): 1.0},
                                      seed=rng.randrange(1 << 30)), kind
            # One carrier link flips every extent that crosses it: the
            # detection is certain and the corrupted route is replaceable.
            links = sorted({l for r in routes for l in r})
            if links:
                flips = {rng.choice(links): 1.0}
            else:  # all pairs direct: a sometimes-flipping direct link
                flips = {rng.choice(sorted(direct)): 0.5}
            return None, SDCModel(flip_links=flips, stale_rate=0.2,
                                  seed=rng.randrange(1 << 30)), "bit-flip"
        kind = self.LINK_KINDS[self.kind_index[i] % len(self.LINK_KINDS)]
        if not routes:  # all pairs direct: brown the direct links out
            down(direct, m * rng.uniform(0.2, 0.5), m * rng.uniform(1.0, 2.0),
                 rng.uniform(0.1, 0.3))
            return FaultTrace(events=tuple(events)), None, "brownout-direct"
        t0 = m * rng.uniform(0.2, 0.6)
        if kind == "hard-down":
            for r in rng.sample(routes, min(len(routes), rng.choice((1, 2)))):
                down(r, t0)
        elif kind == "brownout":
            for r in rng.sample(routes, max(1, len(routes) // 2)):
                down(r, t0, t0 + m * rng.uniform(1.0, 2.0), rng.uniform(0.02, 0.08))
        elif kind == "flapping":
            r = rng.choice(routes)
            period = m * rng.uniform(0.3, 0.5)
            duty = period * rng.uniform(0.6, 0.8)
            t0 = m * rng.uniform(0.05, 0.2)
            for k in range(6):
                down(r, t0 + k * period, t0 + k * period + duty)
        else:  # cascading: one route down, a second later, a third browned out
            order = rng.sample(routes, len(routes))
            down(order[0], t0)
            if len(order) > 1:
                down(order[1], t0 + m * rng.uniform(0.1, 0.3))
            if len(order) > 2:
                t2 = t0 + m * rng.uniform(0.2, 0.4)
                down(order[2], t2, t2 + m, rng.uniform(0.05, 0.2))
        return FaultTrace(events=tuple(events)), None, kind

    def _records(self, outs) -> list[dict]:
        recs = []
        for cls, out in zip(self.classes, outs):
            r = out.resilience
            t = r.telemetry
            recs.append({
                "cls": cls, "makespan": out.makespan,
                "total_bytes": out.total_bytes,
                "delivered_bytes": r.delivered_bytes,
                "residue_bytes": r.residue_bytes, "complete": r.complete,
                "rounds": t.rounds, "retries": t.retries,
                "bytes_resent": t.bytes_resent, "bytes_redriven": t.bytes_redriven,
                "corrupted_acknowledged_bytes": r.corrupted_acknowledged_bytes,
            })
        return recs

    def _op(self):
        return self._run_many(self.system, self.spec_sets, traces=self.traces,
                              sdc=self.sdcs)

    def run_round(self, rnd: Round, reference=None) -> None:
        """One operation; ``reference()`` (if given) is timed after it."""
        rnd.attempted = 1
        rnd.kinds.append("campaign")
        t0 = time.perf_counter()
        try:
            outs = self._op()
        except Exception:  # a failed operation is counted, not fatal
            outs = None
        rnd.latencies.append(time.perf_counter() - t0)
        if reference is not None:
            rnd.refs.append(reference())
        if outs is None:
            rnd.failed = 1
            return
        rnd.outputs.append(self._records(outs))
        rnd.scenarios = self.N

    def sim_totals(self, rnd: Round) -> tuple[float, float]:
        recs = rnd.outputs[0]
        return (math.fsum(r["delivered_bytes"] for r in recs),
                math.fsum(r["makespan"] for r in recs))

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def close(self) -> None:
        pass

    def replay(self) -> None:
        self._op()

    def claims(self, rounds: list[Round]) -> list[oracle.Claim]:
        with oracle.capture_batches() as batches:
            outs = self._op()
        expected = self._records(outs)
        out = [oracle.Claim("campaign", oracle.check_campaign,
                            {"label": self.name, "records": expected})]
        for rnd in rounds:
            for recs in rnd.outputs:
                out.append(oracle.Claim("same", oracle.check_same, {
                    "label": f"{self.name} timed op", "got": recs,
                    "expected": expected}))
        for i, (cls, o) in enumerate(zip(self.classes, outs)):
            if cls != "free":
                continue
            cap, flows, params = batches[id(o.resilience.round_results[0])]
            out.append(oracle.Claim("replay", oracle.check_replay, {
                "label": f"{self.name}#{i}", "makespan": o.makespan,
                "replay": oracle.seed_makespan(cap, params, flows)}))
        return out

    def resilience_metrics(self, rounds: list[Round]) -> dict:
        recs = [r for rnd in rounds for recs in rnd.outputs for r in recs]
        nops = sum(len(rnd.outputs) for rnd in rounds)
        req = math.fsum(r["total_bytes"] for r in recs)
        extra = math.fsum(r["bytes_resent"] + r["bytes_redriven"] for r in recs)
        return {
            "resilience.executor.rounds": sum(r["rounds"] for r in recs) / nops,
            "resilience.executor.retries": sum(r["retries"] for r in recs) / nops,
            "resilience.executor.bytes_resent_mb": extra / MiB / nops,
            "resilience.executor.goodput_frac": req / (req + extra),
        }


# ---------------------------------------------------------------------------
# io-topology / io-collective


class IOWrite:
    """8192-core writes of patterns 1, 2 and hacc, one method.

    Each write is exactly the request a user would send, so it runs on
    the program's default pattern data and settings; the seed only
    rotates the order of the three writes within a round.
    """

    SPEED_NORMALISED = True
    NCORES = 8192
    PATTERNS = ("1", "2", "hacc")
    #: The pattern seed an io request uses when it names none.
    PATTERN_SEED = 2014

    def __init__(self, seed: int, method: str, name: str):
        self.name = name
        self.method = method
        k = random.Random(f"{name}:{seed}").randrange(len(self.PATTERNS))
        order = self.PATTERNS[k:] + self.PATTERNS[:k]
        self.ops = [{"ncores": self.NCORES, "pattern": p, "method": method}
                    for p in order]

    def setup(self) -> None:
        from repro.service import execute_request

        self._exec = execute_request
        # Warm-up: the cheapest write builds the machine and its caches.
        execute_request("io", next(op for op in self.ops if op["pattern"] == "hacc"))

    def run_round(self, rnd: Round, reference=None) -> None:
        """The three writes; ``reference()`` (if given) is timed after each."""
        for params in self.ops:
            rnd.attempted += 1
            rnd.kinds.append(params["pattern"])
            t0 = time.perf_counter()
            try:
                payload, _, _ = self._exec("io", params)
            except Exception:  # a failed operation is counted, not fatal
                rnd.failed += 1
                payload = None
            rnd.latencies.append(time.perf_counter() - t0)
            if reference is not None:
                rnd.refs.append(reference())
            rnd.outputs.append(payload)
        rnd.scenarios = rnd.attempted - rnd.failed

    def sim_totals(self, rnd: Round) -> tuple[float, float]:
        done = [p for p in rnd.outputs if p is not None]
        return (math.fsum(p["total_bytes"] for p in done),
                math.fsum(p["makespan_s"] for p in done))

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def close(self) -> None:
        pass

    def replay(self) -> None:
        for params in self.ops:
            self._exec("io", params)

    def pattern_total(self, params: dict) -> float:
        """The pattern's byte total, recomputed from the workload
        generators the request names."""
        from repro.workloads import hacc_io_sizes, pareto_pattern, uniform_pattern

        nranks = params["ncores"]  # one rank per core
        p = params["pattern"]
        if p == "1":
            sizes = uniform_pattern(nranks, seed=self.PATTERN_SEED)
        elif p == "2":
            sizes = pareto_pattern(nranks, seed=self.PATTERN_SEED)
        else:
            sizes = hacc_io_sizes(nranks)
        return float(sizes.sum())

    def claims(self, rounds: list[Round]) -> list[oracle.Claim]:
        from repro.machine import mira_system

        system = mira_system(ncores=self.NCORES)
        bridges = [system.io_link_id(b) for b in sorted(system.bridge_nodes)]
        out: list[oracle.Claim] = []
        for k, params in enumerate(self.ops):
            label = f"{self.name} pattern {params['pattern']}"
            with oracle.capture_programs() as progs:
                expected, _, _ = self._exec("io", params)
            cap, net, flows, result = progs[-1]
            total = self.pattern_total(params)
            for rnd in rounds:
                if rnd.outputs[k] is not None:
                    out.append(oracle.Claim("payload", oracle.check_same_payload, {
                        "label": label, "got": rnd.outputs[k], "expected": expected}))
            out.append(oracle.Claim("io_physical", oracle.check_io_physical, {
                "label": label, "link_bytes": result.link_bytes,
                "capacity": system.capacity, "makespan": result.makespan,
                "bridge_links": bridges, "expected_total": total}))
            out.append(oracle.Claim("same", oracle.check_same, {
                "label": f"{label} total_bytes", "got": expected["total_bytes"],
                "expected": total}))
            out.append(oracle.Claim("replay", oracle.check_replay, {
                "label": label, "makespan": expected["makespan_s"],
                "replay": oracle.seed_makespan(cap, net, flows),
                "tol": oracle.IO_REPLAY_TOL}))
        return out


WORKLOADS = {
    "serve-transfer": ServeTransfer,
    "campaign-faulted": CampaignFaulted,
    "io-topology": lambda seed: IOWrite(seed, "topology_aware", "io-topology"),
    "io-collective": lambda seed: IOWrite(seed, "collective", "io-collective"),
}
