"""Open/closed-loop load runner driving the scenario service.

The runner takes a pre-built :class:`~repro.loadgen.arrivals.Schedule`
and replays it against a **transport**:

* :class:`InProcessTransport` — a live :class:`ScenarioService` in this
  process (the default; cheapest, and exposes service metrics);
* :class:`ServeTransport` — a ``repro serve`` subprocess over JSONL
  stdin/stdout (exercises the real wire path).

**Open loop** (default) paces submissions by the schedule's arrival
instants regardless of completions — the only honest way to measure an
overloaded service, since a closed loop self-throttles and hides
queueing collapse.  **Closed loop** instead keeps a fixed number of
client workers each running one request at a time (classic
concurrency-N benchmarking).

Each request's lifecycle runs on a client thread: submit, wait for the
terminal record, and on a *retriable* turn-away (queue full, adaptive
shed, circuit open) retry under the run's shared
:class:`~repro.loadgen.retry.RetryBudget` with full-jitter backoff.
Every scheduled request ends in exactly one
:class:`RequestOutcome` — ``completed``/``failed``/``shed`` from the
service, or ``rejected`` when admission turned it away terminally.

In an open loop, latency is measured from the *scheduled* arrival
instant, not the submit instant, so client-side stalls cannot hide
service queueing delay (no coordinated omission).  A closed loop issues
each request when a client slot frees up, ahead of or behind the
schedule, so its latency runs from the first submit instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.loadgen.arrivals import (
    ARRIVAL_PROCESSES,
    Schedule,
    ScheduledRequest,
    build_schedule,
    make_profile,
)
from repro.loadgen.mix import get_mix, mix_reference
from repro.loadgen.retry import RetryBudget, full_jitter_backoff
from repro.loadgen.stats import summarize
from repro.service.errors import ServiceError
from repro.service.request import TERMINAL_STATUSES, ScenarioRequest
from repro.util.validation import ConfigError

#: Client-visible terminal states (service terminals + client rejection).
OUTCOME_STATUSES = TERMINAL_STATUSES + ("rejected",)

#: Upper bound on concurrent client threads in open-loop mode.
_MAX_CLIENT_THREADS = 128


@dataclass(frozen=True)
class LoadConfig:
    """One load run, fully specified (and fully seeded).

    ``arrival``/``profile``/``rate``/``duration_s``/``mix``/``seed``
    define the offered load; ``mode`` picks open vs closed loop;
    the ``retry_*`` knobs shape the client retry discipline.
    """

    arrival: str = "poisson"
    profile: str = "constant"
    rate: float = 20.0
    rate_end: "float | None" = None
    steps: "tuple[tuple[float, float], ...]" = ()
    duration_s: float = 10.0
    mix: str = "spin"
    seed: int = 2014
    mode: str = "open"
    closed_concurrency: int = 8
    burst_size: int = 8
    deadline_s: "float | None" = None
    params_override: "Mapping[str, Any] | None" = None
    max_attempts: int = 3
    retry_base_s: float = 0.02
    retry_cap_s: float = 0.5
    retry_budget: float = 20.0
    retry_refill_per_s: float = 5.0

    def __post_init__(self):
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ConfigError(
                f"unknown arrival {self.arrival!r}; known: {ARRIVAL_PROCESSES}"
            )
        if self.mode not in ("open", "closed"):
            raise ConfigError(f"mode must be 'open' or 'closed', got {self.mode!r}")
        if self.closed_concurrency < 1:
            raise ConfigError(
                f"closed_concurrency must be >= 1, got {self.closed_concurrency}"
            )
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def build_schedule(self, run_id: str = "load") -> Schedule:
        """Materialise this config's deterministic request schedule."""
        profile = make_profile(
            self.profile,
            rate=self.rate,
            duration_s=self.duration_s,
            rate_end=self.rate_end,
            steps=self.steps or None,
        )
        return build_schedule(
            process=self.arrival,
            profile=profile,
            mix=get_mix(self.mix),
            seed=self.seed,
            run_id=run_id,
            burst_size=self.burst_size,
            deadline_s=self.deadline_s,
            params_override=self.params_override,
        )

    def to_dict(self) -> dict:
        """JSON-able config (embedded in reports for provenance)."""
        return {
            "arrival": self.arrival,
            "profile": self.profile,
            "rate": self.rate,
            "rate_end": self.rate_end,
            "steps": [list(s) for s in self.steps],
            "duration_s": self.duration_s,
            "mix": self.mix,
            "seed": self.seed,
            "mode": self.mode,
            "closed_concurrency": self.closed_concurrency,
            "burst_size": self.burst_size,
            "deadline_s": self.deadline_s,
            "max_attempts": self.max_attempts,
            "retry_budget": self.retry_budget,
            "retry_refill_per_s": self.retry_refill_per_s,
        }


@dataclass
class RequestOutcome:
    """One scheduled request's single client-visible terminal state."""

    id: str
    kind: str
    status: str
    error: "str | None" = None
    scheduled_at: float = 0.0
    submitted_at: "float | None" = None
    finished_at: "float | None" = None
    attempts: int = 1
    tier: int = 0
    degraded: bool = False
    closed_loop: bool = False

    @property
    def latency_s(self) -> "float | None":
        """Latency of a completed request: from its scheduled arrival in
        an open loop, from its submit (``submitted_at``, the first
        attempt's) in a closed loop."""
        if self.status != "completed" or self.finished_at is None:
            return None
        if self.closed_loop and self.submitted_at is not None:
            return self.finished_at - self.submitted_at
        return self.finished_at - self.scheduled_at

    def to_dict(self) -> dict:
        """JSON-able outcome record (``--outcomes`` report section)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "error": self.error,
            "scheduled_at": self.scheduled_at,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "tier": self.tier,
            "degraded": self.degraded,
            "closed_loop": self.closed_loop,
            "latency_s": self.latency_s,
        }


class InProcessTransport:
    """Drive a live :class:`ScenarioService` in this process.

    ``execute`` blocks the calling client thread until the request is
    terminal; retriable admission rejections come back as a
    ``status="rejected"`` record instead of an exception, so the runner
    treats both transports identically.

    A service delivers each result once.  Without an ``on_result``
    callback that is to ``service.result``; a service with one needs
    ``await_result(request_id)``, which waits for the callback's copy.
    """

    def __init__(self, service, *, await_result=None):
        self.service = service
        self._await = service.result if await_result is None else await_result

    def execute(self, req: ScenarioRequest) -> dict:
        """Submit and block until terminal; rejections become records."""
        try:
            self.service.submit(req)
        except ServiceError as exc:
            return {
                "status": "rejected",
                "retriable": exc.retriable,
                "error": f"{exc.code}: {exc}",
            }
        r = self._await(req.id)
        return {
            "status": r.status,
            "error": r.error,
            "tier": r.tier,
            "degraded": r.degraded,
            "retriable": r.status == "shed",
        }

    def close(self) -> None:  # service lifetime is the caller's
        """No-op: the caller owns the service."""
        pass


class ServeTransport:
    """Drive a ``repro serve`` subprocess over JSONL stdin/stdout.

    A single reader thread demultiplexes result lines (completion order
    is not submission order) to per-request events keyed by id.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_cap: int = 32,
        deadline_s: "float | None" = None,
        admission: str = "static",
        extra_args: "Sequence[str]" = (),
        timeout_s: float = 120.0,
    ):
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--workers", str(workers), "--queue-cap", str(queue_cap),
            "--admission", admission,
        ]
        if deadline_s is not None:
            cmd += ["--deadline", str(deadline_s)]
        cmd += list(extra_args)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.timeout_s = timeout_s
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env,
        )
        self._wlock = threading.Lock()
        self._lock = threading.Lock()
        self._waiters: "dict[str, tuple[threading.Event, dict]]" = {}
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            rid = doc.get("id")
            with self._lock:
                waiter = self._waiters.pop(rid, None)
            if waiter is not None:
                ev, box = waiter
                box["doc"] = doc
                ev.set()

    def execute(self, req: ScenarioRequest) -> dict:
        """Write one JSONL request and wait for its result line."""
        ev, box = threading.Event(), {}
        with self._lock:
            self._waiters[req.id] = (ev, box)
        assert self.proc.stdin is not None
        with self._wlock:
            self.proc.stdin.write(json.dumps(req.to_dict()) + "\n")
            self.proc.stdin.flush()
        if not ev.wait(self.timeout_s):
            with self._lock:
                self._waiters.pop(req.id, None)
            return {
                "status": "rejected", "retriable": False,
                "error": f"transport-timeout: no record within {self.timeout_s}s",
            }
        doc = box["doc"]
        if doc.get("status") == "rejected":
            return {
                "status": "rejected",
                "retriable": bool(doc.get("retriable", False)),
                "error": doc.get("error"),
            }
        return {
            "status": doc.get("status"),
            "error": doc.get("error"),
            "tier": int(doc.get("tier", 0)),
            "degraded": bool(doc.get("degraded", False)),
            "retriable": doc.get("status") == "shed",
        }

    def close(self) -> None:
        """EOF the daemon's stdin (drains and exits), then reap it."""
        try:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except Exception:
            self.proc.kill()

    def __enter__(self) -> "ServeTransport":
        """Context manager: the transport itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the daemon on scope exit."""
        self.close()


@dataclass
class LoadReport:
    """Everything one load run produced."""

    outcomes: "list[RequestOutcome]"
    duration_s: float
    schedule_checksum: str
    wall_s: float
    config: dict = field(default_factory=dict)
    mix_reference: "dict | None" = None

    def latencies(self) -> "list[float]":
        """Completed requests' schedule-to-terminal latencies."""
        return [o.latency_s for o in self.outcomes if o.latency_s is not None]

    def summary(self, *, seed: int = 0, n_boot: int = 500) -> dict:
        """The :func:`~repro.loadgen.stats.summarize` document."""
        doc = summarize(self.outcomes, self.duration_s, seed=seed, n_boot=n_boot)
        doc["schedule_checksum"] = self.schedule_checksum
        doc["wall_s"] = self.wall_s
        return doc

    def to_dict(self, *, include_outcomes: bool = False, seed: int = 0) -> dict:
        """The report file body (config + summary [+ outcomes])."""
        doc = {"config": self.config, "summary": self.summary(seed=seed)}
        if self.mix_reference:
            doc["mix_reference"] = self.mix_reference
        if include_outcomes:
            doc["outcomes"] = [o.to_dict() for o in self.outcomes]
        return doc


def _retry_request(item: ScheduledRequest, attempt: int) -> ScenarioRequest:
    """Attempt >= 2 resubmits need a fresh id (ids are unique per
    service lifetime — the journal and dedup are keyed on them)."""
    return replace(item.request, id=f"{item.request.id}-r{attempt - 1}")


def run_schedule(
    schedule: Schedule,
    transport,
    cfg: LoadConfig,
    *,
    clock=time.monotonic,
    sleep=time.sleep,
) -> LoadReport:
    """Replay ``schedule`` through ``transport`` per ``cfg.mode``."""
    budget = RetryBudget(
        capacity=cfg.retry_budget, refill_per_s=cfg.retry_refill_per_s, clock=clock
    )
    outcomes: "list[RequestOutcome | None]" = [None] * len(schedule.items)
    t0 = clock()

    def lifecycle(index: int, item: ScheduledRequest) -> None:
        rng = np.random.default_rng([cfg.seed, 2, index])
        attempt = 0
        rec: dict = {"status": "rejected", "retriable": False, "error": "not-run"}
        submitted_at = None
        while attempt < cfg.max_attempts:
            attempt += 1
            req = item.request if attempt == 1 else _retry_request(item, attempt)
            if submitted_at is None:
                submitted_at = clock() - t0
            rec = transport.execute(req)
            if rec["status"] in ("rejected", "shed") and rec.get("retriable"):
                if attempt < cfg.max_attempts and budget.try_spend():
                    sleep(
                        full_jitter_backoff(
                            attempt - 1,
                            base_s=cfg.retry_base_s,
                            cap_s=cfg.retry_cap_s,
                            rng=rng,
                        )
                    )
                    continue
            break
        outcomes[index] = RequestOutcome(
            id=item.request.id,
            kind=item.request.kind,
            status=rec["status"],
            error=rec.get("error"),
            scheduled_at=item.at_s,
            submitted_at=submitted_at,
            finished_at=clock() - t0,
            attempts=attempt,
            tier=int(rec.get("tier", 0)),
            degraded=bool(rec.get("degraded", False)),
            closed_loop=cfg.mode == "closed",
        )

    if cfg.mode == "closed":
        max_workers = cfg.closed_concurrency
    else:
        max_workers = _MAX_CLIENT_THREADS
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = []
        for i, item in enumerate(schedule.items):
            if cfg.mode == "open":
                delay = item.at_s - (clock() - t0)
                if delay > 0:
                    sleep(delay)
            futures.append(pool.submit(lifecycle, i, item))
        for f in futures:
            f.result()
    wall_s = clock() - t0
    done = [o for o in outcomes if o is not None]
    return LoadReport(
        outcomes=done,
        duration_s=schedule.duration_s,
        schedule_checksum=schedule.checksum(),
        wall_s=wall_s,
        config=cfg.to_dict(),
    )


def run_load(
    cfg: LoadConfig,
    transport,
    *,
    run_id: str = "load",
    clock=time.monotonic,
    sleep=time.sleep,
) -> LoadReport:
    """Build ``cfg``'s schedule and replay it through ``transport``.

    After the run (so the extra simulation cannot perturb its timing),
    the mix's unloaded per-kind reference payloads are computed in one
    batched pass (:func:`repro.loadgen.mix.mix_reference`) and attached
    to the report as ``mix_reference``.
    """
    schedule = cfg.build_schedule(run_id)
    report = run_schedule(schedule, transport, cfg, clock=clock, sleep=sleep)
    try:
        report.mix_reference = mix_reference(
            cfg.mix, params_override=cfg.params_override
        )
    except Exception:  # advisory context; never fail a finished load run
        report.mix_reference = None
    return report
