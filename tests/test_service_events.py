"""Event-driven supervision and exactly-once result delivery.

The supervisor wakes on worker results, worker exits and submit/close
wake-ups, never on a polling tick: with ``poll_interval_s`` set far
above the latencies asserted here, only an event-driven supervisor can
pass.  Results are handed over exactly once and then forgotten, so the
service's state is bounded by its outstanding requests.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.obs.metrics import get_registry
from repro.service import (
    COMPLETED,
    FAILED,
    ScenarioRequest,
    ScenarioService,
    ServiceConfig,
    UnknownRequestError,
)
from repro.util.validation import ConfigError

pytestmark = pytest.mark.timeout(180)

#: Far above every latency asserted below: a tick-driven supervisor fails.
SLOW_TICK = ServiceConfig(workers=1, poll_interval_s=2.0)


def spin(rid, duration_s=0.0, **kw):
    return ScenarioRequest(
        id=rid, kind="spin", params={"duration_s": duration_s}, **kw
    )


def _warm(svc, n=1):
    """Run one request per worker so no timing below includes a spawn."""
    for i in range(n):
        svc.submit(spin(f"warm{i}", duration_s=0.3))
    for i in range(n):
        assert svc.result(f"warm{i}", timeout=120).status == COMPLETED


class TestWakeOnEvents:
    def test_result_arrives_without_waiting_for_a_tick(self):
        with ScenarioService(SLOW_TICK) as svc:
            _warm(svc)
            for i in range(3):
                svc.submit(spin(f"fast{i}"))
                assert svc.result(f"fast{i}", timeout=1.0).status == COMPLETED

    def test_crash_is_redriven_at_once(self):
        cfg = ServiceConfig(workers=1, poll_interval_s=2.0, max_attempts=2)
        restarts = get_registry().counter("service.worker_restarts")
        with ScenarioService(cfg) as svc:
            _warm(svc)
            before = restarts.value
            t0 = time.monotonic()
            svc.submit(spin("boom", inject="crash"))
            # The worker's exit is an event: the supervisor restarts it
            # and re-dispatches the victim in the same pass.
            while restarts.value == before and time.monotonic() - t0 < 1.0:
                time.sleep(0.01)
            assert restarts.value > before, "crash not seen within 1 s"
            res = svc.result("boom", timeout=120)
        assert res.status == FAILED and res.error.startswith("poison:")
        assert res.attempts == 2

    def test_watchdog_fires_on_its_timer(self):
        cfg = ServiceConfig(workers=1, poll_interval_s=2.0, kill_grace_s=0.1)
        with ScenarioService(cfg) as svc:
            _warm(svc)
            svc.submit(spin("stuck", deadline_s=0.2, inject="hang"))
            res = svc.result("stuck", timeout=1.5)
        assert res.status == FAILED and "watchdog" in res.error

    def test_close_wakes_an_idle_supervisor(self):
        svc = ScenarioService(SLOW_TICK)
        _warm(svc)
        t0 = time.monotonic()
        svc.close(timeout=60)
        assert time.monotonic() - t0 < 10.0
        assert not svc._supervisor.is_alive()


class TestExactlyOnceDelivery:
    def test_on_result_service_keeps_no_per_request_state(self):
        seen = []
        under_lock = []
        lock = threading.Lock()
        svc_box = []

        def on_result(res):
            with lock:
                probe = len(seen) < 3
                seen.append(res.id)
            # Called outside the service lock, so a callback may use the
            # service (a bounded probe: the lock is not reentrant).
            if probe:
                if svc_box[0]._lock.acquire(timeout=1.0):
                    svc_box[0]._lock.release()
                else:
                    under_lock.append(res.id)

        cfg = ServiceConfig(workers=2, queue_cap=16)
        with ScenarioService(cfg, on_result=on_result) as svc:
            svc_box.append(svc)
            for i in range(200):
                svc.submit(spin(f"r{i}"), block=True, timeout=60)
            # wait_all returns once every callback has returned.
            assert svc.wait_all(timeout=120)
            with lock:
                assert sorted(seen) == sorted(f"r{i}" for i in range(200))
            assert not under_lock, "on_result ran under the service lock"
            stats = svc.stats()
            assert not svc._tracked and not svc._outbox
            with pytest.raises(ConfigError):
                svc.result("r0")  # delivered to on_result, not here
        assert stats["admitted"] == 200
        assert stats["completed"] == 200
        assert stats["failed"] == 0 and stats["shed"] == 0
        assert stats["queue_depth"] == 0 and stats["inflight"] == 0

    def test_first_result_call_takes_the_result(self):
        with ScenarioService(ServiceConfig(workers=1)) as svc:
            svc.submit(spin("x"))
            assert svc.result("x", timeout=120).status == COMPLETED
            assert not svc._tracked
            with pytest.raises(UnknownRequestError):
                svc.result("x")
            # Duplicate-id rejection covers undelivered ids only.
            svc.submit(spin("x"))
            with pytest.raises(ConfigError, match="duplicate"):
                svc.submit(spin("x"))
            assert svc.result("x", timeout=120).status == COMPLETED
            assert svc.stats()["admitted"] == 2


_ORPHAN_PARENT = textwrap.dedent(
    """
    import time
    from repro.service import ScenarioRequest, ScenarioService, ServiceConfig

    svc = ScenarioService(ServiceConfig(workers=1, hang_timeout_s=None))
    svc.submit(ScenarioRequest(id="warm", kind="spin"))
    svc.result("warm", timeout=120)
    svc.submit(ScenarioRequest(id="h", kind="spin", inject="hang"))
    while svc.stats()["inflight"] == 0:
        time.sleep(0.01)
    time.sleep(0.3)  # the warm worker reads the dispatch at once
    print(svc._workers[0].proc.pid, flush=True)
    time.sleep(600)
    """
)


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:  # an exited orphan nobody has reaped yet is gone as well
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestOrphanedWorker:
    def test_hung_worker_exits_when_its_parent_is_killed(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_PARENT],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        pid = None
        try:
            pid = int(parent.stdout.readline())
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while not _gone(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _gone(pid), f"hung worker {pid} outlived its parent"
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(timeout=30)
            parent.stdout.close()
            if pid is not None and not _gone(pid):
                os.kill(pid, signal.SIGKILL)
