"""Properties of the load harness's latency and goodput reporting.

A closed loop issues each request when a client slot frees up, so its
latency must run from submit, not from the (possibly later) scheduled
instant; and rates are taken over the observed window, not the
nominal duration.
"""

import time

from hypothesis import given, settings, strategies as st

from repro.loadgen import LoadConfig, RequestOutcome, summarize
from repro.loadgen.runner import run_schedule

instants = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
service_times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def outcomes(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    closed = draw(st.booleans())
    out = []
    for i in range(n):
        scheduled = draw(instants)
        # An open loop never submits ahead of the schedule; a closed
        # loop submits whenever a slot frees, before or after it.
        submitted = draw(instants) if closed else scheduled + draw(service_times)
        finished = submitted + draw(service_times)
        out.append(
            RequestOutcome(
                id=f"o{i}",
                kind="spin",
                status=draw(st.sampled_from(["completed", "completed", "shed", "failed"])),
                scheduled_at=scheduled,
                submitted_at=submitted,
                finished_at=finished,
                closed_loop=closed,
            )
        )
    return out


class TestReportingProperties:
    @settings(max_examples=200, deadline=None)
    @given(outs=outcomes())
    def test_latency_is_never_negative(self, outs):
        for o in outs:
            if o.latency_s is not None:
                assert o.latency_s >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(outs=outcomes(), duration=st.floats(min_value=0.1, max_value=100.0))
    def test_goodput_within_completed_over_observed_window(self, outs, duration):
        s = summarize(outs, duration, seed=0, n_boot=20)
        done = [o for o in outs if o.status == "completed"]
        if not done:
            assert s["goodput_rps"] == 0.0
            return
        window = max(o.finished_at for o in done)
        assert s["window_s"] == window
        if window > 0:
            assert s["goodput_rps"] <= len(done) / window * (1 + 1e-12)


class _SleepTransport:
    """Serves every request in a fixed wall time, with no queueing."""

    def __init__(self, service_s: float):
        self.service_s = service_s

    def execute(self, req):
        time.sleep(self.service_s)
        return {"status": "completed", "error": None, "tier": 0, "degraded": False}


class TestOpenClosedAgreement:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_loops_agree_at_low_load(self, seed):
        # 20 rps against a 10 ms, never-saturated server: both loops
        # see the service time.  Measured from the schedule, the closed
        # loop (which runs ahead of it) would read negative latencies.
        service_s = 0.01
        p50 = {}
        for mode in ("open", "closed"):
            cfg = LoadConfig(
                rate=20.0, duration_s=0.5, mix="spin", seed=seed, mode=mode,
                closed_concurrency=4,
            )
            report = run_schedule(
                cfg.build_schedule(), _SleepTransport(service_s), cfg
            )
            lat = sorted(report.latencies())
            assert lat and min(lat) >= service_s
            p50[mode] = lat[len(lat) // 2]
        assert abs(p50["open"] - p50["closed"]) < 0.05, p50
