"""Output checks, computed apart from the program under test.

Every check takes plain numbers and returns a list of failure strings
(empty = pass), so ``check.py --self-test`` can feed each one a
deliberately perturbed output and show it is rejected.

Oracles:

* the retained seed simulator (``benchmarks/_seed_flowsim.py``), which
  replays a captured flow program in exact mode;
* in-process recomputation of the same request through the program's
  public entry point (payloads are pure functions of their params);
* physical and ledger properties: link loads within capacity, bytes
  conserved on the bridge->ION links, delivered == requested, zero
  corrupted bytes acknowledged.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

#: Relative tolerance of an exact-mode makespan against its seed replay.
#: Both simulators solve the same max-min fluid model event by event;
#: measured agreement is bit-exact, the slack only absorbs a different
#: floating-point summation order.
EXACT_REL_TOL = 1e-9

#: Relative tolerance of a default-settings io write against the seed's
#: exact replay, in both directions.  The io path runs with completion
#: batching (``batch_tol`` 0.05 by default), whose error per completion
#: is bounded by that tolerance; measured spread on the six 8192-core
#: writes is 7.7e-5 to 3.4e-2.
IO_REPLAY_TOL = 0.05

#: Relative slack on a link's load against capacity x makespan.
CAPACITY_SLACK = 1e-9

#: A recovery campaign fails its check unless more than this share of
#: its faulted (or corrupted) scenarios took at least one retry round.
MIN_RECOVERED_SHARE = 0.5


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def seed_makespan(capacity, params, flows) -> float:
    """Replay ``flows`` on the seed simulator in exact mode."""
    from _seed_flowsim import FlowSim as SeedFlowSim

    return SeedFlowSim(capacity, params).run(list(flows)).makespan


@contextlib.contextmanager
def capture_programs():
    """Record every ``FlowProgram.run`` call as ``(capacity, params,
    flows, result)`` while the block runs."""
    from repro.mpi.program import FlowProgram

    got: list = []
    orig = FlowProgram.run

    def run(self, *args, **kwargs):
        result = orig(self, *args, **kwargs)
        got.append((self.capacity_fn or self.system.capacity, self.params,
                    list(self.flows), result))
        return result

    FlowProgram.run = run
    try:
        yield got
    finally:
        FlowProgram.run = orig


@contextlib.contextmanager
def capture_batches():
    """Map ``id(result) -> (capacity, flows)`` for every scenario a
    ``BatchFlowSim.simulate_many`` call solves while the block runs."""
    from repro.network.batchsim import BatchFlowSim

    got: dict = {}
    keep: list = []  # results stay alive so their ids stay unique
    orig = BatchFlowSim.simulate_many

    def simulate_many(self, scenarios, *args, **kwargs):
        scenarios = list(scenarios)
        results = orig(self, scenarios, *args, **kwargs)
        for (cap, flows), res in zip(scenarios, results):
            keep.append(res)
            got[id(res)] = (cap, list(flows), self.params)
        return results

    BatchFlowSim.simulate_many = simulate_many
    try:
        yield got
    finally:
        BatchFlowSim.simulate_many = orig


@dataclass
class Claim:
    """One check with the real inputs it is applied to.

    ``kind`` names the perturbation ``check.py --self-test`` applies.
    """

    kind: str
    fn: object
    args: dict

    def failures(self) -> list[str]:
        return self.fn(**self.args)


def check_all(claims: "list[Claim]") -> list[str]:
    """Every failure of every claim."""
    return [f for c in claims for f in c.failures()]


# -- checks ------------------------------------------------------------------


def check_replay(label: str, makespan: float, replay: float,
                 tol: float = EXACT_REL_TOL) -> list[str]:
    """A simulated makespan agrees with its seed-simulator replay."""
    d = _rel(makespan, replay)
    if not d <= tol:
        return [f"{label}: makespan {makespan!r} vs seed replay {replay!r} "
                f"(rel diff {d:.3g} > {tol:g})"]
    return []


def check_same_payload(label: str, got: dict, expected: dict) -> list[str]:
    """A payload equals the in-process recomputation for its params and
    was not produced degraded."""
    out = []
    if got != expected:
        diff = sorted(k for k in set(got) | set(expected)
                      if got.get(k) != expected.get(k))
        out.append(f"{label}: payload differs from in-process run in {diff}")
    if got.get("degraded") or expected.get("degraded"):
        out.append(f"{label}: degraded payload")
    return out


def check_same(label: str, got, expected) -> list[str]:
    """An output equals its in-process recomputation exactly."""
    if got != expected:
        return [f"{label}: differs from in-process recomputation"]
    return []


def check_service_record(label: str, rec: dict, expected: dict) -> list[str]:
    """A service result: its payload equals the in-process payload, its
    checksum is the payload's, and it ran at full service (tier 0)."""
    from repro.util.checksum import payload_checksum

    out = check_same_payload(label, rec["payload"], expected)
    if rec["checksum"] != payload_checksum(rec["payload"]):
        out.append(f"{label}: checksum does not match payload")
    if rec["degraded"] or rec["tier"]:
        out.append(f"{label}: served at degradation tier {rec['tier']}")
    return out


def check_io_physical(label: str, link_bytes: dict, capacity, makespan: float,
                      bridge_links, expected_total: float) -> list[str]:
    """No link carries more than capacity x makespan, and the bytes on
    the bridge->ION links add up to the pattern's total."""
    out = []
    worst, worst_link = 0.0, None
    for link, nb in link_bytes.items():
        frac = nb / (capacity(link) * makespan)
        if frac > worst:
            worst, worst_link = frac, link
    if worst > 1.0 + CAPACITY_SLACK:
        out.append(f"{label}: link {worst_link} carries {worst:.6f} x "
                   f"capacity x makespan")
    on_bridges = sum(link_bytes.get(l, 0.0) for l in bridge_links)
    if on_bridges != expected_total:
        out.append(f"{label}: bridge->ION links carry {on_bridges!r} bytes, "
                   f"pattern total is {expected_total!r}")
    return out


def check_campaign(label: str, records: list[dict]) -> list[str]:
    """Ledger properties of one recovery campaign.

    ``records`` hold per scenario: ``cls`` (``free``/``link``/``sdc``),
    ``total_bytes``, ``delivered_bytes``, ``residue_bytes``,
    ``complete``, ``rounds`` and ``corrupted_acknowledged_bytes``.
    """
    out = []
    for i, r in enumerate(records):
        if r["delivered_bytes"] != r["total_bytes"] or r["residue_bytes"] != 0 \
                or not r["complete"]:
            out.append(f"{label}#{i}: delivered {r['delivered_bytes']} of "
                       f"{r['total_bytes']} bytes, residue {r['residue_bytes']}")
        if r["corrupted_acknowledged_bytes"] != 0:
            out.append(f"{label}#{i}: {r['corrupted_acknowledged_bytes']} "
                       f"corrupted bytes acknowledged")
    for cls in ("link", "sdc"):
        group = [r for r in records if r["cls"] == cls]
        if not group:
            continue
        recovered = sum(1 for r in group if r["rounds"] > 1)
        if not recovered > MIN_RECOVERED_SHARE * len(group):
            out.append(f"{label}: only {recovered}/{len(group)} {cls}-faulted "
                       f"scenarios took a recovery round")
    return out
