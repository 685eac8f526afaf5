"""Run the benchmark's output checks on their own, and prove them.

Usage (from the repository root)::

    python3 perfbench/check.py                 # every workload, one round each
    python3 perfbench/check.py --self-test     # ... and perturb every check
    python3 perfbench/check.py --workload io-topology --seed 3

Each workload runs one round of its operations and every check is
applied to the outputs (``oracle.py``).  ``--self-test`` then feeds each
kind of check deliberately perturbed copies of those real outputs and
requires every one to be rejected:

* a makespan scaled by 1.001 (beyond the check's stated tolerance),
* one byte dropped (from a payload, a bridge->ION link or a campaign's
  delivered bytes),
* one corrupted extent acknowledged by a campaign's ledger.

Exit status is 0 only if every real output passes and every perturbed
one fails.
"""

from __future__ import annotations

import argparse
import copy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: One ledger extent of a corrupted, yet acknowledged, delivery.
EXTENT_BYTES = 1 << 16


def _scaled_past_tolerance(a: dict) -> None:
    import oracle

    a["makespan"] = a["replay"] * (1 + a.get("tol", oracle.EXACT_REL_TOL)) * 1.001


def _payload(a: dict, key: str) -> dict:
    return a["rec"]["payload"] if "rec" in a else a[key]


def _perturbations(kind: str):
    """``(description, mutate(args))`` pairs for one kind of check."""
    if kind == "replay":
        return [("makespan x1.001 past tolerance", _scaled_past_tolerance)]
    if kind in ("service", "payload"):
        return [
            ("makespan x1.001", lambda a: _payload(a, "got").update(
                makespan_s=_payload(a, "got")["makespan_s"] * 1.001)),
            ("one byte dropped", lambda a: _payload(a, "got").update(
                total_bytes=_payload(a, "got")["total_bytes"] - 1)),
        ]
    if kind == "io_physical":
        def drop(a):
            link = next(l for l in a["bridge_links"] if a["link_bytes"].get(l))
            a["link_bytes"][link] -= 1
        return [("one byte dropped on a bridge->ION link", drop)]
    if kind == "same":
        def drop(a):
            if isinstance(a["got"], list):
                a["got"][0]["delivered_bytes"] -= 1
            else:
                a["got"] -= 1
        return [("one byte dropped", drop)]
    if kind == "campaign":
        def drop(a):
            a["records"][0]["delivered_bytes"] -= 1

        def acked(a):
            a["records"][-1]["corrupted_acknowledged_bytes"] += EXTENT_BYTES
        return [("one byte dropped", drop),
                ("one corrupted extent acknowledged", acked)]
    raise KeyError(kind)


def self_test(claims) -> list[str]:
    """Perturb the first claim of each kind; returns the perturbations
    that were *not* rejected."""
    missed = []
    seen = set()
    for claim in claims:
        if claim.kind in seen:
            continue
        seen.add(claim.kind)
        for desc, mutate in _perturbations(claim.kind):
            bad = copy.copy(claim)
            bad.args = copy.deepcopy(claim.args)
            mutate(bad.args)
            got = bad.failures()
            status = "rejected" if got else "NOT REJECTED"
            print(f"  self-test {claim.kind:12s} {desc:40s} {status}")
            if not got:
                missed.append(f"{claim.kind}: {desc}")
    return missed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to check (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("check: no program source under src/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import oracle
    import workloads

    bad = 0
    for name in args.workload or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name](args.seed)
        try:
            w.setup()
            rounds = [workloads.Round()]
            w.run_round(rounds[0])
        finally:
            w.close()
        claims = w.claims(rounds)
        failures = oracle.check_all(claims)
        kinds = sorted({c.kind for c in claims})
        print(f"{name}: {len(claims)} checks ({', '.join(kinds)}): "
              f"{'ok' if not failures else f'{len(failures)} FAILED'}")
        for f in failures[:20]:
            print(f"  FAILED {f}")
        bad += len(failures)
        if args.self_test:
            bad += len(self_test(claims))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
