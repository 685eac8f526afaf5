"""Steadiness: run each workload repeatedly and report run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/steady.py                          # 10 seeds x every workload
    python3 perfbench/steady.py --workload io-topology --runs 5 --first-seed 100

Each run is ``perfbench/run.py --trace 0`` with its own seed and the
run length from ``BENCHMARK.json``.  For every end-to-end metric it
prints the median and quartiles (``statistics.quantiles(n=4)``) of the
runs and the spread, ``(q3 - q1) / median``.  A metric whose spread
exceeds its bound is flagged ``OVER`` (``setup_s`` is reported but its
spread is not held to the bound); one above a third of its bound is
flagged ``wide``.  It also prints each run's share of failed operations,
which must be identical across runs.  Exit status is 1 if any run is
incorrect, any flagged ``OVER``, or failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: rc {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bad = False
    for wl in args.workload or names:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            r = run_once(wl, seed, args.seconds)
            results.append(r)
            print(f"{wl} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        bad |= not all(r["correct"] for r in results) or len(shares) > 1
        print(f"\n{wl}: {args.runs} runs x {args.seconds} s, failed share {sorted(shares)}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "OVER" if m["name"] != "setup_s" else "(not held)"
                bad |= m["name"] != "setup_s"
            elif spread > m["bound"] / 3:
                flag = "wide"
            print(f"  {m['name']:18s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {m['bound']:6.3f} {flag}")
        print(flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
