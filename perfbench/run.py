"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-transfer --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (host time untraced);
with ``--trace 1`` they are the per-layer ones, from a separate traced
phase that wraps each layer's entry points (see ``layers.py``).  A line
before it, starting ``provenance``, records the machine and inputs.
See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()  # before any heavy import: set-up starts here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 2  # extra fresh-process set-ups per run; setup_s is the median
WORKLOAD_NAMES = ("serve-transfer", "campaign-faulted", "io-topology", "io-collective")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print its set-up time, exit")
    return ap.parse_args(argv)


def end_to_end(w, rounds, setup_s: float, rss_mb: float) -> dict:
    """Host times here are speed-normalised where the workload is."""
    from workloads import tail_ms

    lat = [x for r in rounds for x in r.norm_latencies()]
    nbytes, makespan = w.sim_totals(rounds[0])
    busy_s = sum(r.norm_busy_s() for r in rounds)
    vals = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "scenarios_per_s": (sum(r.scenarios for r in rounds) / busy_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p99_ms": (tail_ms(rounds), "ms"),
        "sim_GBps": (nbytes / makespan / 1e9, "GB/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in vals.items()}


def setup_probes(args) -> list:
    """Set the workload up again in fresh processes; their set-up times."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def provenance(args, rounds) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for f in sorted(base.rglob("*.py")):
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "argv": ["python3"] + [os.path.relpath(sys.argv[0], ROOT)] + sys.argv[1:],
        "workload": args.workload,
        "seed": args.seed,
        # Median host-speed factor of the operations: raw host time is
        # a speed-normalised time divided by it.
        "host_speed": statistics.median([s for r in rounds for s in r.speeds] or [1.0]),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"no program source at {ROOT / 'src' / 'repro'}")
    if not (ROOT / "benchmarks" / "_seed_flowsim.py").is_file():
        return fail("the seed-simulator oracle benchmarks/_seed_flowsim.py is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    try:
        w.setup()
        setup_s = time.perf_counter() - T_START
        if w.SPEED_NORMALISED:
            setup_s *= workloads.host_speed()
        if args.setup_probe:
            w.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        rounds = workloads.timed(w, args.seconds)
        if args.trace:
            import traced

            metrics, more = traced.run(w, rounds, args, OUT_DIR)
            rounds = rounds + more
        else:
            metrics = None
        rss_mb = w.peak_rss_mb()
    finally:
        w.close()
    import oracle

    failures = oracle.check_all(w.claims(rounds))
    if metrics is None:
        setups = [setup_s] + setup_probes(args)
        metrics = end_to_end(w, rounds, statistics.median(setups), rss_mb)
    for f in failures[:50]:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(args, rounds), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
