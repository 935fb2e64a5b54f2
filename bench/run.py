"""The cubiclat benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: admissible-sweep,
triple-search, lattice-invariants (see workloads.py for what each holds
and why).  The library under test is the one in ``src/`` of the same
checkout; without it the benchmark exits with code 2 and prints no
result.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median over several fresh processes of the time to import
  cubiclat and build the first round's inputs (lattice files included);
* ``latency_p50_ms``, ``latency_tail_ms``: per-query latency; the tail is
  the workload's fixed percentile (the result file records it and the
  number of samples beyond it).  A run with fewer than ten samples
  beyond it has no tail: it exits with code 1 and prints no result;
* ``queries_per_s``: queries per second spent inside queries;
* ``peak_rss_mb``: peak resident memory of the process running the loop.

The times are scaled to a reference host speed, measured by calibration
chunks run in the same process (hostspeed.py); the result file keeps
the raw times next to them.

With ``--trace 1`` it runs a fixed number of rounds untraced, then the
same rounds traced, then untraced again, each in a fresh process, and
reports the per-layer metrics of the traced pass with
``trace.overhead_s`` (traced minus the mean untraced time inside
queries).  ``--seconds`` does not apply to it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
input mix and the run environment, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("admissible-sweep", "triple-search", "lattice-invariants")
SETUP_RUNS = 24
#: every child must end before this many seconds after start
DEADLINE_S = 170

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, traced: bool) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "traced": traced,
    }


START = time.monotonic()


def child(args: list[str]) -> subprocess.CompletedProcess:
    """Run a worker process to completion (one at a time)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, DEADLINE_S - (time.monotonic() - START)),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker {' '.join(args)} exited with {proc.returncode}")
    return proc


def worker(workload: str, seed: int, tag: str, extra: list[str]) -> dict:
    path = os.path.join(OUT, f"worker-{workload}-s{seed}-{tag}.json")
    child(["--workload", workload, "--seed", str(seed), "--result", path, *extra])
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(path)
    return result


def setup_times(workload: str, seed: int, runs: int) -> list[dict]:
    times = []
    for _ in range(runs):
        proc = child(["--workload", workload, "--seed", str(seed), "--setup-only"])
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append({k: doc[k] for k in ("setup_s", "raw_setup_s")})
    return times


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # half the set-ups before the loop and half after it, so that they are
    # not all taken in one of the host's speed phases
    setups = setup_times(workload, seed, SETUP_RUNS // 2)
    res = worker(workload, seed, "e2e", ["--seconds", str(seconds)])
    setups += setup_times(workload, seed, SETUP_RUNS - SETUP_RUNS // 2)
    res["setup_runs"] = setups
    res["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    metrics = {name: res[name] for name in E2E_UNITS if name != "setup_s"}
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    return res, metrics


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    rounds = ["--rounds", str(workloads.TRACE_ROUNDS[workload])]
    # the untraced passes bracket the traced one, so that a drift in the
    # host's speed cancels out of the overhead
    before = worker(workload, seed, "plain", rounds)
    res = worker(workload, seed, "traced", ["--trace", "1", *rounds])
    after = worker(workload, seed, "plain", rounds)
    plain = (before, after)
    res["untraced"] = [{k: p[k] for k in ("rounds", "attempted", "failed", "failures", "busy_s")} for p in plain]
    layers = {k: v for k, (v, _) in res["layers"].items()}
    layers["trace.overhead_s"] = res["busy_s"] - statistics.mean(p["busy_s"] for p in plain)
    res["attempted"] += sum(p["attempted"] for p in plain)
    res["failed"] += sum(p["failed"] for p in plain)
    res["failures"] = before["failures"] + res["failures"] + after["failures"]
    return res, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cubiclat benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cubiclat", "__init__.py")):
        print(f"error: no cubiclat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        res, values = traced(args.workload, args.seed)
        units = {k: u for k, (_, u) in res["layers"].items()}
        units["trace.overhead_s"] = "s"
    else:
        res, values = end_to_end(args.workload, args.seed, args.seconds)
        units = E2E_UNITS
        if res["tail_samples_beyond"] < workloads.MIN_BEYOND:
            print(f"error: {res['tail_samples_beyond']} samples beyond p{res['tail_percentile']:g}, "
                  f"fewer than {workloads.MIN_BEYOND}: the tail is unresolved", file=sys.stderr)
            return 1
    res["environment"] = environment(args.seed, bool(args.trace))
    res["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    path = os.path.join(OUT, f"result-{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)

    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']} failed_ratio={res['failed'] / res['attempted']:.4g} "
          f"tail=p{res['tail_percentile']:g} ({res['tail_samples_beyond']} beyond) result={os.path.relpath(path, ROOT)}")
    for k in units:
        print(f"  {k:28s} {values[k]:>14.6g} {units[k]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
