"""Steadiness of the end-to-end metrics.

    python3 bench/steady.py [--runs 10] [--workload NAME ...]

Runs ``bench/run.py --trace 0 --seconds <run_seconds of BENCHMARK.json>``
on each workload once per seed (seeds 1..runs), one run at a time, and
prints for every metric its median and its interquartile spread (Q3 - Q1
over the median, quartiles as ``statistics.quantiles(values, n=4)``
gives them).  With ``--runs 1`` it is the one command that prints every
end-to-end metric of every workload by name and unit.  A spread at or
above a third of the metric's bound in BENCHMARK.json is marked.  The
bounds in BENCHMARK.json were set from this command's output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import WORKLOADS  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="median and interquartile spread of each metric")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)

    spec = load_spec()
    seeds = range(1, args.runs + 1)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in seeds:
            res = one_run(workload, seed, spec["run_seconds"])
            runs.append(res)
            print(f"# {workload} seed={seed} attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
            ok &= res["correct"]
        print(f"{workload}: {args.runs} runs, seeds 1..{args.runs}, "
              f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and s >= bound / 3:
                mark = f"  <-- spread >= bound/3 ({bound / 3:.3f})"
            print(f"  {name:28s} median {statistics.median(values):>12.6g} {first['unit']:6s} "
                  f"spread {s:7.2%}  bound {'' if bound is None else f'{bound:.0%}'}{mark}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
