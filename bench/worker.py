"""Run one workload in this process: set up, loop over queries, check them.

    python3 bench/worker.py --workload NAME --seed N --result FILE
        (--seconds S | --rounds R) [--trace 0|1]
    python3 bench/worker.py --workload NAME --seed N --setup-only

The library is imported from ``src/`` of the checkout this file lives
in, never from an installed copy.  The loop is closed with one client:
each query starts when the previous one (and its check) is done.  With
``--rounds`` exactly that many rounds run, all drawn before the first
query.  With ``--seconds`` whole rounds run until the loop has run for S
seconds of wall time and at least ``workloads.MIN_BEYOND`` latencies lie
beyond the workload's tail percentile, or until it has run for
MAX_STRETCH * S; each round is drawn, and its files written, between
rounds, outside the timed part.  With ``--setup-only`` the process only
times the import and the first round's inputs and prints the time.

Reported times are scaled to a reference host speed by calibration
chunks run between queries (see hostspeed.py); the raw times are kept
in the result too.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import os
import resource
import shutil
import sys
from time import perf_counter

import checks
import hostspeed
import workloads
from tracing import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
#: a run stops at this multiple of --seconds even without MIN_BEYOND
MAX_STRETCH = 3.0


def import_library():
    if not os.path.isfile(os.path.join(SRC, "cubiclat", "__init__.py")):
        raise SystemExit(f"error: no library sources under {SRC}")
    sys.path.insert(0, SRC)
    import cubiclat
    import cubiclat.cli  # noqa: F401  (the command line is a layer too)

    if not os.path.abspath(cubiclat.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported cubiclat from {cubiclat.__file__}, not from {SRC}")
    return cubiclat


def setup(workload: str, seed: int, directory: str):
    """Everything a fresh process does before the first query."""
    cubiclat = import_library()
    wl = workloads.build(workload, seed, directory)
    return cubiclat, wl, prepare(wl.round(0))


def prepare(queries):
    """Each query with the library arguments of its call (None for a command line)."""
    arguments: dict[str, object] = {}
    out = []
    for q in queries:
        args = None if q.call is None else [argument(spec, arguments) for spec in q.call[2:]]
        out.append((q, args))
    return out


def argument(spec: dict, made: dict):
    """The library object for one argument spec; equal specs share one object."""
    from cubiclat.cohomology import CohClass, lambda_class
    from cubiclat.exactlinalg import IntMatrix
    from cubiclat.lattices import Lattice, lattice_by_name

    key = json.dumps(spec)
    if key not in made:
        (kind, value), = spec.items()
        if kind == "lattice":
            made[key] = Lattice(len(value), IntMatrix(value))
        elif kind == "name":
            made[key] = lattice_by_name(value)
        elif kind == "vectors":
            made[key] = [tuple(v) for v in value]
        elif kind == "lambda":
            l1, l2 = lambda_class(1).coeffs, lambda_class(2).coeffs
            made[key] = CohClass([value[0] * x + value[1] * y for x, y in zip(l1, l2)])
        elif kind == "int":
            made[key] = value
        else:
            raise ValueError(kind)
    return made[key]


class Runner:
    def __init__(self, cubiclat, wl, first, tracer=None):
        self.cubiclat = cubiclat
        self.wl = wl
        self.first = first
        self.tracer = tracer
        self.table = checks.AdmissibleTable(wl.d_max)
        self.lib_checks = {
            "is_isometric_small": checks.check_isometry,
            "euler_pairing": checks.check_euler,
            "orthogonal_complement": checks.check_complement,
            "discriminant_report": functools.partial(checks.check_report, self.table),
        }
        self.cli_checks = {
            "admissible": functools.partial(checks.check_admissible, self.table),
            "lattice": checks.check_info,
            "chow": checks.check_chow,
            "scroll-ideal": checks.check_scroll,
            "gram-lambda": checks.check_gram_lambda,
            "search": checks.check_search,
            "verify": checks.check_verify,
            "normalize": checks.check_normalize,
        }
        self.latencies: list[float] = []
        #: the middle of each query, for its host-speed scale
        self.mids: list[float] = []
        self.clock = hostspeed.Clock()
        self.failures: list[str] = []
        self.failed = 0
        self.output_bytes = 0
        self.mix = workloads.Mix()
        self.families: list[str] = []

    def record_input(self, q) -> None:
        self.mix.add(q)
        self.families.append(q.family)

    def fail(self, q, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{q.family} {q.argv or q.call[:2]}: {reason}")

    # -- queries ----------------------------------------------------------

    def timed(self, fn):
        self.clock.tick()
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(len(self.latencies))
        t0 = perf_counter()
        try:
            result, error = fn(), None
        except Exception as e:  # any escape from the library is a failed query
            result, error = None, f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.end()
        self.latencies.append(dt)
        self.mids.append(t0 + dt / 2)
        return result, error

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        cli = self.cubiclat.cli
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, error = self.timed(lambda: cli.main(argv))
        text = out.getvalue()
        self.output_bytes += len(text)
        if error:
            return None, error
        if rc != 0:
            return None, f"exit code {rc}: {err.getvalue().strip()[:200]}"
        try:
            return json.loads(text), None
        except ValueError:
            return None, "stdout is not JSON"

    def run(self, q, args=None) -> None:
        self.record_input(q)
        if q.call is not None:
            module, fname, *_ = q.call
            fn = getattr(importlib.import_module(f"cubiclat.{module}"), fname)
            result, error = self.timed(lambda: fn(*args))
            if error is None:
                error = self.lib_checks[fname](q.expect, result)
        else:
            doc, error = self.run_cli(q.argv)
            if error is None:
                # the command word, or the subcommand of ``mukai``
                error = self.cli_checks[q.argv[1] if q.argv[0] == "mukai" else q.argv[0]](q.expect, doc)
            if error is None and q.argv[:2] == ["mukai", "search"] and doc["payload"]["status"] == "found":
                self.follow_up(q, doc["payload"])
        if error:
            self.fail(q, error)

    def follow_up(self, q, found) -> None:
        """``mukai verify`` and ``mukai normalize`` on a triple just found."""
        lattice = q.argv[q.argv.index("--lattice") + 1]
        v, vp, w = (",".join(map(str, found[k])) for k in ("v", "vprime", "w"))
        expect = dict(q.expect, v=found["v"], vprime=found["vprime"], w=found["w"])
        for argv in (
            ["mukai", "verify", "--lattice", lattice, f"--v={v}", f"--vp={vp}", f"--w={w}", "--d", str(q.expect["d"])],
            ["mukai", "normalize", "--lattice", lattice, f"--v={v}", f"--vp={vp}"],
        ):
            self.run(workloads.Query(argv[1], argv=argv + ["--json"], expect=expect, rank=3))

    def loop(self, seconds: float | None, ready: list | None = None) -> int:
        """Run whole rounds; return how many.

        With ``ready`` (prepared rounds) exactly those run; otherwise rounds
        are drawn on demand as the module docstring says.
        """
        pct = workloads.TAIL_PCT[self.wl.name]
        start = perf_counter()
        r = 0
        while True:
            if ready is not None:
                batch = ready[r]
            else:
                batch = self.first if r == 0 else prepare(self.wl.round(r))
            for q, args in batch:
                self.run(q, args)
            r += 1
            if ready is not None:
                if r == len(ready):
                    break
                continue
            elapsed = perf_counter() - start
            resolved = beyond(len(self.latencies), pct) >= workloads.MIN_BEYOND
            if (elapsed >= seconds and resolved) or elapsed >= MAX_STRETCH * seconds:
                break
        # the last queries get samples on both sides too
        self.clock.take()
        return r

    def scaled(self) -> list[float]:
        """Each latency at the reference host speed."""
        return [dt * self.clock.scale(t) for dt, t in zip(self.latencies, self.mids)]


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct percentile of n samples."""
    return max(1, math.ceil(round(pct * n / 100, 9)))


def beyond(n: int, pct: float) -> int:
    """Samples above the pct percentile of n samples."""
    return n - rank(n, pct)


def percentile(sorted_values, pct: float):
    return sorted_values[rank(len(sorted_values), pct) - 1]


def by_family(families, latencies) -> dict:
    """Count, median, max and total latency of each query family."""
    groups: dict[str, list[float]] = {}
    for fam, dt in zip(families, latencies):
        groups.setdefault(fam, []).append(dt)
    out = {}
    for fam, xs in sorted(groups.items()):
        xs.sort()
        out[fam] = {"n": len(xs), "p50_ms": percentile(xs, 50.0) * 1e3, "max_ms": xs[-1] * 1e3, "total_s": sum(xs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", default=None)
    args = ap.parse_args(argv)

    inputs = os.path.join(OUT, f"inputs-{args.workload}-s{args.seed}-{os.getpid()}")
    # the set-up's scale comes from chunks run on both sides of it
    before = hostspeed.setup_chunks() if args.setup_only else []
    t0 = perf_counter()
    try:
        cubiclat, wl, first = setup(args.workload, args.seed, inputs)
        setup_s = perf_counter() - t0
        if args.setup_only:
            chunks = before + hostspeed.setup_chunks()
            scale = hostspeed.setup_scale(chunks)
            print(json.dumps({"setup_s": setup_s * scale, "raw_setup_s": setup_s, "chunk_s": chunks}))
            return 0

        ready = None
        if args.rounds:
            # drawn before the tracer is installed, so that it sees the
            # queries only
            ready = [first] + [prepare(wl.round(r)) for r in range(1, args.rounds)]
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(cubiclat)
        runner = Runner(cubiclat, wl, first, tracer)
        wall0 = perf_counter()
        rounds = runner.loop(args.seconds, ready)
        wall = perf_counter() - wall0
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    scaled = runner.scaled()
    lat = sorted(scaled)
    raw = sorted(runner.latencies)
    busy = sum(lat)
    pct = workloads.TAIL_PCT[args.workload]
    n = len(lat)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "rounds": rounds,
        "attempted": n,
        "failed": runner.failed,
        "failures": runner.failures,
        "busy_s": busy,
        "raw_busy_s": sum(raw),
        "loop_wall_s": wall,
        "host_speed": runner.clock.summary(),
        "raw_latency_p50_ms": percentile(raw, 50.0) * 1e3,
        "raw_latency_tail_ms": percentile(raw, pct) * 1e3,
        "raw_queries_per_s": n / sum(raw),
        "latency_p50_ms": percentile(lat, 50.0) * 1e3,
        "latency_tail_ms": percentile(lat, pct) * 1e3,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond(n, pct),
        "queries_per_s": n / busy,
        "failed_ratio": runner.failed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "own_setup_s": setup_s,
        "output_bytes": runner.output_bytes,
        "mix": runner.mix.summary(),
        "by_family": by_family(runner.families, scaled),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(runner.output_bytes)
        result["spans"] = len(tracer.spans)
        span_path = os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.json.gz")
        tracer.write_spans(span_path)
        result["span_file"] = os.path.relpath(span_path, ROOT)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
