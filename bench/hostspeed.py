"""Scale measured times to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed changes
by a third or more within a minute: a fixed piece of pure-Python code
takes 30% longer in one stretch of seconds than in the next.  Those
swings would swamp any change in the library.  So the worker runs a
fixed calibration chunk between queries (outside the timed part), every
SAMPLE_EVERY_S seconds, and each query's latency is scaled by

    REF_S / (median time of the chunks within WINDOW_S seconds of it)

A latency so scaled reads in milliseconds of a host on which the chunk
takes REF_S; the raw latencies are kept in the result file too.  The
chunk does the kinds of work a query does (an argparse parser built and
used, as the command line does per call; trial division; JSON parsing;
fraction-free elimination with growing integers; a JSON dump), with code
of the benchmark's own and the standard library, and never calls the
library; so a change in the library moves the scaled times and not the
scale.  A chunk of plain integer loops alone tracks the queries less
well: the host's swings slow tight loops more than parsing and big
integers.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
from time import perf_counter

#: time of one chunk on the reference host: a round figure near its
#: time between queries on a 2-vCPU x86-64 host with CPython 3.11
REF_S = 0.001
SAMPLE_EVERY_S = 0.05
WINDOW_S = 2.0
#: chunks run before and again after the set-up in a --setup-only
#: process; the first few of each batch are warm-up and dropped
SETUP_CHUNKS = 12
SETUP_WARMUP = 4

#: a 12 x 12 integer matrix with nonzero leading minors, as JSON text
_GRAM = json.dumps({"gram": [[(i * 5 + j * j * 3) % 13 - 6 + (9 if i == j else 0) for j in range(12)] for i in range(12)]})


def _bareiss(m: list[list[int]]) -> int:
    a = [row[:] for row in m]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def chunk() -> int:
    """A fixed piece of work like a query's; see the module docstring."""
    ap = argparse.ArgumentParser(prog="chunk")
    sub = ap.add_subparsers(dest="cmd")
    for name in ("a", "b", "c", "d"):
        p = sub.add_parser(name)
        p.add_argument("--max", type=int, default=10)
        p.add_argument("--json", action="store_true")
    ns = ap.parse_args(["b", "--max", "700", "--json"])
    s = 0
    for n in range(3, ns.max, 2):
        d = 3
        while d * d <= n and n % d:
            d += 2
        s += d
    g = json.loads(_GRAM)["gram"]
    return s + len(json.dumps({"det": _bareiss(g), "s": s, "gram": g}))


def sample() -> float:
    """Time of one chunk: the faster of two, so a cold cache after a query counts less."""
    best = None
    for _ in range(2):
        t0 = perf_counter()
        chunk()
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


class Clock:
    """Calibration samples taken along a run, and the scale they give."""

    def __init__(self):
        self.at: list[float] = []
        self.dt: list[float] = []

    def take(self) -> None:
        t = perf_counter()
        self.dt.append(sample())
        self.at.append(t)

    def tick(self) -> None:
        """Take a sample if the last one is SAMPLE_EVERY_S old."""
        if not self.at or perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.take()

    def scale(self, t: float) -> float:
        """REF_S over the median chunk time within WINDOW_S of time t."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        near = self.dt[lo:hi] or self.dt
        return REF_S / statistics.median(near)

    def summary(self) -> dict:
        return {
            "samples": len(self.dt),
            "median_s": statistics.median(self.dt),
            "min_s": min(self.dt),
            "max_s": max(self.dt),
            "ref_s": REF_S,
        }


def setup_chunks() -> list[float]:
    """Chunk times of one batch around a set-up, warm-up dropped."""
    return [sample() for _ in range(SETUP_WARMUP + SETUP_CHUNKS)][SETUP_WARMUP:]


def setup_scale(chunks: list[float]) -> float:
    return REF_S / statistics.median(chunks)
