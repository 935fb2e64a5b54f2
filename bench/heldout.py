"""Check that the held-out seed gives the same kind of mix with new inputs.

    python3 bench/heldout.py

For each workload, generates the first ROUNDS rounds for tuning seed 1
and for ``workloads.HELDOUT_SEED`` (no library needed, nothing is
written) and compares them: the query families, the search split and
the rank range must match, the admissible D ranges must lie in the same
designed interval, and few concrete inputs may be shared.  Catalog
lattice names are shared by design and are not counted.  A later change
that claims a gain should re-check it on the held-out seed.
"""

from __future__ import annotations

import sys

import workloads

#: the interval each workload's D values (admissible bounds, discriminants)
#: are designed to cover
DESIGNED_D = {"admissible-sweep": (1000, 200000), "triple-search": (50, 500), "lattice-invariants": (8, 120)}

#: the seed the held-out seed is compared with, and the rounds compared
TUNING_SEED = 1
ROUNDS = 20


def pool_mix(name: str, seed: int):
    wl = workloads.BUILDERS[name](seed, "heldout-not-written")
    mix = workloads.Mix()
    keys = set()
    for r in range(ROUNDS):
        for q in wl.queries(r):
            mix.add(q)
            if not q.shared:
                keys.add(q.key)
    return mix.summary(), keys


def main() -> int:
    problems = []
    for name in workloads.BUILDERS:
        a, keys_a = pool_mix(name, TUNING_SEED)
        b, keys_b = pool_mix(name, workloads.HELDOUT_SEED)
        shared = len(keys_a & keys_b) / max(1, len(keys_b))
        ranks_a = [int(r) for r in a["rank_histogram"]]
        ranks_b = [int(r) for r in b["rank_histogram"]]
        print(f"{name}: seed {TUNING_SEED} vs held-out {workloads.HELDOUT_SEED}, {ROUNDS} rounds")
        print(f"  families      {a['families']}")
        print(f"                {b['families']}")
        print(f"  search split  {a['search_split']}  vs  {b['search_split']}")
        print(f"  ranks         {min(ranks_a, default=None)}..{max(ranks_a, default=None)}"
              f"  vs  {min(ranks_b, default=None)}..{max(ranks_b, default=None)}")
        print(f"  D range       {a['d_range']}  vs  {b['d_range']}")
        print(f"  shared concrete inputs {shared:.1%}")
        if a["families"] != b["families"]:
            problems.append(f"{name}: query families differ")
        if a["search_split"] != b["search_split"]:
            problems.append(f"{name}: search split differs")
        if set(ranks_a) != set(ranks_b) and (min(ranks_a) != min(ranks_b) or max(ranks_a) != max(ranks_b)):
            problems.append(f"{name}: rank range differs")
        lo, hi = DESIGNED_D[name]
        if not all(lo <= d <= hi for d in a["d_range"] + b["d_range"]):
            problems.append(f"{name}: D outside the designed interval {lo}..{hi}")
        if shared > 0.05:
            problems.append(f"{name}: {shared:.0%} of the concrete inputs are shared")
    for p in problems:
        print("PROBLEM", p)
    print("held-out seed: same mix, new inputs" if not problems else "held-out seed check failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
