"""Seeded inputs for the benchmark workloads.

Everything here is plain Python and independent of the library: the
generators build Gram matrices from their own tables, and every query
carries the data its checker needs (expected invariants, the lattice a
search runs on, and so on).  The library only ever sees the generated
command lines, lattice files and call arguments.

A run is a sequence of *rounds*.  A round is a fixed, shuffled mix of
queries whose continuous parameters are drawn by stratified sampling, so
every round (and every seed) has the same shape with different concrete
values.  Round r is drawn on demand from an RNG of its own, seeded by
(workload, seed, r): it is the same on every commit, and no round of a
run repeats another, however many rounds the run gets through.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from dataclasses import dataclass, field

#: a seed never used while tuning the benchmark; see heldout.py
HELDOUT_SEED = 90210

U_GRAM = [[0, 1], [1, 0]]
A2_GRAM = [[2, -1], [-1, 2]]
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8_gram(sign: int = 1) -> list[list[int]]:
    """Cartan matrix of E8 (Bourbaki numbering), scaled by sign."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2 * sign
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = g[b - 1][a - 1] = -sign
    return g


@dataclass(frozen=True)
class Part:
    """A direct summand with its known invariants."""

    name: str
    gram: tuple
    det: int
    sig: tuple[int, int]
    disc: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.gram)


def _part(name, gram, det, sig, disc=()):
    return Part(name, tuple(tuple(r) for r in gram), det, sig, tuple(disc))


def z_part(n: int) -> Part:
    return _part(f"Z({n})", [[n]], n, (1, 0) if n > 0 else (0, 1), (abs(n),) if abs(n) > 1 else ())


E8 = _part("E8", e8_gram(1), 1, (8, 0))
E8M = _part("E8(-1)", e8_gram(-1), 1, (0, 8))
U = _part("U", U_GRAM, -1, (1, 1))
A2 = _part("A2", A2_GRAM, 3, (2, 0), (3,))
A2M = _part("A2(-1)", [[-2, 1], [1, -2]], 3, (0, 2), (3,))


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(cyclic_orders) -> tuple[int, ...]:
    """Invariant factor chain of a product of cyclic groups Z/a."""
    exps: dict[int, list[int]] = {}
    for a in cyclic_orders:
        for p, e in factorize(a).items():
            exps.setdefault(p, []).append(e)
    length = max((len(v) for v in exps.values()), default=0)
    chain = []
    for i in range(length):
        f = 1
        for p, es in exps.items():
            es = sorted(es, reverse=True)
            if i < len(es):
                f *= p ** es[i]
        chain.append(f)
    return tuple(sorted(chain))


def sum_invariants(parts) -> dict:
    """Rank, det, signature and discriminant group of a direct sum."""
    det = 1
    for p in parts:
        det *= p.det
    return {
        "rank": sum(p.rank for p in parts),
        "det": det,
        "signature": [sum(p.sig[0] for p in parts), sum(p.sig[1] for p in parts)],
        "discriminant_group": list(invariant_factors(a for p in parts for a in p.disc)),
    }


def block_diag(parts) -> list[list[int]]:
    n = sum(p.rank for p in parts)
    g = [[0] * n for _ in range(n)]
    o = 0
    for p in parts:
        for i, row in enumerate(p.gram):
            for j, e in enumerate(row):
                g[o + i][o + j] = e
        o += p.rank
    return g


def conjugate(gram, rng: random.Random, steps: int, coefs=(1, -1)):
    """Random unimodular congruence T^t G T by elementary operations.

    Returns (G', Tinv): a vector with coordinates x in the old basis has
    coordinates Tinv x in the new one.
    """
    n = len(gram)
    g = [list(r) for r in gram]
    tinv = [[int(i == j) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    g = [[g[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    tinv = [tinv[perm[i]] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coefs)
        # new basis vector b_j' = b_j + c b_i
        for r in range(n):
            g[r][j] += c * g[r][i]
        for r in range(n):
            g[j][r] += c * g[i][r]
        for r in range(n):
            tinv[i][r] -= c * tinv[j][r]
    return g, tinv


def stratified(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled."""
    out = []
    for i in range(n):
        u = (i + rng.random()) / n
        if log:
            out.append(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
        else:
            out.append(lo + u * (hi - lo))
    rng.shuffle(out)
    return out


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


# ---------------------------------------------------------------------------
# queries


@dataclass
class Query:
    """One query: a command line (``argv``) or a library call (``call``).

    ``family`` names the kind of input for the mix summary; ``key``
    identifies the concrete input, so repeats can be counted; ``expect``
    is what the checker needs.
    """

    family: str
    argv: list[str] | None = None
    call: tuple | None = None
    key: str = ""
    expect: dict = field(default_factory=dict)
    rank: int | None = None
    d_max: int | None = None
    #: the input comes from a fixed catalog and repeats by design
    shared: bool = False

    def __post_init__(self):
        if not self.key:
            self.key = json.dumps([self.family, self.argv, self.call], sort_keys=True)


def file_query(family: str, argv: list[str], path: str, gram, **kw) -> Query:
    """A query on a lattice file; its key is the file's content, not its path."""
    key = json.dumps([family, [a for a in argv if a != path], gram])
    return Query(family, argv=argv, key=key, **kw)


class Mix:
    """Summary of the inputs a run issued: what later changes can cite."""

    def __init__(self):
        self.n = 0
        #: hashes of the input keys; the keys themselves would grow the
        #: process with the length of the run
        self.seen: set[int] = set()
        self.families: dict[str, int] = {}
        self.repeated = 0
        self.ranks: dict[str, int] = {}
        self.searches: dict[str, int] = {}
        self.d_range: list[int] = []

    def add(self, q: "Query") -> None:
        self.n += 1
        self.families[q.family] = self.families.get(q.family, 0) + 1
        h = hash(q.key)
        if h in self.seen:
            self.repeated += 1
        self.seen.add(h)
        if q.rank is not None:
            self.ranks[str(q.rank)] = self.ranks.get(str(q.rank), 0) + 1
        if q.family.startswith("search-") or q.family == "probe-search":
            s = q.expect["status"]
            self.searches[s] = self.searches.get(s, 0) + 1
        if q.d_max is not None:
            lo, hi = self.d_range or (q.d_max, q.d_max)
            self.d_range = [min(lo, q.d_max), max(hi, q.d_max)]

    def summary(self) -> dict:
        searches = sum(self.searches.values())
        return {
            "queries": self.n,
            "families": dict(sorted(self.families.items())),
            "repeated_share": self.repeated / self.n if self.n else 0.0,
            "search_split": {k: v / searches for k, v in sorted(self.searches.items())},
            "rank_histogram": dict(sorted(self.ranks.items(), key=lambda kv: int(kv[0]))),
            "d_range": self.d_range,
        }


class Workload:
    """The rounds of one workload and seed, drawn on demand.

    ``make(rng, r)`` returns the queries of round r; the lattice files it
    adds are written by ``round``.  ``d_max`` is the largest D a query of
    the workload may carry (the size of the checker's sieve).
    """

    def __init__(self, name: str, seed: int, directory: str, d_max: int):
        self.name = name
        self.seed = seed
        self.d_max = d_max
        self.files = FileSet(directory)
        self.make = None

    def rng(self, *tag) -> random.Random:
        return random.Random("/".join(map(str, (self.name, self.seed) + tag)))

    def queries(self, r: int) -> list[Query]:
        """Round r, without writing its files."""
        return self.make(self.rng(r), r)

    def round(self, r: int) -> list[Query]:
        """Round r, with its lattice files written."""
        qs = self.queries(r)
        self.files.write()
        return qs


def cli(*argv) -> list[str]:
    return [str(a) for a in argv] + ["--json"]


class FileSet:
    """Lattice files of one workload, written under a directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.docs: dict[str, dict] = {}

    def add(self, stem: str, gram, label: str) -> str:
        path = os.path.join(self.directory, stem + ".json")
        self.docs[path] = {"gram": gram, "label": label}
        return path

    def write(self) -> None:
        """Write the files added since the last call."""
        os.makedirs(self.directory, exist_ok=True)
        for path, doc in self.docs.items():
            body = {"gram": doc["gram"], "label": doc["label"], "rank": len(doc["gram"])}
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(body, sort_keys=True) + "\n")
        self.docs.clear()


# ---------------------------------------------------------------------------
# rank-3 lattices for the searches

L26_GRAM = [[-2, 1, 0], [1, -2, 1], [0, 1, 8]]
L42_GRAM = [[-2, 1, 0], [1, -2, 0], [0, 0, 14]]


def found_case(rng: random.Random, files: FileSet, stem: str, d: int) -> Query:
    """Search on a conjugate of U + Z(-d): a triple exists in the box."""
    base = block_diag([U, z_part(-d)])
    g, tinv = conjugate(base, rng, rng.randint(2, 4))
    # the images of the standard triple (e1, e2, e3) are the columns of Tinv
    reach = max(abs(tinv[i][j]) for i in range(3) for j in range(3))
    bound = max(3, reach) + rng.randint(0, 3)
    path = files.add(stem, g, f"UZ{d}-{stem}")
    return file_query(
        "search-found",
        cli("mukai", "search", "--lattice", path, "--d", d, "--bound", bound),
        path,
        g,
        expect={"gram": g, "d": d, "bound": bound, "status": "found", "det": d},
        rank=3,
    )


def isotropic_candidates(g, b: int) -> list[int]:
    """max |v_i| of each primitive isotropic v in the box |v_i| <= b.

    One per +-v pair.  These are the candidates a box search tries; when
    no triple exists, each costs one scan of the box (for w when some v'
    with v.v' = 1 exists, for v' otherwise).
    """
    sizes = []
    a = g[2][2]
    for x1 in range(-b, b + 1):
        for x2 in range(-b, b + 1):
            lin = 2 * (g[0][2] * x1 + g[1][2] * x2)
            c = g[0][0] * x1 * x1 + 2 * g[0][1] * x1 * x2 + g[1][1] * x2 * x2
            disc = lin * lin - 4 * a * c
            if disc < 0 or math.isqrt(disc) ** 2 != disc:
                continue
            s = math.isqrt(disc)
            for x3 in {(-lin + s) // (2 * a), (-lin - s) // (2 * a)}:
                v = (x1, x2, x3)
                if abs(x3) > b or c + lin * x3 + a * x3 * x3 or not any(v) or next(t for t in v if t) < 0:
                    continue
                if math.gcd(*v) == 1:
                    sizes.append(max(abs(t) for t in v))
    return sizes


#: lattices drawn for each not-found search; the cost of drawing is the
#: same for every seed
NOT_FOUND_DRAWS = 4


def not_found_case(rng: random.Random, files: FileSet, stem: str, target: float) -> Query:
    """Search on a conjugate of U + Z(-e) for a d with d/e not a square.

    v^2 = 0 and v.v' = 1 split off a unimodular plane, so w lies in a
    rank-1 lattice of norm -e and w^2 = -d forces d/e to be a square:
    no triple exists, whatever the box.  An exhaustive search then scans
    the whole box once per candidate v, so its work is about
    (number of candidates) * (2 bound + 1)^3.  Of NOT_FOUND_DRAWS
    lattices and the bounds 11..15, the pair whose work is nearest
    ``target`` is taken, which keeps the cost of these searches steady
    across seeds.
    """
    best = None
    for _ in range(NOT_FOUND_DRAWS):
        while True:
            e = rng.randrange(2, 60, 2)
            g, _ = conjugate(block_diag([U, z_part(-e)]), rng, rng.randint(2, 3))
            if g[2][2]:  # the candidate count solves for x3
                break
        sizes = isotropic_candidates(g, 15)
        for b in range(11, 16):
            work = sum(1 for s in sizes if s <= b) * (2 * b + 1) ** 3
            if best is None or abs(work - target) < abs(best[3] - target):
                best = (e, g, b, work)
    e, g, bound, work = best
    d = rng.randrange(2, 100, 2)
    while d % e == 0 and is_square(d // e):
        d = rng.randrange(2, 100, 2)
    path = files.add(stem, g, f"UZ{e}-{stem}")
    return file_query(
        "search-not-found",
        cli("mukai", "search", "--lattice", path, "--d", d, "--bound", bound),
        path,
        g,
        expect={"gram": g, "d": d, "bound": bound, "status": "none", "work": work},
        rank=3,
    )


def impossible_case(rng: random.Random, files: FileSet, stem: str) -> Query:
    """Search on a conjugate of a definite rank-3 lattice."""
    sign = rng.choice((1, -1))
    n = rng.randint(1, 12)
    parts = [A2 if sign > 0 else A2M, z_part(sign * n)]
    g, _ = conjugate(block_diag(parts), rng, rng.randint(2, 4))
    d = rng.randrange(2, 100, 2)
    bound = rng.randint(5, 25)
    path = files.add(stem, g, f"def-{stem}")
    return file_query(
        "search-impossible",
        cli("mukai", "search", "--lattice", path, "--d", d, "--bound", bound),
        path,
        g,
        expect={"gram": g, "d": d, "bound": bound, "status": "impossible"},
        rank=3,
    )


def isometry_call(gram, d: int, shared: bool = False, family: str = "isometry") -> Query:
    """is_isometric_small(L, U + Z(-d)) for a lattice L known to be isometric."""
    target = block_diag([U, z_part(-d)])
    return Query(
        family,
        call=("lattices", "is_isometric_small", {"lattice": gram}, {"lattice": target}),
        expect={"g1": gram, "g2": target},
        rank=len(gram),
        shared=shared,
    )


def chow_query(surface: str, family: str = "chow") -> Query:
    return Query(family, argv=cli("chow", "--surface", surface), expect={"surface": surface}, shared=True)


def admissible_query(family: str, d: int, verbose: bool = False) -> Query:
    argv = ["admissible", "--max", d] + (["--verbose"] if verbose else [])
    return Query(family, argv=cli(*argv), expect={"max": d, "verbose": verbose}, d_max=d)


# ---------------------------------------------------------------------------
# workloads


def admissible_sweep(seed: int, directory: str) -> Workload:
    """Nested admissible ranges: trial division and JSON rendering.

    Each round holds 36 plain queries with D log-uniform over
    [1e3, 2e5] and 4 verbose ones with D log-uniform over [1e3, 2e4],
    plus four small probes that keep every other layer measured.
    """
    wl = Workload("admissible-sweep", seed, directory, d_max=200000)
    rng = wl.rng()
    probe_lattices = [found_case(rng, wl.files, f"probe{i}", 2 * rng.randint(3, 15)) for i in range(3)]
    surfaces = ["plane", "veronese", "quartic-scroll", "septic-scroll"]

    def make(rng: random.Random, r: int) -> list[Query]:
        qs = [admissible_query("admissible", round(D)) for D in stratified(rng, 36, 1e3, 2e5, log=True)]
        verbose = sorted(round(D) for D in stratified(rng, 4, 1e3, 2e4, log=True))
        if r == 0:
            # the largest verbose report sets peak memory: pin it so every
            # seed reaches the same peak
            verbose[-1] = 20000
        qs += [admissible_query("admissible-verbose", D, verbose=True) for D in verbose]
        probe = probe_lattices[r % len(probe_lattices)]
        qs.append(dataclasses.replace(probe, family="probe-search"))
        qs.append(isometry_call(probe.expect["gram"], probe.expect["det"], family="probe-isometry"))
        qs.append(Query("probe-gram-lambda", argv=cli("mukai", "gram-lambda"), shared=True))
        qs.append(chow_query(surfaces[r % 4], family="probe-chow"))
        rng.shuffle(qs)
        return qs

    wl.make = make
    return wl


def triple_search(seed: int, directory: str) -> Workload:
    """Isotropic-triple searches: found, not found within the box, impossible.

    Per round: L26 and L42 with their own d, 6 conjugates of U + Z(-d)
    (found), 5 searches where no triple exists at bounds 11..15 (their
    box work stratified over 1e5..3e5 points), 2 definite lattices; each
    found triple is followed by ``mukai verify`` and ``mukai normalize``;
    4 isometry calls; 3 small probes.
    """
    wl = Workload("triple-search", seed, directory, d_max=500)

    def make(rng: random.Random, r: int) -> list[Query]:
        qs = []
        for name, gram, d in (("L26", L26_GRAM, 26), ("L42", L42_GRAM, 42)):
            bound = rng.randint(4, 25)
            qs.append(
                Query(
                    "search-found",
                    argv=cli("mukai", "search", "--lattice", name, "--d", d, "--bound", bound),
                    expect={"gram": gram, "d": d, "bound": bound, "status": "found", "det": d, "name": name},
                    rank=3,
                    shared=True,
                )
            )
        found = [
            found_case(rng, wl.files, f"r{r}f{i}", 2 * round(x))
            for i, x in enumerate(stratified(rng, 6, 1, 20))
        ]
        qs += found
        work = stratified(rng, 5, 1.0e5, 3.0e5)
        qs += [not_found_case(rng, wl.files, f"r{r}n{i}", t) for i, t in enumerate(work)]
        qs += [impossible_case(rng, wl.files, f"r{r}i{i}") for i in range(2)]
        by_d = sorted(found, key=lambda q: q.expect["d"])
        iso_src = [by_d[0], by_d[2], by_d[4], qs[0]]
        qs += [isometry_call(q.expect["gram"], q.expect["det"], q.shared) for q in iso_src]
        qs.append(admissible_query("probe-admissible", rng.randint(50, 500)))
        qs.append(Query("gram-lambda", argv=cli("mukai", "gram-lambda"), shared=True))
        qs.append(chow_query("septic-scroll", family="probe-chow"))
        rng.shuffle(qs)
        return qs

    wl.make = make
    return wl


CATALOG_FIXED = {
    "Gamma": [E8, E8, U, U, A2],
    "K3": [E8M, E8M, U, U, U],
    "Mukai": [E8, E8, U, U, U, U],
    "I21_2": [z_part(1)] * 21 + [z_part(-1)] * 2,
    "E8": [E8],
}
CATALOG_LABELS = {"I21_2": "I(21,2)"}
FILE_PARTS = [E8, E8M, U, A2, A2M]


def catalog_parts(name: str):
    if name in CATALOG_FIXED:
        return CATALOG_FIXED[name]
    if name.startswith("Lambda_"):
        d = int(name[7:])
        return [E8M, E8M, U, U, z_part(-d)]
    if name.startswith("Z("):
        return [z_part(int(name[2:-1]))]
    if name.startswith("I("):
        p, q = (int(x) for x in name[2:-1].split(","))
        return [z_part(1)] * p + [z_part(-1)] * q
    raise ValueError(name)


def random_parts(rng: random.Random, rank: int):
    parts = []
    left = rank
    while left:
        choices = [p for p in FILE_PARTS if p.rank <= left]
        if rng.random() < 0.25 or not choices:
            n = rng.choice([k for k in range(-12, 13) if k not in (0,)])
            parts.append(z_part(n))
        else:
            parts.append(rng.choice(choices))
        left -= parts[-1].rank
    rng.shuffle(parts)
    return parts


def lattice_invariants(seed: int, directory: str) -> Workload:
    """Invariants of catalog lattices and of seeded lattice files.

    Per round: 8 ``lattice info`` on catalog names (drawn from a small
    seeded set, so names repeat), 1 on L26 or L42, 10 on distinct files
    with rank stratified over 4..24 (never repeated within a run),
    ``mukai gram-lambda``, the four ``chow`` surfaces, ``scroll-ideal``,
    3 Euler pairings, 3 orthogonal complements, and one small isometry
    and one admissibility report as probes.
    """
    wl = Workload("lattice-invariants", seed, directory, d_max=120)
    rng = wl.rng()
    lambdas = [f"Lambda_{2 * rng.randint(4, 60)}" for _ in range(3)]
    zs = [f"Z({rng.choice([k for k in range(-40, 41) if k])})" for _ in range(3)]
    ipqs = []
    # one rank from each third of 1..24, so that every seed's names cost
    # about the same
    for n in stratified(rng, 3, 1, 24.999):
        p = rng.randint(max(0, int(n) - 12), min(12, int(n)))
        ipqs.append(f"I({p},{int(n) - p})")

    def make(rng: random.Random, r: int) -> list[Query]:
        qs = []
        names = ["Gamma", "K3", "Mukai", "I21_2", "E8", rng.choice(lambdas), rng.choice(zs), rng.choice(ipqs)]
        for name in names:
            parts = catalog_parts(name)
            inv = sum_invariants(parts)
            qs.append(
                Query(
                    "info-catalog",
                    argv=cli("lattice", "info", name),
                    expect=dict(inv, gram=block_diag(parts), label=CATALOG_LABELS.get(name, name)),
                    rank=inv["rank"],
                    shared=True,
                )
            )
        name, gram, det = ("L26", L26_GRAM, 26) if r % 2 == 0 else ("L42", L42_GRAM, 42)
        qs.append(
            Query(
                "info-catalog",
                argv=cli("lattice", "info", name),
                expect={"rank": 3, "det": det, "signature": [1, 2], "discriminant_group": [det], "gram": gram, "label": name},
                rank=3,
                shared=True,
            )
        )
        for i, x in enumerate(stratified(rng, 10, 4, 24.999)):
            parts = random_parts(rng, int(x))
            inv = sum_invariants(parts)
            g, _ = conjugate(block_diag(parts), rng, inv["rank"])
            label = f"r{r}x{i}"
            path = wl.files.add(label, g, label)
            qs.append(
                file_query("info-file", cli("lattice", "info", path), path, g, expect=dict(inv, gram=g, label=label), rank=inv["rank"])
            )
        qs.append(Query("gram-lambda", argv=cli("mukai", "gram-lambda"), shared=True))
        qs += [chow_query(s) for s in ("plane", "veronese", "quartic-scroll", "septic-scroll")]
        qs.append(Query("scroll-ideal", argv=cli("scroll-ideal"), shared=True))
        for _ in range(3):
            a, b, c, e = (rng.randint(-9, 9) for _ in range(4))
            qs.append(Query("euler", call=("cohomology", "euler_pairing", {"lambda": (a, b)}, {"lambda": (c, e)}), expect={"ab": (a, b), "ce": (c, e)}))
        for _ in range(3):
            name = rng.choice(["Gamma", "K3", "Mukai", "I21_2", rng.choice(lambdas)])
            parts = catalog_parts(name)
            rank = sum(p.rank for p in parts)
            pivots = rng.sample(range(rank), rng.randint(1, 3))
            vecs = []
            for j in pivots:
                # zero at the other pivots, so the vectors are independent
                v = [rng.randint(-2, 2) if rng.random() < 0.2 and i not in pivots else 0 for i in range(rank)]
                v[j] = rng.choice((1, -1, 2, 3))
                vecs.append(v)
            qs.append(
                Query(
                    "complement",
                    call=("lattices", "orthogonal_complement", {"name": name}, {"vectors": vecs}),
                    expect={"gram": block_diag(parts), "vectors": vecs},
                    rank=rank,
                )
            )
        iso_n = rng.randint(2, 12)
        g, _ = conjugate(block_diag([U, z_part(-iso_n)]), rng, 2)
        qs.append(isometry_call(g, iso_n, family="probe-isometry"))
        d = int(rng.choice(lambdas)[7:])
        qs.append(Query("probe-report", call=("admissibility", "discriminant_report", {"int": d}), expect={"d": d}, d_max=d))
        rng.shuffle(qs)
        return qs

    wl.make = make
    return wl


#: fixed tail percentile of each workload; a run goes on until at least
#: MIN_BEYOND samples lie beyond it, and has no tail without them
TAIL_PCT = {"admissible-sweep": 95.0, "triple-search": 95.0, "lattice-invariants": 99.0}
MIN_BEYOND = 10

#: rounds replayed by a traced run (and by its untraced reference)
TRACE_ROUNDS = {"admissible-sweep": 5, "triple-search": 6, "lattice-invariants": 36}

BUILDERS = {
    "admissible-sweep": admissible_sweep,
    "triple-search": triple_search,
    "lattice-invariants": lattice_invariants,
}


def build(name: str, seed: int, directory: str) -> Workload:
    return BUILDERS[name](seed, directory)
