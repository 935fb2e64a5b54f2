"""Output checks, written independently of the library.

Each check recomputes what it can with plain integer arithmetic (or
compares with values pinned in the README) and returns ``None`` for a
correct output or a short reason for a wrong one.  Checks run outside
the timed part of each query.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

LAMBDA_GRAM = [[-2, 1], [1, -2]]

#: pinned canonical search output (README / ROADMAP)
L26_TRIPLE = {"v": [1, -1, 1], "vprime": [1, 1, 0], "w": [4, 3, 0]}

#: discriminants and relations of the characteristic surfaces (README and
#: the chow module documentation)
CHOW = {
    "plane": {"degree": 1, "rr": 3, "discriminant": 8, "relation": "h^3 = 3 ell", "collapsed": True},
    "veronese": {"degree": 4, "rr": 12, "discriminant": 20, "relation": "3 ell = 2 h^3", "collapsed": True},
    "quartic-scroll": {"degree": 4, "rr": 10, "discriminant": 14, "relation": "3 h.R = 4 h^3", "collapsed": False},
    "septic-scroll": {"degree": 7, "rr": 25, "discriminant": 26, "relation": "3 h.R = 7 h^3", "collapsed": False},
}

#: the 2x2 minors of [[u, v, x, y], [v, w, y, z]] in column-pair order
SCROLL_MINORS = ["u*w - v^2", "u*y - v*x", "u*z - v*y", "v*y - w*x", "v*z - w*y", "x*z - y^2"]


def bil(g, x, y) -> int:
    return sum(x[i] * g[i][j] * y[j] for i in range(len(x)) for j in range(len(y)) if g[i][j])


def det(m) -> int:
    """Bareiss determinant of a square integer matrix."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def first_positive(v) -> bool:
    return next((a > 0 for a in v if a != 0), False)


class AdmissibleTable:
    """(*) and (**) for every d <= max_d, from a sieve over d/2.

    For each h = d/2 the table holds the smallest prime p = 2 (mod 3)
    dividing h; the obstruction to (**) is the smaller of that prime and
    9 (when 9 divides h).
    """

    def __init__(self, max_d: int):
        H = max_d // 2 + 1
        small = bytearray([1]) * (H + 1)
        small[0:2] = b"\x00\x00"
        first = [0] * (H + 1)
        for p in range(2, H + 1):
            if not small[p]:
                continue
            for m in range(p * p, H + 1, p):
                small[m] = 0
            if p % 3 == 2:
                for m in range(p, H + 1, p):
                    if not first[m]:
                        first[m] = p
        self.first = first
        self.admissible = [d for d in range(8, max_d + 1, 2) if self.witness(d) is None and self.star(d)]

    @staticmethod
    def star(d: int) -> bool:
        return d > 6 and d % 6 in (0, 2)

    def witness(self, d: int):
        if not self.star(d):
            return None
        h = d // 2
        cands = [w for w in ((9 if h % 9 == 0 else 0), self.first[h]) if w]
        return min(cands) if cands else None

    def report(self, d: int) -> dict:
        star = self.star(d)
        w = self.witness(d)
        return {
            "d": d,
            "star": star,
            "star_star": star and w is None,
            "genus": d // 2 + 1 if d % 2 == 0 else None,
            "witness": w,
        }

    def upto(self, d: int) -> list[int]:
        return self.admissible[: bisect.bisect_right(self.admissible, d)]


def _envelope(doc, command: str):
    if not isinstance(doc, dict) or doc.get("status") != "ok" or doc.get("command") != command:
        return None, f"bad envelope for {command!r}"
    return doc["payload"], None


def check_admissible(table: AdmissibleTable, expect, doc):
    p, err = _envelope(doc, "admissible")
    if err:
        return err
    if p["max"] != expect["max"]:
        return "max echoed wrongly"
    if p["admissible"] != table.upto(expect["max"]):
        return "admissible list differs from the sieve"
    if expect["verbose"]:
        reports = p.get("reports")
        if not isinstance(reports, list) or len(reports) != expect["max"]:
            return "wrong number of reports"
        for i, rep in enumerate(reports, start=1):
            if rep != table.report(i):
                return f"report for d={i} differs from the sieve"
    elif "reports" in p:
        return "reports without --verbose"
    return None


def check_triple(gram, d, v, vp, w) -> str | None:
    if bil(gram, v, v) != 0:
        return "v.v != 0"
    if bil(gram, v, vp) != 1:
        return "v.v' != 1"
    if bil(gram, v, w) != 0:
        return "v.w != 0"
    if bil(gram, w, w) != -d:
        return "w.w != -d"
    return None


def check_search(expect, doc):
    p, err = _envelope(doc, "mukai search")
    if err:
        return err
    status = p["status"]
    if expect["status"] == "found":
        if status != "found":
            return f"expected a triple, got {status}"
        v, vp, w = p["v"], p["vprime"], p["w"]
        err = check_triple(expect["gram"], expect["d"], v, vp, w)
        if err:
            return err
        if max(abs(a) for a in v + vp + w) > expect["bound"]:
            return "triple leaves the box"
        if not (first_positive(v) and first_positive(w)):
            return "v or w not sign-normalized"
        if p.get("all_ok") is not True:
            return "all_ok not true"
        if expect.get("name") == "L26" and {k: p[k] for k in L26_TRIPLE} != L26_TRIPLE:
            return "L26 canonical triple changed"
        return None
    if any(k in p for k in ("v", "vprime", "w")):
        return "triple reported where none exists"
    if expect["status"] == "impossible":
        return None if status == "impossible" and p.get("reason") else f"expected impossible, got {status}"
    # no triple exists; proving it is as good as exhausting the box
    return None if status in ("not_found_within_bound", "impossible") else f"unexpected status {status}"


def check_verify(expect, doc):
    p, err = _envelope(doc, "mukai verify")
    if err:
        return err
    g, d = expect["gram"], expect["d"]
    v, vp, w = expect["v"], expect["vprime"], expect["w"]
    values = {"v.v": bil(g, v, v), "v.v'": bil(g, v, vp), "v.w": bil(g, v, w), "w.w": bil(g, w, w)}
    for k, val in values.items():
        if p["conditions"][k]["value"] != val:
            return f"condition {k} has the wrong value"
    if p["all_ok"] is not (check_triple(g, d, v, vp, w) is None):
        return "all_ok disagrees with the equations"
    return None


def check_normalize(expect, doc):
    p, err = _envelope(doc, "mukai normalize")
    if err:
        return err
    g = expect["gram"]
    basis, gram = p["basis"], p["gram"]
    if basis[0] != expect["v"]:
        return "first basis vector is not v"
    if [[bil(g, x, y) for y in basis] for x in basis] != gram:
        return "gram is not B^t G B"
    if abs(det([[basis[j][i] for j in range(3)] for i in range(3)])) != 1:
        return "basis is not unimodular"
    if gram[0][:2] != [0, 1] or gram[1][:2] != [1, 0] or gram[0][2] or gram[1][2]:
        return "hyperbolic block not split off"
    if abs(gram[2][2]) != abs(det(g)):
        return "complement norm is not |det L|"
    return None


def check_isometry(expect, result):
    if result.status != "isometric":
        return f"expected isometric, got {result.status}"
    T = [list(r) for r in result.map.to_lists()]
    n = len(T)
    g1, g2 = expect["g1"], expect["g2"]
    TtG = [[sum(T[k][i] * g1[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if [[sum(TtG[i][k] * T[k][j] for k in range(n)) for j in range(n)] for i in range(n)] != g2:
        return "T^t G1 T != G2"
    if abs(det(T)) != 1:
        return "witness is not unimodular"
    return None


def check_info(expect, doc):
    p, err = _envelope(doc, "lattice info")
    if err:
        return err
    factors = p["discriminant_group"]
    prod = 1
    for a in factors:
        prod *= a
    if prod != abs(p["det"]) or p["abs_det"] != abs(p["det"]):
        return "invariant factors do not multiply to |det|"
    if any(b % a for a, b in zip(factors, factors[1:])):
        return "invariant factors are not a divisibility chain"
    if sum(p["signature"]) != p["rank"]:
        return "p + n != rank"
    for key in ("rank", "det", "signature", "discriminant_group", "gram", "label"):
        if p[key] != expect[key]:
            return f"{key} differs from the known value"
    return None


def check_gram_lambda(expect, doc):
    p, err = _envelope(doc, "mukai gram-lambda")
    if err:
        return err
    return None if p["gram"] == LAMBDA_GRAM and p["basis"] == ["lambda1", "lambda2"] else "lambda Gram changed"


def check_chow(expect, doc):
    p, err = _envelope(doc, "chow")
    if err:
        return err
    pin = CHOW[expect["surface"]]
    deg, rr = pin["degree"], pin["rr"]
    if p["label_gram"] != [[3, deg], [deg, rr]] or p["discriminant"] != 3 * rr - deg * deg:
        return "label Gram or discriminant wrong"
    if (p["discriminant"], p["relation"], p["gdch"]["collapsed"]) != (pin["discriminant"], pin["relation"], pin["collapsed"]):
        return "pinned chow output changed"
    return None


def check_scroll(expect, doc):
    p, err = _envelope(doc, "scroll-ideal")
    if err:
        return err
    return None if p["minors"] == SCROLL_MINORS else "scroll minors changed"


def check_euler(expect, value):
    (a, b), (c, e) = expect["ab"], expect["ce"]
    want = bil(LAMBDA_GRAM, [a, b], [c, e])
    return None if value == Fraction(want) else f"chi = {value}, expected {want}"


def check_complement(expect, result):
    sub, basis = result
    g, vecs = expect["gram"], expect["vectors"]
    coords = [list(b.coords) for b in basis]
    if len(coords) != len(g) - len(vecs):
        return "complement has the wrong rank"
    for b in coords:
        for s in vecs:
            if bil(g, b, s):
                return "basis vector not orthogonal to the input"
    if sub.gram.to_lists() != [[bil(g, x, y) for y in coords] for x in coords]:
        return "complement Gram is not B^t G B"
    return None


def check_report(table: AdmissibleTable, expect, rep):
    got = {
        "d": rep.d,
        "star": rep.satisfies_star,
        "star_star": rep.satisfies_star_star,
        "genus": rep.genus,
        "witness": rep.witness,
    }
    return None if got == table.report(expect["d"]) else "discriminant report differs from the sieve"
