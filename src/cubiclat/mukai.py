"""Rank-3 algebraic sublattices of the Mukai lattice and isotropic triples.

For an admissible discriminant d, the monodromy-invariant algebraic part
of the Mukai lattice of the Kuznetsov component is a rank-3 lattice of
determinant d spanned by lambda_1, lambda_2 and one extra class tau.
The two instances with a known explicit Gram matrix (d = 26 and d = 42)
are built in; arbitrary user-supplied rank-3 Grams are accepted
everywhere else.

The interesting structure on such a lattice is a triple (v, v', w) with

    v^2 = 0,   v.v' = 1,   v.w = 0,   w^2 = -d.

Then L = H + Z g, where H = <v, v'> is unimodular and g^2 = -det L, and
w = a v +- k g with d = k^2 det L: w spans the complement of H only when
d = det L, and H is U only when v'^2 is even.  This module verifies,
rules out (by a certificate), searches for and normalizes triples.

Search output is canonical: vectors are enumerated by L1 norm and then
lexicographically, and sign-symmetric candidates (v and w) are
normalized so the first nonzero coordinate is positive.  Re-running a
search therefore always returns the identical triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ParityError
from .exactlinalg import (
    IntMatrix,
    _require_ints,
    coord_key,
    determinant,
    dot,
    kernel_basis,
    sign_normalize,
    xgcd,
)
from .lattices import (
    NOT_FOUND_WITHIN_BOUND,
    Lattice,
    LatticeVec,
    _coerce_coords,
    basis_gram,
    invariants,
    solutions_by_shell,
)
from .lattices import kuznetsov_rank3_lattice  # re-exported; L26/L42 are catalog names
from .lattices import MAX_BOUND  # re-exported; the command line's --bound ceiling


@dataclass(frozen=True)
class IsotropicTriple:
    """Carrier for a candidate triple; verify_triple checks the conditions."""

    v: LatticeVec
    vprime: LatticeVec
    w: LatticeVec
    d: int

    def __post_init__(self):
        if not (self.v.lattice == self.vprime.lattice == self.w.lattice):
            raise ValueError("triple vectors must share one lattice")
        _require_ints((self.d,))
        if self.d < 1:
            raise ValueError("d must be a positive integer")

    @property
    def lattice(self) -> Lattice:
        return self.v.lattice


@dataclass(frozen=True)
class TripleCheck:
    """Per-condition breakdown of a triple verification."""

    v_norm: int
    v_dot_vprime: int
    v_dot_w: int
    w_norm: int
    d: int

    @property
    def all_ok(self) -> bool:
        return all(c["ok"] for c in self.conditions().values())

    def conditions(self) -> dict[str, dict]:
        table = (
            ("v.v", self.v_norm, 0),
            ("v.v'", self.v_dot_vprime, 1),
            ("v.w", self.v_dot_w, 0),
            ("w.w", self.w_norm, -self.d),
        )
        return {
            name: {"value": value, "expected": expected, "ok": value == expected}
            for name, value, expected in table
        }


def verify_triple(L: Lattice, triple: IsotropicTriple) -> TripleCheck:
    """Evaluate all four defining conditions exactly."""
    if triple.lattice != L:
        raise ValueError("triple does not live in the given lattice")
    v, vp, w = triple.v.coords, triple.vprime.coords, triple.w.coords
    gv = L.gram.mul_vec(v)
    # G is symmetric, so v'.(G v) = v.(G v')
    return TripleCheck(dot(v, gv), dot(vp, gv), dot(w, gv), dot(w, L.gram.mul_vec(w)), triple.d)


FOUND = "found"
IMPOSSIBLE = "impossible"


@dataclass(frozen=True)
class TripleSearch:
    """Search outcome: found / not found within bound / impossible.

    ``impossible`` means that no triple exists in the whole lattice, and
    ``reason`` says why: the lattice is definite, or it fails one of the
    three conditions of the certificate in ``find_isotropic_triple``.
    ``not_found_within_bound`` is the inconclusive exhaustion of a
    finite search box.
    """

    status: str
    triple: IsotropicTriple | None = None
    reason: str | None = None


def _min_dual_one(gv: Sequence[int], bound: int) -> tuple[int, ...] | None:
    """Canonically smallest x in the box with <gv, x> = 1: the first of the walk."""
    return next(solutions_by_shell(((0, 0, 0),) * 3, gv, 1, bound), None)


def _min_w(v: Sequence[int], gv: Sequence[int], k: int, bound: int) -> tuple[int, ...] | None:
    """Canonically smallest w in the box with <gv, w> = 0 and w^2 = -k^2 det L.

    v is isotropic with gcd(gv) = 1, so v^perp = Z v + Z g with
    g^2 = -det L, and every such w is +-(a v + k g).  Each coordinate
    bounds a to an interval, so this costs O(bound).
    """
    # v is primitive, so two Bezout steps give u with v.u = 1; g = gv x u is
    # orthogonal to gv, and v x g = (v.u) gv - (v.gv) u = gv is primitive,
    # so (v, g) is a basis of v^perp
    c, x, y = xgcd(v[0], v[1])
    _, s, t = xgcd(c, v[2])
    u0, u1, u2 = s * x, s * y, t
    g0, g1, g2 = gv
    g = (g1 * u2 - g2 * u1, g2 * u0 - g0 * u2, g0 * u1 - g1 * u0)
    # |a v_i + k g_i| <= bound puts a in an interval; for v_i < 0 negate both
    # terms first, so the lower end is always a ceiling, -((bound + h) // v_i)
    lo, hi = [], []
    for vi, gi in zip(v, g):
        h = k * gi
        if vi == 0:
            if abs(h) > bound:
                return None
            continue
        if vi < 0:
            vi, h = -vi, -h
        lo.append(-((bound + h) // vi))
        hi.append((bound - h) // vi)
    return min(
        (sign_normalize([a * p + k * q for p, q in zip(v, g)]) for a in range(max(lo), min(hi) + 1)),
        key=coord_key,
        default=None,
    )


def find_isotropic_triple(L: Lattice, d: int, bound: int) -> TripleSearch:
    """Exhaustive box search for a triple (v, v', w) as above.

    A triple exists only if three conditions hold, whatever the box:
    v and v' span a unimodular plane H, so L = H + Z g with
    g^2 = -det L, and w orthogonal to v is a v + b g with
    d = -w^2 = b^2 det L.  Hence det L > 0, d / det L is a perfect
    square and the discriminant group of L (that of Z g) is cyclic.
    A definite lattice, or one that fails a condition, is reported as
    ``impossible`` with the reason before any box is scanned.

    Otherwise candidates for v are the isotropic vectors with all
    coordinates bounded by ``bound`` and gcd(G v) = 1, which makes v
    primitive, taken in canonical order from the growing boxes of
    ``solutions_by_shell``; w is the canonically first box vector
    orthogonal to v of norm -d, found on its line a v + k g with
    k^2 = d / det L, and for a v with such a w the minimal completing v'
    is the first solution of <G v, v'> = 1 on the same walk.  The first
    fully completed candidate wins, so a found triple costs the boxes up
    to the first that holds its v and v', not the whole box.  A found
    triple is checked against its four conditions before it is returned.

    Lemma: a v whose w lies in the box has a v' with |v'_i| <=
    max(|v_i|, |w_i|, 1), so a missing v' is an internal error.  Proof:
    P = {s v + t w : |s| + |t| <= 1} lies in the box and, as w^2 != 0 = v^2,
    is a fundamental domain of Z(v + w) + Z(v - w) in the plane (G v)^perp.
    So P meets {x - G v / |G v|^2 : x in Z^3, <G v, x> = 1}, not empty as
    gcd(G v) = 1, at some y; then x = y + G v / |G v|^2 has |x_i| <
    max(|v_i|, |w_i|) + 1 if |G v| > 1, and x = +-e_j if |G v| = 1.
    """
    if L.rank != 3:
        raise ValueError("triple search requires a rank-3 lattice")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    sig, det, group = invariants(L)
    if 0 in sig:
        return TripleSearch(
            IMPOSSIBLE, reason="definite lattice has no nonzero isotropic vector"
        )
    if det <= 0:
        return TripleSearch(IMPOSSIBLE, reason=f"det L = {det} is not positive")
    if d % det != 0 or math.isqrt(d // det) ** 2 != d // det:
        return TripleSearch(
            IMPOSSIBLE, reason=f"d / det L = {d}/{det} is not a perfect square"
        )
    if len(group.factors) > 1:
        return TripleSearch(
            IMPOSSIBLE, reason=f"discriminant group {group} is not cyclic"
        )

    k = math.isqrt(d // det)
    for v in solutions_by_shell(L.gram.rows, (0, 0, 0), 0, bound):
        # the walk yields x and -x; tuples compare lexicographically, so
        # v > 0 keeps the one whose first nonzero entry is positive
        if v <= (0, 0, 0):
            continue
        gv = L.gram.mul_vec(v)
        # gcd(gv) = 1 iff some v' has <gv, v'> = 1 (Bezout); it makes v primitive
        if math.gcd(*gv) != 1:
            continue
        # w before v': w lies on a line, while a v' far out lists the box
        w = _min_w(v, gv, k, bound)
        if w is None:
            continue
        vprime = _min_dual_one(gv, bound)
        if vprime is None:
            raise RuntimeError(f"internal error: no v' in the box for {v}, {w}")
        triple = IsotropicTriple(
            v=LatticeVec(L, v), vprime=LatticeVec(L, vprime), w=LatticeVec(L, w), d=d
        )
        if not verify_triple(L, triple).all_ok:
            raise RuntimeError(f"internal error: invalid triple {v}, {vprime}, {w}")
        return TripleSearch(FOUND, triple=triple)
    return TripleSearch(NOT_FOUND_WITHIN_BOUND)


def hyperbolic_normalize(
    L: Lattice, v, vprime
) -> tuple[list[LatticeVec], IntMatrix]:
    """Basis change splitting off the hyperbolic plane spanned by (v, v').

    Requires v^2 = 0 and v.v' = 1.  The returned basis is
    (v, v' + k v, complement generators) where k = -(v'^2)/2 makes the
    second vector isotropic; this needs v'^2 to be even, otherwise a
    ParityError is raised (no integral completion to a standard
    hyperbolic basis exists).  The complement part is saturated, so the
    basis is unimodular and the returned Gram has the block shape
    [[0,1],[1,0]] + complement.  For a rank-3 input this is
    [[0,1,0],[1,0,0],[0,0,m]] with |m| = |det L|.
    """
    vc, vp = _coerce_coords(L, v), _coerce_coords(L, vprime)
    gv = L.gram.mul_vec(vc)
    if dot(vc, gv) != 0:
        raise ValueError("v must be isotropic (v^2 = 0)")
    if dot(vp, gv) != 1:
        raise ValueError("v and v' must pair to 1")
    q = dot(vp, L.gram.mul_vec(vp))
    if q % 2 != 0:
        raise ParityError(
            "v'^2 is odd: no integral isotropic completion of the hyperbolic pair"
        )
    k = -q // 2
    b2 = tuple(a + k * b for a, b in zip(vp, vc))
    # the saturated complement of (v, b2): the kernel of their pairing rows
    basis_coords = [vc, b2, *kernel_basis(IntMatrix([gv, L.gram.mul_vec(b2)]))]
    if determinant(IntMatrix(basis_coords)) not in (1, -1):
        raise RuntimeError(f"internal error: basis {basis_coords} is not unimodular")
    return [LatticeVec(L, b) for b in basis_coords], basis_gram(L, basis_coords)
