"""Integer lattices: constructions, invariants, and small-rank searches.

A lattice is a free Z-module of finite rank with an integer Gram matrix.
Conventions used throughout (they are choices, recorded here because no
canonical ones exist):

* ``E8`` is positive definite, with the Cartan matrix of the E8 root
  system in Bourbaki numbering as its Gram matrix.
* The square of the hyperplane class inside the odd unimodular lattice
  ``I(21,2)`` is taken to be ``(1, ..., 1, 3, 3)`` (21 ones), a
  characteristic norm-3 vector, so its orthogonal complement is even.
* Canonical ordering of integer coordinate vectors is by L1 norm first,
  then lexicographically; sign-symmetric searches normalize the first
  nonzero coordinate to be positive.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from operator import mul
from typing import Iterator, Sequence

from .errors import DegenerateGramError, LatticeFormatError
from .exactlinalg import (
    IntMatrix,
    _require_ints,
    coord_key,
    determinant,
    dot,
    invariant_factors_mod,
    kernel_basis,
    ldlt_signature,
    sign_normalize,
)


@dataclass(frozen=True)
class Lattice:
    """Free Z-module with a symmetric integer Gram matrix.

    Two lattices compare equal when their Gram matrices agree; the label
    is presentation metadata only.
    """

    rank: int
    gram: IntMatrix
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if self.gram.nrows != self.rank or self.gram.ncols != self.rank:
            raise ValueError("gram dimension must equal rank")
        if not self.gram.is_symmetric():
            raise ValueError("gram matrix must be symmetric")

    def vec(self, coords: Sequence[int]) -> "LatticeVec":
        return LatticeVec(self, tuple(coords))


@dataclass(frozen=True)
class LatticeVec:
    """Integer coordinate vector relative to a lattice's basis."""

    lattice: Lattice
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        _require_ints(self.coords)
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate length must equal lattice rank")


@dataclass(frozen=True)
class DiscriminantGroup:
    """Finite abelian group given by its invariant factor chain.

    ``factors`` is the ordered tuple of invariant factors > 1, each
    dividing the next; the empty tuple is the trivial group.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for a in self.factors:
            if a <= 1:
                raise ValueError("invariant factors must exceed 1")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "trivial"
        return " x ".join(f"Z/{a}" for a in self.factors)


# ---------------------------------------------------------------------------
# constructions


_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8() -> Lattice:
    """The positive definite even unimodular rank-8 lattice."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    return Lattice(8, IntMatrix(g), label="E8")


def hyperbolic_plane() -> Lattice:
    return Lattice(2, IntMatrix([[0, 1], [1, 0]]), label="U")


def a2() -> Lattice:
    return Lattice(2, IntMatrix([[2, -1], [-1, 2]]), label="A2")


def z_lattice(n: int) -> Lattice:
    """Rank-1 lattice with Gram [[n]]."""
    if n == 0:
        raise ValueError("Z(n) requires nonzero n")
    return Lattice(1, IntMatrix([[n]]), label=f"Z({n})")


def odd_unimodular(p: int, q: int) -> Lattice:
    """Diagonal lattice I(p, q) with p entries +1 and q entries -1."""
    if p < 0 or q < 0:
        raise ValueError("I(p,q) requires p, q >= 0")
    if p + q == 0:
        raise ValueError("I(0,0) is empty and not supported")
    diag = [1] * p + [-1] * q
    n = p + q
    return Lattice(
        n,
        IntMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]),
        label=f"I({p},{q})",
    )


def twist(L: Lattice, n: int) -> Lattice:
    """Scale the bilinear form of L by the nonzero integer n."""
    if n == 0:
        raise ValueError("twist by 0 is degenerate")
    if n == 1:
        return L
    label = f"{L.label}({n})" if L.label else None
    return Lattice(L.rank, L.gram.scale(n), label=label)


def direct_sum(parts: Sequence[Lattice]) -> Lattice:
    if not parts:
        raise ValueError("direct_sum requires at least one summand")
    if len(parts) == 1:
        return parts[0]
    gram = IntMatrix.block_diag([p.gram for p in parts])
    return Lattice(sum(p.rank for p in parts), gram)


def _coerce_coords(L: Lattice, x) -> tuple[int, ...]:
    if isinstance(x, LatticeVec):
        if x.lattice != L:
            raise ValueError("vector does not belong to this lattice")
        return x.coords
    return LatticeVec(L, x).coords


def inner_product(L: Lattice, x, y) -> int:
    """Evaluate the bilinear form: x^T G y."""
    xc = _coerce_coords(L, x)
    yc = _coerce_coords(L, y)
    return dot(xc, L.gram.mul_vec(yc))


def basis_gram(L: Lattice, basis: Sequence[Sequence[int]]) -> IntMatrix:
    """Gram matrix of coordinate vectors of L: entry (a, b) is basis[a]^T G basis[b]."""
    images = [L.gram.mul_vec(b) for b in basis]
    return IntMatrix([[dot(b, gc) for gc in images] for b in basis], ncols=len(basis))


def invariants(L: Lattice) -> tuple[tuple[int, int], int, DiscriminantGroup]:
    """Signature, det and discriminant group of a nondegenerate lattice.

    The signature and det L come from the symmetric Bareiss pass of
    ``ldlt_signature``, and the invariant factors of L^dual / L from the
    Smith elimination of the Gram modulo |det L|
    (``invariant_factors_mod``); factors equal to 1 are dropped.  The
    product of the factors equals |det L|, and det L = 0 means the Gram
    is degenerate.  A det with more digits than the interpreter prints
    (``sys.get_int_max_str_digits``) raises ``ValueError`` before the
    elimination, which on such entries runs for minutes.
    """
    p, n, _, det = ldlt_signature(L.gram)
    if det == 0:
        raise DegenerateGramError("lattice invariants require a nondegenerate Gram")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 10^limit has more than 3 limit bits: the exact test runs only past that
    if limit and abs(det).bit_length() > 3 * limit and abs(det) >= 10**limit:
        raise ValueError("the result holds an integer too long to print")
    return (p, n), det, DiscriminantGroup(invariant_factors_mod(L.gram, abs(det)))


def discriminant_group(L: Lattice) -> DiscriminantGroup:
    """Invariant factors of the finite group L^dual / L (see ``invariants``)."""
    return invariants(L)[2]


def signature(L: Lattice) -> tuple[int, int]:
    """Signature (positives, negatives) of a nondegenerate lattice."""
    p, n, z, _ = ldlt_signature(L.gram)
    if z != 0:
        raise DegenerateGramError("signature requires a nondegenerate Gram")
    return (p, n)


def orthogonal_complement(
    L: Lattice, vectors: Sequence
) -> tuple[Lattice, list[LatticeVec]]:
    """Saturated orthogonal complement of a set of vectors.

    Returns the complement as an abstract lattice with its induced Gram,
    together with a basis expressed in the coordinates of L.  The result
    is primitive in L; it may have rank zero.
    """
    coords = [_coerce_coords(L, s) for s in vectors]
    pairing = IntMatrix([L.gram.mul_vec(s) for s in coords], ncols=L.rank)
    basis = kernel_basis(pairing)
    sub = Lattice(len(basis), basis_gram(L, basis))
    return sub, [LatticeVec(L, b) for b in basis]


# ---------------------------------------------------------------------------
# small-rank vector enumeration

# One enumerator serves every box search.  It is exact: the last coordinate
# is recovered by solving an integer quadratic (or linear) equation, so only
# O(bound^(rank-1)) work is done instead of scanning the full box.  It lists
# the box at once (``integer_solutions``, for callers that need every
# solution) or lazily in canonical order from growing boxes
# (``solutions_by_shell``, for callers that stop at the first solution they
# can use).


def integer_solutions(gram, linear, value: int, bound: int) -> list[tuple[int, ...]]:
    """Every integer x with x^T G x + l.x = value and |x_i| <= bound.

    ``gram`` is the symmetric G as a sequence of n rows and ``linear`` the
    coefficient vector l of length n, for ranks 2 and 3.  The result is
    in lexicographic order.
    """
    n = len(linear)
    if not 2 <= n <= 3 or len(gram) != n:
        raise ValueError("integer_solutions supports ranks 2 and 3")
    lo, hi, m = -bound, bound, n - 1
    box = range(lo, hi + 1)
    # (leading coordinates, form minus value on them, linear part given them);
    # the second-to-last coordinate x is looped inline, which keeps it cheap
    states = [((), -value, linear)]
    for k in range(m - 1):
        row = gram[k]
        states = [
            (p + (x,), c + (row[k] * x + t[k]) * x, [tj + 2 * gj * x for tj, gj in zip(t, row)])
            for p, c, t in states
            for x in box
        ]
    row = gram[m - 1]
    d, e = row[m - 1], 2 * row[m]
    # the last coordinate y solves a y^2 + b y + c = 0, inline: no call per (x, y)
    a = gram[m][m]
    a2, a4, sgn = 2 * a, 4 * a, 1 if a > 0 else -1
    out = []
    for p, c0, t in states:
        tk, tm = t[m - 1], t[m]
        for x in box:
            b, c = tm + e * x, c0 + (d * x + tk) * x
            if a:
                disc = b * b - a4 * c
                if disc < 0:
                    continue
                s = math.isqrt(disc)
                if s * s != disc:
                    continue
                # (-b -+ s) / 2a in increasing order; one root when s = 0
                q = sgn * s
                for num in (-b - q, -b + q) if q else (-b,):
                    if num % a2 == 0 and lo <= num // a2 <= hi:
                        out.append(p + (x, num // a2))
            elif b:
                if c % b == 0 and lo <= -c // b <= hi:
                    out.append(p + (x, -c // b))
            elif c == 0:
                out.extend(p + (x, y) for y in box)
    return out


#: ratio of the sides of the boxes ``solutions_by_shell`` lists.  The
#: canonical triples of L26 and L42 have v on shells 3 and 4, so a search
#: finds them in the box of side 4; growth 4 keeps the walked boxes of a
#: not-found search at about a third of the last box's cost at most
WALK_GROWTH = 4


def solutions_by_shell(gram, linear, value: int, bound: int) -> Iterator[tuple[int, ...]]:
    """The solutions of ``integer_solutions``, lazily, in canonical order.

    Every x of L1 norm at most b lies in the box of side b, so once that
    box is listed and sorted its solutions of L1 norm at most b are final.
    The walk lists boxes of side 1, WALK_GROWTH, WALK_GROWTH^2, ... while
    twice the side is at most ``bound``, then the box of side ``bound``,
    and yields from each the solutions past the previous side.  A caller
    that stops at a solution of L1 norm s pays for boxes of side below
    2 WALK_GROWTH s; one that reads on pays for the box and, at rank 3,
    about a third more at most.  Like ``integer_solutions`` it takes
    ranks 2 and 3.
    """
    done, side = -1, 1
    while True:
        last = 2 * side > bound
        if last:
            side = bound
        # (L1 norm, x) sorts as coord_key does
        found = sorted((sum(map(abs, x)), x) for x in integer_solutions(gram, linear, value, side))
        yield from (x for n, x in found if done < n and (last or n <= side))
        if last:
            return
        done, side = side, side * WALK_GROWTH


def vectors_with_norm(gram: IntMatrix, value: int, bound: int) -> list[tuple[int, ...]]:
    """Nonzero vectors x with x^T G x = value and |x_i| <= bound.

    Supports ranks 2 and 3.  The result is sorted by the canonical order
    (L1 norm, then lexicographic).
    """
    solutions = integer_solutions(gram.rows, (0,) * gram.nrows, value, bound)
    return sorted((x for x in solutions if any(x)), key=coord_key)


# ---------------------------------------------------------------------------
# small-rank isometry testing


ISOMETRIC = "isometric"
NOT_ISOMETRIC = "not_isometric"
NOT_FOUND_WITHIN_BOUND = "not_found_within_bound"
#: last box side of a search: the cap of an indefinite isometry search and
#: the ``--bound`` ceiling of ``mukai search``; a box of side b costs about b^2
MAX_BOUND = 200


@dataclass(frozen=True)
class IsometryResult:
    """Outcome of an isometry search.

    ``status`` is one of ``isometric`` (with a witness ``map`` T such
    that T^t G1 T = G2), ``not_isometric`` (an invariant distinguishes
    the lattices, or ``reason`` is ``"exhaustive"``: a definite pair was
    searched up to its radius), or ``not_found_within_bound`` (the search
    box was exhausted without a witness, which proves nothing).
    """

    status: str
    map: IntMatrix | None = None
    reason: str | None = None


def _search_isometry(g1: IntMatrix, g2: IntMatrix, bound: int) -> IntMatrix | None:
    """First basis image T (canonical DFS order) with T^t g1 T = g2.

    Column j of T is a box vector of norm g2_jj; the candidates are listed
    once per distinct norm.  Columns are placed fewest candidates first.
    Placing one filters the candidates of every later column by their
    pairing with it (forward checking), so a branch ends as soon as some
    column has none left.  The filters keep each list in order, so the
    first witness is the one that testing every pairing at placement finds.
    """
    n = g1.nrows
    norms = [g2.rows[j][j] for j in range(n)]
    lists = {c: vectors_with_norm(g1, c, bound) for c in set(norms)}
    order = sorted(range(n), key=lambda j: (len(lists[norms[j]]), j))

    def extend(placed, pending):
        # placed holds (column, x) chosen so far; pending holds (column,
        # candidates) for the rest, each candidate paired right with placed
        if not pending:
            return placed
        (pos, cands), rest = pending[0], pending[1:]
        pairings = g2.rows[pos]
        for x in cands:
            # a global sign flip is always an isometry: pin the first column.
            if not placed and sign_normalize(x) != x:
                continue
            gx = g1.mul_vec(x)
            later = [(j, [y for y in ys if sum(map(mul, gx, y)) == pairings[j]]) for j, ys in rest]
            if all(ys for _, ys in later):
                done = extend([*placed, (pos, x)], later)
                if done is not None:
                    return done
        return None

    placed = extend([], [(j, lists[norms[j]]) for j in order])
    if placed is None:
        return None
    columns = [x for _, x in sorted(placed)]
    return IntMatrix([[x[i] for x in columns] for i in range(n)], ncols=n)


def is_isometric_small(L1: Lattice, L2: Lattice) -> IsometryResult:
    """Decide isometry of two nondegenerate lattices of rank <= 3.

    Cheap invariants (rank, determinant, signature, discriminant group,
    parity) are compared first; a mismatch proves the lattices distinct.
    A rank-1 pair never reaches the search: equal det means equal 1x1
    Grams, and the identity is the witness.
    When they all agree an exhaustive coordinate-box search looks for a
    basis image T with T^t G1 T = G2 and det T = +-1.  The box |T_ij| <= b
    doubles, b = 1, 2, 4, ..., up to a last box of ``top``.  The witness
    is the first T in search order within the smallest of these boxes
    that holds one, so a small witness costs a small search.  For
    definite lattices ``top`` is the Fincke-Pohst radius, the largest
    isqrt(G2_jj adj(G1)_ii / det G1), since x^t G1 x = c forces
    x_i^2 <= c adj(G1)_ii / det G1, and a search up to it without a
    witness answers ``not_isometric`` with reason ``"exhaustive"``.
    Otherwise ``top`` is the rank times the largest |entry| of either
    Gram, at most ``MAX_BOUND``, and a search up to it without a
    witness answers ``not_found_within_bound``.
    """
    if max(L1.rank, L2.rank) > 3:
        raise ValueError("is_isometric_small supports ranks up to 3")
    if L1.rank != L2.rank:
        return IsometryResult(NOT_ISOMETRIC, reason="rank")
    (sig1, det1, group1), (sig2, det2, group2) = invariants(L1), invariants(L2)
    # x.x = sum g_ii x_i^2 mod 2: a lattice is even iff its Gram diagonal is
    even1, even2 = (all(L.gram.rows[i][i] % 2 == 0 for i in range(L.rank)) for L in (L1, L2))
    for reason, left, right in (
        ("determinant", det1, det2),
        ("signature", sig1, sig2),
        ("discriminant_group", group1, group2),
        ("parity", even1, even2),
    ):
        if left != right:
            return IsometryResult(NOT_ISOMETRIC, reason=reason)
    if L1.gram == L2.gram:
        return IsometryResult(ISOMETRIC, map=IntMatrix.identity(L1.rank))

    n, g = L1.rank, L1.gram.rows
    top = min(MAX_BOUND, max(1, n * max(L1.gram.max_abs(), L2.gram.max_abs())))
    if 0 in sig1:
        adj = [determinant(IntMatrix([r[:i] + r[i + 1 :] for r in g[:i] + g[i + 1 :]])) for i in range(n)]
        top = max(math.isqrt(L2.gram.rows[j][j] * a // det1) for j in range(n) for a in adj)
    b = 1
    while True:
        b = min(b, top)
        T = _search_isometry(L1.gram, L2.gram, b)
        if T is not None:
            # with det G1 = det G2 != 0 this also forces det T = +-1
            if T.transpose() @ L1.gram @ T != L2.gram:
                raise RuntimeError(f"internal error: {T} is not an isometry")
            return IsometryResult(ISOMETRIC, map=T)
        if b >= top:
            if 0 in sig1:
                return IsometryResult(NOT_ISOMETRIC, reason="exhaustive")
            return IsometryResult(NOT_FOUND_WITHIN_BOUND)
        b *= 2


# ---------------------------------------------------------------------------
# named lattices


def cubic_lattice() -> Lattice:
    """Rank-22 lattice E8 + E8 + U + U + A2 of signature (20, 2)."""
    L = direct_sum([e8(), e8(), hyperbolic_plane(), hyperbolic_plane(), a2()])
    return Lattice(L.rank, L.gram, label="Gamma")


def k3_lattice() -> Lattice:
    """Rank-22 lattice E8(-1) + E8(-1) + U + U + U of signature (3, 19)."""
    m1 = twist(e8(), -1)
    u = hyperbolic_plane()
    L = direct_sum([m1, m1, u, u, u])
    return Lattice(L.rank, L.gram, label="K3")


def mukai_lattice() -> Lattice:
    """Rank-24 lattice E8 + E8 + U + U + U + U of signature (20, 4)."""
    u = hyperbolic_plane()
    L = direct_sum([e8(), e8(), u, u, u, u])
    return Lattice(L.rank, L.gram, label="Mukai")


def k3_polarized_primitive(d: int) -> Lattice:
    """Rank-22 lattice E8(-1) + E8(-1) + U + U + Z(-d), degree-d primitive part."""
    if d <= 0:
        raise ValueError("degree d must be positive")
    m1 = twist(e8(), -1)
    u = hyperbolic_plane()
    L = direct_sum([m1, m1, u, u, z_lattice(-d)])
    return Lattice(L.rank, L.gram, label=f"Lambda_{d}")


def middle_lattice() -> Lattice:
    """The odd unimodular lattice I(21, 2) of rank 23."""
    return odd_unimodular(21, 2)


def hyperplane_square() -> LatticeVec:
    """The norm-3 class (1,...,1, 3, 3), with 21 ones, inside I(21,2).

    Every coordinate is odd, so the class is characteristic and its
    complement is even: rank 22, signature (20, 2) and group Z/3, which
    determine Gamma (Nikulin, Cor. 1.13.3).  The choice is a convention.
    """
    L = middle_lattice()
    return LatticeVec(L, (1,) * 21 + (3, 3))


def kuznetsov_rank3_lattice(d: int) -> Lattice:
    """Built-in rank-3 lattice of determinant d on basis (lambda1, lambda2, tau).

    Known instances: d = 26 and d = 42.
    """
    if d == 26:
        return Lattice(3, IntMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, 8]]), label="L26")
    if d == 42:
        return Lattice(3, IntMatrix([[-2, 1, 0], [1, -2, 0], [0, 0, 14]]), label="L42")
    raise ValueError("built-in lattices exist for d = 26 and d = 42 only")


# ---------------------------------------------------------------------------
# lattice file format

# A lattice file is a JSON object with fields "rank" (integer), "gram"
# (array of arrays of integers) and optionally "label" (string).  The
# writer is canonical (sorted keys, fixed separators, trailing newline),
# so write/read/write round-trips are byte identical.  ``lattice_from_json``
# is the one file reader: every unreadable or malformed file raises
# ``LatticeFormatError``.

#: longest integer literal a file may hold; at most 640, the lowest digit
#: limit the interpreter can set, so this check fires first under any setting
MAX_INT_DIGITS = 640

#: largest rank a file may declare or hold, and the largest p + q of a
#: catalog ``I(p,q)``.  It keeps out the largest files.  ``invariants``
#: runs a Bareiss pass and an elimination modulo |det|, whose
#: entries have the size of |det|, so their cost grows with the size of
#: the entries as well as with the rank
MAX_RANK = 40


def lattice_to_json(L: Lattice) -> str:
    doc: dict = {"gram": L.gram.to_lists(), "rank": L.rank}
    if L.label is not None:
        doc["label"] = L.label
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


def _parse_int(literal: str) -> int:
    if len(literal.lstrip("-")) > MAX_INT_DIGITS:
        raise LatticeFormatError(f"integer with more than {MAX_INT_DIGITS} digits")
    return int(literal)


def lattice_from_json(text: str) -> Lattice:
    """Parse a lattice file, or raise LatticeFormatError.

    Integer literals longer than ``MAX_INT_DIGITS`` digits are rejected.
    """
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as e:
        raise LatticeFormatError(f"invalid JSON at line {e.lineno}: {e.msg}") from e
    except RecursionError as e:
        # nesting past the interpreter's recursion limit
        raise LatticeFormatError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise LatticeFormatError("lattice document must be a JSON object")
    for key in ("rank", "gram"):
        if key not in doc:
            raise LatticeFormatError(f"missing field: {key}")
    rank = doc["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise LatticeFormatError("field 'rank' must be a nonnegative integer")
    gram = doc["gram"]
    if not isinstance(gram, list) or any(not isinstance(r, list) for r in gram):
        raise LatticeFormatError("field 'gram' must be an array of arrays")
    if rank > MAX_RANK or len(gram) > MAX_RANK or any(len(r) > MAX_RANK for r in gram):
        raise LatticeFormatError(f"a lattice file may have rank at most {MAX_RANK}")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise LatticeFormatError("field 'label' must be a string")
    try:
        return Lattice(rank, IntMatrix(gram, ncols=rank if not gram else None), label=label)
    except TypeError as e:
        # IntMatrix refuses any entry that is not an int, or is a bool
        raise LatticeFormatError("field 'gram' must contain integers only") from e
    except ValueError as e:
        raise LatticeFormatError(str(e)) from e


#: longest lattice file read, in characters: over twice the longest that
#: ``lattice_to_json`` writes, whose entries take at most MAX_INT_DIGITS + 3
#: characters with sign and separator, plus one entry's worth per row
_MAX_FILE_CHARS = 2 * MAX_RANK * (MAX_RANK + 1) * (MAX_INT_DIGITS + 3)


def load_lattice(path: str) -> Lattice:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(_MAX_FILE_CHARS + 1)
    except (OSError, UnicodeDecodeError) as e:
        raise LatticeFormatError(f"cannot read lattice file: {e}") from e
    if len(text) > _MAX_FILE_CHARS:
        raise LatticeFormatError(f"a lattice file may have at most {_MAX_FILE_CHARS} characters")
    return lattice_from_json(text)


def save_lattice(L: Lattice, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lattice_to_json(L))


# ---------------------------------------------------------------------------
# the catalog


def _catalog_odd_unimodular(p: int, q: int) -> Lattice:
    if p + q > MAX_RANK:
        raise ValueError(f"I(p,q) requires p + q <= {MAX_RANK}")
    return odd_unimodular(p, q)


# re.ASCII: no other script's digits, no look-alike such as the Kelvin sign for K
_ANY_CASE, _AS_SHOWN = re.ASCII | re.IGNORECASE, re.ASCII

#: every catalog name as (display name, pattern, builder, description); the
#: groups of a pattern are its builder's integer arguments
CATALOG = (
    ("E8", re.compile(r"E8", _ANY_CASE), e8, "positive definite even unimodular, rank 8"),
    ("U", re.compile(r"U", _ANY_CASE), hyperbolic_plane, "hyperbolic plane [[0,1],[1,0]]"),
    ("A2", re.compile(r"A2", _ANY_CASE), a2, "[[2,-1],[-1,2]]"),
    ("Z(n)", re.compile(r"Z\((-?\d+)\)", _AS_SHOWN), z_lattice, "rank 1, Gram [[n]], n != 0"),
    ("I(p,q)", re.compile(r"I\((\d+),(\d+)\)", _AS_SHOWN), _catalog_odd_unimodular,
     f"odd unimodular, diagonal +1^p, -1^q, 0 < p + q <= {MAX_RANK}"),
    ("Gamma", re.compile(r"Gamma", _ANY_CASE), cubic_lattice, "E8 + E8 + U + U + A2, rank 22"),
    ("K3", re.compile(r"K3", _ANY_CASE), k3_lattice, "E8(-1) + E8(-1) + U + U + U, rank 22"),
    ("Mukai", re.compile(r"Mukai", _ANY_CASE), mukai_lattice, "E8 + E8 + U + U + U + U, rank 24"),
    ("Lambda_d", re.compile(r"Lambda_(\d+)", _ANY_CASE), k3_polarized_primitive,
     "E8(-1) + E8(-1) + U + U + Z(-d), rank 22, d >= 1"),
    ("I21_2", re.compile(r"I21_2|I\(21,2\)", _ANY_CASE), middle_lattice, "I(21,2), rank 23"),
    ("L26", re.compile(r"L26", _ANY_CASE), lambda: kuznetsov_rank3_lattice(26),
     "rank 3, determinant 26, on the basis (lambda1, lambda2, tau)"),
    ("L42", re.compile(r"L42", _ANY_CASE), lambda: kuznetsov_rank3_lattice(42),
     "rank 3, determinant 42, on the basis (lambda1, lambda2, tau)"),
)


def lattice_by_name(name: str) -> Lattice:
    """Resolve a name, surrounding ASCII whitespace ignored, by the first entry
    of ``CATALOG`` whose pattern matches all of it, or raise ``ValueError``;
    an integer argument of more than ``MAX_INT_DIGITS`` digits, sign not
    counted, is refused before it is converted, as in a file."""
    # str.strip() would also take Unicode spaces, which no pattern accepts
    key = name.strip(" \t\n\r\f\v")
    for _, pattern, build, _ in CATALOG:
        if m := pattern.fullmatch(key):
            if any(len(g.lstrip("-")) > MAX_INT_DIGITS for g in m.groups()):
                raise ValueError(f"integer with more than {MAX_INT_DIGITS} digits")
            return build(*map(int, m.groups()))
    raise ValueError(f"unknown lattice name: {name!r}")
