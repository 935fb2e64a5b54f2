"""Exact dense linear algebra over integer matrices.

Everything here works with Python's arbitrary-precision ``int``; there
is no floating point and no rational arithmetic, and therefore no
rounding or overflow anywhere.  Matrices are small (rank at most a few
dozen in this library), so the implementations favour clarity and
exactness over asymptotics: Smith normal form by extended-gcd row and
column operations on one matrix, whose appended rows and columns record
only the transforms a caller reads, determinants by fraction-free
Bareiss elimination, and the signature together with the determinant by
one symmetric Bareiss elimination.  The invariant factors of a
nonsingular matrix alone come from the same extended-gcd steps taken
modulo |det|, so no entry exceeds |det|; the Smith elimination over Z is
kept for the kernels and transforms, whose entries can grow far past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _require_ints(values: Iterable) -> None:
    """Raise TypeError unless every value is an int; a bool is refused."""
    for e in values:
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"integer entry expected, got {e!r}")


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum(map(mul, u, v))


def sign_normalize(v: Sequence[int]) -> tuple[int, ...]:
    """Flip the sign of v, if needed, so its first nonzero entry is positive."""
    for a in v:
        if a != 0:
            return tuple(v) if a > 0 else tuple(-x for x in v)
    return tuple(v)


def coord_key(v: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Canonical ordering key for integer vectors: L1 norm, then lexicographic."""
    return (sum(abs(a) for a in v), tuple(v))


@dataclass(frozen=True, slots=True, repr=False)
class IntMatrix:
    """Immutable dense matrix with arbitrary-precision integer entries."""

    rows: tuple[tuple[int, ...], ...]
    ncols: int | None = None
    nrows: int = field(init=False)

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        ncols = self.ncols
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row length")
            ncols = width
        elif ncols is None:
            ncols = 0
        for r in rows:
            _require_ints(r)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def block_diag(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        n = sum(b.nrows for b in blocks)
        m = sum(b.ncols for b in blocks)
        out = [[0] * m for _ in range(n)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.nrows):
                out[i0 + i][j0 : j0 + b.ncols] = list(b.rows[i])
            i0 += b.nrows
            j0 += b.ncols
        return cls(out, ncols=m)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix dimension mismatch")
        bt = other.transpose().rows
        return IntMatrix(
            [[dot(r, c) for c in bt] for r in self.rows], ncols=other.ncols
        )

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise ValueError("matrix dimension mismatch")
        return tuple(dot(r, v) for r in self.rows)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix([[k * e for e in r] for r in self.rows], ncols=self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def max_abs(self) -> int:
        return max((abs(e) for r in self.rows for e in r), default=0)


def smith_eliminate(a: list[list[int]], r: int, c: int) -> int:
    """Bring the top-left r x c block of ``a`` to Smith form in place.

    Returns the rank of the block.  Row operations act on whole rows of
    ``a`` and column operations on whole columns, while the pivots, the gcd
    steps, the divisibility fix-up and the sign fix read only the block.  So
    rows below the block and columns right of it record the transforms:
    ``[[M, I], [I, 0]]`` becomes ``[[D, U], [V, 0]]`` with U*M*V = D, and a
    caller pays only for the transforms it appends.  D is diagonal with
    nonnegative entries in a divisibility chain d1 | d2 | ..., zero entries
    trailing.
    """

    def clear_pivot(t):
        # Eliminate column and row t of the block outside the pivot.  When
        # the pivot divides an entry, a plain elimination is used (it leaves
        # the pivot row and column untouched); otherwise a 2x2 gcd transform
        # strictly shrinks |pivot|, so the loop terminates.
        while True:
            for i in range(t + 1, r):
                b = a[i][t]
                if b == 0:
                    continue
                p = a[t][t]
                if b % p == 0:
                    q = b // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                else:
                    g, x, y = xgcd(p, b)
                    s, w = -(b // g), p // g
                    rt, ri = a[t], a[i]
                    a[t] = [x * e + y * f for e, f in zip(rt, ri)]
                    a[i] = [s * e + w * f for e, f in zip(rt, ri)]
            for j in range(t + 1, c):
                b = a[t][j]
                if b == 0:
                    continue
                p = a[t][t]
                if b % p == 0:
                    q = b // p
                    for row in a:
                        row[j] -= q * row[t]
                else:
                    g, x, y = xgcd(p, b)
                    s, w = -(b // g), p // g
                    for row in a:
                        e, f = row[t], row[j]
                        row[t] = x * e + y * f
                        row[j] = s * e + w * f
            if all(a[t][j] == 0 for j in range(t + 1, c)) and all(
                a[i][t] == 0 for i in range(t + 1, r)
            ):
                return

    rank = 0
    for t in range(min(r, c)):
        # pivot: smallest nonzero absolute value in the remaining block,
        # first in row-major order among ties
        best = min(
            ((abs(a[i][j]), i, j) for i in range(t, r) for j in range(t, c) if a[i][j]),
            default=None,
        )
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        clear_pivot(t)
        rank = t + 1

    # divisibility chain on the diagonal
    while True:
        bad = next((t for t in range(rank - 1) if a[t + 1][t + 1] % a[t][t] != 0), None)
        if bad is None:
            break
        # pull the offending entry into column bad and re-clear
        for row in a:
            row[bad] += row[bad + 1]
        clear_pivot(bad)

    for t in range(rank):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return rank


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (D, U, V) with U*M*V = D.

    U and V are unimodular.  D is diagonal with nonnegative entries in a
    divisibility chain d1 | d2 | ..., zero entries trailing.  D is canonical;
    U and V are merely some valid choice (for a matrix that is already in
    Smith form they are identities).
    """
    r, c = M.nrows, M.ncols
    a = [list(row) + [int(i == k) for k in range(r)] for i, row in enumerate(M.rows)]
    a += [[int(i == k) for k in range(c)] + [0] * r for i in range(c)]
    smith_eliminate(a, r, c)
    return (
        IntMatrix([row[:c] for row in a[:r]], ncols=c),
        IntMatrix([row[c:] for row in a[:r]], ncols=r),
        IntMatrix([row[:c] for row in a[r:]], ncols=c),
    )


def invariant_factors_mod(G: IntMatrix, D: int) -> tuple[int, ...]:
    """Invariant factors > 1 of a nonsingular square G, eliminated modulo D.

    D must be a positive multiple of the largest invariant factor, such
    as |det G|.  Then D*Z^n lies in G*Z^n, so Z^n / G*Z^n is Z^n modulo
    G*Z^n + D*Z^n, which row and column operations and the reduction of
    an entry modulo D all keep (Cohen, *A Course in Computational
    Algebraic Number Theory*, 2.4).  The steps are those of
    ``smith_eliminate`` on entries in [0, D), which never exceed D.  No
    transforms are carried: once the pivot's column is clear and the
    pivot divides the rest of its row, column operations would only zero
    that row, so the pivot's row and column are dropped instead.  A pivot
    e gives the factor gcd(e, D), a remaining block that is zero modulo D
    gives one factor D per row, and gcd/lcm swaps sort the factors into a
    divisibility chain.  D = 1 (a unimodular G) has no factor > 1 and
    returns () at once.
    """
    if not G.is_square():
        raise ValueError("invariant_factors_mod requires a square matrix")
    if D < 1:
        raise ValueError("the modulus must be positive")
    if D == 1:
        return ()
    a = [[e % D for e in row] for row in G.rows]
    pivots = []
    while a:
        # pivot: the smallest nonzero entry, first by rows; a 1 ends the scan
        best = 0
        for i, row in enumerate(a):
            m = min(filter(None, row), default=0)
            if m and (not best or m < best):
                best, bi = m, i
                if m == 1:
                    break
        if not best:
            break
        a[0], a[bi] = a[bi], a[0]
        bj = a[0].index(best)
        if bj:
            for row in a:
                row[0], row[bj] = row[bj], row[0]
        # as in smith_eliminate: an entry the pivot divides is eliminated
        # directly, any other by a gcd transform that strictly shrinks the
        # pivot (with b = p, xgcd(p, b) = (p, 0, 1) would shrink nothing)
        k = len(a)
        while True:
            for i in range(1, k):
                ri = a[i]
                b = ri[0]
                if b == 0:
                    continue
                top = a[0]
                p = top[0]
                if b % p == 0:
                    q = b // p
                    ri[0] = 0
                    for j in range(1, k):
                        ri[j] = (ri[j] - q * top[j]) % D
                else:
                    g, x, y = xgcd(p, b)
                    s, w = -(b // g), p // g
                    a[0] = [(x * e + y * f) % D for e, f in zip(top, ri)]
                    a[i] = [(s * e + w * f) % D for e, f in zip(top, ri)]
            top = a[0]
            if all(b % top[0] == 0 for b in top):
                break
            for j in range(1, k):
                p, b = top[0], top[j]
                if b % p:
                    g, x, y = xgcd(p, b)
                    s, w = -(b // g), p // g
                    for row in a:
                        e, f = row[0], row[j]
                        row[0], row[j] = (x * e + y * f) % D, (s * e + w * f) % D
        pivots.append(a[0][0])
        a = [row[1:] for row in a[1:]]
    factors = [f for f in (math.gcd(e, D) for e in pivots) if f > 1] + [D] * len(a)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return tuple(f for f in factors if f > 1)


def determinant(M: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if not M.is_square():
        raise ValueError("determinant requires a square matrix")
    n = M.nrows
    if n == 0:
        return 1
    a = [list(row) for row in M.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def kernel_basis(M: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel {x : M x = 0}.

    The returned vectors span the full lattice of integer solutions (the
    kernel of an integer matrix is automatically saturated).  Each basis
    vector is sign-normalized so its first nonzero entry is positive.  An
    empty list means the kernel is trivial.
    """
    r, c = M.nrows, M.ncols
    a = M.to_lists() + [[int(i == k) for k in range(c)] for i in range(c)]
    rank = smith_eliminate(a, r, c)
    return [sign_normalize([a[r + i][j] for i in range(c)]) for j in range(rank, c)]


def ldlt_signature(G: IntMatrix) -> tuple[int, int, int, int]:
    """Inertia and determinant (positives, negatives, zeros, det) of a symmetric matrix.

    Fraction-free symmetric Bareiss elimination.  After step t the trailing
    block holds bordered leading minors, so each update divides exactly
    by the previous pivot, and each pivot p counts positive when p and the
    previous pivot have the same sign (Jacobi).  A trailing block with a
    zero diagonal but a nonzero entry a[i][j] is first transformed by the
    unimodular congruence b_i += b_j, which makes a[i][i] = 2 a[i][j].  A
    zero trailing block ends the elimination; its size is the zero count.
    The symmetric swaps and the congruence keep the determinant, so the
    last pivot is det G; det is 0 when the zero count is positive.
    """
    if not G.is_symmetric():
        raise ValueError("ldlt_signature requires a symmetric matrix")
    n = G.nrows
    a = [list(row) for row in G.rows]
    pos = neg = 0
    prev = 1
    t = 0
    while t < n:
        piv = next((k for k in range(t, n) if a[k][k] != 0), None)
        if piv is None:
            off = next(
                ((i, j) for i in range(t, n) for j in range(i + 1, n) if a[i][j] != 0),
                None,
            )
            if off is None:
                break
            piv, j = off
            a[piv] = [x + y for x, y in zip(a[piv], a[j])]
            for row in a:
                row[piv] += row[j]
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            for row in a:
                row[t], row[piv] = row[piv], row[t]
        p = a[t][t]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        # the trailing block stays symmetric: update its upper half, mirror it
        at = a[t]
        for i in range(t + 1, n):
            ai, c = a[i], at[i]
            for j in range(i, n):
                ai[j] = a[j][i] = (p * ai[j] - c * at[j]) // prev
        prev = p
        t += 1
    return (pos, neg, n - t, prev if t == n else 0)

