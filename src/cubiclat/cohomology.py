"""Exact arithmetic in the algebraic cohomology of a cubic fourfold.

The model is the truncated polynomial ring Q[h]/(h^5), where h is the
hyperplane class of a smooth cubic hypersurface in P^5.  The top
intersection number is fixed by Bezout: the integral of h^4 over the
fourfold equals 3, the degree of the hypersurface.

On this ring we compute the total Chern class of the tangent bundle via
the Euler sequence, the Todd class and its square root, and the Euler
pairing

    chi(v, w) = integral( dual(v / sqrt_td) * (w / sqrt_td) * td ),

where dual negates the odd-degree coefficients.  The classes lambda_1,
lambda_2 below are the Mukai vectors of the two canonical objects in
the Kuznetsov component of the derived category; under the pairing they
span a lattice with Gram matrix [[-2, 1], [1, -2]], which calibrates
the sign conventions of the whole module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

#: top self-intersection of the hyperplane class: the degree of a cubic
DEGREE = 3

#: truncation degree: classes live in degrees 0..4
TOP = 4


class CohClass:
    """Polynomial in h with exact rational coefficients, truncated at h^4."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) > TOP + 1:
            raise ValueError("at most five coefficients (degrees 0..4)")
        cs = cs + (Fraction(0),) * (TOP + 1 - len(cs))
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("CohClass is immutable")

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if isinstance(other, CohClass):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = "h" if k == 1 else f"h^{k}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c} {mono}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def __add__(self, other: "CohClass") -> "CohClass":
        return CohClass([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CohClass") -> "CohClass":
        return CohClass([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CohClass":
        return CohClass([-a for a in self.coeffs])

    def scale(self, q) -> "CohClass":
        q = Fraction(q)
        return CohClass([q * a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, CohClass):
            out = [Fraction(0)] * (TOP + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    if i + j > TOP:
                        break
                    out[i + j] += a * b
            return CohClass(out)
        return self.scale(other)

    __rmul__ = __mul__

    def inverse(self) -> "CohClass":
        """Multiplicative inverse of a class with nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ValueError("inverse requires a nonzero constant term")
        inv = [Fraction(1) / self.coeffs[0]] + [Fraction(0)] * TOP
        for k in range(1, TOP + 1):
            s = sum(self.coeffs[i] * inv[k - i] for i in range(1, k + 1))
            inv[k] = -s / self.coeffs[0]
        return CohClass(inv)

    def __truediv__(self, other: "CohClass") -> "CohClass":
        return self * other.inverse()

    def sqrt(self) -> "CohClass":
        """Series square root; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        s = [Fraction(1)] + [Fraction(0)] * TOP
        for k in range(1, TOP + 1):
            acc = sum(s[i] * s[k - i] for i in range(1, k))
            s[k] = (self.coeffs[k] - acc) / 2
        return CohClass(s)


def h(power: int = 1) -> CohClass:
    """The class h^power."""
    if not 0 <= power <= TOP:
        raise ValueError("power must lie in 0..4")
    return CohClass([0] * power + [1])


def dual(a: CohClass) -> CohClass:
    """Degree involution: the h^k coefficient picks up the sign (-1)^k."""
    return CohClass([c if k % 2 == 0 else -c for k, c in enumerate(a.coeffs)])


def integral(a: CohClass) -> Fraction:
    """Integrate over the fourfold: DEGREE times the h^4 coefficient."""
    return DEGREE * a.coeffs[TOP]


def chern_tangent() -> CohClass:
    """Total Chern class of the tangent bundle: (1+h)^6 / (1+3h).

    This is the Euler sequence of P^5 restricted to a degree-3
    hypersurface, truncated at h^4.
    """
    sixth = CohClass([comb(6, k) for k in range(TOP + 1)])
    return sixth / CohClass([1, DEGREE])


def todd() -> CohClass:
    """Todd class of the tangent bundle, from the universal polynomials.

    td_1 = c1/2, td_2 = (c1^2 + c2)/12, td_3 = c1 c2 / 24,
    td_4 = (-c1^4 + 4 c1^2 c2 + 3 c2^2 + c1 c3 - c4)/720.
    """
    c = chern_tangent()
    c1, c2, c3, c4 = c[1], c[2], c[3], c[4]
    return CohClass(
        [
            Fraction(1),
            c1 / 2,
            (c1**2 + c2) / 12,
            c1 * c2 / 24,
            (-(c1**4) + 4 * c1**2 * c2 + 3 * c2**2 + c1 * c3 - c4) / 720,
        ]
    )


def sqrt_todd() -> CohClass:
    return todd().sqrt()


def lambda_class(i: int) -> CohClass:
    """The Mukai vectors lambda_1 and lambda_2, as explicit classes."""
    if i == 1:
        return CohClass(
            [3, Fraction(5, 4), Fraction(-7, 32), Fraction(-77, 384), Fraction(41, 2048)]
        )
    if i == 2:
        return CohClass(
            [-3, Fraction(-1, 4), Fraction(15, 32), Fraction(1, 384), Fraction(-153, 2048)]
        )
    raise ValueError("lambda_class index must be 1 or 2")


def euler_pairing(v: CohClass, w: CohClass) -> Fraction:
    """chi(v, w) = integral( dual(v/sqrt_td) * (w/sqrt_td) * td ).

    All operations are exact; division is truncated series division,
    always possible because sqrt_td has constant term 1.
    """
    s = sqrt_todd()
    return integral(dual(v / s) * (w / s) * todd())


def lambda_gram() -> list[list[int]]:
    """Euler-pairing Gram matrix of (lambda_1, lambda_2)."""
    l1, l2 = lambda_class(1), lambda_class(2)
    rows = []
    for a in (l1, l2):
        row = []
        for b in (l1, l2):
            q = euler_pairing(a, b)
            if q.denominator != 1:
                raise ArithmeticError("lambda pairing must be an integer")
            row.append(int(q))
        rows.append(row)
    return rows
