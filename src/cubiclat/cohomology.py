"""Exact arithmetic in the algebraic cohomology of a cubic fourfold.

The model is the truncated polynomial ring Q[h]/(h^5), where h is the
hyperplane class of a smooth cubic hypersurface in P^5.  The top
intersection number is fixed by Bezout: the integral of h^4 over the
fourfold equals 3, the degree of the hypersurface.

On this ring we compute the Euler pairing

    chi(v, w) = integral( dual(v / sqrt_td) * (w / sqrt_td) * td ),

where dual negates the odd-degree coefficients.  dual is a ring
automorphism, and the Todd class factors as td = e^{c1/2} * A with the
A-hat class A even, so dual(sqrt_td) * sqrt_td = A and td / A = e^{c1/2}.
The pairing therefore has the closed form

    chi(v, w) = integral( dual(v) * w * e^{c1/2} ),

with c1 = (6 - DEGREE) h = 3h by adjunction, and the module computes
this right-hand side.  The classes lambda_1, lambda_2 below are the
Mukai vectors of the two canonical objects in the Kuznetsov component
of the derived category; under the pairing they span a lattice with
Gram matrix [[-2, 1], [1, -2]], which calibrates the sign conventions
of the whole module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

#: top self-intersection of the hyperplane class: the degree of a cubic
DEGREE = 3

#: truncation degree: classes live in degrees 0..4
TOP = 4


@dataclass(frozen=True, slots=True, repr=False)
class CohClass:
    """Polynomial in h with exact rational coefficients, truncated at h^4."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        if len(cs) > TOP + 1:
            raise ValueError("at most five coefficients (degrees 0..4)")
        cs = cs + (Fraction(0),) * (TOP + 1 - len(cs))
        object.__setattr__(self, "coeffs", cs)

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


def dual(a: CohClass) -> CohClass:
    """Degree involution: the h^k coefficient picks up the sign (-1)^k."""
    return CohClass([c if k % 2 == 0 else -c for k, c in enumerate(a.coeffs)])


def integral(a: CohClass) -> Fraction:
    """Integrate over the fourfold: DEGREE times the h^4 coefficient."""
    return DEGREE * a.coeffs[TOP]


#: e^{c1/2} with c1 = (6 - DEGREE) h, the first Chern class of the tangent bundle
WEIGHT = CohClass([Fraction(6 - DEGREE, 2) ** k / factorial(k) for k in range(TOP + 1)])


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

    Since td = e^{c1/2} * A with the A-hat class A even, dual(sqrt_td) *
    sqrt_td = A, and this equals integral( dual(v) * w * WEIGHT ) with
    WEIGHT = e^{c1/2}, the form computed here.
    """
    return integral(dual(v) * w * WEIGHT)


def lambda_gram() -> list[list[int]]:
    """Euler-pairing Gram matrix of (lambda_1, lambda_2), computed into new
    lists on every call; the ``mukai gram-lambda`` command holds its payload."""
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
