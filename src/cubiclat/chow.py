"""Codimension-3 cycle bookkeeping for surfaces in a cubic fourfold.

A surface R of degree delta inside a cubic fourfold X gives rise to a
small formal module of codimension-3 classes spanned by

* ``h^3``, the cube of the hyperplane class,
* ``ell``, the pushforward of a line class on R (ruling or line),
* ``h.R``, the pushforward of the hyperplane section class of R.

Double-point-free excess intersection along R yields the exact relation

    3 * i_*(h|_R) = delta * h^3,

which is the entire computational content of the per-surface arguments:
for the plane it reads h^3 = 3 ell, for the Veronese 3 ell = 2 h^3, and
for the scrolls it pins i_*(h|_R) to (delta/3) h^3 while leaving ell
untouched.  The generically-defined-cycle generator list is
{h^3} + {i_*(g) : g in Pic(R)} reduced modulo this relation.

The quartic scroll also carries its determinantal ideal: the six 2x2
minors of the matrix [[u, v, x, y], [v, w, y, z]] in the homogeneous
coordinates of P^5, together with the standard rational parameterization
(mu s^2, mu s t, mu t^2, lam s^2, lam s t, lam t^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .exactlinalg import IntMatrix, _require_ints

H3 = "h^3"
ELL = "ell"
HR = "h.R"

_SYMBOL_ORDER = {H3: 0, ELL: 1, HR: 2}


def _symbol_sort_key(sym: str) -> tuple[int, str]:
    return (_SYMBOL_ORDER.get(sym, 3), sym)


def _signed_sum(terms: Iterable[tuple[Fraction | int, str]], sep: str) -> str:
    """Render nonzero terms (c, symbol) as "a - b + 2<sep>c"; "0" when empty."""
    out = ""
    for c, sym in terms:
        mag = sym if abs(c) == 1 else f"{abs(c)}{sep}{sym}"
        if not out:
            out = mag if c > 0 else f"-{mag}"
        else:
            out += f" + {mag}" if c > 0 else f" - {mag}"
    return out or "0"


@dataclass(frozen=True)
class Chow3Class:
    """Formal rational combination of codimension-3 symbols."""

    coeffs: Mapping[str, Fraction]

    def __post_init__(self):
        clean = {
            sym: Fraction(c) for sym, c in self.coeffs.items() if Fraction(c) != 0
        }
        object.__setattr__(self, "coeffs", dict(sorted(clean.items(), key=lambda kv: _symbol_sort_key(kv[0]))))

    @classmethod
    def symbol(cls, sym: str, coeff=1) -> "Chow3Class":
        return cls({sym: Fraction(coeff)})

    def __add__(self, other: "Chow3Class") -> "Chow3Class":
        out = dict(self.coeffs)
        for sym, c in other.coeffs.items():
            out[sym] = out.get(sym, Fraction(0)) + c
        return Chow3Class(out)

    def __sub__(self, other: "Chow3Class") -> "Chow3Class":
        return self + other.scale(-1)

    def scale(self, q) -> "Chow3Class":
        q = Fraction(q)
        return Chow3Class({sym: q * c for sym, c in self.coeffs.items()})

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs.items()))

    def proportional_to(self, sym: str) -> bool:
        """True when the class is a rational multiple of the single symbol."""
        return all(s == sym for s in self.coeffs)

    def text(self) -> str:
        return _signed_sum(((c, sym) for sym, c in self.coeffs.items()), " ")

    def __repr__(self) -> str:
        return f"Chow3Class({self.text()!r})"


@dataclass(frozen=True)
class SurfaceSpec:
    """Numerical data of a surface class inside a cubic fourfold.

    ``pic_basis`` names the generators of Pic(R) used for pushforwards;
    ``ruling`` marks the generator that pushes forward to ``ell`` (a line
    class on R).  ``h_restriction`` expands h|_R in the basis, and ``rr``
    is the self-intersection number R.R inside the fourfold.  The
    ``ruling_proportional`` flag is an optional axiom recording the
    non-effective fact that ell is a rational multiple of h^3; it is
    consumed by the generator computation and never derived here.
    """

    name: str
    degree: int
    pic_basis: tuple[str, ...]
    h_restriction: Mapping[str, int]
    rr: int
    ruling: str
    ruling_proportional: bool = False

    def __post_init__(self):
        object.__setattr__(self, "pic_basis", tuple(self.pic_basis))
        object.__setattr__(self, "h_restriction", dict(self.h_restriction))
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if self.ruling not in self.pic_basis:
            raise ValueError("ruling must be one of the pic_basis generators")
        if any(g not in self.pic_basis for g in self.h_restriction):
            raise ValueError("h_restriction uses unknown generators")
        if all(c == 0 for c in self.h_restriction.values()):
            raise ValueError("h_restriction must be nonzero")

    def push_symbol(self, gen: str) -> str:
        """Symbol of the pushforward of a Pic(R) generator."""
        if gen == self.ruling:
            return ELL
        return HR if gen == "H" else f"i*({gen})"

    def pushed_class(self) -> Chow3Class:
        """i_*(h|_R) in the symbol module."""
        out = Chow3Class({})
        for gen, c in self.h_restriction.items():
            out = out + Chow3Class.symbol(self.push_symbol(gen), c)
        return out


PLANE = SurfaceSpec(
    name="plane",
    degree=1,
    pic_basis=("line",),
    h_restriction={"line": 1},
    rr=3,
    ruling="line",
)

VERONESE = SurfaceSpec(
    name="veronese",
    degree=4,
    pic_basis=("line",),
    h_restriction={"line": 2},
    rr=12,
    ruling="line",
)

QUARTIC_SCROLL = SurfaceSpec(
    name="quartic-scroll",
    degree=4,
    pic_basis=("H", "f"),
    h_restriction={"H": 1},
    rr=10,
    ruling="f",
)

SEPTIC_SCROLL = SurfaceSpec(
    name="septic-scroll",
    degree=7,
    pic_basis=("H", "f"),
    h_restriction={"H": 1},
    rr=25,
    ruling="f",
)

SURFACES: dict[str, SurfaceSpec] = {
    s.name: s for s in (PLANE, VERONESE, QUARTIC_SCROLL, SEPTIC_SCROLL)
}


def label_gram(degree: int, rr: int) -> tuple[IntMatrix, int]:
    """Gram matrix of <h^2, R> and its determinant.

    h^2.h^2 = 3 by Bezout, h^2.R is the degree of R, and R.R is the given
    self-intersection; the discriminant is 3*rr - degree^2.
    """
    gram = IntMatrix([[3, degree], [degree, rr]])
    return gram, 3 * rr - degree * degree


@dataclass(frozen=True)
class PushforwardRelation:
    """The exact identity 3 * i_*(h|_R) = degree * h^3."""

    lhs: Chow3Class
    rhs: Chow3Class

    def text(self) -> str:
        lhs, rhs = self.lhs, self.rhs
        coeffs = [*lhs.coeffs.values(), *rhs.coeffs.values()]
        if all(c.denominator == 1 for c in coeffs):
            g = gcd(*(c.numerator for c in coeffs))
            if g > 1:
                lhs = lhs.scale(Fraction(1, g))
                rhs = rhs.scale(Fraction(1, g))
        # a side that is a bare symbol (coefficient 1) reads better first
        def bare(side: Chow3Class) -> bool:
            return len(side.coeffs) == 1 and next(iter(side.coeffs.values())) == 1

        if bare(rhs) and not bare(lhs):
            lhs, rhs = rhs, lhs
        return f"{lhs.text()} = {rhs.text()}"


def pushforward_relation(spec: SurfaceSpec) -> PushforwardRelation:
    """Expand 3 (h . R) = degree * h^3 in the symbol module.

    The left side is i_*(h|_R) scaled by 3 (excess intersection along R:
    pulling back the pushforward of R multiplies by the first Chern class
    of the normal bundle of the fourfold, which is 3h).
    """
    lhs = spec.pushed_class().scale(3)
    rhs = Chow3Class.symbol(H3, spec.degree)
    return PushforwardRelation(lhs=lhs, rhs=rhs)


def restricted_pushforward(spec: SurfaceSpec) -> Chow3Class:
    """i_*(h|_R) reduced modulo the pushforward relation: (degree/3) h^3.

    The relation's pivot is the leading symbol P of p = i_*(h|_R), and
    p - (3p - degree h^3) p_P / (3 p_P) = (degree/3) h^3 whatever h|_R is.
    """
    return Chow3Class.symbol(H3, Fraction(spec.degree, 3))


@dataclass(frozen=True)
class GdchGenerators:
    """Minimal generator list for the generically defined cycles.

    ``collapsed`` is true exactly when every generator reduces to a
    rational multiple of h^3.
    """

    generators: tuple[Chow3Class, ...]
    collapsed: bool


def gdch_generators(spec: SurfaceSpec) -> GdchGenerators:
    """Generators {h^3} + {i_*(g)} reduced modulo the pushforward relation.

    With p = i_*(h|_R) = c P + rest, where P is its leading symbol, the
    relation rewrites P as ((degree/3) h^3 - rest) / c; every other pushed
    generator is a single symbol and already reduced.  With the
    ``ruling_proportional`` axiom set on the spec, the ruling class is
    additionally declared proportional to h^3 (with an unknown
    coefficient), which collapses the scroll cases.
    """
    pushed = spec.pushed_class()
    pivot, c = next(iter(pushed.coeffs.items()))
    rest = pushed - Chow3Class.symbol(pivot, c)
    gens: list[Chow3Class] = [Chow3Class.symbol(H3)]
    for gen in spec.pic_basis:
        sym = spec.push_symbol(gen)
        if sym == pivot:
            cls = (restricted_pushforward(spec) - rest).scale(1 / c)
        else:
            cls = Chow3Class.symbol(sym)
        if cls.proportional_to(H3):
            continue
        if spec.ruling_proportional and cls.proportional_to(ELL):
            continue
        if cls in gens:
            continue
        gens.append(cls)
    return GdchGenerators(generators=tuple(gens), collapsed=len(gens) == 1)


# ---------------------------------------------------------------------------
# the quartic scroll ideal

VARS = ("u", "v", "w", "x", "y", "z")

#: rows of the defining matrix, as variable indices into VARS
_MATRIX_ROWS = ((0, 1, 3, 4), (1, 2, 4, 5))

#: column pairs in lexicographic order
_COLUMN_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class QuadraticForm6:
    """Quadratic form in (u, v, w, x, y, z) with integer coefficients.

    ``coeffs`` maps (i, j) with i <= j < 6 to the coefficient of the
    monomial x_i x_j; zero coefficients are dropped.
    """

    coeffs: Mapping[tuple[int, int], int]

    def __post_init__(self):
        for i, j in self.coeffs:
            if not 0 <= i <= j < 6:
                raise ValueError(f"monomial key {(i, j)} needs 0 <= i <= j < 6")
        _require_ints(self.coeffs.values())
        clean = {key: c for key, c in sorted(self.coeffs.items()) if c != 0}
        object.__setattr__(self, "coeffs", clean)

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs.items()))

    def evaluate(self, point: Sequence) -> Fraction:
        p = [Fraction(a) for a in point]
        if len(p) != 6:
            raise ValueError("a point has six coordinates")
        return sum((c * p[i] * p[j] for (i, j), c in self.coeffs.items()), Fraction(0))

    def text(self) -> str:
        """Render with monomials in graded lexicographic order."""
        return _signed_sum(
            (
                (c, f"{VARS[i]}^2" if i == j else f"{VARS[i]}*{VARS[j]}")
                for (i, j), c in self.coeffs.items()
            ),
            "*",
        )

    def __repr__(self) -> str:
        return f"QuadraticForm6({self.text()!r})"


def quartic_scroll_minors() -> tuple[QuadraticForm6, ...]:
    """The six 2x2 minors of [[u, v, x, y], [v, w, y, z]].

    Minors are taken over column pairs in lexicographic order
    (1,2), (1,3), (1,4), (2,3), (2,4), (3,4).
    """
    top, bot = _MATRIX_ROWS
    out = []
    for a, b in _COLUMN_PAIRS:
        monos: dict[tuple[int, int], int] = {}
        for (i, j), s in (((top[a], bot[b]), 1), ((bot[a], top[b]), -1)):
            key = (i, j) if i <= j else (j, i)
            monos[key] = monos.get(key, 0) + s
        out.append(QuadraticForm6(monos))
    return tuple(out)


def scroll_parameterization(s, t, mu, lam) -> tuple[Fraction, ...]:
    """Point (mu s^2, mu s t, mu t^2, lam s^2, lam s t, lam t^2).

    Requires (s, t) != (0, 0) and (mu, lam) != (0, 0).
    """
    s, t, mu, lam = Fraction(s), Fraction(t), Fraction(mu), Fraction(lam)
    if s == 0 and t == 0:
        raise ValueError("(s, t) must be nonzero")
    if mu == 0 and lam == 0:
        raise ValueError("(mu, lam) must be nonzero")
    return (mu * s * s, mu * s * t, mu * t * t, lam * s * s, lam * s * t, lam * t * t)


def scroll_membership(point: Sequence) -> bool:
    """True when all six minors vanish at the given rational point."""
    return all(q.evaluate(point) == 0 for q in quartic_scroll_minors())
