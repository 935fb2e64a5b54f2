"""Acceptance suite.

Each test covers one acceptance criterion, enforces its runtime budget,
and prints a single PASS line (pytest shows the prints with -s; on
failure the assertion output localizes the criterion).  All expected
values are exact integers or rationals; there are no tolerances beyond
the stated time limits.
"""

import math
import random
import time
from fractions import Fraction

import sympy

from cubiclat.admissibility import enumerate_admissible, satisfies_star_star
from cubiclat.chow import (
    PLANE,
    QUARTIC_SCROLL,
    SEPTIC_SCROLL,
    SURFACES,
    VERONESE,
    H3,
    Chow3Class,
    label_gram,
    pushforward_relation,
    quartic_scroll_minors,
    restricted_pushforward,
    scroll_membership,
)
from cubiclat.cohomology import CohClass, euler_pairing, lambda_class, lambda_gram
from cubiclat.exactlinalg import IntMatrix, determinant, smith_normal_form
from cubiclat.lattices import (
    Lattice,
    cubic_lattice,
    discriminant_group,
    k3_polarized_primitive,
    mukai_lattice,
    signature,
)
from cubiclat.mukai import (
    FOUND,
    IsotropicTriple,
    find_isotropic_triple,
    hyperbolic_normalize,
    kuznetsov_rank3_lattice,
    verify_triple,
)


def report(num: int, name: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {num} [{name}]: PASS ({elapsed:.2f}s)", flush=True)


def test_criterion_1_admissibility():
    t0 = time.monotonic()
    assert enumerate_admissible(80) == [14, 26, 38, 42, 62, 74, 78]
    assert satisfies_star_star(8) == (False, 2)
    assert satisfies_star_star(18) == (False, 9)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, "admissibility", elapsed)


def test_criterion_2_lambda_gram():
    t0 = time.monotonic()
    assert lambda_gram() == [[-2, 1], [1, -2]]
    # the entries really come from the displayed polynomials
    l1, l2 = lambda_class(1), lambda_class(2)
    assert euler_pairing(l1, l1) == Fraction(-2)
    assert euler_pairing(l1, l2) == Fraction(1)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, "lambda-gram", elapsed)


def test_criterion_3_isotropic_triples():
    t0 = time.monotonic()
    L26 = kuznetsov_rank3_lattice(26)
    L42 = kuznetsov_rank3_lattice(42)
    t26 = IsotropicTriple(L26.vec((1, 3, 1)), L26.vec((1, 0, 0)), L26.vec((11, 22, 7)), 26)
    t42 = IsotropicTriple(L42.vec((1, 3, 1)), L42.vec((1, 0, 0)), L42.vec((14, 28, 9)), 42)
    assert verify_triple(L26, t26).all_ok
    assert verify_triple(L42, t42).all_ok
    found = find_isotropic_triple(L26, 26, 25)
    assert found.status == FOUND
    assert verify_triple(L26, found.triple).all_ok
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(3, "isotropic-triples", elapsed)


def test_criterion_4_normalization():
    t0 = time.monotonic()
    L26 = kuznetsov_rank3_lattice(26)
    L42 = kuznetsov_rank3_lattice(42)
    _, g26 = hyperbolic_normalize(L26, (1, 3, 1), (1, 0, 0))
    _, g42 = hyperbolic_normalize(L42, (1, 3, 1), (1, 0, 0))
    assert g26 == IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -26]])
    assert g42 == IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -42]])
    assert determinant(g26) == determinant(L26.gram)
    assert determinant(g42) == determinant(L42.gram)
    elapsed = time.monotonic() - t0
    report(4, "normalization", elapsed)


def test_criterion_5_lattice_catalog():
    t0 = time.monotonic()
    assert abs(determinant(kuznetsov_rank3_lattice(26).gram)) == 26
    assert abs(determinant(kuznetsov_rank3_lattice(42).gram)) == 42
    assert discriminant_group(cubic_lattice()).factors == (3,)
    for d in enumerate_admissible(78):
        assert discriminant_group(k3_polarized_primitive(d)).factors == (d,)
    assert signature(cubic_lattice()) == (20, 2)
    assert signature(mukai_lattice()) == (20, 4)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(5, "lattice-catalog", elapsed)


def test_criterion_6_chow_relations():
    t0 = time.monotonic()
    assert pushforward_relation(PLANE).text() == "h^3 = 3 ell"
    assert pushforward_relation(VERONESE).text() == "3 ell = 2 h^3"
    assert pushforward_relation(SEPTIC_SCROLL).text() == "3 h.R = 7 h^3"
    assert restricted_pushforward(QUARTIC_SCROLL) == Chow3Class({H3: Fraction(4, 3)})
    discs = {
        name: label_gram(spec.degree, spec.rr)[1] for name, spec in SURFACES.items()
    }
    assert discs == {
        "plane": 8,
        "veronese": 20,
        "septic-scroll": 26,
        "quartic-scroll": 14,
    }
    for spec in SURFACES.values():
        gram, _ = label_gram(spec.degree, spec.rr)
        assert gram == IntMatrix([[3, spec.degree], [spec.degree, spec.rr]])
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(6, "chow-relations", elapsed)


def test_criterion_7_scroll_ideal():
    t0 = time.monotonic()
    minors = quartic_scroll_minors()
    assert len(minors) == 6
    u, v, w, x, y, z = sympy.symbols("u v w x y z")
    s, t, mu, lam = sympy.symbols("s t mu lam")
    subs = {
        u: mu * s**2,
        v: mu * s * t,
        w: mu * t**2,
        x: lam * s**2,
        y: lam * s * t,
        z: lam * t**2,
    }
    names = (u, v, w, x, y, z)
    for q in minors:
        expr = sympy.Integer(0)
        for (i, j), c in q.coeffs.items():
            expr += sympy.Rational(c.numerator, c.denominator) * names[i] * names[j]
        assert sympy.expand(expr.subs(subs)) == 0
    assert not scroll_membership((1, 0, 0, 0, 0, 1))
    elapsed = time.monotonic() - t0
    report(7, "scroll-ideal", elapsed)


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    rng = random.Random(1_000_003)

    # 1000 SNF reconstructions on 5x5 matrices with entries up to 20
    for _ in range(1000):
        M = IntMatrix([[rng.randint(-20, 20) for _ in range(5)] for _ in range(5)])
        D, U, V = smith_normal_form(M)
        assert (U @ M @ V) == D
        assert determinant(U) in (1, -1)
        assert determinant(V) in (1, -1)
        diag = [D.rows[i][i] for i in range(5)]
        nonzero = [a for a in diag if a != 0]
        assert all(a >= 0 for a in diag)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    snf_elapsed = time.monotonic() - t0
    assert snf_elapsed < 5.0

    # discriminant-group order equals |det| on 200 nondegenerate Grams
    count = 0
    while count < 200:
        n = rng.randint(1, 5)
        raw = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        sym = IntMatrix(
            [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
        )
        det = determinant(sym)
        if det == 0:
            continue
        L = Lattice(n, sym)
        assert math.prod(discriminant_group(L).factors) == abs(det)
        count += 1

    # euler pairing bilinearity on 100 random class pairs
    def rand_class():
        return CohClass(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
        )

    for _ in range(100):
        a, b, c = rand_class(), rand_class(), rand_class()
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert euler_pairing(a + b, c) == euler_pairing(a, c) + euler_pairing(b, c)
        assert euler_pairing(a, b.scale(q)) == q * euler_pairing(a, b)

    elapsed = time.monotonic() - t0
    report(8, "property-suites", elapsed)
