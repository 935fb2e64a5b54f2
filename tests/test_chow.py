"""Tests for the surface-class Chow relations and the scroll ideal.

The symbolic vanishing of the minors on the parameterization is checked
through sympy, which expands the compositions independently of the
rational-point evaluation implemented in the library.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
import sympy

from cubiclat.chow import (
    ELL,
    H3,
    HR,
    PLANE,
    QUARTIC_SCROLL,
    SEPTIC_SCROLL,
    SURFACES,
    VERONESE,
    Chow3Class,
    QuadraticForm6,
    SurfaceSpec,
    gdch_generators,
    label_gram,
    pushforward_relation,
    quartic_scroll_minors,
    restricted_pushforward,
    scroll_membership,
    scroll_parameterization,
)
from cubiclat.exactlinalg import IntMatrix


# ---------------------------------------------------------------------------
# label Gram matrices


@pytest.mark.parametrize(
    "spec,delta,disc",
    [(PLANE, 1, 8), (QUARTIC_SCROLL, 4, 14), (VERONESE, 4, 20), (SEPTIC_SCROLL, 7, 26)],
)
def test_label_gram(spec, delta, disc):
    gram, d = label_gram(spec.degree, spec.rr)
    assert spec.degree == delta
    assert gram == IntMatrix([[3, delta], [delta, spec.rr]])
    assert d == disc
    assert 3 * spec.rr - delta * delta == disc


# ---------------------------------------------------------------------------
# pushforward relations


def test_relation_texts():
    assert pushforward_relation(PLANE).text() == "h^3 = 3 ell"
    assert pushforward_relation(VERONESE).text() == "3 ell = 2 h^3"
    assert pushforward_relation(QUARTIC_SCROLL).text() == "3 h.R = 4 h^3"
    assert pushforward_relation(SEPTIC_SCROLL).text() == "3 h.R = 7 h^3"


def test_relation_reduces_to_zero():
    for spec in SURFACES.values():
        rel = pushforward_relation(spec)
        zero = rel.lhs - rel.rhs
        # substituting the relation into itself kills every coefficient
        pivot = next(s for s in zero.coeffs if s != H3)
        reduced = zero - zero.scale(zero.coeffs.get(pivot, 0) / zero.coeffs.get(pivot, 0))
        assert not reduced.coeffs
        # and the identity is coefficient-exact: 3 * i_*(h|_R) - delta h^3
        assert zero == spec.pushed_class().scale(3) - Chow3Class.symbol(
            H3, spec.degree
        )


def test_restricted_pushforward_values():
    assert restricted_pushforward(QUARTIC_SCROLL) == Chow3Class(
        {H3: Fraction(4, 3)}
    )
    assert restricted_pushforward(PLANE) == Chow3Class({H3: Fraction(1, 3)})
    assert restricted_pushforward(VERONESE) == Chow3Class({H3: Fraction(4, 3)})
    assert restricted_pushforward(SEPTIC_SCROLL) == Chow3Class({H3: Fraction(7, 3)})


def test_surface_spec_validation():
    with pytest.raises(ValueError):
        SurfaceSpec(
            name="broken",
            degree=2,
            pic_basis=("line",),
            h_restriction={"line": 0},
            rr=1,
            ruling="line",
        )
    with pytest.raises(ValueError):
        SurfaceSpec(
            name="broken",
            degree=2,
            pic_basis=("line",),
            h_restriction={"other": 1},
            rr=1,
            ruling="line",
        )


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param({"degree": 0}, "degree must be positive", id="degree-0"),
        pytest.param({"ruling": "conic"}, "ruling must be one of", id="ruling-outside-pic-basis"),
    ],
)
def test_surface_spec_preconditions_raise(change, message):
    spec = dict(name="broken", degree=2, pic_basis=("line",), h_restriction={"line": 1}, rr=1, ruling="line")
    SurfaceSpec(**spec)
    with pytest.raises(ValueError, match=message):
        SurfaceSpec(**{**spec, **change})


# ---------------------------------------------------------------------------
# generically defined cycle generators


def test_gdch_plane_and_veronese_collapse():
    for spec in (PLANE, VERONESE):
        out = gdch_generators(spec)
        assert out.collapsed
        assert out.generators == (Chow3Class.symbol(H3),)


def test_gdch_scrolls_keep_the_ruling():
    for spec in (QUARTIC_SCROLL, SEPTIC_SCROLL):
        out = gdch_generators(spec)
        assert not out.collapsed
        assert out.generators == (
            Chow3Class.symbol(H3),
            Chow3Class.symbol(ELL),
        )
        assert out.generators[0] == Chow3Class.symbol(H3)


def test_gdch_with_ruling_axiom_collapses():
    for spec in (QUARTIC_SCROLL, SEPTIC_SCROLL):
        axiom = dataclasses.replace(spec, ruling_proportional=True)
        out = gdch_generators(axiom)
        assert out.collapsed
        assert out.generators == (Chow3Class.symbol(H3),)


def reference_reduce(c: Chow3Class, spec: SurfaceSpec) -> Chow3Class:
    """Generic elimination: subtract the pushforward relation, scaled so that
    its leading non-h^3 symbol cancels from ``c``."""
    rel = pushforward_relation(spec)
    zero = rel.lhs - rel.rhs
    pivot = next(s for s in zero.coeffs if s != H3)
    return c - zero.scale(c.coeffs.get(pivot, 0) / zero.coeffs.get(pivot, 0))


def reference_gdch(spec: SurfaceSpec) -> tuple[list[Chow3Class], bool]:
    gens = [Chow3Class.symbol(H3)]
    collapsed = True
    for gen in spec.pic_basis:
        cls = reference_reduce(Chow3Class.symbol(spec.push_symbol(gen)), spec)
        if not cls.coeffs or cls.proportional_to(H3):
            continue
        if spec.ruling_proportional and cls.proportional_to(ELL):
            continue
        if cls in gens:
            continue
        gens.append(cls)
        collapsed = False
    return gens, collapsed


def random_spec(rng) -> SurfaceSpec:
    basis = rng.sample(["H", "f", "line", "e1", "e2", "C"], rng.randint(1, 4))
    if rng.random() < 0.1:
        basis.append(rng.choice(basis))
    while True:
        # two in nine coefficients are zero
        hres = {g: rng.choice([0, 0, 1, 1, 2, -1, 3, -2, 5]) for g in basis}
        if any(hres.values()):
            break
    return SurfaceSpec(
        name="random",
        degree=rng.randint(1, 30),
        pic_basis=tuple(basis),
        h_restriction=hres,
        rr=rng.randint(-20, 60),
        ruling=rng.choice(basis),
        ruling_proportional=rng.random() < 0.5,
    )


def test_chow3_equality_ignores_zero_coefficients_and_key_order():
    a = Chow3Class({HR: 0, H3: Fraction(1, 3), ELL: 2})
    b = Chow3Class({ELL: Fraction(2), H3: Fraction(1, 3)})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Chow3Class({H3: Fraction(1, 3)})
    assert (Chow3Class({}) == 0) is False


def test_closed_forms_match_generic_reduction():
    rng = random.Random(2021)
    multi_symbol = 0
    for _ in range(2000):
        spec = random_spec(rng)
        pushed = spec.pushed_class()
        multi_symbol += len(pushed.coeffs) > 1
        assert restricted_pushforward(spec) == reference_reduce(pushed, spec), spec
        gens, collapsed = reference_gdch(spec)
        out = gdch_generators(spec)
        assert [g.text() for g in out.generators] == [g.text() for g in gens], spec
        assert out.generators == tuple(gens), spec
        assert out.collapsed == collapsed, spec
    # the closed form of the pivot generator is exercised, not only the one-symbol case
    assert multi_symbol > 800


# ---------------------------------------------------------------------------
# scroll ideal


def test_minor_count_and_order():
    minors = quartic_scroll_minors()
    assert len(minors) == 6
    texts = [q.text() for q in minors]
    assert texts == [
        "u*w - v^2",
        "u*y - v*x",
        "u*z - v*y",
        "v*y - w*x",
        "v*z - w*y",
        "x*z - y^2",
    ]


def test_minor_matrices_are_symmetric_rational():
    for q in quartic_scroll_minors():
        assert all(i <= j for i, j in q.coeffs)
        total = q.evaluate((1, 2, 4, 3, 6, 12))
        assert total == 0


def test_parameterization_examples():
    assert scroll_parameterization(1, 0, 1, 0) == (1, 0, 0, 0, 0, 0)
    assert scroll_parameterization(1, 2, 1, 3) == (1, 2, 4, 3, 6, 12)
    assert scroll_membership(scroll_parameterization(1, 2, 1, 3))
    assert scroll_membership((1, 0, 0, 0, 0, 0))
    assert not scroll_membership((1, 0, 0, 0, 0, 1))


def test_parameterization_rejects_degenerate_pairs():
    with pytest.raises(ValueError):
        scroll_parameterization(0, 0, 1, 1)
    with pytest.raises(ValueError):
        scroll_parameterization(1, 1, 0, 0)


def test_membership_on_random_rational_points():
    import random

    rng = random.Random(14)
    for _ in range(25):
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        mu = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if (s == 0 and t == 0) or (mu == 0 and lam == 0):
            continue
        assert scroll_membership(scroll_parameterization(s, t, mu, lam))


def _sympy_poly(q: QuadraticForm6, symbols):
    expr = sympy.Integer(0)
    for (i, j), c in q.coeffs.items():
        expr += sympy.Rational(c.numerator, c.denominator) * symbols[i] * symbols[j]
    return expr


def test_minors_vanish_symbolically_on_parameterization():
    # full symbolic expansion, not sampling
    u, v, w, x, y, z = sympy.symbols("u v w x y z")
    s, t, mu, lam = sympy.symbols("s t mu lam")
    param = {
        u: mu * s**2,
        v: mu * s * t,
        w: mu * t**2,
        x: lam * s**2,
        y: lam * s * t,
        z: lam * t**2,
    }
    for q in quartic_scroll_minors():
        expr = _sympy_poly(q, (u, v, w, x, y, z))
        assert sympy.expand(expr.subs(param)) == 0


def test_minors_closed_under_block_swap_symmetry():
    # exchanging (u,v,w) with (x,y,z) and swapping the matrix rows permutes
    # the six minors up to sign
    minors = quartic_scroll_minors()
    perm = {0: 3, 1: 4, 2: 5, 3: 0, 4: 1, 5: 2}
    seen = []
    for q in minors:
        swapped = {}
        for (i, j), c in q.coeffs.items():
            a, b = perm[i], perm[j]
            key = (a, b) if a <= b else (b, a)
            swapped[key] = swapped.get(key, Fraction(0)) + c
        matches = [
            k
            for k, other in enumerate(minors)
            if swapped == other.coeffs
            or {kk: -vv for kk, vv in swapped.items()} == other.coeffs
        ]
        assert len(matches) == 1
        seen.append(matches[0])
    assert sorted(seen) == list(range(6))


def test_quadratic_form_validation():
    with pytest.raises(ValueError):
        QuadraticForm6({(0, 6): 1})
    q = quartic_scroll_minors()[0]
    with pytest.raises(ValueError):
        q.evaluate((1, 2, 3))
