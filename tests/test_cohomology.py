"""Tests for the truncated cohomology ring and the Euler pairing."""

import functools
import random
from fractions import Fraction

import pytest
import sympy as sp

from cubiclat.cohomology import (
    WEIGHT,
    CohClass,
    dual,
    euler_pairing,
    integral,
    lambda_class,
    lambda_gram,
)


def rand_class(rng, span=9):
    return CohClass(
        [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(5)]
    )


# ---------------------------------------------------------------------------
# sympy reference: characteristic classes from their generating functions,
# truncated at h^5, and the Euler pairing from its Todd-class definition

H = sp.Symbol("h")


def trunc(expr):
    """Taylor polynomial of expr in h through degree 4."""
    return sp.series(expr, H, 0, 5).removeO()


def coh(expr):
    """A truncated sympy polynomial in h as a CohClass."""
    poly = sp.Poly(expr, H)
    return CohClass([Fraction(str(poly.coeff_monomial(H**k))) for k in range(5)])


def sym(a):
    """A CohClass as a sympy polynomial in h over Q."""
    coeffs = [sp.Rational(c.numerator, c.denominator) for c in reversed(a.coeffs)]
    return sp.Poly(coeffs, H, domain="QQ")


@functools.cache
def ref_chern():
    """c(T_X) = (1+h)^6 / (1+3h): the Euler sequence of P^5 and the normal bundle O(3)."""
    return trunc((1 + H) ** 6 / (1 + 3 * H))


@functools.cache
def ref_todd():
    """td(X) = td(P^5) / td(O(3)) = (h / (1 - e^-h))^6 * (1 - e^-3h) / (3h)."""
    return trunc((H / (1 - sp.exp(-H))) ** 6 * (1 - sp.exp(-3 * H)) / (3 * H))


@functools.cache
def ref_sqrt_todd():
    return trunc(sp.sqrt(ref_todd()))


@functools.cache
def ref_inverse_sqrt_todd():
    return trunc(1 / ref_sqrt_todd())


def ref_euler_pairing(v, w):
    """integral( dual(v/sqrt_td) * (w/sqrt_td) * td ), dual being h -> -h.

    The integral is 3 times the h^4 coefficient (Bezout: h^4 = 3 points).
    """
    s = sp.Poly(ref_inverse_sqrt_todd(), H, domain="QQ")
    left = (sym(v) * s).compose(sp.Poly(-H, H, domain="QQ"))
    product = left * sym(w) * s * sp.Poly(ref_todd(), H, domain="QQ")
    return Fraction(str(3 * product.coeff_monomial(H**4)))


# ---------------------------------------------------------------------------
# ring structure


def test_mul_examples():
    assert CohClass([1, 1]) * CohClass([1, -1]) == CohClass([1, 0, -1])
    assert CohClass([0, 0, 1]) * CohClass([0, 0, 0, 1]) == CohClass([0])  # truncation above degree 4
    assert coh(ref_todd()) * coh(trunc(1 / ref_todd())) == CohClass([1])


@pytest.mark.parametrize("product", [lambda c: c * 2, lambda c: 2 * c], ids=["class-times-int", "int-times-class"])
def test_mul_by_a_scalar_scales(product):
    assert product(CohClass([1, 0, Fraction(1, 3)])) == CohClass([2, 0, Fraction(2, 3)])


def test_six_coefficients_raise():
    with pytest.raises(ValueError, match="at most five coefficients"):
        CohClass([1, 0, 0, 0, 0, 1])


def test_integral():
    assert integral(CohClass([0, 0, 0, 0, 1])) == 3
    assert integral(CohClass([1])) == 0
    assert integral(coh(ref_todd())) == 1


def test_chern_tangent():
    c = coh(ref_chern())
    assert c == CohClass([1, 3, 6, 2, 9])
    assert c.coeffs[1] == 3
    # degree-4 part integrates to the topological Euler number 27
    assert integral(CohClass([0, 0, 0, 0, c.coeffs[4]])) == 27


def test_todd_coefficients():
    assert coh(ref_todd()) == CohClass(
        [1, Fraction(3, 2), Fraction(5, 4), Fraction(3, 4), Fraction(1, 3)]
    )


def test_sqrt_todd_squares_back():
    s = coh(ref_sqrt_todd())
    assert s * s == coh(ref_todd())


def test_dual():
    assert dual(CohClass([0, 1])) == CohClass([0, -1])
    rng = random.Random(0)
    for _ in range(20):
        a = rand_class(rng)
        assert dual(dual(a)) == a
    assert dual(lambda_class(1)).coeffs[1] == Fraction(-5, 4)


# ---------------------------------------------------------------------------
# lambda classes and the Euler pairing


def test_lambda_coefficients():
    l1 = lambda_class(1)
    assert l1.coeffs == (
        Fraction(3),
        Fraction(5, 4),
        Fraction(-7, 32),
        Fraction(-77, 384),
        Fraction(41, 2048),
    )
    l2 = lambda_class(2)
    assert l2.coeffs == (
        Fraction(-3),
        Fraction(-1, 4),
        Fraction(15, 32),
        Fraction(1, 384),
        Fraction(-153, 2048),
    )
    assert (l1 + l2).coeffs[0] == 0
    with pytest.raises(ValueError):
        lambda_class(3)


def nil_exp(x):
    """e^x for a class x without constant term; h^5 = 0 ends the series."""
    out = term = CohClass([1])
    for k in range(1, 5):
        term = term * x.scale(Fraction(1, k))
        out = out + term
    return out


def test_lambda_classes_are_projected_lines():
    """lambda_k = v(pr i_*O_L(k)) for a line L in the cubic, k = 1, 2.

    Conventions: the Todd class is td = e^{6 f(h) - f(3h)} with
    f(x) = x/2 - x^2/24 + x^4/2880 = log(x / (1 - e^-x)); ch O(j) = e^{jh};
    chi(a, b) = integral(dual(a) * b * td) on Chern characters, whose sign
    is opposite to that of the Mukai pairing; pr = L_O o L_O(1) o L_O(2),
    so the left mutation c -> c - chi(ch E, c) ch E runs through O(2),
    then O(1), then O; ch(i_*O_L(k)) = h^3/3 + (2k - 1)/6 h^4 by
    Grothendieck-Riemann-Roch for a line with normal bundle O + O + O(1);
    and v = ch * sqrt(td) is the Mukai vector.
    """
    h = CohClass([0, 1])

    def f(x):
        x2 = x * x
        return x.scale(Fraction(1, 2)) + x2.scale(Fraction(-1, 24)) + (x2 * x2).scale(Fraction(1, 2880))

    log_td = f(h).scale(6) + f(h.scale(3)).scale(-1)
    td = nil_exp(log_td)
    assert td == coh(ref_todd())
    for k in (1, 2):
        c = CohClass([0, 0, 0, Fraction(1, 3), Fraction(2 * k - 1, 6)])
        for j in (2, 1, 0):
            e = nil_exp(h.scale(j))
            c = c + e.scale(-integral(dual(e) * c * td))
        assert c * nil_exp(log_td.scale(Fraction(1, 2))) == lambda_class(k)


def test_lambda_gram_is_a2_minus_one():
    assert lambda_gram() == [[-2, 1], [1, -2]]


def test_lambda_gram_returns_fresh_lists():
    gram = lambda_gram()
    gram[0][0] = 7
    gram.append([0, 0])
    assert lambda_gram() == [[-2, 1], [1, -2]]


def test_euler_pairing_values():
    l1, l2 = lambda_class(1), lambda_class(2)
    assert euler_pairing(l1, l1) == -2
    assert euler_pairing(l1, l2) == 1
    assert euler_pairing(l2, l1) == 1
    assert euler_pairing(l2, l2) == -2
    assert euler_pairing(CohClass([0]), l1) == 0


def test_euler_pairing_matches_todd_definition():
    s = coh(ref_sqrt_todd())
    assert WEIGHT * dual(s) * s == coh(ref_todd())
    rng = random.Random(4)
    lambdas = [lambda_class(1), lambda_class(2)]
    pairs = [(a, b) for a in lambdas for b in lambdas]
    pairs += [(rand_class(rng), rand_class(rng)) for _ in range(200)]
    pairs += [(rand_class(rng), l) for l in lambdas] + [(l, rand_class(rng)) for l in lambdas]
    for v, w in pairs:
        assert euler_pairing(v, w) == ref_euler_pairing(v, w), (v, w)


def test_euler_pairing_bilinear():
    rng = random.Random(2)
    for _ in range(40):
        a, b, c = rand_class(rng), rand_class(rng), rand_class(rng)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert euler_pairing(a + b, c) == euler_pairing(a, c) + euler_pairing(b, c)
        assert euler_pairing(a, b + c) == euler_pairing(a, b) + euler_pairing(a, c)
        assert euler_pairing(a.scale(q), c) == q * euler_pairing(a, c)
        assert euler_pairing(a, c.scale(q)) == q * euler_pairing(a, c)


def test_euler_pairing_symmetric_on_lambda_span():
    rng = random.Random(3)
    l1, l2 = lambda_class(1), lambda_class(2)
    for _ in range(20):
        a = l1.scale(rng.randint(-4, 4)) + l2.scale(rng.randint(-4, 4))
        b = l1.scale(rng.randint(-4, 4)) + l2.scale(rng.randint(-4, 4))
        assert euler_pairing(a, b) == euler_pairing(b, a)


def test_repr_smoke():
    assert repr(CohClass([1])) == "1"
    assert "h^2" in repr(CohClass([0, 0, 7]))
