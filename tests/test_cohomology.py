"""Tests for the truncated cohomology ring and the Euler pairing."""

import random
from fractions import Fraction

import pytest

from cubiclat.cohomology import (
    CohClass,
    chern_tangent,
    dual,
    euler_pairing,
    h,
    integral,
    lambda_class,
    lambda_gram,
    sqrt_todd,
    todd,
)


def rand_class(rng, span=9):
    return CohClass(
        [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(5)]
    )


# ---------------------------------------------------------------------------
# ring structure


def test_mul_examples():
    assert CohClass([1, 1]) * CohClass([1, -1]) == CohClass([1, 0, -1])
    assert h(2) * h(3) == CohClass([0])  # truncation above degree 4
    t = todd()
    assert t * t.inverse() == CohClass([1])


def test_integral():
    assert integral(h(4)) == 3
    assert integral(CohClass([1])) == 0
    assert integral(todd()) == 1


def test_chern_tangent():
    c = chern_tangent()
    assert c == CohClass([1, 3, 6, 2, 9])
    assert c[1] == 3
    # degree-4 part integrates to the topological Euler number 27
    assert integral(CohClass([0, 0, 0, 0, c[4]])) == 27


def test_todd_coefficients():
    assert todd() == CohClass(
        [1, Fraction(3, 2), Fraction(5, 4), Fraction(3, 4), Fraction(1, 3)]
    )


def test_sqrt_todd_squares_back():
    s = sqrt_todd()
    assert s * s == todd()
    assert CohClass([1]).sqrt() == CohClass([1])


def test_sqrt_requires_unit_constant_term():
    with pytest.raises(ValueError):
        CohClass([4]).sqrt()
    with pytest.raises(ValueError):
        CohClass([0, 1]).inverse()


def test_dual():
    assert dual(h()) == CohClass([0, -1])
    rng = random.Random(0)
    for _ in range(20):
        a = rand_class(rng)
        assert dual(dual(a)) == a
    assert dual(lambda_class(1))[1] == Fraction(-5, 4)


def test_division_roundtrip():
    rng = random.Random(1)
    s = sqrt_todd()
    for _ in range(20):
        v = rand_class(rng)
        assert (v / s) * s == v


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
    assert (l1 + l2)[0] == 0
    with pytest.raises(ValueError):
        lambda_class(3)


def test_lambda_gram_is_a2_minus_one():
    assert lambda_gram() == [[-2, 1], [1, -2]]


def test_euler_pairing_values():
    l1, l2 = lambda_class(1), lambda_class(2)
    assert euler_pairing(l1, l1) == -2
    assert euler_pairing(l1, l2) == 1
    assert euler_pairing(l2, l1) == 1
    assert euler_pairing(l2, l2) == -2
    assert euler_pairing(CohClass([0]), l1) == 0


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
