"""Tests for the discriminant sieves.

The oracle is a smallest-prime-factor sieve, which factors every d/2 in
the tested range independently of the trial division in the library.
The range functions sieve the whole range; they are compared with the
per-d trial division.  Each test starts with no admissible list held
(``conftest.py``), so ``enumerate_admissible`` sieves unless the test
asked for a larger range before.
"""

import math
import random
from dataclasses import astuple

import pytest
from hypothesis import given, strategies as st

from cubiclat import admissibility
from cubiclat.admissibility import (
    DiscriminantReport,
    _sieve_admissible,
    discriminant_report,
    enumerate_admissible,
    genus_of_discriminant,
    report_rows,
    satisfies_star,
    satisfies_star_star,
)
from cubiclat.lattices import (
    hyperplane_square,
    inner_product,
    invariants,
    middle_lattice,
    orthogonal_complement,
)

FIRST_ADMISSIBLE = [14, 26, 38, 42, 62, 74, 78]


def spf_sieve(n):
    """smallest prime factor table for 0..n"""
    spf = list(range(n + 1))
    i = 2
    while i * i <= n:
        if spf[i] == i:
            for j in range(i * i, n + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    return spf


def oracle_witness(half, spf):
    """independent witness computation from a full factorization"""
    nine = 9 if half % 9 == 0 else None
    smallest = None
    m = half
    while m > 1:
        p = spf[m]
        if p % 3 == 2:
            smallest = p if smallest is None else min(smallest, p)
        while m % p == 0:
            m //= p
    candidates = [w for w in (nine, smallest) if w is not None]
    return min(candidates) if candidates else None


def test_star_examples():
    assert satisfies_star(8) is True
    assert satisfies_star(6) is False
    assert satisfies_star(26) is True
    assert satisfies_star(7) is False
    with pytest.raises(ValueError):
        satisfies_star(0)


def test_star_star_examples():
    assert satisfies_star_star(26) == (True, None)
    assert satisfies_star_star(8) == (False, 2)
    assert satisfies_star_star(18) == (False, 9)
    assert satisfies_star_star(6) == (False, None)
    assert satisfies_star_star(30) == (False, 5)
    # d = 36: d/2 = 18 carries both obstructions (2 divides, 9 divides);
    # the smaller number wins
    assert satisfies_star_star(36) == (False, 2)
    # d = 54: d/2 = 27 is divisible by 9 and has no prime = -1 mod 3
    assert satisfies_star_star(54) == (False, 9)
    # d = 66: d/2 = 33 = 3 * 11, prime witness above 9 loses to nothing: 11
    assert satisfies_star_star(66) == (False, 11)


def test_enumerate_examples():
    assert enumerate_admissible(80) == FIRST_ADMISSIBLE
    assert enumerate_admissible(13) == []
    assert enumerate_admissible(14) == [14]


def test_enumerate_prefix_property():
    full = enumerate_admissible(300)
    for m in (14, 50, 100, 200):
        assert enumerate_admissible(m) == [d for d in full if d <= m]


def test_genus():
    assert genus_of_discriminant(26) == 14
    assert genus_of_discriminant(14) == 8
    assert genus_of_discriminant(38) == 20
    assert genus_of_discriminant(42) == 22
    with pytest.raises(ValueError):
        genus_of_discriminant(27)
    with pytest.raises(ValueError):
        genus_of_discriminant(0)


def test_report_shape():
    r = discriminant_report(18)
    assert (r.satisfies_star, r.satisfies_star_star, r.witness, r.genus) == (
        True,
        False,
        9,
        10,
    )
    r = discriminant_report(7)
    assert r.genus is None and r.witness is None
    r = discriminant_report(26)
    assert r.satisfies_star_star and r.genus == 14


@given(st.integers(1, 10**6))
def test_star_star_implies_star(d):
    ok, _ = satisfies_star_star(d)
    if ok:
        assert satisfies_star(d)


def test_against_sieve_oracle_up_to_10_to_6():
    limit = 10**6
    spf = spf_sieve(limit // 2)
    admissible = []
    for d in range(8, limit + 1, 2):
        if not satisfies_star(d):
            assert satisfies_star_star(d) == (False, None)
            continue
        expected = oracle_witness(d // 2, spf)
        got_ok, got_witness = satisfies_star_star(d)
        assert got_ok == (expected is None), d
        assert got_witness == expected, d
        if got_ok:
            admissible.append(d)
            # every admissible d is 0 or 2 mod 6
            assert d % 6 in (0, 2)
    assert admissible[:7] == FIRST_ADMISSIBLE
    assert 42 in admissible and 42 % 6 == 0  # both residues occur
    assert any(d % 6 == 2 for d in admissible)
    # enumerate agrees with the per-d check
    assert enumerate_admissible(limit) == admissible


def per_d_admissible(max_d):
    return [d for d in range(1, max_d + 1) if satisfies_star_star(d)[0]]


def test_table_matches_trial_division_for_every_max_up_to_300():
    for m in range(1, 301):
        assert enumerate_admissible(m) == per_d_admissible(m), m
        reports = list(map(discriminant_report, range(1, m + 1)))
        assert report_rows(m) == list(map(astuple, reports)), m


def test_report_columns_follow_the_per_d_rules():
    # the star and genus columns against the public per-d rules, which
    # share no code with the row builder
    rows = report_rows(10**4)
    assert [row[0] for row in rows] == list(range(1, 10**4 + 1))
    for d, star, star_star, genus, witness in rows:
        assert star == satisfies_star(d), d
        assert genus == (genus_of_discriminant(d) if d % 2 == 0 else None), d
        assert (star_star, witness) == satisfies_star_star(d), d


def count_sieves(monkeypatch):
    """Count the calls of the sieve behind enumerate_admissible."""
    calls = []

    def sieve(max_d):
        calls.append(max_d)
        return _sieve_admissible(max_d)

    monkeypatch.setattr(admissibility, "_sieve_admissible", sieve)
    return calls


def test_held_list_answers_ranges_in_any_order(monkeypatch):
    rng = random.Random(33)

    def draw(k):
        return [rng.randint(1, 300) if rng.random() < 0.4 else rng.randint(1, 3 * 10**5) for _ in range(k)]

    order = [14, 13, 1] + sorted(draw(70)) + sorted(draw(70), reverse=True) + draw(77)
    order += rng.sample(order, 80)  # ranges asked for before
    sieved = count_sieves(monkeypatch)
    for m in order:
        assert enumerate_admissible(m) == _sieve_admissible(m), m
        if m <= 300:
            assert enumerate_admissible(m) == per_d_admissible(m), m
    # only a range larger than every earlier one is sieved
    assert sieved == [m for i, m in enumerate(order) if m > max(order[:i], default=0)]
    assert admissibility._held[0] == max(order)
    assert len(order) == 300 and sum(m <= 300 for m in order) >= 60


def test_returned_lists_are_the_callers(monkeypatch):
    sieved = count_sieves(monkeypatch)
    enumerate_admissible(1000).clear()  # a miss
    assert enumerate_admissible(1000) == _sieve_admissible(1000)
    enumerate_admissible(2000).append(2)  # a miss
    enumerate_admissible(500).clear()  # a hit
    enumerate_admissible(2000).append(3)  # a hit
    for m in (500, 1000, 2000):
        assert enumerate_admissible(m) == _sieve_admissible(m), m
    assert sieved == [1000, 2000]


def test_larger_range_replaces_the_held_one(monkeypatch):
    sieved = count_sieves(monkeypatch)
    assert enumerate_admissible(100) == _sieve_admissible(100)
    assert enumerate_admissible(10**4) == _sieve_admissible(10**4)
    assert admissibility._held == (10**4, _sieve_admissible(10**4))
    for m in (100, 5000, 10**4):
        assert enumerate_admissible(m) == _sieve_admissible(m)
    assert sieved == [100, 10**4]


def test_range_ends_at_each_prime_five_mod_six():
    # h = d/2 = 3p is the smallest odd multiple of a prime p = 5 (mod 6)
    # above p, so the sieve must clear multiples of every such p up to
    # max_d/6; the range ends just below, at and above d = 6p
    primes = [p for p in range(5, 1000, 6) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    full = per_d_admissible(6 * primes[-1] + 2)
    for p in primes:
        for m in (6 * p - 2, 6 * p, 6 * p + 2):
            got = enumerate_admissible(m)
            assert got == [d for d in full if d <= m], m
            assert 6 * p not in got


def test_reports_reject_nonpositive_max():
    with pytest.raises(ValueError):
        report_rows(0)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: enumerate_admissible(0), "positive integer", id="enumerate-max-0"),
        pytest.param(
            lambda: DiscriminantReport(20, False, True, 11, None), r"\(\*\*\) implies", id="star-star-without-star"
        ),
        pytest.param(lambda: DiscriminantReport(7, False, False, 4, None), "exactly for even d", id="genus-for-odd-d"),
    ],
)
def test_preconditions_raise(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_runtime_of_enumeration():
    import time

    t0 = time.monotonic()
    enumerate_admissible(80)
    assert time.monotonic() - t0 < 1.0


def four_squares(n):
    """Some (k1, k2, k3, k4) with k1^2 + k2^2 + k3^2 + k4^2 = n (Lagrange)."""
    for k1 in range(math.isqrt(n) + 1):
        for k2 in range(math.isqrt(n - k1 * k1) + 1):
            for k3 in range(math.isqrt(n - k1 * k1 - k2 * k2) + 1):
                rest = n - k1 * k1 - k2 * k2 - k3 * k3
                if math.isqrt(rest) ** 2 == rest:
                    return k1, k2, k3, math.isqrt(rest)


def special_class(d):
    """T in I(21,2) with K_d = <h^2, T> primitive and 3 T^2 - (T.h^2)^2 = d.

    T is (1, -1, k1, -k1, ..., k4, -k4, 0, ..., 0 | 0, 0) for d = 0 mod 6
    and (1, k1, -k1, ..., k4, -k4, 0, ..., 0 | 0, 0) for d = 2 mod 6, so
    T.h^2 = a is 0 or 1.  T_1 = 1 and T_21 = 0, so the 2x2 minor of
    [h^2; T] on those columns is -1 and K_d is primitive.
    """
    head, half = ([1, -1], (d // 3 - 2) // 2) if d % 6 == 0 else ([1], ((d + 1) // 3 - 1) // 2)
    tail = [x for k in four_squares(half) for x in (k, -k)]
    return tuple(head + tail + [0] * (21 - len(head) - len(tail)) + [0, 0])


def complement_form(d, a, t):
    """d * q(g) mod 2d for a generator g of the discriminant group of K_d^perp.

    phi in Hom(K_d, Z) = Z^2 is met by x = phi_2 e_1 + (phi_1 - phi_2) e_21,
    as T_1 = 1 and T_21 = 0; x minus its projection to K_d lies in the dual
    of K_d^perp, with norm x^2 - phi^T G_K^-1 phi, G_K = [[3, a], [a, t]] of
    determinant d.  When K_d^dual / K_d is cyclic of order d, phi = (0, 1)
    (a = 1) or (1, 1) (a = 0) generates it.
    """
    p1, p2 = (0, 1) if a == 1 else (1, 1)
    x_norm = p2 * p2 + (p1 - p2) ** 2
    return (d * x_norm - (t * p1 * p1 - 2 * a * p1 * p2 + 3 * p2 * p2)) % (2 * d)


def test_star_star_matches_the_discriminant_form_of_the_complement():
    # (**) holds exactly when K_d^perp in I(21,2) has the discriminant form
    # of Lambda_d(-1): cyclic of order d with q(gen) = 1/d mod 2Z
    # (Hassett, Special cubic fourfolds, section 5; Nikulin)
    M, h2 = middle_lattice(), hyperplane_square().coords
    ds = [d for d in range(8, 1501) if d % 6 in (0, 2)]
    assert len(ds) == 498
    for d in ds:
        T = special_class(d)
        a, t = inner_product(M, T, h2), inner_product(M, T, T)
        assert a in (0, 1) and 3 * t - a * a == d
        group = invariants(orthogonal_complement(M, [h2, T])[0])[2]
        matches = group.factors == (d,)
        if matches:
            dq = complement_form(d, a, t)
            matches = any(k * k * dq % (2 * d) == 1 for k in range(1, d) if math.gcd(k, d) == 1)
        assert matches == satisfies_star_star(d)[0], d
