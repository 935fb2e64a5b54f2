"""Tests for the discriminant sieves.

The oracle is a smallest-prime-factor sieve, which factors every d/2 in
the tested range independently of the trial division in the library.
The range functions read the library's witness table; they are compared
with the per-d trial division.
"""

import pytest
from hypothesis import given, strategies as st

from cubiclat.admissibility import (
    discriminant_report,
    discriminant_reports,
    enumerate_admissible,
    genus_of_discriminant,
    satisfies_star,
    satisfies_star_star,
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
        assert discriminant_reports(m) == list(map(discriminant_report, range(1, m + 1))), m


def test_reports_reject_nonpositive_max():
    with pytest.raises(ValueError):
        discriminant_reports(0)


def test_runtime_of_enumeration():
    import time

    t0 = time.monotonic()
    enumerate_admissible(80)
    assert time.monotonic() - t0 < 1.0
