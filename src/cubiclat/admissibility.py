"""Numerical conditions on discriminants of special cubic fourfolds.

Two sieves act on a positive integer d:

* condition (*): d > 6 and d is congruent to 0 or 2 modulo 6;
* condition (**): (*) holds and d/2 is divisible neither by 9 nor by
  any prime p congruent to -1 modulo 3.

Discriminants satisfying (**) are called admissible; they are exactly
the ones with an associated polarized K3 surface, of genus d/2 + 1.
A single d is tested by trial division of d/2, which is O(sqrt d).
``enumerate_admissible`` sieves the range into a bytearray, one byte per
d/2, and reads it back with no Python loop over d.  The process holds
the admissible list of the largest range it has sieved and answers any
range inside it with a slice of that list.  ``report_rows``
reads a witness table, sieved once over every d/2 <= max_d/2, and makes
the range report in one loop over it, as plain tuples with no call per
d, which feed both renderers of ``admissible --verbose``;
``discriminant_report`` runs the same rule on the trial-division
witness of one d.  Both sieves list their primes with one helper.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import compress
from math import isqrt

#: largest range the command line accepts; it bounds the sieve of
#: ``enumerate_admissible``, which holds one byte per d/2, and the
#: admissible list the process holds (513,592 ints at 10**7)
MAX_D = 10**7

#: largest range the command line reports d by d (``admissible --verbose``);
#: it bounds the output, which holds one report per d
MAX_VERBOSE_D = 2 * 10**5

#: (d, satisfies_star, satisfies_star_star, genus, witness)
ReportRow = tuple[int, bool, bool, int | None, int | None]


def satisfies_star(d: int) -> bool:
    """Condition (*): d > 6 and d = 0 or 2 (mod 6)."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return d > 6 and d % 6 in (0, 2)


def _star_star_witness(half: int) -> int | None:
    """Smallest obstruction to (**) for d/2 = half, or None.

    Obstructions are the factor 9 and primes p = 2 (mod 3).  When both
    occur the smaller number is reported, so a prime below 9 wins over 9
    and 9 wins over larger primes.
    """
    witness_nine = 9 if half % 9 == 0 else None
    m = half
    p = 2
    smallest_prime = None
    while p * p <= m:
        if m % p == 0:
            if p % 3 == 2:
                smallest_prime = p
                break
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if smallest_prime is None and m > 1 and m % 3 == 2:
        smallest_prime = m
    candidates = [w for w in (witness_nine, smallest_prime) if w is not None]
    return min(candidates) if candidates else None


def satisfies_star_star(d: int) -> tuple[bool, int | None]:
    """Condition (**) with a witness for failure.

    Returns ``(True, None)`` when d is admissible.  On failure the
    witness is the offending factor of d/2 (the smallest prime p = 2
    mod 3, or 9), or ``None`` when already (*) fails.
    """
    if not satisfies_star(d):
        return (False, None)
    # (*) forces d to be even, so d/2 is an integer
    witness = _star_star_witness(d // 2)
    return (witness is None, witness)


def _primes_two_mod_three(limit: int) -> list[int]:
    """The primes p = 2 (mod 3) with 5 <= p <= limit, ascending.

    Every such p is 5 (mod 6), so only odd composites need clearing.
    """
    n = limit + 1
    is_prime = bytearray([1]) * n
    for p in range(3, isqrt(limit) + 1, 2):
        if is_prime[p]:
            is_prime[p * p :: 2 * p] = bytes(len(range(p * p, n, 2 * p)))
    return list(compress(range(5, n, 6), is_prime[5::6]))


def _witness_table(max_half: int) -> list[int]:
    """Smallest obstruction to (**) for each d/2 = h in 0..max_half, or 0.

    The same witness as ``_star_star_witness`` for every h.  Each
    obstruction q is written over all of its multiples, largest q first,
    so the smallest one that divides h is written last: the primes
    p = 2 (mod 3) from 11 up, then 9, 5 and 2.  Every h = 2 (mod 3) has
    a prime factor p = 2 (mod 3), so its entry is never 0.
    """
    primes = _primes_two_mod_three(max_half)
    n = max_half + 1
    table = [0] * n
    for q in (*primes[:0:-1], 9, 5, 2):
        table[q::q] = [q] * len(range(q, n, q))
    return table


#: (top, ds): ds is the admissible list up to top, the largest range
#: sieved so far in this process; rebound whole, never mutated
_held: tuple[int, list[int]] = (0, [])


def enumerate_admissible(max_d: int) -> list[int]:
    """All admissible d <= max_d, ascending, as a new list.

    A range inside the held one is a slice of its list; a larger range
    is sieved and becomes the held one.
    """
    global _held
    if max_d < 1:
        raise ValueError("max_d must be a positive integer")
    top, ds = _held
    if max_d <= top:
        return ds[: bisect_right(ds, max_d)]
    ds = _sieve_admissible(max_d)
    _held = (max_d, ds)
    return ds.copy()


def _sieve_admissible(max_d: int) -> list[int]:
    """All admissible d <= max_d, ascending, sieved.

    d is admissible exactly when h = d/2 is at least 4, is 1 or 3
    (mod 6), and is an odd multiple neither of 9 nor of a prime
    p = 5 (mod 6): 2 is an obstruction, and every h = 2 (mod 3) has a
    prime factor p = 2 (mod 3).  An odd multiple of p that is 1 or 3
    (mod 6) is at least 3p, so the primes up to max_d/6 suffice.
    """
    n = max_d // 2 + 1
    primes = _primes_two_mod_three((n - 1) // 3)
    # clear every odd multiple h of 9 and of each prime p = 5 (mod 6)
    ok = bytearray([1]) * n
    for q in (9, *primes):
        ok[q::2 * q] = bytes(len(range(q, n, 2 * q)))
    # h = 7 + 6k is d = 14 + 12k, h = 9 + 6k is d = 18 + 12k; sorted merges the two runs
    return sorted([*compress(range(14, max_d + 1, 12), ok[7::6]), *compress(range(18, max_d + 1, 12), ok[9::6])])


def genus_of_discriminant(d: int) -> int:
    """The genus d/2 + 1 of the associated polarized K3 surface."""
    if d < 2 or d % 2 != 0:
        raise ValueError("genus is defined for even d >= 2")
    return d // 2 + 1


@dataclass(frozen=True)
class DiscriminantReport:
    """Full diagnostic for one discriminant value.

    ``genus`` is present exactly when d is even; ``witness`` names the
    obstruction to (**) when one exists.
    """

    d: int
    satisfies_star: bool
    satisfies_star_star: bool
    genus: int | None
    witness: int | None

    def __post_init__(self):
        if self.satisfies_star_star and not self.satisfies_star:
            raise ValueError("(**) implies (*)")
        if (self.d % 2 == 0) != (self.genus is not None):
            raise ValueError("genus must be present exactly for even d")


def _report_rows(ds: Iterable[int], witnesses) -> list[ReportRow]:
    """The report of each d in ds as (d, star, star_star, genus, witness).

    The one rule behind every report.  ``witnesses[d // 2]`` is the
    smallest obstruction to (**) for d/2, or 0 or None when there is
    none; it is read only for the d where (*) holds.
    """
    rows = []
    append = rows.append
    for d in ds:
        if d % 2:
            append((d, False, False, None, None))
        elif d > 6 and d % 6 != 4:
            witness = witnesses[d // 2]
            append((d, True, not witness, d // 2 + 1, witness or None))
        else:
            append((d, False, False, d // 2 + 1, None))
    return rows


def report_rows(max_d: int) -> list[ReportRow]:
    """The fields of ``discriminant_report(d)`` for every d in 1..max_d, in
    field order, as plain tuples read from one witness table."""
    if max_d < 1:
        raise ValueError("max_d must be a positive integer")
    return _report_rows(range(1, max_d + 1), _witness_table(max_d // 2))


def discriminant_report(d: int) -> DiscriminantReport:
    witness = satisfies_star_star(d)[1]
    return DiscriminantReport(*_report_rows((d,), {d // 2: witness})[0])
