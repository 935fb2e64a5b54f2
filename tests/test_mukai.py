"""Tests for rank-3 lattices, isotropic triples and hyperbolic normalization."""

import itertools
import math
import random
import time

import pytest

from cubiclat import mukai
from cubiclat.chow import QuadraticForm6
from cubiclat.errors import DegenerateGramError, ParityError
from cubiclat.exactlinalg import (
    IntMatrix,
    coord_key,
    determinant,
    dot,
    kernel_basis,
    sign_normalize,
)
from cubiclat.lattices import (
    MAX_BOUND,
    Lattice,
    direct_sum,
    e8,
    hyperbolic_plane,
    inner_product,
    kuznetsov_rank3_lattice,
    lattice_by_name,
    odd_unimodular,
    orthogonal_complement,
    solutions_by_shell,
    z_lattice,
)
from cubiclat.mukai import (
    FOUND,
    IMPOSSIBLE,
    NOT_FOUND_WITHIN_BOUND,
    IsotropicTriple,
    find_isotropic_triple,
    hyperbolic_normalize,
    verify_triple,
)

L26 = kuznetsov_rank3_lattice(26)
L42 = kuznetsov_rank3_lattice(42)


def triple(L, v, vp, w, d):
    return IsotropicTriple(L.vec(v), L.vec(vp), L.vec(w), d)


def test_builtin_grams():
    assert L26.gram == IntMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, 8]])
    assert L42.gram == IntMatrix([[-2, 1, 0], [1, -2, 0], [0, 0, 14]])
    assert abs(determinant(L26.gram)) == 26
    assert abs(determinant(L42.gram)) == 42
    with pytest.raises(ValueError):
        kuznetsov_rank3_lattice(14)


def test_verify_known_triples():
    check = verify_triple(L26, triple(L26, (1, 3, 1), (1, 0, 0), (11, 22, 7), 26))
    assert check.all_ok
    assert check.conditions()["w.w"]["value"] == -26
    check = verify_triple(L42, triple(L42, (1, 3, 1), (1, 0, 0), (14, 28, 9), 42))
    assert check.all_ok
    assert check.w_norm == -42


def test_verify_reports_failures():
    # v' = v cannot pair to 1 once v is isotropic
    check = verify_triple(L26, triple(L26, (1, 3, 1), (1, 3, 1), (11, 22, 7), 26))
    conds = check.conditions()
    assert conds["v.v"]["ok"] and not check.all_ok
    assert conds["v.v'"] == {"expected": 1, "ok": False, "value": 0}


def test_verify_matches_inner_product_on_random_triples():
    # verify_triple takes v.v' as v'.(G v); x^T G y with the arguments as
    # written guards that shortcut
    rng = random.Random(11)
    for _ in range(300):
        g = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        L = Lattice(3, IntMatrix([[g[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]))
        v, vp, w = (tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        check = verify_triple(L, triple(L, v, vp, w, 26))
        assert (check.v_norm, check.v_dot_vprime, check.v_dot_w, check.w_norm) == (
            inner_product(L, v, v),
            inner_product(L, v, vp),
            inner_product(L, v, w),
            inner_product(L, w, w),
        )


def test_verify_rejects_foreign_lattice():
    with pytest.raises(ValueError):
        verify_triple(L42, triple(L26, (1, 3, 1), (1, 0, 0), (11, 22, 7), 26))


def test_triple_carrier_validation():
    with pytest.raises(ValueError):
        IsotropicTriple(L26.vec((1, 0, 0)), L42.vec((1, 0, 0)), L26.vec((0, 1, 0)), 26)
    with pytest.raises(ValueError):
        triple(L26, (1, 0, 0), (0, 1, 0), (0, 0, 1), 0)


def test_non_integer_coordinates_are_type_errors():
    # each of these used to be read as some other integer vector, or kept as a float
    bad = [
        lambda: orthogonal_complement(L26, [(0.5, 0, 0)]),
        lambda: inner_product(L26, (1.5, 0, 0), (1, 0, 0)),
        lambda: inner_product(L26, "120", (1, 0, 0)),
        lambda: inner_product(L26, (True, 0, 0), (1, 0, 0)),
        lambda: verify_triple(L26, triple(L26, (1, 3, 1), (1, 0, 0), (11.0, 22, 7), 26)),
        lambda: triple(L26, (1, 3, 1), (1, 0, 0), (11, 22, 7), 26.0),
        lambda: triple(L26, (1, 3, 1), (1, 0, 0), (11, 22, 7), True),
        lambda: QuadraticForm6({(0, 0): True}),
    ]
    for call in bad:
        with pytest.raises(TypeError):
            call()
    assert inner_product(L26, (1, 0, 0), (1, 0, 0)) == -2


# ---------------------------------------------------------------------------
# search


def test_find_on_l26():
    res = find_isotropic_triple(L26, 26, 25)
    assert res.status == FOUND
    assert verify_triple(L26, res.triple).all_ok
    # canonical outputs are pinned as a regression guard; the values were
    # computed by hand from the (L1, lex) ordering
    assert res.triple.v.coords == (1, -1, 1)
    assert res.triple.vprime.coords == (1, 1, 0)
    assert res.triple.w.coords == (4, 3, 0)


def test_find_on_l42():
    res = find_isotropic_triple(L42, 42, 25)
    assert res.status == FOUND
    assert verify_triple(L42, res.triple).all_ok


@pytest.mark.parametrize(
    "L, first, expected",
    [
        pytest.param(L26, 4, ((1, -1, 1), (1, 1, 0), (4, 3, 0)), id="L26"),
        pytest.param(L42, 5, ((1, -2, -1), (1, 1, 0), (5, 4, 0)), id="L42"),
    ],
)
def test_found_triple_is_the_same_at_every_bound(L, first, expected):
    # from the first bound that holds w, across the walk's box sides 4, 16 and 64
    d = determinant(L.gram)
    for bound in (*range(first, 81), 200):
        res = find_isotropic_triple(L, d, bound)
        assert res.status == FOUND, bound
        assert (res.triple.v.coords, res.triple.vprime.coords, res.triple.w.coords) == expected, bound


def test_find_on_standard_splitting():
    U26 = direct_sum([hyperbolic_plane(), z_lattice(-26)])
    res = find_isotropic_triple(U26, 26, 5)
    assert res.status == FOUND
    assert res.triple.v.coords == (0, 1, 0)
    assert res.triple.vprime.coords == (1, 0, 0)
    assert res.triple.w.coords == (0, 0, 1)
    basis, gram = hyperbolic_normalize(U26, res.triple.v, res.triple.vprime)
    assert gram == IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -26]])


def test_find_is_deterministic():
    a = find_isotropic_triple(L26, 26, 25)
    b = find_isotropic_triple(L26, 26, 25)
    assert a.triple == b.triple


def test_find_definite_is_impossible():
    sub = Lattice(3, IntMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))
    res = find_isotropic_triple(sub, 26, 10)
    assert res.status == IMPOSSIBLE
    assert "definite" in res.reason


def test_find_unreachable_norm_is_not_found():
    # all norms in U + Z(-26) are even, so w^2 = -3 has no solution, and
    # the certificate says so before any box is scanned
    U26 = direct_sum([hyperbolic_plane(), z_lattice(-26)])
    res = find_isotropic_triple(U26, 3, 4)
    assert res.status == IMPOSSIBLE
    assert res.reason == "d / det L = 3/26 is not a perfect square"
    assert res.triple is None


def test_find_passing_certificate_outside_box_is_not_found():
    # d = 26 * 2^2 passes the certificate; its w = (0, 0, 2) lies outside bound 1
    U26 = direct_sum([hyperbolic_plane(), z_lattice(-26)])
    res = find_isotropic_triple(U26, 104, 1)
    assert res.status == NOT_FOUND_WITHIN_BOUND
    assert res.reason is None and res.triple is None
    assert find_isotropic_triple(U26, 104, 2).triple.w.coords == (0, 0, 2)


@pytest.mark.parametrize(
    "gram, d, reason",
    [
        pytest.param(odd_unimodular(2, 1).gram, 1, "det L = -1 is not positive", id="det"),
        pytest.param(L26.gram, 27, "d / det L = 27/26 is not a perfect square", id="square"),
        pytest.param(
            IntMatrix([[0, 2, 0], [2, 0, 0], [0, 0, -2]]),
            8,
            "discriminant group Z/2 x Z/2 x Z/2 is not cyclic",
            id="cyclic",
        ),
    ],
)
def test_find_certificate_reasons(gram, d, reason):
    res = find_isotropic_triple(Lattice(3, gram), d, 5)
    assert (res.status, res.reason, res.triple) == (IMPOSSIBLE, reason, None)


def test_find_certificate_is_instant_at_max_bound():
    start = time.perf_counter()
    res = find_isotropic_triple(L26, 27, MAX_BOUND)
    assert time.perf_counter() - start < 0.05
    assert res.status == IMPOSSIBLE


def test_find_with_huge_entries_walks_shells_at_max_bound():
    # v, v' and w lie on shell 1
    e = 10**600 + 1
    L = direct_sum([hyperbolic_plane(), z_lattice(-e)])
    start = time.perf_counter()
    res = find_isotropic_triple(L, e, MAX_BOUND)
    assert time.perf_counter() - start < 0.1
    assert res.status == FOUND
    assert (res.triple.v.coords, res.triple.vprime.coords, res.triple.w.coords) == (
        (0, 1, 0), (1, 0, 0), (0, 0, 1)
    )


def test_find_checks_the_triple_before_returning_it(monkeypatch):
    # a v' that pairs to 2 with v must not come back as a found triple
    monkeypatch.setattr(mukai, "_min_dual_one", lambda gv, bound: (2, 2, 0))
    with pytest.raises(RuntimeError, match="invalid triple"):
        find_isotropic_triple(L26, 26, 25)


def test_find_fails_loudly_without_a_vprime_in_the_box(monkeypatch):
    # the lemma of find_isotropic_triple rules this out; a broken walk must not skip v
    monkeypatch.setattr(mukai, "_min_dual_one", lambda gv, bound: None)
    with pytest.raises(RuntimeError, match="no v' in the box"):
        find_isotropic_triple(L26, 26, 25)


def test_find_rejects_bad_input():
    with pytest.raises(ValueError):
        find_isotropic_triple(hyperbolic_plane(), 26, 5)
    with pytest.raises(ValueError):
        find_isotropic_triple(L26, 0, 5)
    with pytest.raises(ValueError):
        find_isotropic_triple(L26, 26, 0)
    degenerate = Lattice(3, IntMatrix([[0, 0, 0], [0, 2, 0], [0, 0, 2]]))
    with pytest.raises(DegenerateGramError):
        find_isotropic_triple(degenerate, 26, 5)


def box_scan_triple(L, d, bound):
    """Reference search: for each isotropic v, scan the whole box for v' and w.

    Same canonical order as find_isotropic_triple (L1 norm, then
    lexicographic; v and w sign-normalized), with no shortcuts.
    """
    box = sorted(itertools.product(range(-bound, bound + 1), repeat=3), key=coord_key)
    halfbox = [x for x in box if any(x) and sign_normalize(x) == x]
    norm = {x: dot(x, L.gram.mul_vec(x)) for x in halfbox}
    for v in halfbox:
        if norm[v] != 0 or math.gcd(*v) != 1:
            continue
        gv = L.gram.mul_vec(v)
        vprime = next((x for x in box if dot(gv, x) == 1), None)
        if vprime is None:
            continue
        w = next((x for x in halfbox if dot(gv, x) == 0 and norm[x] == -d), None)
        if w is not None:
            return v, vprime, w
    return None


def conjugate(rng, gram):
    # four elementary steps row_i += s * row_j with one sign s per step, so
    # Q is unimodular and Q^t G Q is a Gram of the same lattice
    m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((-1, 1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    Q = IntMatrix(m)
    assert abs(determinant(Q)) == 1
    return Q.transpose() @ gram @ Q


def differential_cases():
    rng = random.Random(2437)
    cases = []
    for e in (8, 8, 2, 3, 5, 6, 12, 14, 26):
        base = direct_sum([hyperbolic_plane(), z_lattice(-e)]).gram
        # in U + Z(-8), v = (2, 2, 1) is isotropic with gcd(G v) = 2
        grams = [base] + [conjugate(rng, base) for _ in range(10)]
        for gram in grams:
            d = e if rng.random() < 0.6 else rng.choice((1, 2, 3, 4 * e, 5, 7, 9 * e))
            cases.append((gram, d, rng.randint(3, 5)))
    while len(cases) < 270:
        g = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        gram = IntMatrix([[g[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)])
        det = abs(determinant(gram))
        if det != 0:
            d = det if rng.random() < 0.5 else rng.randint(1, 12)
            cases.append((gram, d, rng.randint(2, 4)))
    return cases


def test_search_matches_box_scan_reference():
    found = impossible = 0
    for gram, d, bound in differential_cases():
        L = Lattice(3, gram)
        res = find_isotropic_triple(L, d, bound)
        got = None if res.triple is None else (
            res.triple.v.coords, res.triple.vprime.coords, res.triple.w.coords
        )
        assert got == box_scan_triple(L, d, bound), (gram, d, bound)
        found += got is not None
        impossible += res.status == IMPOSSIBLE
    # 89 of the 270 are found; 161 are impossible, 160 of them by the
    # certificate on det L, d / det L and the discriminant group and one
    # as definite; the reference scan above agrees that each of their
    # boxes holds no triple
    assert found >= 50
    assert impossible >= 150


def min_w_cases(rng):
    """Seeded (G, v, k): v sign-normalized and isotropic with gcd(G v) = 1, det G != 0.

    The Grams are U + Z(-e) in both orders, L26, L42 and random symmetric
    ones with entries in [-3, 3]; v runs over the box of side 2.
    """
    grams = [L26.gram, L42.gram]
    for e in (1, 2, 5, 26):
        U, Z = hyperbolic_plane(), z_lattice(-e)
        grams += [direct_sum([U, Z]).gram, direct_sum([Z, U]).gram]
    while len(grams) < 80:
        g = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        gram = IntMatrix([[g[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)])
        if determinant(gram) != 0:
            grams.append(gram)
    for gram in grams:
        for v in itertools.product(range(-2, 3), repeat=3):
            gv = gram.mul_vec(v)
            if any(v) and sign_normalize(v) == v and dot(v, gv) == 0 and math.gcd(*gv) == 1:
                yield gram, v, rng.randint(1, 3)


def test_min_w_matches_box_scan():
    # the brute force lists the box of side 6 once and takes each smaller box from it
    box = sorted(itertools.product(range(-6, 7), repeat=3), key=coord_key)
    kinds, found, missing = set(), 0, 0
    for gram, v, k in min_w_cases(random.Random(27)):
        gv, norm = gram.mul_vec(v), -k * k * determinant(gram)
        ws = [
            w for w in box if sign_normalize(w) == w and dot(gv, w) == 0 and dot(w, gram.mul_vec(w)) == norm
        ]
        for bound in range(1, 7):
            expected = next((w for w in ws if max(map(abs, w)) <= bound), None)
            assert mukai._min_w(v, gv, k, bound) == expected, (gram, v, k, bound)
            found += expected is not None
            missing += expected is None
        kinds.add(v.count(0) if v[:2] != (0, 0) else "v0 = v1 = 0")
    # v with one zero coordinate and v = (0, 0, +-1) take other Bezout steps
    assert {1, "v0 = v1 = 0"} <= kinds
    assert found >= 100 and missing >= 100


#: (v, v', w) found by each search of ``pinned_search_cases``, in order
PINNED_TRIPLES = [
    ((1, -1, 1), (1, 1, 0), (4, 3, 0)),
    ((1, -2, -1), (1, 1, 0), (10, 8, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 6, 3)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, -1), (1, 0, 0), (0, 0, 2)),
    ((1, -1, 1), (1, 1, 0), (12, 9, 0)),
    ((1, -2, -1), (1, 1, 0), (5, 4, 0)),
    ((0, 0, 1), (0, 1, 0), (2, 0, 0)),
    ((0, 1, -1), (-1, 0, 0), (0, 0, 3)),
    ((1, 0, 0), (0, 1, 0), (0, 2, 1)),
    ((1, -1, 1), (1, 1, 0), (8, 6, 0)),
    ((1, -2, -1), (1, 1, 0), (15, 12, 0)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 2)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 3)),
    ((1, -1, 1), (1, 1, 0), (4, 3, 0)),
    ((1, -2, -1), (1, 1, 0), (10, 8, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 3)),
    ((0, 1, -1), (1, 0, 0), (0, 0, 1)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 2)),
    ((1, -1, 1), (1, 1, 0), (12, 9, 0)),
    ((1, -2, -1), (1, 1, 0), (5, 4, 0)),
    ((0, 1, -1), (1, 0, 0), (0, 0, 2)),
    ((1, 0, 0), (0, 0, 1), (0, 3, -6)),
    ((0, 1, 0), (0, 0, -1), (1, 0, 1)),
    ((1, -1, 1), (1, 1, 0), (8, 6, 0)),
    ((1, -2, -1), (1, 1, 0), (15, 12, 0)),
    ((1, 1, 0), (0, -1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 2)),
    ((1, -1, 0), (0, 0, -1), (0, 3, 3)),
]


def unimodular_conjugate(rng, gram):
    """Q^t G Q for Q a product of four elementary matrices, so det Q = 1."""
    m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        sign = rng.choice((-1, 1))
        m[i] = [a + sign * b for a, b in zip(m[i], m[j])]
    Q = IntMatrix(m)
    return Q.transpose() @ gram @ Q


def pinned_search_cases():
    """30 seeded (L, d, bound): L26, L42 and conjugates of U + Z(-e), d = k^2 det L, k = 1, 2, 3."""
    rng = random.Random(18)
    for case in range(len(PINNED_TRIPLES)):
        if case % 5 < 2:
            L = (L26, L42)[case % 5]
        else:
            e = rng.choice((2, 3, 5, 6, 14, 26))
            L = Lattice(3, unimodular_conjugate(rng, direct_sum([hyperbolic_plane(), z_lattice(-e)]).gram))
        yield L, (1 + case % 3) ** 2 * determinant(L.gram), rng.randint(6, 60)


def test_found_triples_are_pinned():
    # the box-scan reference above stops at bound 5; these reach bound 60
    negative = 0
    for (L, d, bound), expected in zip(pinned_search_cases(), PINNED_TRIPLES):
        res = find_isotropic_triple(L, d, bound)
        assert res.status == FOUND, (L.gram, d, bound)
        got = (res.triple.v.coords, res.triple.vprime.coords, res.triple.w.coords)
        assert got == expected, (L.gram, d, bound)
        negative += min(got[0]) < 0
    # a v with a negative coordinate bounds the multiple of v in w from the other side
    assert negative >= len(PINNED_TRIPLES) // 3


def test_vprime_lies_in_the_box_of_v_and_w():
    # the lemma of find_isotropic_triple: a v' with |v'_i| <= max(|v_i|, |w_i|, 1)
    rng = random.Random(32)
    pairs = unit = 0
    for _ in range(300):
        e = rng.randint(1, 30)
        plane = rng.choice(
            (hyperbolic_plane(), Lattice(2, IntMatrix([[0, 1], [1, 1]])), direct_sum([z_lattice(1), z_lattice(-1)]))
        )
        gram = unimodular_conjugate(rng, direct_sum([plane, z_lattice(-e)]).gram)
        k, bound = rng.randint(1, 3), rng.randint(1, 10)
        for v in solutions_by_shell(gram.rows, (0, 0, 0), 0, bound):
            gv = gram.mul_vec(v)
            if math.gcd(*gv) != 1:
                continue
            w = mukai._min_w(v, gv, k, bound)
            if w is None:
                continue
            side = max(1, *map(abs, v), *map(abs, w))
            assert mukai._min_dual_one(gv, side) is not None, (gram, v, w)
            pairs += 1
            unit += sum(g * g for g in gv) == 1
    # 1,800 pairs, 276 of them with |G v| = 1: both cases of the proof
    assert pairs >= 1500 and 100 <= unit <= pairs - 1000


# ---------------------------------------------------------------------------
# normalization


def test_normalize_l26():
    basis, gram = hyperbolic_normalize(L26, (1, 3, 1), (1, 0, 0))
    assert gram == IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -26]])
    assert [b.coords for b in basis] == [(1, 3, 1), (2, 3, 1), (11, 22, 7)]
    # unimodular basis change preserves the determinant
    assert abs(determinant(gram)) == abs(determinant(L26.gram))


def test_normalize_l42():
    basis, gram = hyperbolic_normalize(L42, (1, 3, 1), (1, 0, 0))
    assert gram == IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -42]])
    assert abs(determinant(gram)) == 42


def test_normalize_u_unchanged():
    U = hyperbolic_plane()
    basis, gram = hyperbolic_normalize(U, (1, 0), (0, 1))
    assert gram == U.gram
    assert [b.coords for b in basis] == [(1, 0), (0, 1)]


def test_normalize_det_preserved_exactly():
    # the full determinant (with sign) is preserved: the basis change is
    # unimodular
    for L, v, vp in [
        (L26, (1, 3, 1), (1, 0, 0)),
        (L42, (1, 3, 1), (1, 0, 0)),
    ]:
        _, gram = hyperbolic_normalize(L, v, vp)
        assert determinant(gram) == determinant(L.gram)


def test_normalize_after_search_on_random_congruences():
    # even k keeps the whole lattice even, so v'^2 is never odd
    rng = random.Random(6)
    for k in (2, 4, 8, 26):
        base = direct_sum([hyperbolic_plane(), z_lattice(-k)])
        m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                q = rng.randint(-1, 1)
                m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        Q = IntMatrix(m)
        L = Lattice(3, Q.transpose() @ base.gram @ Q)
        res = find_isotropic_triple(L, k, 30)
        assert res.status == FOUND
        basis, gram = hyperbolic_normalize(L, res.triple.v, res.triple.vprime)
        assert gram.rows[0][0] == 0 and gram.rows[0][1] == 1
        assert gram.rows[1][1] == 0
        assert gram.rows[2][2] == -k
        assert determinant(gram) == determinant(L.gram)


# (catalog name, v, v', basis) with vectors as {index: nonzero entry}: v is
# isotropic in the U summands, and v' is shifted by vectors of the other
# summands, so the basis change is not a permutation
NORMALIZE_PINS = [
    ("K3", {16: 1}, {0: 1, 16: 2, 17: 1},
     [{16: 1}, {0: 1, 16: 1, 17: 1}, {1: 1}, *({i: 1} for i in range(3, 16)),
      {2: 1, 16: -1}, {0: 1, 2: 2}, {18: 1}, {19: 1}, {20: 1}, {21: 1}]),
    ("Mukai", {16: 1, 18: 1}, {0: 1, 1: 1, 17: 1},
     [{16: 1, 18: 1}, {0: 1, 1: 1, 16: -2, 17: 1, 18: -2}, {1: 1, 2: 2}, {2: 1, 3: -1},
      *({i: 1} for i in range(4, 16)), {2: 1, 16: 1}, {0: 1, 2: 2}, {18: 1},
      {17: 1, 19: -1}, {20: 1}, {21: 1}, {22: 1}, {23: 1}]),
    ("Gamma", {18: 1}, {2: 1, 16: -1, 19: 1, 21: 1},
     [{18: 1}, {2: 1, 16: -1, 18: -2, 19: 1, 21: 1}, {2: 1, 3: 2}, {1: 1},
      *({i: 1} for i in range(4, 17)), {3: 1, 17: -1}, {3: 1, 18: 1}, {0: 1, 3: -1},
      {3: 1, 20: -1}, {3: 2, 21: 1}]),
]


@pytest.mark.parametrize("name, v, vp, expected", NORMALIZE_PINS, ids=[p[0] for p in NORMALIZE_PINS])
def test_normalize_is_pinned_above_rank_3(name, v, vp, expected):
    L = lattice_by_name(name)

    def dense(entries):
        return tuple(entries.get(i, 0) for i in range(L.rank))

    basis, gram = hyperbolic_normalize(L, dense(v), dense(vp))
    B = IntMatrix([dense(b) for b in expected])
    assert [b.coords for b in basis] == list(B.rows)
    assert gram == B @ L.gram @ B.transpose()
    assert [r[:2] for r in gram.rows[:2]] == [(0, 1), (1, 0)]
    assert determinant(gram) == determinant(L.gram)


def test_normalize_checks_the_basis_before_returning_it(monkeypatch):
    # a doubled complement generator leaves a basis of index 2
    def doubled(M):
        return [tuple(2 * a for a in b) for b in kernel_basis(M)]

    monkeypatch.setattr(mukai, "kernel_basis", doubled)
    with pytest.raises(RuntimeError, match="internal error: basis .* is not unimodular"):
        hyperbolic_normalize(L26, (1, 3, 1), (1, 0, 0))


def test_normalize_parity_error():
    # odd lattices can have v'^2 odd, blocking the integral completion
    L = odd_unimodular(2, 1)
    assert inner_product(L, (1, 0, 1), (1, 0, 1)) == 0
    with pytest.raises(ParityError):
        hyperbolic_normalize(L, (1, 0, 1), (1, 0, 0))


def test_normalize_precondition_errors():
    with pytest.raises(ValueError):
        hyperbolic_normalize(L26, (1, 0, 0), (1, 0, 0))  # v not isotropic
    with pytest.raises(ValueError):
        hyperbolic_normalize(L26, (1, 3, 1), (0, 0, 1))  # pairing not 1
