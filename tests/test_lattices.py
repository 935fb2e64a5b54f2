"""Tests for lattice constructions, invariants and small-rank searches."""

import itertools
import math
import os
import pathlib
import random
import sys
import time

import pytest
import sympy as sp
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from cubiclat import lattices
from cubiclat.errors import DegenerateGramError, LatticeFormatError
from cubiclat.exactlinalg import IntMatrix, coord_key, determinant, dot, ldlt_signature, sign_normalize
from cubiclat.lattices import (
    ISOMETRIC,
    NOT_FOUND_WITHIN_BOUND,
    NOT_ISOMETRIC,
    DiscriminantGroup,
    Lattice,
    LatticeVec,
    a2,
    cubic_lattice,
    direct_sum,
    _search_isometry,
    e8,
    hyperbolic_plane,
    hyperplane_square,
    inner_product,
    integer_solutions,
    invariants,
    is_isometric_small,
    k3_lattice,
    k3_polarized_primitive,
    kuznetsov_rank3_lattice,
    lattice_by_name,
    lattice_from_json,
    lattice_to_json,
    load_lattice,
    middle_lattice,
    mukai_lattice,
    odd_unimodular,
    orthogonal_complement,
    solutions_by_shell,
    twist,
    vectors_with_norm,
    z_lattice,
)
from cubiclat.mukai import _min_dual_one


def random_unimodular(rng, n, steps=10, coef=2):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.randint(-coef, coef)
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return IntMatrix(m)


# ---------------------------------------------------------------------------
# standard lattices


def test_standard_grams():
    assert a2().gram == IntMatrix([[2, -1], [-1, 2]])
    assert hyperbolic_plane().gram == IntMatrix([[0, 1], [1, 0]])
    assert determinant(hyperbolic_plane().gram) == -1
    assert z_lattice(-26).gram == IntMatrix([[-26]])


def test_e8_is_even_unimodular_positive_definite():
    L = e8()
    assert L.rank == 8
    assert determinant(L.gram) == 1
    assert invariants(L)[0] == (8, 0)
    assert all(L.gram.rows[i][i] % 2 == 0 for i in range(8))
    assert invariants(L)[2].factors == ()


def test_standard_lattice_parser():
    assert lattice_by_name("E8") == e8()
    assert lattice_by_name("Z(-5)").gram == IntMatrix([[-5]])
    assert lattice_by_name("I(2,1)").rank == 3
    with pytest.raises(ValueError):
        lattice_by_name("Z(0)")
    with pytest.raises(ValueError):
        lattice_by_name("I(0,0)")
    with pytest.raises(ValueError):
        lattice_by_name("F4")


def test_twist():
    assert twist(a2(), -1).gram == IntMatrix([[-2, 1], [1, -2]])
    assert twist(a2(), 1) == a2()
    assert twist(hyperbolic_plane(), -1).gram == IntMatrix([[0, -1], [-1, 0]])
    with pytest.raises(ValueError):
        twist(a2(), 0)


def test_twist_determinant_scaling():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 3)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        sym = IntMatrix([[M[i][j] + M[j][i] for j in range(n)] for i in range(n)])
        L = Lattice(n, sym)
        k = rng.choice([-3, -2, -1, 2, 3])
        assert determinant(twist(L, k).gram) == k**n * determinant(L.gram)


def test_direct_sum_ranks_and_det():
    assert cubic_lattice().rank == 22
    assert k3_lattice().rank == 22
    assert mukai_lattice().rank == 24
    assert direct_sum([a2()]) == a2()
    parts = [e8(), hyperbolic_plane(), a2()]
    total = direct_sum(parts)
    prod = 1
    for p in parts:
        prod *= determinant(p.gram)
    assert determinant(total.gram) == prod
    with pytest.raises(ValueError):
        direct_sum([])


# ---------------------------------------------------------------------------
# inner products


def test_inner_product_known_values():
    L = kuznetsov_rank3_lattice(26)
    v = (1, 3, 1)
    assert inner_product(L, v, v) == 0
    assert inner_product(L, v, (11, 22, 7)) == 0
    assert inner_product(L, v, (1, 0, 0)) == 1
    assert inner_product(L, (0, 0, 0), v) == 0


def test_inner_product_bilinear_symmetric():
    rng = random.Random(4)
    L = kuznetsov_rank3_lattice(42)
    for _ in range(50):
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        y = tuple(rng.randint(-5, 5) for _ in range(3))
        z = tuple(rng.randint(-5, 5) for _ in range(3))
        assert inner_product(L, x, y) == inner_product(L, y, x)
        xy = tuple(a + b for a, b in zip(x, y))
        assert inner_product(L, xy, z) == inner_product(L, x, z) + inner_product(L, y, z)


def test_inner_product_rejects_mismatch():
    with pytest.raises(ValueError):
        inner_product(a2(), (1, 2, 3), (1, 0))
    with pytest.raises(ValueError):
        inner_product(a2(), LatticeVec(hyperbolic_plane(), (1, 0)), (1, 0))


# ---------------------------------------------------------------------------
# discriminant groups and signatures


def test_discriminant_groups():
    assert invariants(e8())[2].factors == ()
    assert invariants(a2())[2].factors == (3,)
    assert invariants(k3_polarized_primitive(26))[2].factors == (26,)
    assert invariants(cubic_lattice())[2].factors == (3,)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: Lattice(-1, IntMatrix([])), "rank must be nonnegative", id="negative-rank"),
        pytest.param(lambda: DiscriminantGroup((1, 2)), "must exceed 1", id="factor-1"),
        pytest.param(lambda: DiscriminantGroup((2, 3)), "divisibility chain", id="non-chain"),
        pytest.param(lambda: odd_unimodular(-1, 2), r"p, q >= 0", id="odd-unimodular-negative"),
    ],
)
def test_preconditions_raise(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_trivial_discriminant_group_prints_trivial():
    assert str(DiscriminantGroup(())) == "trivial"


def test_discriminant_group_rejects_degenerate():
    L = Lattice(2, IntMatrix([[1, 1], [1, 1]]))
    with pytest.raises(DegenerateGramError):
        invariants(L)


def test_discriminant_order_equals_abs_det():
    rng = random.Random(12)
    count = 0
    while count < 60:
        n = rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        sym = IntMatrix([[M[i][j] + M[j][i] for j in range(n)] for i in range(n)])
        if determinant(sym) == 0:
            continue
        L = Lattice(n, sym)
        assert math.prod(invariants(L)[2].factors) == abs(determinant(sym))
        count += 1


def test_signatures():
    assert invariants(cubic_lattice())[0] == (20, 2)
    assert invariants(mukai_lattice())[0] == (20, 4)
    assert invariants(z_lattice(-26))[0] == (0, 1)
    assert invariants(k3_lattice())[0] == (3, 19)
    assert invariants(middle_lattice())[0] == (21, 2)


def test_signature_unimodular_invariance():
    rng = random.Random(8)
    L = direct_sum([hyperbolic_plane(), z_lattice(-5)])
    for _ in range(20):
        Q = random_unimodular(rng, 3)
        cong = Lattice(3, Q.transpose() @ L.gram @ Q)
        assert invariants(cong)[0] == invariants(L)[0]


# ---------------------------------------------------------------------------
# orthogonal complements and primitivity


def spans_primitive(vectors):
    """k integer vectors span a primitive sublattice exactly when their k x n
    matrix has k unit invariant factors; sympy's Smith form, not cubiclat's."""
    smith = sympy_snf(sp.Matrix(vectors), domain=sp.ZZ)
    return all(abs(smith[i, i]) == 1 for i in range(len(vectors)))


def test_spans_primitive_rejects_non_primitive_input():
    assert not spans_primitive([(2, 0)])
    assert not spans_primitive([(1, 0), (2, 0)])
    assert not spans_primitive([(2, 4, 0), (0, 6, 3)])


def test_complement_in_u():
    U = hyperbolic_plane()
    sub, basis = orthogonal_complement(U, [(1, 1)])
    assert [b.coords for b in basis] == [(1, -1)]
    assert sub.gram == IntMatrix([[-2]])


def test_complement_of_hyperplane_square():
    L = middle_lattice()
    h2 = hyperplane_square()
    assert inner_product(L, h2, h2) == 3
    sub, basis = orthogonal_complement(L, [h2])
    assert sub.rank == 22
    assert invariants(sub)[2].factors == (3,)
    assert invariants(sub)[0] == (20, 2)
    # h2 is characteristic, so the complement is even, as Gamma is
    assert all(sub.gram.rows[i][i] % 2 == 0 for i in range(sub.rank))
    assert spans_primitive([b.coords for b in basis])


def test_complement_of_spanning_set_is_zero_rank():
    U = hyperbolic_plane()
    sub, basis = orthogonal_complement(U, [(1, 0), (0, 1)])
    assert sub.rank == 0 and basis == []


def test_complement_of_nothing_is_everything():
    U = hyperbolic_plane()
    sub, basis = orthogonal_complement(U, [])
    assert sub.rank == 2
    assert sub.gram == U.gram


def test_saturation_in_l26_has_index_one():
    # v and w of the pinned triple span a primitive sublattice of L26
    L = kuznetsov_rank3_lattice(26)
    v, w = (1, 3, 1), (11, 22, 7)
    assert (inner_product(L, v, v), inner_product(L, v, w), inner_product(L, w, w)) == (0, 0, -26)
    assert spans_primitive([v, w])


def _label_sublattice(L, r_coords):
    h2 = hyperplane_square().coords
    return [h2, r_coords]


@pytest.mark.parametrize(
    "r_coords,expected_disc",
    [
        ((1, 1, 1, 1) + (0,) * 17 + (1, 0), 8),
        ((2, 2, 1, 1, 1) + (0,) * 16 + (1, 0), 14),
    ],
)
def test_unimodular_complement_det_identity(r_coords, expected_disc):
    # |det K| = |det K_perp| for a primitive sublattice K of a unimodular lattice
    L = middle_lattice()
    vecs = _label_sublattice(L, r_coords)
    gram_k = IntMatrix([[inner_product(L, x, y) for y in vecs] for x in vecs])
    assert abs(determinant(gram_k)) == expected_disc
    assert spans_primitive(vecs)
    sub, _ = orthogonal_complement(L, vecs)
    assert abs(determinant(sub.gram)) == expected_disc


# ---------------------------------------------------------------------------
# vector enumeration


def test_vectors_with_norm_small():
    U = hyperbolic_plane()
    iso = vectors_with_norm(U.gram, 0, 3)
    assert iso[:4] == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert len(iso) == 12
    assert all(inner_product(U, v, v) == 0 for v in iso)
    norm2 = vectors_with_norm(a2().gram, 2, 1)
    # the six roots of A2
    assert len(norm2) == 6


def box_scan(g, lin, value, bound):
    """Reference: every box point of x^T G x + l.x = value, by brute force."""
    n = len(lin)
    return [
        x
        for x in itertools.product(range(-bound, bound + 1), repeat=n)
        if sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        + sum(a * b for a, b in zip(lin, x))
        == value
    ]


def enumeration_cases(rng):
    """Seeded (kind, G, l, c, bound) of rank 1-3, G as rows and l as a vector.

    Kind 0 has G = 0 with l != 0 and kind 1 has l = 0; the cases cover
    zero diagonals, l = 0 with both signs of c, and bound 0.
    """
    for case in range(480):
        n, kind = 1 + case % 3, case // 3 % 4
        bound = 0 if case % 17 == 0 else rng.randint(1, 4 if n == 3 else 7)
        g = [[0] * n for _ in range(n)]
        if kind != 0:
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
                if case % 5 == 0:
                    g[i][i] = 0
        lin = [0] * n if kind == 1 else [rng.randint(-4, 4) for _ in range(n)]
        if kind == 0 and not any(lin):
            lin[0] = 1
        value = rng.randint(-12, 12)
        yield kind, g, lin, value, bound


def solve_branches(g, lin, value, solutions):
    """Branches of the last-coordinate solve a y^2 + b y + c = 0 that the solutions go through.

    ``solutions`` is in lexicographic order; a, b and c are read off the
    form at y = 0 and y = +-1 for each prefix that has a solution.
    """
    m = len(lin) - 1

    def f(x):
        form = sum(g[i][j] * x[i] * x[j] for i in range(m + 1) for j in range(m + 1))
        return form + sum(a * b for a, b in zip(lin, x)) - value

    branches = set()
    for p, ys in itertools.groupby(solutions, key=lambda x: x[:m]):
        a, c, b = g[m][m], f(p + (0,)), (f(p + (1,)) - f(p + (-1,))) // 2
        count = len(list(ys))
        if a and count == 2:
            branches.add("two roots, a > 0" if a > 0 else "two roots, a < 0")
        elif a and b * b == 4 * a * c:
            branches.add("double root")
        elif not a and b:
            branches.add("linear")
        elif not a:
            branches.add("column")
    return branches


def check_shell_walk(monkeypatch, g, lin, value, bound, expected):
    """The walk yields the box in canonical order, at the default growth and at growth 2.

    Returns whether the default walk yields solutions both from a box it
    walked and from the last box.
    """
    canonical = sorted(expected, key=coord_key)
    sides = []

    def listing(*args):
        sides.append(args[-1])
        return integer_solutions(*args)

    with monkeypatch.context() as m:
        m.setattr(lattices, "integer_solutions", listing)
        assert list(solutions_by_shell(g, lin, value, bound)) == canonical, (g, lin, value, bound)
        walked = sides[-2] if len(sides) > 1 else -1
        m.setattr(lattices, "WALK_GROWTH", 2)
        assert list(solutions_by_shell(g, lin, value, bound)) == canonical, (g, lin, value, bound)
    return {sum(map(abs, x)) <= walked for x in canonical} == {True, False}


def walk_cases(rng):
    """Seeded rank-3 (kind, G, l, c, bound) at bounds 8 and 9, where the default walk lists box 4 before the last box.

    The kinds are those of ``enumeration_cases``, and kind 2 draws G and l
    at random.
    """
    for case in range(12):
        kind, bound = case % 3, (8, 9)[case // 3 % 2]
        g = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        g = [[g[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
        if kind == 0:
            g = [[0] * 3 for _ in range(3)]
        lin = [rng.randint(-2, 2) for _ in range(3)] if kind != 1 else [0, 0, 0]
        if kind == 0 and not any(lin):
            lin = [0, 1, 1]
        yield kind, g, lin, rng.randint(-6, 6), bound


def test_integer_solutions_match_box_scan(monkeypatch):
    signs, branches, both_sides = set(), set(), False
    cases = itertools.chain(enumeration_cases(random.Random(6)), walk_cases(random.Random(22)))
    for kind, g, lin, value, bound in cases:
        # the enumerator takes ranks 2 and 3; skipping the rank-1 draws keeps
        # the seeded cases of those ranks as they were
        if len(lin) == 1:
            continue
        expected = box_scan(g, lin, value, bound)
        assert integer_solutions(g, lin, value, bound) == expected, (g, lin, value, bound)
        branches |= solve_branches(g, lin, value, expected)
        both_sides |= check_shell_walk(monkeypatch, g, lin, value, bound, expected)
        if kind == 1:
            signs.add(value > 0)
            got = vectors_with_norm(IntMatrix(g), value, bound)
            assert got == sorted((x for x in expected if any(x)), key=coord_key)
        if kind == 0 and len(lin) == 3:
            best = min(box_scan(g, lin, 1, bound), key=coord_key, default=None)
            assert _min_dual_one(lin, bound) == best, (lin, bound)
    assert signs == {True, False}
    assert branches == {"two roots, a > 0", "two roots, a < 0", "double root", "linear", "column"}
    assert both_sides


def test_integer_solutions_reject_rank_0_and_4():
    for gram, linear in (
        ([], ()),
        ([(1,)], (0,)),
        (IntMatrix.identity(4).rows, (0,) * 4),
        ([(0,) * 4] * 4, (1, 0, 0, 1)),
        # the number of rows must equal the length of linear
        ([(1, 0), (0, 1)], (0,)),
        ([(1,)], (0, 0)),
        (IntMatrix.identity(3).rows, (0, 0)),
    ):
        with pytest.raises(ValueError):
            integer_solutions(gram, linear, 1, 1)
        with pytest.raises(ValueError):
            next(solutions_by_shell(gram, linear, 1, 1))


# ---------------------------------------------------------------------------
# isometry testing


def test_isometry_l26_vs_hyperbolic_splitting():
    L26 = kuznetsov_rank3_lattice(26)
    target = direct_sum([hyperbolic_plane(), z_lattice(-26)])
    res = is_isometric_small(L26, target)
    assert res.status == ISOMETRIC
    T = res.map
    assert (T.transpose() @ L26.gram @ T) == target.gram
    assert determinant(T) in (1, -1)


def test_isometry_checks_the_witness_before_returning_it(monkeypatch):
    # the identity does not carry L26 to U + Z(-26)
    monkeypatch.setattr(lattices, "_search_isometry", lambda g1, g2, bound: IntMatrix.identity(3))
    target = direct_sum([hyperbolic_plane(), z_lattice(-26)])
    with pytest.raises(RuntimeError, match="internal error: .* is not an isometry"):
        is_isometric_small(kuznetsov_rank3_lattice(26), target)


def test_isometry_l42_vs_hyperbolic_splitting():
    L42 = kuznetsov_rank3_lattice(42)
    target = direct_sum([hyperbolic_plane(), z_lattice(-42)])
    res = is_isometric_small(L42, target)
    assert res.status == ISOMETRIC
    assert (res.map.transpose() @ L42.gram @ res.map) == target.gram


def _diag(*entries):
    n = len(entries)
    return Lattice(n, IntMatrix([[e if i == j else 0 for j in range(n)] for i, e in enumerate(entries)]))


@pytest.mark.parametrize(
    "L1, L2, reason",
    [
        (z_lattice(1), hyperbolic_plane(), "rank"),
        # the signature differs too: the determinant is compared first
        (a2(), hyperbolic_plane(), "determinant"),
        # the parity differs too: the group is compared first
        (_diag(1, 4), _diag(2, 2), "discriminant_group"),
        (_diag(1, 1, -4), _diag(1, 2, -2), "discriminant_group"),
        (a2(), twist(a2(), -1), "signature"),
    ],
    ids=["rank", "determinant", "group-rank2", "group-rank3", "signature"],
)
def test_isometry_prescreen_reasons(L1, L2, reason):
    res = is_isometric_small(L1, L2)
    assert (res.status, res.reason, res.map) == (NOT_ISOMETRIC, reason, None)


def test_isometry_identity_fast_path():
    res = is_isometric_small(hyperbolic_plane(), hyperbolic_plane())
    assert res.map == IntMatrix.identity(2)


def test_isometry_parity_prescreen():
    # I(1,1) and U share rank, determinant, signature and discriminant
    # group, but U is even and I(1,1) is odd.
    res = is_isometric_small(odd_unimodular(1, 1), hyperbolic_plane())
    assert (res.status, res.reason, res.map) == (NOT_ISOMETRIC, "parity", None)
    # the same for U + Z(2) against a conjugate of I(1,1) + Z(2) with max
    # entry 67, where a box search would scan up to 3 * 67 before giving up
    Q = IntMatrix([[7, 0, -2], [0, 1, 0], [-3, 0, 1]])
    odd = direct_sum([odd_unimodular(1, 1), z_lattice(2)])
    odd = Lattice(3, Q.transpose() @ odd.gram @ Q)
    assert odd.gram.max_abs() == 67
    res = is_isometric_small(direct_sum([hyperbolic_plane(), z_lattice(2)]), odd)
    assert (res.status, res.reason) == (NOT_ISOMETRIC, "parity")


def test_isometry_not_found_within_bound():
    # both odd, indefinite of signature (1, 1), det -10 with group Z/10,
    # yet 2x^2 - 5y^2 = 1 has no solution mod 5: no witness exists, and an
    # indefinite box search cannot prove it
    res = is_isometric_small(
        Lattice(2, IntMatrix([[1, 0], [0, -10]])), Lattice(2, IntMatrix([[2, 0], [0, -5]]))
    )
    assert res.status == NOT_FOUND_WITHIN_BOUND
    assert res.map is None


def test_isometry_indefinite_box_is_capped():
    # equal rank, determinant, signature, cyclic group and parity (both odd);
    # uncapped, the box would grow to 3 * 1002
    diag = lambda *d: Lattice(3, IntMatrix([[d[i] if i == j else 0 for j in range(3)] for i in range(3)]))
    start = time.perf_counter()
    res = is_isometric_small(diag(1, 1, -1002), diag(1, 2, -501))
    assert (res.status, res.map) == (NOT_FOUND_WITHIN_BOUND, None)
    assert time.perf_counter() - start < 5


def test_isometry_definite_exhaustive():
    # both odd, positive definite, det 5 with group Z/5, yet 1 is a norm
    # of the first and not of the second; radius 1 holds every column
    res = is_isometric_small(
        Lattice(2, IntMatrix([[1, 0], [0, 5]])), Lattice(2, IntMatrix([[2, 1], [1, 3]]))
    )
    assert (res.status, res.reason, res.map) == (NOT_ISOMETRIC, "exhaustive", None)


def fincke_pohst_radius(L1, L2):
    """Largest |x_i| with x^T G1 x = G2_jj in a definite lattice, from sympy's adjugate."""
    G = sp.Matrix(L1.gram.to_lists())
    adj, det = G.adjugate(), G.det()
    return max(
        math.isqrt(math.floor(sp.Rational(L2.gram.rows[j][j] * adj[i, i], det)))
        for i in range(L1.rank)
        for j in range(L1.rank)
    )


def definite_pairs(rng, count):
    """Seeded pairs of definite rank-2/3 lattices with equal invariants.

    Random positive definite Grams (diagonal 1-6, off-diagonal up to 3),
    negated half the time, are bucketed by rank, determinant, signature,
    discriminant group and parity.  A pair is a Gram with an earlier
    distinct Gram of its bucket, or, every third pair, with a conjugate.
    """
    buckets = {}
    while count:
        n = rng.randint(2, 3)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.randint(1, 6)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        if ldlt_signature(IntMatrix(g))[:3] != (n, 0, 0):
            continue
        L = Lattice(n, IntMatrix(g).scale(rng.choice((1, -1))))
        if count % 3 == 0:
            Q = random_unimodular(rng, n, steps=rng.randint(1, 6))
            other = Lattice(n, Q.transpose() @ L.gram @ Q)
        else:
            parity = all(g[i][i] % 2 == 0 for i in range(n))
            key = (invariants(L), parity)
            bucket = buckets.setdefault(key, [])
            other = next((M for M in bucket if M != L), None)
            bucket.insert(0, L)
            if other is None:
                continue
        count -= 1
        yield L, other


def test_isometry_definite_pairs_are_decided():
    exhaustive = 0
    for L1, L2 in definite_pairs(random.Random(14), 600):
        res = is_isometric_small(L1, L2)
        assert res.status != NOT_FOUND_WITHIN_BOUND, (L1.gram, L2.gram)
        if res.status == ISOMETRIC:
            assert (res.map.transpose() @ L1.gram @ res.map) == L2.gram
        else:
            assert res.reason == "exhaustive", (L1.gram, L2.gram)
            exhaustive += 1
            box = fincke_pohst_radius(L1, L2) + 2
            assert _search_isometry(L1.gram, L2.gram, box) is None, (L1.gram, L2.gram)
    assert exhaustive >= 10


def test_isometry_rank_and_degenerate_rejection():
    with pytest.raises(ValueError):
        is_isometric_small(e8(), e8())
    bad = Lattice(2, IntMatrix([[1, 1], [1, 1]]))
    with pytest.raises(DegenerateGramError):
        is_isometric_small(bad, hyperbolic_plane())
    res = is_isometric_small(a2(), hyperbolic_plane())
    assert res.status == NOT_ISOMETRIC


def congruent_pairs(rng, count):
    """Seeded pairs (G, Q^t G Q) of rank 1-3, in both orientations.

    The bases are Z(n), A2, U, U + Z(e) (zero diagonal entries) and
    random Grams; every fifth pair takes a heavier congruence of 3-9
    steps with coefficients up to 3, whose witness can exceed the entries
    of the smaller Gram.  Above rank 1 the two Grams differ.
    """
    bases = [z_lattice(-26), z_lattice(3), a2(), hyperbolic_plane()]
    for e in (-26, -14, -3, -2, -1, 1, 2, 5, 8):
        bases.append(direct_sum([hyperbolic_plane(), z_lattice(e)]))
    while len(bases) < 60:
        n = rng.randint(2, 3)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        if determinant(IntMatrix(g)) != 0:
            bases.append(Lattice(n, IntMatrix(g)))
    for case in range(count):
        L = cong = bases[case % len(bases)]
        while cong == L and L.rank > 1:
            if case % 5 == 0:
                Q = random_unimodular(rng, L.rank, steps=rng.randint(3, 9), coef=3)
            else:
                Q = random_unimodular(rng, L.rank, steps=rng.randint(1, 6))
            cong = Lattice(L.rank, Q.transpose() @ L.gram @ Q)
        yield (L, cong) if case % 2 else (cong, L)


def test_isometry_random_congruence():
    for L1, L2 in congruent_pairs(random.Random(42), 1500):
        res = is_isometric_small(L1, L2)
        assert res.status == ISOMETRIC, (L1.gram, L2.gram)
        T = res.map
        assert (T.transpose() @ L1.gram @ T) == L2.gram


def test_isometry_deterministic():
    L26 = kuznetsov_rank3_lattice(26)
    target = direct_sum([hyperbolic_plane(), z_lattice(-26)])
    r1 = is_isometric_small(L26, target)
    r2 = is_isometric_small(L26, target)
    assert r1.map == r2.map


#: the witness of each pair of ``witness_pairs``, in order
PINNED_WITNESSES = [
    ((1, -1, 0), (0, 1, 0), (0, -1, -1)),
    ((0, 1, 0), (1, 1, 0), (0, -1, 1)),
    ((2, -5, 0), (-1, 2, 0), (0, 0, -1)),
    ((-1, -2, 0), (0, 1, 0), (0, 1, 1)),
    ((0, -1, 0), (-1, 0, 0), (0, 2, 1)),
    ((0, 1, 1), (1, 0, 0), (0, 0, -1)),
    ((0, 1, 1), (-1, 1, -1), (0, 0, 1)),
    ((1, -1, 3), (-1, 0, -2), (0, 0, -1)),
    ((1, 0, 0), (0, 1, 0), (0, -1, -1)),
    ((0, 1, 0), (1, 0, 0), (0, -1, -1)),
    ((1, 2, -1), (2, 4, -1), (0, -1, 1)),
    ((-1, 0, 0), (2, -1, 1), (2, 0, -1)),
    ((-1, 0, 0), (0, -1, 1), (0, 0, -1)),
    ((0, -1, 0), (-1, 0, 0), (1, 2, 1)),
    ((1, -2, -2), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (1, 0, 0), (-1, 0, 1)),
    ((4, 5, -2), (1, 0, 0), (-2, -2, 1)),
    ((0, 1, 2), (1, 0, 0), (0, 0, -1)),
    ((1, 0, 0), (0, 1, 0), (0, 1, -1)),
    ((0, -1, 0), (-1, 0, 0), (0, 2, 1)),
]


def witness_pairs():
    """20 seeded pairs (G, Q^t G Q) of rank 3 with distinct Grams, in both orientations.

    The bases are U + Z(-d), A2 + Z(n) and two positive definite Grams.
    """
    bases = [direct_sum([hyperbolic_plane(), z_lattice(-d)]) for d in (2, 14, 26)]
    bases += [direct_sum([a2(), z_lattice(n)]) for n in (-3, 1, 6)]
    bases += [
        Lattice(3, IntMatrix(g))
        for g in ([[2, 1, 0], [1, 2, 1], [0, 1, 4]], [[3, 1, 1], [1, 3, 1], [1, 1, 5]])
    ]
    rng = random.Random(15)
    for case in range(len(PINNED_WITNESSES)):
        L = cong = bases[case % len(bases)]
        while cong == L:
            Q = random_unimodular(rng, 3, steps=rng.randint(2, 5))
            cong = Lattice(3, Q.transpose() @ L.gram @ Q)
        yield (L, cong) if case % 2 else (cong, L)


def test_isometry_witnesses_are_pinned():
    # the search order decides which witness comes first; pin it exactly
    for (L1, L2), rows in zip(witness_pairs(), PINNED_WITNESSES):
        res = is_isometric_small(L1, L2)
        assert (res.status, res.map.rows) == (ISOMETRIC, rows), (L1.gram, L2.gram)
    # the slowest isometry queries of the triple-search benchmark
    for d, rows in (
        (26, ((1, 2, -11), (-1, 0, 4), (1, 1, -7))),
        (42, ((1, 2, -14), (-2, -1, 14), (-1, -1, 9))),
    ):
        target = direct_sum([hyperbolic_plane(), z_lattice(-d)])
        res = is_isometric_small(kuznetsov_rank3_lattice(d), target)
        assert (res.status, res.map.rows) == (ISOMETRIC, rows), d


def test_isometry_exhaustive_when_every_branch_is_pruned():
    # <1, 2, 3> and <1, 1, 6>: det 6, group Z/6, both odd, yet only one has
    # two orthogonal vectors of norm 1.  Every column has candidates, so it
    # is the pairing filter that ends each branch.
    L1, L2 = (direct_sum([z_lattice(n) for n in diag]) for diag in ((1, 2, 3), (1, 1, 6)))
    assert all(vectors_with_norm(L1.gram, c, 6) for c in (1, 6))
    res = is_isometric_small(L1, L2)
    assert (res.status, res.reason) == (NOT_ISOMETRIC, "exhaustive")


def first_witness_by_product(g1, g2, bound):
    """The witness ``_search_isometry`` must return, without its search.

    The columns are taken in the docstring's order (list length, then
    column), the first one pinned to its ``sign_normalize`` form, and the
    answer is the first tuple of ``itertools.product`` over the
    ``vectors_with_norm`` lists whose pairings all equal g2's.
    """
    n = g1.nrows
    lists = [vectors_with_norm(g1, g2.rows[j][j], bound) for j in range(n)]
    order = sorted(range(n), key=lambda j: (len(lists[j]), j))
    lists[order[0]] = [x for x in lists[order[0]] if sign_normalize(x) == x]
    pairs = [(a, b, g2.rows[order[a]][order[b]]) for a in range(n) for b in range(a + 1, n)]
    for cols in itertools.product(*(lists[j] for j in order)):
        if all(dot(cols[a], g1.mul_vec(cols[b])) == p for a, b, p in pairs):
            T = dict(zip(order, cols))
            return IntMatrix([[T[j][i] for j in range(n)] for i in range(n)], ncols=n)
    return None


def isometry_search_cases(rng, count):
    """Seeded (G1, G2, b) of rank 2 and 3 with b in 1..4.

    First the non-isometric pairs with equal invariants <1,2,3> / <1,1,6>
    and <1,5> / [[2,1],[1,3]] (definite), and <1,-10> / <2,-5>
    (indefinite), both ways round.  Then G1 runs over U, A2, U + Z(e)
    (zero diagonal entries) and random nondegenerate Grams with entries up
    to 3, definite and indefinite.  Every third G2 is another Gram of G1's
    bucket (rank, invariants, parity), when there is one, which may or may
    not be isometric to G1; the rest are conjugates Q^t G1 Q.
    """
    fixed = [
        (direct_sum([z_lattice(n) for n in (1, 2, 3)]), direct_sum([z_lattice(n) for n in (1, 1, 6)])),
        (Lattice(2, IntMatrix([[1, 0], [0, 5]])), Lattice(2, IntMatrix([[2, 1], [1, 3]]))),
        (Lattice(2, IntMatrix([[1, 0], [0, -10]])), Lattice(2, IntMatrix([[2, 0], [0, -5]]))),
    ]
    bases = [hyperbolic_plane(), a2()]
    bases += [direct_sum([hyperbolic_plane(), z_lattice(e)]) for e in (-26, -6, -2, -1, 1, 3)]
    while len(bases) < 80:
        n = rng.randint(2, 3)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        if determinant(IntMatrix(g)) != 0:
            bases.append(Lattice(n, IntMatrix(g)))

    def bucket(L):
        return L.rank, lattices.invariants(L), all(L.gram.rows[i][i] % 2 == 0 for i in range(L.rank))

    buckets = {}
    for L in bases:
        buckets.setdefault(bucket(L), []).append(L)
    for case in range(count):
        if case < 2 * len(fixed):
            L1, L2 = fixed[case // 2][:: 1 - 2 * (case % 2)]
        else:
            L1 = bases[case % len(bases)]
            others = [M for M in buckets[bucket(L1)] if M != L1]
            if case % 3 == 0 and others:
                L2 = rng.choice(others)
            else:
                Q = random_unimodular(rng, L1.rank, steps=rng.randint(1, 6))
                L2 = Lattice(L1.rank, Q.transpose() @ L1.gram @ Q)
        yield L1.gram, L2.gram, rng.randint(1, 4)


def test_isometry_search_returns_the_first_witness_of_the_product():
    counts = {"rank 2": 0, "found": 0, "none": 0}
    for g1, g2, b in isometry_search_cases(random.Random(38), 1200):
        want = first_witness_by_product(g1, g2, b)
        assert _search_isometry(g1, g2, b) == want, (g1, g2, b)
        counts["rank 2"] += g1.nrows == 2
        counts["found" if want is not None else "none"] += 1
    assert counts["rank 2"] >= 400 and counts["found"] >= 800 and counts["none"] >= 200, counts


# ---------------------------------------------------------------------------
# catalog and file format


def test_lattice_by_name():
    assert lattice_by_name("Gamma").rank == 22
    assert lattice_by_name("K3").rank == 22
    assert lattice_by_name("Mukai").rank == 24
    assert lattice_by_name("I21_2").rank == 23
    assert lattice_by_name("Lambda_26").gram.rows[-1][-1] == -26
    assert lattice_by_name("U") == hyperbolic_plane()
    with pytest.raises(ValueError):
        lattice_by_name("nonsense")


def test_lattice_by_name_strips_ascii_whitespace_only():
    assert lattice_by_name(" K3\t") == lattice_by_name("K3")
    assert lattice_by_name("\n\r\f\vL26 ") == lattice_by_name("L26")
    # Unicode spaces are padding no file name or pattern accepts
    for name in ("\xa0K3", "K3\u3000", "\u2028L26", "\u2003Z(5)", "L42\x85"):
        with pytest.raises(ValueError, match="^unknown lattice name"):
            lattice_by_name(name)


#: the catalog names without an argument, one per held lattice
FIXED_NAMES = ("E8", "U", "A2", "Gamma", "K3", "Mukai", "I21_2", "L26", "L42")


def held_lattices():
    """How many objects ``lattices._held_entry`` holds: here, where no
    command line runs, the lattices ``lattice_by_name`` holds."""
    return lattices._held_entry.cache_info().currsize


def test_fixed_catalog_names_are_built_once():
    assert held_lattices() == 0
    assert lattice_by_name(" k3\t") is lattice_by_name("K3") == k3_lattice()
    assert k3_lattice() is not k3_lattice()
    fixed = [(name, build) for name, pattern, build, _ in lattices.CATALOG if not pattern.groups]
    assert [name for name, _ in fixed] == list(FIXED_NAMES)
    for name, build in fixed:
        held, fresh = lattice_by_name(name), build()
        assert held is lattice_by_name(name.lower()) is lattice_by_name(f" {name.upper()}\n")
        # the builder builds anew what the catalog holds
        assert fresh == held and fresh.label == held.label and fresh is not held
    assert held_lattices() == len(FIXED_NAMES)
    assert lattice_by_name("Lambda_26") is not lattice_by_name("Lambda_26")
    assert lattice_by_name("Z(5)") is not lattice_by_name("Z(5)")
    with pytest.raises(ValueError):
        kuznetsov_rank3_lattice(14)
    assert held_lattices() == len(FIXED_NAMES)


def test_parametrized_names_hold_nothing():
    for name in FIXED_NAMES:
        lattice_by_name(name)
    rng = random.Random(34)
    names = {f"Z({rng.choice((-1, 1)) * rng.randint(1, 10**6)})" for _ in range(400)}
    names |= {f"Lambda_{rng.randint(1, 10**6)}" for _ in range(300)}
    names |= {f"I({p},{q})" for p in range(20) for q in range(20) if p + q}
    assert len(names) >= 1000
    for name in names:
        lattice_by_name(name)
    assert held_lattices() == len(FIXED_NAMES)


def test_invariants_of_a_lattice_are_computed_once(monkeypatch):
    passes = []

    def counted(gram):
        passes.append(gram)
        return ldlt_signature(gram)

    monkeypatch.setattr(lattices, "ldlt_signature", counted)
    L = lattice_by_name("Mukai")
    first = lattices.invariants(L)
    assert lattices.invariants(L) is first and lattices.invariants(lattice_by_name("mukai")) is first
    assert first == ((20, 4), 1, DiscriminantGroup(()))
    assert len(passes) == 1
    # a lattice built anew computes its own
    assert lattices.invariants(Lattice(L.rank, L.gram)) == first
    assert len(passes) == 2


def test_invariants_errors_are_not_kept():
    degenerate = Lattice(2, IntMatrix([[1, 1], [1, 1]]))
    for _ in range(2):
        with pytest.raises(DegenerateGramError):
            lattices.invariants(degenerate)
    assert degenerate._invariants is None


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter prints integers of any length"
)
def test_kept_invariants_obey_the_digit_limit_of_each_call():
    # det = 10^700 + 1 prints under the limit 4300, not under the lowest, 640
    L = Lattice(1, IntMatrix([[10**700 + 1]]))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        kept = lattices.invariants(L)
        assert kept[1] == 10**700 + 1 and L._invariants is kept
        sys.set_int_max_str_digits(640)
        for _ in range(2):
            with pytest.raises(ValueError, match="too long to print"):
                lattices.invariants(L)
        sys.set_int_max_str_digits(0)  # no limit
        assert lattices.invariants(L) is kept
    finally:
        sys.set_int_max_str_digits(limit)


def test_readme_catalog_table_lists_the_catalog():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Catalog names understood")[1].split("\n\n")[1]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()[2:]]
    assert rows == [[f"`{name}`", description] for name, _, _, description in lattices.CATALOG]


def test_lattice_equality_ignores_label():
    a = Lattice(2, IntMatrix([[0, 1], [1, 0]]), label="U")
    b = Lattice(2, IntMatrix([[0, 1], [1, 0]]))
    assert a == b and hash(a) == hash(b)
    assert a != Lattice(2, IntMatrix([[0, 1], [1, 2]]), label="U")


def test_file_roundtrip_is_bit_exact():
    for L in (a2(), cubic_lattice(), kuznetsov_rank3_lattice(26)):
        text = lattice_to_json(L)
        back = lattice_from_json(text)
        assert back == L
        assert back.label == L.label
        assert lattice_to_json(back) == text


def test_file_roundtrip_via_disk(tmp_path):
    from cubiclat.lattices import load_lattice, save_lattice

    path = tmp_path / "l26.json"
    L = kuznetsov_rank3_lattice(26)
    save_lattice(L, str(path))
    assert load_lattice(str(path)) == L


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_load_lattice_closes_its_descriptor_on_every_path(tmp_path):
    # a raw descriptor left open raises no ResourceWarning, so count them
    good, not_utf8 = tmp_path / "u.json", tmp_path / "bad.json"
    lattices.save_lattice(hyperbolic_plane(), str(good))
    not_utf8.write_bytes(b'{"rank": 1, "gram": [[1]], "label": "\xff"}')
    before = len(os.listdir("/dev/fd"))
    assert load_lattice(str(good)) == hyperbolic_plane()
    for path, reason in [(not_utf8, "codec"), (tmp_path, "not a regular file"), (os.devnull, "not a regular file")]:
        with pytest.raises(LatticeFormatError, match=reason):
            load_lattice(str(path))
    assert len(os.listdir("/dev/fd")) == before


# nesting past the interpreter's recursion limit, an integer past its digit limit
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000
HUGE_INT = "1" + "0" * 5000


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        '{"gram": [[0, 1], [1, 0]]}',
        '{"rank": 2}',
        '{"rank": "2", "gram": [[0, 1], [1, 0]]}',
        '{"rank": 2, "gram": [[0, 1], [1, "x"]]}',
        '{"rank": 2, "gram": [[0, 1], [1, 0]], "label": 3}',
        '{"rank": 3, "gram": [[0, 1], [1, 0]]}',
        '{"rank": 2, "gram": [[0, 1], [2, 0]]}',
        '{"rank": 2, "gram": [[0, 1, 2], [1, 0, 3]]}',
        pytest.param(DEEPLY_NESTED, id="deeply-nested"),
        pytest.param('{"rank": 1, "gram": [[' + HUGE_INT + "]]}", id="huge-integer"),
        '{"rank": 1, "gram": [[true]]}',
        '{"rank": 1, "gram": [[1.5]]}',
    ],
)
def test_file_parse_errors(text):
    with pytest.raises(LatticeFormatError):
        lattice_from_json(text)


def test_file_digit_ceiling_holds_under_any_interpreter_limit():
    from cubiclat.lattices import MAX_INT_DIGITS

    longest = "-" + "9" * MAX_INT_DIGITS
    assert lattice_from_json('{"rank": 1, "gram": [[' + longest + "]]}").rank == 1
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(0)  # no interpreter limit at all
    try:
        with pytest.raises(LatticeFormatError) as info:
            lattice_from_json('{"rank": 1, "gram": [[' + "9" * 5000 + "]]}")
    finally:
        if set_limit:
            set_limit(old)
    assert "set_int_max_str_digits" not in str(info.value)


def test_file_rank_ceiling_fires_before_any_matrix_is_built(monkeypatch):
    import json

    from cubiclat import lattices
    from cubiclat.lattices import MAX_RANK

    class Built(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Built

    def doc(rank, gram):
        return json.dumps({"rank": rank, "gram": gram})

    identity = [[int(i == j) for j in range(MAX_RANK)] for i in range(MAX_RANK)]
    assert lattice_from_json(doc(MAX_RANK, identity)).rank == MAX_RANK
    monkeypatch.setattr(lattices, "IntMatrix", refuse)
    over = MAX_RANK + 1
    for text in (
        doc(over, [[0] * over for _ in range(over)]),  # rank and gram over
        doc(over, []),  # the declared rank alone
        doc(1, [[1]] * over),  # too many rows
        doc(1, [[1] * over]),  # a row too long
    ):
        with pytest.raises(LatticeFormatError, match="rank at most"):
            lattice_from_json(text)
    with pytest.raises(Built):
        lattice_from_json(doc(MAX_RANK, identity))


def test_catalog_rank_ceiling_fires_before_any_matrix_is_built(monkeypatch):
    from cubiclat import lattices
    from cubiclat.lattices import MAX_RANK

    class Built(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Built

    assert lattice_by_name(f"I({MAX_RANK},0)").rank == MAX_RANK
    assert odd_unimodular(MAX_RANK + 1, 0).rank == MAX_RANK + 1
    monkeypatch.setattr(lattices, "IntMatrix", refuse)
    for name in (f"I({MAX_RANK + 1},0)", f"I(0,{MAX_RANK + 1})", f"I({MAX_RANK},1)", "I(100000,0)"):
        with pytest.raises(ValueError, match=f"p \\+ q <= {MAX_RANK}"):
            lattice_by_name(name)
    with pytest.raises(Built):
        lattice_by_name(f"I({MAX_RANK},0)")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no interpreter digit limit"
)
def test_catalog_digit_ceiling_fires_before_int_conversion():
    from cubiclat.lattices import MAX_INT_DIGITS

    nines = "9" * MAX_INT_DIGITS
    limit = sys.get_int_max_str_digits()
    # at the lowest limit the interpreter allows, int() itself would refuse 641 digits
    sys.set_int_max_str_digits(MAX_INT_DIGITS)
    try:
        assert lattice_by_name(f"Lambda_{nines}").gram.rows[-1][-1] == -int(nines)
        assert lattice_by_name(f"Z(-{nines})").gram.rows == ((-int(nines),),)
        for name in (f"Lambda_{nines}9", f"Z(-{nines}9)", f"I({nines}9,0)", f"I(0,{'9' * 5000})"):
            with pytest.raises(ValueError, match=f"^integer with more than {MAX_INT_DIGITS} digits$"):
                lattice_by_name(name)
    finally:
        sys.set_int_max_str_digits(limit)


def test_file_length_ceiling_fires_before_parsing(tmp_path):
    from cubiclat.lattices import _MAX_FILE_CHARS, MAX_INT_DIGITS, MAX_RANK

    entry = -(10**MAX_INT_DIGITS - 1)
    longest = Lattice(MAX_RANK, IntMatrix([[entry] * MAX_RANK for _ in range(MAX_RANK)]))
    assert 2 * len(lattice_to_json(longest)) <= _MAX_FILE_CHARS
    path = tmp_path / "spaces.json"
    path.write_text(" " * _MAX_FILE_CHARS)
    with pytest.raises(LatticeFormatError, match="invalid JSON at line 1"):
        load_lattice(str(path))
    path.write_text(" " * (_MAX_FILE_CHARS + 1))
    with pytest.raises(LatticeFormatError, match=f"at most {_MAX_FILE_CHARS} characters"):
        load_lattice(str(path))
