"""Tests for exact integer/rational linear algebra.

The determinant oracle used here is recursive Laplace expansion, kept
deliberately independent of the Bareiss implementation under test.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubiclat.cohomology import CohClass
from cubiclat.errors import DegenerateGramError
from cubiclat.exactlinalg import (
    IntMatrix,
    determinant,
    dot,
    invariant_factors_mod,
    kernel_basis,
    ldlt_signature,
    sign_normalize,
    smith_normal_form,
    xgcd,
)
from cubiclat.lattices import Lattice, discriminant_group, invariants, signature


def laplace_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


def random_matrix(rng, nrows, ncols, lim=20):
    return IntMatrix([[rng.randint(-lim, lim) for _ in range(ncols)] for _ in range(nrows)])


def random_unimodular(rng, n, steps=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.randint(-2, 2)
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5 and n > 1:
        m[0], m[1] = m[1], m[0]
    return IntMatrix(m)


def snf_diag(D):
    return [D.rows[t][t] for t in range(min(D.nrows, D.ncols))]


# ---------------------------------------------------------------------------
# xgcd


def test_xgcd_basics():
    for a, b in [(0, 0), (0, 5), (5, 0), (12, 18), (-12, 18), (7, -3), (1, 1)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert a * x + b * y == g
    assert g >= 0


# ---------------------------------------------------------------------------
# smith normal form


def test_snf_identity_is_canonical():
    I3 = IntMatrix.identity(3)
    D, U, V = smith_normal_form(I3)
    assert D == I3 and U == I3 and V == I3


def test_snf_zero_matrix():
    Z = IntMatrix([[0, 0], [0, 0]])
    D, U, V = smith_normal_form(Z)
    assert D == Z
    assert U == IntMatrix.identity(2)
    assert V == IntMatrix.identity(2)


def test_snf_a2_gram():
    # hand row reduction gives diag(1, 3); the product equals |det| = 3
    M = IntMatrix([[2, -1], [-1, 2]])
    D, U, V = smith_normal_form(M)
    assert snf_diag(D) == [1, 3]
    assert (U @ M @ V) == D


def test_snf_rectangular_and_zero_rows():
    M = IntMatrix([[2, 4, 6]])
    D, U, V = smith_normal_form(M)
    assert snf_diag(D) == [2]
    assert (U @ M @ V) == D
    M0 = IntMatrix([], ncols=4)
    D, U, V = smith_normal_form(M0)
    assert D.nrows == 0 and V == IntMatrix.identity(4)


def test_snf_random_reconstruction():
    rng = random.Random(20260810)
    for _ in range(400):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        M = random_matrix(rng, nr, nc)
        D, U, V = smith_normal_form(M)
        assert (U @ M @ V) == D
        assert abs(laplace_det([list(r) for r in U.rows])) == 1
        assert abs(laplace_det([list(r) for r in V.rows])) == 1
        diag = snf_diag(D)
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x != 0]
        assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # off-diagonal of D vanishes
        assert all(
            D.rows[i][j] == 0
            for i in range(nr)
            for j in range(nc)
            if i != j
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_property(nr, nc, data):
    rows = [
        [data.draw(st.integers(-20, 20)) for _ in range(nc)] for _ in range(nr)
    ]
    M = IntMatrix(rows)
    D, U, V = smith_normal_form(M)
    assert (U @ M @ V) == D


# ---------------------------------------------------------------------------
# determinant


def test_determinant_examples():
    assert determinant(IntMatrix([[0, 1], [1, 0]])) == -1
    assert determinant(IntMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, 8]])) == 26
    assert determinant(IntMatrix([[-26]])) == -26


def test_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_determinant_of_the_empty_matrix_is_one():
    assert determinant(IntMatrix([])) == 1


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: dot((1, 2), (1, 2, 3)), "vector length mismatch", id="dot-lengths"),
        pytest.param(lambda: IntMatrix([[1, 2]], ncols=3), "ncols does not match", id="ncols"),
        pytest.param(lambda: IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]]), "dimension mismatch", id="matmul"),
        pytest.param(lambda: IntMatrix([[1, 2]]).mul_vec((1,)), "dimension mismatch", id="mul-vec"),
    ],
)
def test_shape_preconditions_raise(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_non_square_matrix_is_not_symmetric():
    assert not IntMatrix([[1, 0, 0], [0, 1, 0]]).is_symmetric()


def test_determinant_against_laplace_oracle():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 5)
        M = random_matrix(rng, n, n, lim=9)
        assert determinant(M) == laplace_det([list(r) for r in M.rows])


def test_determinant_equals_snf_product_up_to_sign():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        M = random_matrix(rng, n, n, lim=8)
        det = determinant(M)
        if det == 0:
            continue
        D, _, _ = smith_normal_form(M)
        prod = 1
        for x in snf_diag(D):
            prod *= x
        assert abs(det) == prod


# ---------------------------------------------------------------------------
# kernels and saturation


def test_kernel_examples():
    assert kernel_basis(IntMatrix.identity(3)) == []
    assert kernel_basis(IntMatrix([], ncols=3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel_basis(IntMatrix([[1, 1]])) == [(1, -1)]
    # saturation: the kernel of [[2, 4]] is generated by the primitive (2, -1)
    assert kernel_basis(IntMatrix([[2, 4]])) == [(2, -1)]


def test_kernel_annihilates_and_is_saturated():
    rng = random.Random(17)
    for _ in range(120):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        M = random_matrix(rng, nr, nc, lim=6)
        basis = kernel_basis(M)
        for v in basis:
            assert M.mul_vec(v) == (0,) * nr
        if basis:
            stacked = IntMatrix(basis, ncols=nc)
            D, _, _ = smith_normal_form(stacked)
            assert all(x == 1 for x in snf_diag(D) if x != 0)
            assert all(x == 1 for x in snf_diag(D)[: len(basis)])


# ---------------------------------------------------------------------------
# signatures


def test_ldlt_examples():
    assert ldlt_signature(IntMatrix([[0, 1], [1, 0]])) == (1, 1, 0, -1)
    from cubiclat.lattices import e8

    assert ldlt_signature(e8().gram) == (8, 0, 0, 1)
    assert ldlt_signature(IntMatrix([[0]])) == (0, 0, 1, 0)
    assert ldlt_signature(IntMatrix([])) == (0, 0, 0, 1)


def test_ldlt_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        ldlt_signature(IntMatrix([[0, 1], [2, 0]]))


def test_ldlt_counts_sum_to_dimension():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        M = random_matrix(rng, n, n, lim=5)
        sym = IntMatrix(
            [[M.rows[i][j] + M.rows[j][i] for j in range(n)] for i in range(n)]
        )
        p, m, z, det = ldlt_signature(sym)
        assert p + m + z == n
        assert (det == 0) == (z > 0)


def test_ldlt_congruence_invariance():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        M = random_matrix(rng, n, n, lim=5)
        sym = IntMatrix(
            [[M.rows[i][j] + M.rows[j][i] for j in range(n)] for i in range(n)]
        )
        Q = random_unimodular(rng, n)
        cong = Q.transpose() @ sym @ Q
        assert ldlt_signature(sym) == ldlt_signature(cong)


def test_ldlt_rational_entries():
    # diag(1/2, -2/3) scaled by 6: the same inertia
    G = IntMatrix([[3, 0], [0, -4]])
    assert ldlt_signature(G) == (1, 1, 0, -12)


def test_ldlt_hyperbolic_pivot_needs_column_swap():
    # zero diagonal, off-diagonal pair in a non-adjacent position
    G = IntMatrix([[0, 0, 1], [0, 0, 2], [1, 2, 0]])
    assert ldlt_signature(G) == (1, 1, 1, 0)


def test_ldlt_hyperbolic_pivot_needs_row_swap():
    # the first nonzero off-diagonal entry sits below the working row
    G = IntMatrix([[0, 0, 0], [0, 0, 3], [0, 3, 0]])
    assert ldlt_signature(G) == (1, 1, 1, 0)
    G4 = IntMatrix(
        [[0, 0, 0, 0], [0, 0, 0, 5], [0, 0, 2, 0], [0, 5, 0, 0]]
    )
    assert ldlt_signature(G4) == (2, 1, 1, 0)


def fraction_ldlt_signature(rows):
    """Reference: symmetric reduction over the rationals with hyperbolic 2x2 pivots.

    Returns (positives, negatives, zeros, det): the swaps and the Schur
    complements keep the determinant, so det is the product of the pivots
    and of -b^2 for each hyperbolic block [[0, b], [b, 0]].
    """
    n = len(rows)
    a = [[Fraction(e) for e in row] for row in rows]
    pos = neg = zero = 0
    det = Fraction(1)
    t = 0

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    while t < n:
        piv = next((k for k in range(t, n) if a[k][k] != 0), None)
        if piv is not None:
            if piv != t:
                swap(t, piv)
            p = a[t][t]
            det *= p
            if p > 0:
                pos += 1
            else:
                neg += 1
            for i in range(t + 1, n):
                f = a[i][t] / p
                if f == 0:
                    continue
                for j in range(t + 1, n):
                    a[i][j] -= f * a[t][j]
            for i in range(t + 1, n):
                a[i][t] = Fraction(0)
                a[t][i] = Fraction(0)
            t += 1
            continue
        off = None
        for i in range(t, n):
            for j in range(i + 1, n):
                if a[i][j] != 0:
                    off = (i, j)
                    break
            if off:
                break
        if off is None:
            zero += n - t
            break
        i, j = off
        if i != t:
            swap(t, i)
            # the nonzero entry may have moved; locate it again in row t
            j = next(k for k in range(t + 1, n) if a[t][k] != 0)
        if j != t + 1:
            swap(t + 1, j)
        b = a[t][t + 1]
        # block [[0, b], [b, 0]] contributes signature (1, 1)
        pos += 1
        neg += 1
        det *= -b * b
        for i in range(t + 2, n):
            c0 = a[i][t + 1] / b
            c1 = a[i][t] / b
            if c0 == 0 and c1 == 0:
                continue
            for j in range(t + 2, n):
                a[i][j] -= c0 * a[t][j] + c1 * a[t + 1][j]
        for i in range(t + 2, n):
            a[i][t] = a[i][t + 1] = Fraction(0)
            a[t][i] = a[t + 1][i] = Fraction(0)
        t += 2
    return (pos, neg, zero, 0 if zero else int(det))


def descartes_inertia(rows):
    """Inertia from the characteristic polynomial by Descartes' rule of signs.

    The rule counts positive roots exactly when every root is real, which
    holds for the eigenvalues of a symmetric matrix.  The determinant is
    (-1)^n times the constant coefficient of det(x I - A).
    """
    import sympy

    coeffs = sympy.Matrix(rows).charpoly().all_coeffs()
    n = len(coeffs) - 1
    last = max(k for k, c in enumerate(coeffs) if c != 0)

    def sign_changes(cs):
        nonzero = [c for c in cs if c != 0]
        return sum((a > 0) != (b > 0) for a, b in zip(nonzero, nonzero[1:]))

    flipped = [c * (-1) ** (n - k) for k, c in enumerate(coeffs)]
    return (sign_changes(coeffs), sign_changes(flipped), n - last, (-1) ** n * int(coeffs[-1]))


def random_symmetric(rng, n):
    """Symmetric n x n matrix of one of four kinds, entries up to 10^6."""
    lim = rng.choice((1, 3, 100, 10**6))
    kind = rng.choice(("dense", "sparse", "zero-diagonal", "degenerate"))
    if kind == "degenerate":
        # B^T D B with B of k < n rows: rank at most k
        k = rng.randint(0, n - 1)
        blim = min(lim, 30)
        B = [[rng.randint(-blim, blim) for _ in range(n)] for _ in range(k)]
        D = [rng.choice((-1, 0, 1)) * rng.randint(1, 1000) for _ in range(k)]
        return [
            [sum(B[r][i] * D[r] * B[r][j] for r in range(k)) for j in range(n)]
            for i in range(n)
        ]
    density = 0.25 if kind == "sparse" else 1.0
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i != j or kind != "zero-diagonal") and rng.random() < density:
                a[i][j] = a[j][i] = rng.randint(-lim, lim)
    return a


def test_ldlt_matches_fraction_reference():
    rng = random.Random(20261018)
    for case in range(2000):
        # every 20th matrix has rank up to 24; the rest stay small and fast
        n = rng.randint(1, 24) if case % 20 == 0 else rng.randint(1, 8)
        rows = random_symmetric(rng, n)
        assert ldlt_signature(IntMatrix(rows)) == fraction_ldlt_signature(rows), rows


def test_ldlt_matches_descartes_on_charpoly():
    rng = random.Random(6)
    for _ in range(150):
        rows = random_symmetric(rng, rng.randint(1, 6))
        assert ldlt_signature(IntMatrix(rows)) == descartes_inertia(rows), rows


# ---------------------------------------------------------------------------
# unimodular inverse


def test_inverse_unimodular():
    # U Q V = I from the Smith form gives Q^-1 = V U
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        Q = random_unimodular(rng, n)
        D, U, V = smith_normal_form(Q)
        assert D == IntMatrix.identity(n)
        assert (Q @ (V @ U)) == IntMatrix.identity(n)
    D, _, _ = smith_normal_form(IntMatrix([[2]]))
    assert D != IntMatrix.identity(1)


# ---------------------------------------------------------------------------
# independent oracle, and the three readers of one elimination


def test_snf_discriminant_group_and_determinant_match_sympy():
    # sympy computes invariant factors and determinants with its own code
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(6)
    for case in range(80):
        # every 20th matrix has rank up to 24, the rest stay small: with U
        # and V carried, one rank-23 Gram with entries below 100 takes 7 s
        n = rng.randint(13, 24) if case % 20 == 0 else rng.randint(1, 12)
        rows = random_symmetric(rng, n)
        M = IntMatrix(rows)
        factors = [int(x) for x in invariant_factors(Matrix(rows), domain=ZZ)]
        D, _, _ = smith_normal_form(M)
        assert snf_diag(D) == factors, rows
        assert determinant(M) == Matrix(rows).det(), rows
        if 0 in factors:
            with pytest.raises(DegenerateGramError):
                discriminant_group(Lattice(n, M))
        else:
            assert discriminant_group(Lattice(n, M)).factors == tuple(
                x for x in factors if x > 1
            ), rows


def test_invariant_factors_mod_and_bareiss_det_match_sympy():
    # without U and V, every rank up to 24 is cheap; the kernel is valid
    # for any modulus D with D * Z^n inside G * Z^n, so |det| times 3 and
    # the largest factor alone must give the same factors as |det|
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(25)
    degenerate = noncyclic = 0
    for _ in range(100):
        n = rng.randint(1, 24)
        rows = random_symmetric(rng, n)
        M = IntMatrix(rows)
        det = ldlt_signature(M)[3]
        assert det == determinant(M) == Matrix(rows).det(), rows
        if det == 0:
            degenerate += 1
            with pytest.raises(DegenerateGramError):
                discriminant_group(Lattice(n, M))
            with pytest.raises(DegenerateGramError):
                invariants(Lattice(n, M))
            continue
        factors = tuple(int(x) for x in invariant_factors(Matrix(rows), domain=ZZ) if x > 1)
        noncyclic += len(factors) > 1
        for D in (abs(det), 3 * abs(det), max(factors, default=1)):
            assert invariant_factors_mod(M, D) == factors, (rows, D)
        L = Lattice(n, M)
        assert discriminant_group(L).factors == factors
        sig, inv_det, group = invariants(L)
        assert (sig, inv_det, group.factors) == (signature(L), Matrix(rows).det(), factors), rows
    assert degenerate >= 10 and noncyclic >= 10


def test_invariant_factors_mod_one_on_unimodular_conjugates_matches_sympy():
    # D = 1 returns () before any reduction; sympy's Smith form of each
    # seeded conjugate Q^T G Q of a unimodular Gram has units only
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    from cubiclat.lattices import e8, k3_lattice, middle_lattice, mukai_lattice, odd_unimodular

    rng = random.Random(34)
    bases = [L.gram for L in (e8(), k3_lattice(), mukai_lattice(), middle_lattice(), odd_unimodular(12, 12))]
    bases += [IntMatrix([[rng.choice((-1, 1)) if i == j else 0 for j in range(n)] for i in range(n)]) for n in range(1, 9)]
    for base in bases:
        Q = random_unimodular(rng, base.nrows)
        G = Q.transpose() @ base @ Q
        assert abs(ldlt_signature(G)[3]) == 1
        snf = sympy_snf(Matrix(G.to_lists()), domain=ZZ)
        assert [abs(int(snf[i, i])) for i in range(G.nrows)] == [1] * G.nrows, G
        assert invariant_factors_mod(G, 1) == ()


def test_invariant_factors_mod_examples():
    assert invariant_factors_mod(IntMatrix([[2, 0], [0, 3]]), 6) == (6,)
    assert invariant_factors_mod(IntMatrix([[2, 4], [4, 2]]), 12) == (2, 6)
    # an entry that is zero modulo D gives the factor D
    assert invariant_factors_mod(IntMatrix([[5]]), 5) == (5,)
    assert invariant_factors_mod(IntMatrix([[0, 1], [1, 0]]), 1) == ()
    assert invariant_factors_mod(IntMatrix([]), 1) == ()
    with pytest.raises(ValueError):
        invariant_factors_mod(IntMatrix([[2]]), 0)
    with pytest.raises(ValueError):
        invariant_factors_mod(IntMatrix([[1, 2]]), 1)


def test_kernel_and_discriminant_group_agree_with_full_snf():
    # kernel_basis reads only V and discriminant_group only D; both must
    # match what smith_normal_form returns with all three transforms
    rng = random.Random(11)
    for _ in range(300):
        nr, nc = rng.randint(0, 6), rng.randint(0, 6)
        rows = random_matrix(rng, nr, nc, lim=rng.choice((1, 9, 10**6))).to_lists()
        if nr and rng.random() < 0.3:
            rows[rng.randrange(nr)] = [0] * nc
        if nr > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(nr), 2)
            rows[i] = [rng.randint(-3, 3) * x for x in rows[j]]
        M = IntMatrix(rows, ncols=nc)
        D, _, V = smith_normal_form(M)
        rank = sum(1 for x in snf_diag(D) if x != 0)
        trailing = [
            sign_normalize([V.rows[i][j] for i in range(nc)]) for j in range(rank, nc)
        ]
        assert kernel_basis(M) == trailing, rows

        n = rng.randint(1, 8)
        G = IntMatrix(random_symmetric(rng, n))
        diag = snf_diag(smith_normal_form(G)[0])
        if 0 in diag:
            with pytest.raises(DegenerateGramError):
                discriminant_group(Lattice(n, G))
        else:
            assert discriminant_group(Lattice(n, G)).factors == tuple(
                x for x in diag if x > 1
            )


def dense_gram(seed, n):
    """Symmetric n x n Gram with entries in [-4, 4], upper triangle row by row."""
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-4, 4)
    return IntMatrix(rows)


def test_discriminant_group_does_not_carry_transforms():
    # a dense rank-40 Gram with entries in [-4, 4]: carrying U and V over Z
    # took 7.3 s on one 2-vCPU host.  The group needs no transforms, and
    # modulo |det| no entry grows past the 135-bit |det|, so it takes
    # about 0.02 s there
    L = Lattice(40, dense_gram(4, 40))
    start = time.perf_counter()
    group = discriminant_group(L)
    assert time.perf_counter() - start < 1.5
    assert math.prod(group.factors) == abs(determinant(L.gram))


def test_discriminant_group_dense_grams_have_no_cliff():
    # over Z these took 0.04 s to more than 400 s per seed at rank 40, and
    # rank 64 ran past 100 s; modulo |det| the 15 seeds took 0.26 s in all
    # and rank 64 took 0.09 s on a 2-vCPU host
    lattices = [Lattice(40, dense_gram(seed, 40)) for seed in range(1, 16)]
    start = time.perf_counter()
    groups = [discriminant_group(L) for L in lattices]
    assert time.perf_counter() - start < 3
    for L, group in zip(lattices, groups):
        assert math.prod(group.factors) == abs(determinant(L.gram))
    L = Lattice(64, dense_gram(1, 64))
    start = time.perf_counter()
    group = discriminant_group(L)
    assert time.perf_counter() - start < 2
    assert math.prod(group.factors) == abs(determinant(L.gram))


def test_sign_normalize():
    assert sign_normalize((0, -2, 1)) == (0, 2, -1)
    assert sign_normalize((0, 0)) == (0, 0)
    assert sign_normalize((3, -1)) == (3, -1)


@pytest.mark.parametrize(
    "make, same, field, text",
    [
        pytest.param(
            lambda: IntMatrix([[1, 2], [2, 1]]),
            lambda: IntMatrix(((1, 2), (2, 1)), ncols=2),
            "rows",
            "IntMatrix([[1, 2], [2, 1]])",
            id="IntMatrix",
        ),
        pytest.param(
            lambda: IntMatrix([[1]]),
            lambda: IntMatrix([(1,)], ncols=1),
            "rows",
            "IntMatrix([[1]])",
            id="IntMatrix-1x1",
        ),
        pytest.param(
            lambda: CohClass([1, 2]),
            lambda: CohClass([Fraction(1), 2, 0, 0, 0]),
            "coeffs",
            "1 + 2 h",
            id="CohClass",
        ),
        pytest.param(
            lambda: CohClass([1]),
            lambda: CohClass([1, 0, 0, 0, 0]),
            "coeffs",
            "1",
            id="CohClass-padded",
        ),
    ],
)
def test_value_types_compare_hash_and_refuse_assignment(make, same, field, text):
    a, b = make(), same()
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert (a == 0) is False and a != 0
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert repr(a) == text
