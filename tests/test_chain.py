"""The paper's chain for each characteristic surface, from its invariants to U + Z(-d).

Two checks that do not trust the constants of ``chow.SURFACES``:

* R^2 by the double-point formula.  On a surface S in a cubic fourfold X,
  c(T_X) = (1 + h)^6 / (1 + 3h) = 1 + 3h + 6h^2, so
  S^2 = c_2(N_{S/X}) = 6 delta + 3 H.K + K^2 - e(S), and each improper
  double point adds 2 (Fulton, *Intersection Theory*, 9.3).  Adjunction
  gives H.K = 2g - 2 - delta for the sectional genus g.
* The chain: the label Gram gives the discriminant d, (**) decides it, and
  the rank-3 lattice A_d of determinant d, built here from its closed form
  (Addington-Thomas, Duke Math. J. 163 (2014)), holds an isotropic triple
  whose hyperbolic plane splits A_d as U + Z(-d).  The septic scroll is the
  paper's genus-14 step.
"""

import pytest

from cubiclat.admissibility import genus_of_discriminant, satisfies_star_star
from cubiclat.chow import SURFACES, label_gram
from cubiclat.exactlinalg import IntMatrix, determinant
from cubiclat.lattices import Lattice, kuznetsov_rank3_lattice
from cubiclat.mukai import FOUND, find_isotropic_triple, hyperbolic_normalize

#: sectional genus, K^2, topological Euler number, improper double points
INVARIANTS = {
    "plane": (0, 9, 3, 0),
    "veronese": (0, 9, 3, 0),
    "quartic-scroll": (0, 8, 4, 0),
    "septic-scroll": (0, 8, 4, 3),
}

#: discriminant, (**) with its witness, and the genus d/2 + 1 of a found triple
CHAIN = {
    "plane": (8, (False, 2), None),
    "veronese": (20, (False, 2), None),
    "quartic-scroll": (14, (True, None), 8),
    "septic-scroll": (26, (True, None), 14),
}


def double_point_square(degree, genus, k_squared, euler, nodes):
    hk = 2 * genus - 2 - degree
    return 6 * degree + 3 * hk + k_squared - euler + 2 * nodes


def rank3_lattice(d):
    """A_d: [[-2,1,0],[1,-2,1],[0,1,(d-2)/3]] for d = 2 (mod 6), A2(-1) + <d/3> for d = 0 (mod 6)."""
    if d % 6 == 2:
        return Lattice(3, IntMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, (d - 2) // 3]]))
    assert d % 6 == 0
    return Lattice(3, IntMatrix([[-2, 1, 0], [1, -2, 0], [0, 0, d // 3]]))


def test_rr_by_double_point_formula():
    derived = {name: double_point_square(SURFACES[name].degree, *INVARIANTS[name]) for name in SURFACES}
    assert derived == {name: spec.rr for name, spec in SURFACES.items()}
    assert derived == {"plane": 3, "veronese": 12, "quartic-scroll": 10, "septic-scroll": 25}


def test_closed_form_gives_the_builtin_lattices():
    for d in (26, 42):
        assert rank3_lattice(d).gram == kuznetsov_rank3_lattice(d).gram
    assert all(determinant(rank3_lattice(d).gram) == d for d in range(8, 1000, 2) if d % 6 in (0, 2))


@pytest.mark.parametrize("name", list(SURFACES))
def test_chain_from_label_gram_to_hyperbolic_split(name):
    spec = SURFACES[name]
    d, star_star, genus = CHAIN[name]
    assert label_gram(spec.degree, spec.rr)[1] == d
    assert satisfies_star_star(d) == star_star
    L = rank3_lattice(d)
    result = find_isotropic_triple(L, d, 20)
    if genus is None:
        # not a proof yet: d fails (**), and no triple lies in the box
        assert result.status != FOUND
        return
    assert result.status == FOUND
    _, gram = hyperbolic_normalize(L, result.triple.v, result.triple.vprime)
    assert gram == IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -d]])
    assert genus_of_discriminant(d) == genus
