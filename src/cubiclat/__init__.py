"""cubiclat: exact lattice arithmetic for special cubic fourfolds.

The package computes, in exact integer and rational arithmetic, the
lattice-theoretic and intersection-theoretic data attached to special
cubic fourfolds and their associated K3 surfaces: admissibility of
discriminants, discriminant groups and signatures of the standard
lattices, the Euler pairing on the Mukai vectors of the Kuznetsov
component, isotropic triples and their hyperbolic normalization, and
the codimension-3 cycle relations of the characteristic surfaces
(plane, Veronese surface, quartic scroll, 3-nodal septic scroll).
"""

from .admissibility import (
    DiscriminantReport,
    discriminant_report,
    enumerate_admissible,
    genus_of_discriminant,
    satisfies_star,
    satisfies_star_star,
)
from .chow import (
    Chow3Class,
    GdchGenerators,
    PushforwardRelation,
    QuadraticForm6,
    SURFACES,
    SurfaceSpec,
    gdch_generators,
    label_gram,
    pushforward_relation,
    quartic_scroll_minors,
    restricted_pushforward,
    scroll_membership,
    scroll_parameterization,
)
from .cohomology import (
    CohClass,
    dual,
    euler_pairing,
    integral,
    lambda_class,
    lambda_gram,
)
from .errors import (
    CubiclatError,
    DegenerateGramError,
    LatticeFormatError,
    ParityError,
)
from .exactlinalg import (
    IntMatrix,
    determinant,
    kernel_basis,
    ldlt_signature,
    smith_normal_form,
)
from .lattices import (
    DiscriminantGroup,
    IsometryResult,
    Lattice,
    LatticeVec,
    a2,
    cubic_lattice,
    direct_sum,
    e8,
    hyperbolic_plane,
    hyperplane_square,
    inner_product,
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
    save_lattice,
    twist,
    z_lattice,
)
from .mukai import (
    IsotropicTriple,
    TripleCheck,
    TripleSearch,
    find_isotropic_triple,
    hyperbolic_normalize,
    verify_triple,
)

__version__ = "0.1.0"
