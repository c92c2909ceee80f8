"""Exact-rational computer algebra for finite-dimensional hom 3-Lie algebras.

Submodules
----------
linalg           rational vectors, matrices, canonical subspaces
algebras         the core algebra type, identity verifiers, quotients
fixtures         the bundled example algebras
derivations      twisted derivation spaces and the derivation extension
representations  modules, adjoint/dual actions, semidirect products
extensions       cocycles, theta-extensions, dual-space extensions, forms
structure        series, solvability, isotropic geometry, reconstruction
io               JSON codecs
cli              the ``hom3lie`` command
"""

from .algebras import (
    AlgebraReport,
    Hom3LieAlgebra,
    Violation,
    direct_sum,
    graph,
    is_ideal,
    is_morphism,
    is_subalgebra,
    quotient,
    subspace_bracket,
    verify_hom_jacobi,
    verify_multiplicative,
    verify_regular,
)
from .derivations import (
    DerivationExtension,
    DerivationSpace,
    commutator,
    derivation_extension,
    derivation_space,
    fixed_space,
    inner_derivation,
    inner_space,
    is_alpha_k_derivation,
)
from .extensions import (
    BilinForm,
    Cocycle,
    coboundary,
    cyclic_part,
    hyperbolic_form,
    is_isometry,
    semidirect_product,
    shift_isomorphism,
    t_star_extension,
    t_theta_extension,
    theta_cyclic_ok,
    verify_cocycle,
    verify_metric,
)
from .linalg import (
    Mat,
    Subspace,
    Vec,
    inverse,
    nullspace,
    rank,
    rat,
    rref,
    solve,
    subspace_contains,
    subspace_leq,
    subspace_sum,
)
from .representations import (
    Representation,
    adjoint_rep,
    coadjoint_rep,
    dual_rep,
    verify_representation,
)
from .structure import (
    ReconstructionResult,
    SeriesResult,
    is_isotropic,
    is_nilpotent,
    is_solvable,
    isotropic_complement,
    reconstruct_t_star,
    series,
    tstar_solvability_check,
)

__version__ = "0.1.0"
