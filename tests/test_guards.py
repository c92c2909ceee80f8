"""Argument guards of the library API: each raises its own exception with
its own message before any work is done, and the equality of ``Vec`` and
``Mat`` with another type is False rather than an error.  A report has a
``<check>_ok`` only for the checks that ran."""

import re

import pytest

from hom3lie.algebras import (Hom3LieAlgebra, Report, graph, is_morphism, is_subalgebra, subspace_bracket,
                              verify_axioms)
from hom3lie.derivations import DerivationSpace, is_alpha_k_derivation
from hom3lie.errors import DimensionMismatch
from hom3lie.extensions import (BilinForm, Cocycle, cyclic_part, hyperbolic_form, is_isometry,
                                theta_cyclic_ok, verify_metric)
from hom3lie.fixtures import l3, n4
from hom3lie.linalg import Mat, Subspace, Vec, inverse, subspace_contains, subspace_leq
from hom3lie.representations import Representation
from hom3lie.structure import is_isotropic, series

L, N = l3(), n4()
FULL3, FULL4 = Subspace.full(3), Subspace.full(4)
RECT = Mat.from_rows([[1, 0, 0], [0, 1, 0]])

GUARDS = [
    ("twist-not-square", DimensionMismatch, "twist must be a square matrix of the algebra dimension",
     lambda: Hom3LieAlgebra(3, {}, RECT)),
    ("twist-stable-ambient", DimensionMismatch, "subspace ambient dimension does not match the algebra",
     lambda: is_subalgebra(L, FULL4)),
    ("morphism-shape", DimensionMismatch, "morphism candidate has the wrong shape",
     lambda: is_morphism(RECT, L, N)),
    ("graph-shape", DimensionMismatch, "graph candidate has the wrong shape",
     lambda: graph(RECT, L, N)),
    ("subspace-bracket-ambient", DimensionMismatch, "subspace ambient dimension does not match the algebra",
     lambda: subspace_bracket(L, FULL3, FULL3, FULL4)),
    ("derivation-shape", DimensionMismatch, "derivation candidate has the wrong shape",
     lambda: is_alpha_k_derivation(L, RECT, 0)),
    ("derivation-space-shape", DimensionMismatch, "derivation candidate has the wrong shape",
     lambda: DerivationSpace(0, 3, Subspace.full(9)).contains(Mat.identity(2))),
    ("cocycle-shapes", DimensionMismatch, "cocycle shapes differ",
     lambda: Cocycle.zero(3, 3) + Cocycle.zero(3, 2)),
    ("gram-shape", DimensionMismatch, "Gram matrix must be square of the stated dimension",
     lambda: BilinForm(3, Mat.identity(2))),
    ("cyclicity-module", DimensionMismatch, "cyclicity concerns cocycles with values in L*",
     lambda: theta_cyclic_ok(L, Cocycle.zero(3, 2))),
    ("cyclic-part-module", DimensionMismatch, "cyclic projection concerns cocycles with values in L*",
     lambda: cyclic_part(Cocycle.zero(3, 2))),
    ("isometry-dimensions", DimensionMismatch, "isometry candidates must share one dimension",
     lambda: is_isometry(L, hyperbolic_form(2), N, hyperbolic_form(2), Mat.identity(4))),
    ("module-twist-shape", DimensionMismatch, "module twist must be square of the module dimension",
     lambda: Representation(3, 2, Mat.identity(3), {})),
    ("series-steps", ValueError, "max_steps must be at least 1",
     lambda: series(L, "derived", max_steps=0)),
    ("isotropic-dimensions", DimensionMismatch, "form and subspace dimensions differ",
     lambda: is_isotropic(hyperbolic_form(2), FULL3)),
    ("from-rows-empty", DimensionMismatch, "empty matrix needs an explicit column count",
     lambda: Mat.from_rows([])),
    ("from-cols-empty", DimensionMismatch, "empty matrix needs at least one column",
     lambda: Mat.from_cols([])),
    ("add-shapes", DimensionMismatch, "matrix shapes differ",
     lambda: Mat.identity(2) + RECT),
    ("matmul-shapes", DimensionMismatch, "cannot multiply 2x3 by 2x3",
     lambda: RECT @ RECT),
    ("apply-shapes", DimensionMismatch, "cannot apply 2x3 to length-2",
     lambda: RECT.apply(Vec.of(1, 1))),
    ("power-not-square", DimensionMismatch, "powers need a square matrix",
     lambda: RECT.power(2)),
    ("power-singular", ValueError, "negative power of a singular matrix",
     lambda: Mat.zero(2, 2).power(-1)),
    ("inverse-not-square", DimensionMismatch, "inverse needs a square matrix",
     lambda: inverse(RECT)),
    ("span-length", DimensionMismatch, "generator length does not match ambient dimension",
     lambda: Subspace.span(3, [Vec.of(1, 0)])),
    ("contains-length", DimensionMismatch, "vector length does not match ambient dimension",
     lambda: subspace_contains(FULL3, Vec.of(1, 0))),
    ("leq-ambient", DimensionMismatch, "ambient dimensions differ",
     lambda: subspace_leq(FULL3, FULL4)),
]


@pytest.mark.parametrize("exc, message, call", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_guards_raise_their_exception_and_message(exc, message, call):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_vec_and_mat_are_unequal_to_other_types():
    assert (Vec.of(1) == 1) is False
    assert (Mat.identity(1) == 1) is False


def test_a_report_has_no_flag_attribute_for_a_check_that_did_not_run():
    with pytest.raises(AttributeError):
        Report({"symmetric": True, "nondegenerate": True, "invariant": True}).metric_ok
    with pytest.raises(AttributeError):
        verify_axioms(L).regular_ok
    assert verify_axioms(L).hom_jacobi_ok is True


def test_twist_invariance_does_not_enter_ok():
    stretched = Hom3LieAlgebra(3, {}, Mat.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    report = verify_metric(stretched, BilinForm(3, Mat.identity(3)))
    assert report.flags == {"symmetric": True, "nondegenerate": True, "invariant": True,
                            "twist_invariant": False}
    assert report.ok
