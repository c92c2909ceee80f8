import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_vec
from hom3lie.algebras import Hom3LieAlgebra, verify_hom_jacobi, verify_multiplicative
from hom3lie.errors import DimensionMismatch, RepresentationInvalid
from hom3lie.extensions import semidirect_product
from hom3lie.fixtures import a4, ab3, l3, n4
from hom3lie.linalg import Mat, Vec
from hom3lie.representations import (
    Representation,
    adjoint_rep,
    coadjoint_rep,
    dual_rep,
    verify_representation,
)


def e13():
    return Mat.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def test_rho_apply_examples():
    r = adjoint_rep(l3())
    e = lambda i: Vec.basis(3, i)
    assert r.apply(e(0), e(0)).is_zero()
    assert r.apply(e(0), e(1)) == e13()
    assert r.apply(e(0).scale(2), e(1)) == e13().scale(2)
    assert r.apply(e(1), e(0)) == -e13()
    with pytest.raises(DimensionMismatch):
        r.apply(Vec.basis(4, 0), e(1))


# an action of a 3-dimensional algebra on a 2-dimensional module: its
# block lives on L + V of dimension 5, with module indices 3 and 4
MODULE_E1 = Vec.basis(5, 3)


@pytest.mark.parametrize("key", [(0, 3), (1, 0), (2, 2), (-1, 1), (0, 1, 2)])
@pytest.mark.parametrize("value", [MODULE_E1, Vec.zero(5)], ids=["nonzero", "zero"])
def test_action_keys_must_be_increasing_pairs_in_range(key, value):
    block_key = (*key, 3)
    message = f"action key {block_key} is not strictly increasing in range"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        Representation(3, 2, Mat.identity(2), {(0, 1, 3): MODULE_E1, block_key: value})


@pytest.mark.parametrize("key", [(0, 3, 4), (0, 1, 2)], ids=["second-module-index", "no-module-index"])
@pytest.mark.parametrize("value", [MODULE_E1, Vec.zero(5)], ids=["nonzero", "zero"])
def test_action_keys_must_pair_two_algebra_indices_with_a_module_index(key, value):
    message = f"action value for {key} lies outside the [L, L, V] block"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        Representation(3, 2, Mat.identity(2), {key: value})


def test_action_values_must_lie_in_the_module_coordinates():
    message = "action value for (0, 1, 3) lies outside the [L, L, V] block"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        Representation(3, 2, Mat.identity(2), {(0, 1, 3): MODULE_E1 + Vec.basis(5, 2)})


def test_action_values_must_have_the_length_of_l_plus_v():
    with pytest.raises(DimensionMismatch, match=re.escape("action value for (0, 1, 3) has the wrong length")):
        Representation(3, 2, Mat.identity(2), {(0, 1, 3): Vec.basis(4, 3)})


def test_adjoint_values():
    assert adjoint_rep(ab3()).table == {}
    assert adjoint_rep(l3()).rho_basis(0, 1) == e13()
    n4_ad = adjoint_rep(n4())
    expected = Mat.from_cols([Vec.zero(4), Vec.zero(4), Vec.basis(4, 3), Vec.zero(4)])
    assert n4_ad.rho_basis(0, 1) == expected


def test_zero_action_is_a_representation():
    r = Representation(3, 2, Mat.identity(2), {})
    assert verify_representation(ab3(), r).ok


def test_a_module_of_dimension_zero_is_a_representation_of_a_non_multiplicative_algebra():
    # (R1) checks only the triples with a module index, and there are none
    L = Hom3LieAlgebra(3, l3().table, Mat.identity(3).scale(2))
    assert not verify_multiplicative(L).multiplicative_ok
    assert verify_representation(L, Representation(3, 0, Mat.zero(0, 0), {})).ok


def test_adjoint_verifies_on_all_fixtures(algebras):
    for name, L in algebras.items():
        assert verify_representation(L, adjoint_rep(L)).ok, name


def test_twist_identity_can_fail():
    # adjoint table of L3 but with a module twist that no longer intertwines
    base = adjoint_rep(l3())
    bad = Representation(3, 3, Mat.diagonal([2, 1, 1]), dict(base.table))
    report = verify_representation(l3(), bad)
    assert report.twist_ok is False
    assert report.ok is False


def test_dual_examples():
    r = adjoint_rep(l3())
    d = dual_rep(r)
    assert d.rho_basis(0, 1) == -e13().transpose()
    assert dual_rep(d).table == r.table
    assert dual_rep(d).twist == r.twist
    z = Representation(3, 2, Mat.identity(2), {})
    assert dual_rep(z).table == {}


def test_coadjoint_module_status_is_per_instance(algebras):
    # duals of the adjoint verify except for the twisted non-abelian fixture
    expected_fail = {"L3h2"}
    for name, L in algebras.items():
        ok = verify_representation(L, coadjoint_rep(L)).ok
        assert ok == (name not in expected_fail), name


def test_semidirect_zero_action_is_abelian():
    r = Representation(3, 2, Mat.identity(2), {})
    s = semidirect_product(ab3(), r)
    assert s.dim == 5 and not s.table


def test_semidirect_adjoint_full_verification():
    for L in (l3(), n4(), a4()):
        s = semidirect_product(L, adjoint_rep(L))
        assert verify_hom_jacobi(s).hom_jacobi_ok
        assert verify_multiplicative(s).multiplicative_ok


def test_semidirect_components():
    L = l3()
    s = semidirect_product(L, adjoint_rep(L))
    e = lambda i: Vec.basis(6, i)
    # L-component reproduces L's bracket
    assert s.bracket(e(0), e(1), e(2)) == Vec.of(1, 0, 0, 0, 0, 0)
    # three module arguments vanish
    assert s.bracket(e(3), e(4), e(5)).is_zero()
    # mixed: rho(e1, e2) acting on the module copy of e3
    assert s.bracket(e(0), e(1), e(5)) == Vec.of(0, 0, 0, 1, 0, 0)


def test_semidirect_rejects_a_non_representation():
    bad = Representation(3, 3, Mat.diagonal([2, 1, 1]), dict(adjoint_rep(l3()).table))
    with pytest.raises(RepresentationInvalid):
        semidirect_product(l3(), bad)


def test_semidirect_table_is_skew_consistent():
    # build the bracket by the literal formula on ordered triples and
    # compare with the skew extension of the stored table
    L = a4()
    r = adjoint_rep(L)
    s = semidirect_product(L, r)
    n, m = 4, 4

    def literal(i, j, k):
        def split(t):
            if t < n:
                return Vec.basis(n, t), Vec.zero(m)
            return Vec.zero(n), Vec.basis(m, t - n)

        (u, x), (v, y), (w, z) = split(i), split(j), split(k)
        alg = L.bracket(u, v, w)
        mod = r.apply(u, v).apply(z) + r.apply(w, u).apply(y) + r.apply(v, w).apply(x)
        return alg.concat(mod)

    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert s.bracket_basis(i, j, k) == literal(i, j, k)


@given(st.integers(0, 2**32 - 1))
def test_rho_apply_is_bilinear_and_alternating(seed):
    rng = random.Random(seed)
    r = adjoint_rep(a4())
    x, y, z = (random_vec(rng, 4) for _ in range(3))
    assert r.apply(x, x).is_zero()
    assert r.apply(x, y) == -r.apply(y, x)
    assert r.apply(x + z, y) == r.apply(x, y) + r.apply(z, y)
    assert r.apply(x.scale(3), y) == r.apply(x, y).scale(3)
