import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_elimination
import dense_oracle as oracle
from conftest import random_mat
from hom3lie.algebras import Hom3LieAlgebra, direct_sum, increasing_triples, verify_regular
from hom3lie.derivations import (
    DerivationExtension,
    _leibniz,
    commutator,
    derivation_extension,
    derivation_space,
    fixed_space,
    inner_derivation,
    inner_space,
    is_alpha_k_derivation,
    twist_power,
)
from hom3lie.errors import DimensionMismatch, FixedPointRequired, RegularTwistRequired
from hom3lie.fixtures import ab3, ab3s, catalog, l3, l3h, n4
from hom3lie.linalg import Mat, Subspace, Vec, rational


def elementary(n, r, c):
    rows = [[1 if (i, j) == (r, c) else 0 for j in range(n)] for i in range(n)]
    return Mat.from_rows(rows)


def naive_derivation_space(L, k):
    """Second elimination path: the defining identities by brute force.

    The system is linear in D, so its column for the entry (r, c) is the
    residual of the elementary matrix E_rc: D a - a D entrywise, then
    D B_ijk less the three twisted brackets on every increasing triple,
    each evaluated densely.  The kernel comes from the dense oracle.
    """
    n = L.dim
    ak = L.twist.power(k)
    cols = []
    for r, c in itertools.product(range(n), repeat=2):
        d = elementary(n, r, c)
        res = list((d @ L.twist - L.twist @ d).entries)
        for i, j, kk in increasing_triples(n):
            res += d.apply(L.bracket_basis(i, j, kk)) - (
                L.bracket(d.col(i), ak.col(j), ak.col(kk))
                + L.bracket(ak.col(i), d.col(j), ak.col(kk))
                + L.bracket(ak.col(i), ak.col(j), d.col(kk)))
        cols.append(res)
    return dense_elimination.nullspace(Mat.from_rows([list(row) for row in zip(*cols)]))


def coprime_algebras():
    """Regular algebras with the bracket over 3 and the twist over 7.

    Yau twists of L3 and N4, their brackets divided by 3, by automorphisms
    of determinant one that fix the bracket's image, and their direct sum:
    grade-k systems with k != 0 then clear B and a^k by coprime scales.
    """
    m2 = Mat.from_rows([[1, "1/7"], ["2/7", "51/49"]])
    m3 = Mat.from_rows([[1, "1/7", "3/7"], [0, 1, "2/7"], [0, 0, 1]])
    l3c = Hom3LieAlgebra(3, {(0, 1, 2): Vec.of("1/3", 0, 0)}, Mat.identity(1).block_diag(m2))
    n4c = Hom3LieAlgebra(4, {(0, 1, 2): Vec.of(0, 0, 0, "1/3")}, m3.block_diag(Mat.identity(1)))
    return [l3c, n4c, direct_sum(l3c, n4c)]


def test_derivation_space_dimensions_with_oracle():
    cases = [(ab3(), 0, 9), (ab3s(), 0, 3), (l3(), 0, 6)]
    for L, k, expected in cases:
        space = derivation_space(L, k)
        assert space.dimension == expected
        assert space.as_subspace == naive_derivation_space(L, k)
        # elementary-matrix census agrees with the solved space
        n = L.dim
        for r in range(n):
            for c in range(n):
                d = elementary(n, r, c)
                assert is_alpha_k_derivation(L, d, k) == space.contains(d)


@pytest.mark.parametrize("k", [-1, 0, 1, 2])
def test_derivation_space_is_the_brute_force_nullspace_on_coprime_scales(k):
    for L in coprime_algebras():
        assert verify_regular(L).regular_ok
        space = derivation_space(L, k)
        assert space.as_subspace == naive_derivation_space(L, k)
        assert all(is_alpha_k_derivation(L, d, k) for d in space.basis)


def test_derivation_space_keeps_each_kind_of_candidate_triple():
    """derivation_space visits only the triples with B_ijk != 0 or a nonzero
    twisted action at one of their pairs.  The zero twist at k = 1 leaves
    B_012 with no action.  L3 on e1, e3, e4 with e2 central puts its actions
    in the first and the middle pair of (2, 3, 4) and (1, 2, 3), and L3 + ab3
    in the last pair of (1, 2, 4); each fixes an entry of D e2 or D e4 that no
    other triple reaches."""
    gap = Hom3LieAlgebra(4, {(0, 2, 3): Vec.of(1, 0, 0, 0)}, Mat.identity(4))
    zero = Hom3LieAlgebra(3, l3().table, Mat.zero(3, 3))
    for L, k in ((zero, 1), (gap, 0), (direct_sum(l3(), ab3()), 0)):
        assert derivation_space(L, k).as_subspace == naive_derivation_space(L, k)


def test_derivation_space_members_pass_and_nonmembers_fail():
    rng = random.Random(5)
    for L in (l3(), l3h(2), n4()):
        space = derivation_space(L, 0)
        for d in space.basis:
            assert is_alpha_k_derivation(L, d, 0)
            assert d @ L.twist == L.twist @ d
        combo = Mat.zero(L.dim, L.dim)
        for d in space.basis:
            combo = combo + d.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        assert is_alpha_k_derivation(L, combo, 0)
        assert space.contains(combo)
        for _ in range(5):
            outside = random_mat(rng, L.dim, L.dim)
            if not space.contains(outside):
                assert not is_alpha_k_derivation(L, outside, 0)
                break


def test_is_alpha_k_derivation_examples():
    assert is_alpha_k_derivation(ab3(), Mat.from_rows([[1, 2, 0], [0, 0, 1], [5, 0, 0]]), 0)
    assert is_alpha_k_derivation(ab3s(), Mat.diagonal([1, 2, 3]), 0)
    assert not is_alpha_k_derivation(l3(), elementary(3, 1, 0), 0)
    with pytest.raises(RegularTwistRequired):
        is_alpha_k_derivation(l3h(0), Mat.identity(3), -1)
    assert derivation_space(ab3s(), -1).dimension == 3


def test_fixed_space_examples():
    assert fixed_space(l3()) == Subspace.full(3)
    assert fixed_space(ab3s()).dim == 0
    assert fixed_space(l3h(2)) == Subspace.span(3, [Vec.basis(3, 1), Vec.basis(3, 2)])


def test_inner_derivation_examples():
    d = inner_derivation(l3(), Vec.basis(3, 0), Vec.basis(3, 1), 0)
    assert d == elementary(3, 0, 2)
    assert inner_derivation(ab3(), Vec.basis(3, 0), Vec.basis(3, 1), 0).is_zero()
    with pytest.raises(FixedPointRequired):
        inner_derivation(ab3s(), Vec.basis(3, 0), Vec.basis(3, 1), 0)


def test_inner_derivations_land_one_grade_up(algebras):
    for name, L in algebras.items():
        fixed = fixed_space(L)
        for k in (0, 1):
            for u, v in itertools.combinations(fixed.basis, 2):
                d = inner_derivation(L, u, v, k)
                assert is_alpha_k_derivation(L, d, k + 1), (name, k)


def test_inner_space_dimensions():
    assert inner_space(ab3(), 1).dimension == 0
    assert inner_space(ab3s(), 1).dimension == 0
    # ad(e1,e2), ad(e1,e3), ad(e2,e3) are independent on L3
    assert inner_space(l3(), 1).dimension == 3
    with pytest.raises(ValueError):
        inner_space(l3(), 0)


def test_inner_space_sits_inside_the_derivation_space(algebras):
    for L in algebras.values():
        inner = inner_space(L, 1)
        outer = derivation_space(L, 1)
        for d in inner.basis:
            assert outer.contains(d)


def test_commutator_examples():
    d = Mat.diagonal([1, 2])
    ed = elementary(2, 0, 1)
    assert commutator(d, d).is_zero()
    assert commutator(d, ed) == Mat.from_rows([[0, -1], [0, 0]])
    with pytest.raises(DimensionMismatch):
        commutator(d, Mat.identity(3))


def test_commutator_grading():
    for L in (l3(), l3h(2), n4()):
        spaces = {k: derivation_space(L, k) for k in range(4)}
        for k in range(4):
            for s in range(4 - k):
                for d in spaces[k].basis:
                    for dp in spaces[s].basis:
                        c = commutator(d, dp)
                        assert spaces[k + s].contains(c)
                        assert is_alpha_k_derivation(L, c, k + s)


def test_commutator_bracket_satisfies_jacobi():
    # automatic for matrix commutators; asserted as a sanity check on
    # derivation-space basis elements across low grades
    for L in (l3(), ab3s()):
        spaces = {k: derivation_space(L, k) for k in range(3)}
        for k in range(3):
            for s in range(3):
                for t in range(3):
                    if k + s + t > 3:
                        continue
                    for d1 in spaces[k].basis:
                        for d2 in spaces[s].basis:
                            for d3 in spaces[t].basis:
                                total = (
                                    commutator(commutator(d1, d2), d3)
                                    + commutator(commutator(d2, d3), d1)
                                    + commutator(commutator(d3, d1), d2)
                                )
                                assert total.is_zero()


def test_twist_power_negative_requires_regular():
    assert twist_power(ab3s(), -1) == Mat.diagonal(["1/2", "1/3", "1/5"])
    with pytest.raises(RegularTwistRequired):
        twist_power(l3h(0), -1)


def test_derivation_extension_zero_map():
    ext, report = derivation_extension(ab3(), Mat.zero(3, 3))
    assert report.hom_jacobi_ok and report.multiplicative_ok and report.skew_ok
    assert ext.dim == 4
    assert ext.twist == Mat.identity(4)


def test_derivation_extension_flag_matches_the_derivation_test():
    rng = random.Random(9)
    for L in (l3(), ab3s(), n4()):
        n = L.dim
        for d in derivation_space(L, 1).basis:
            _, report = derivation_extension(L, d)
            assert report.hom_jacobi_ok is True
            if not d.is_zero():
                assert report.skew_ok is False
        for _ in range(8):
            d = random_mat(rng, n, n)
            _, report = derivation_extension(L, d)
            assert report.hom_jacobi_ok == is_alpha_k_derivation(L, d, 1)


def test_derivation_extension_rejects_a_non_derivation():
    _, report = derivation_extension(l3(), elementary(3, 1, 0))
    assert report.hom_jacobi_ok is False
    assert report.violations


def test_derivation_extension_literal_values():
    L = l3()
    d = Mat.diagonal([0, 1, -1])  # grade-1 derivation of L3
    ext, report = derivation_extension(L, d)
    assert report.hom_jacobi_ok
    # [D, u, v] = D(u) and [u, v, D] = -D(u): the table is not skew
    assert ext.value(3, 1, 2) == Vec.of(0, 1, 0, 0)
    assert ext.value(1, 2, 3) == Vec.of(0, -1, 0, 0)
    assert ext.value(0, 1, 2) == Vec.of(1, 0, 0, 0)


def test_derivation_extension_rejects_a_map_of_the_wrong_shape():
    for d in (Mat.identity(2), Mat.zero(3, 2), Mat.identity(4)):
        with pytest.raises(DimensionMismatch):
            DerivationExtension(l3(), d)
        with pytest.raises(DimensionMismatch):
            derivation_extension(l3(), d)


# entries over the denominators 1, 3 and 7, so that a wrong scale shows
entries = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 3, 7)))


@settings(max_examples=40)
@given(st.sampled_from(range(3)), st.integers(-1, 2), st.sampled_from(["inside", "outside", "column"]),
       st.data())
def test_leibniz_sides_match_the_dense_rule_on_coprime_scales(which, k, kind, data):
    """``_leibniz`` yields the failing triples of the rule evaluated densely,
    in order, with its sides over its scale.  D is a drawn member of the
    grade-k derivation space, such a member changed at one to three drawn
    entries, or nonzero only in its last column, where a triple can fail
    through D B_uvw alone."""
    L = coprime_algebras()[which]
    n = L.dim
    if kind == "column":
        d = Mat.from_rows([[data.draw(entries) if c == n - 1 else 0 for c in range(n)] for _ in range(n)])
    else:
        d = Mat.zero(n, n)
        for b in derivation_space(L, k).basis:
            d = d + b.scale(data.draw(entries))
    if kind == "outside":
        for _ in range(data.draw(st.integers(1, 3))):
            r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            d = d + elementary(n, r, c).scale(data.draw(entries))
    scale, sides = _leibniz(L, d, k)
    got = [(key, Vec.sparse(n, rational(lhs, scale)), Vec.sparse(n, rational(rhs, scale)))
           for key, lhs, rhs in sides]
    assert got == oracle.leibniz(L, d, k)
    if kind == "inside":
        assert not got


@st.composite
def extension_cases(draw):
    """A catalog algebra of dimension at most 5, or an alternating bracket of
    dimension 2 to 5 with a multiplicative twist (I, -I or 0) or a drawn one,
    and a D that is 0, drawn, nonzero only in its last column or a drawn
    combination of grade-1 derivations.  Any nonzero D breaks skewness; a D
    nonzero only at e_(n-1) breaks it on 6 + 3 (n - 1) ordered triples,
    fewer than the kept witnesses for n = 3 and 4, so that Leibniz and
    multiplicativity witnesses still reach them."""
    small = [L for L in catalog().values() if L.dim <= 5]
    if draw(st.booleans()):
        L = draw(st.sampled_from(small))
    else:
        n = draw(st.integers(2, 5))
        keys = draw(st.lists(st.sampled_from(list(increasing_triples(n))), max_size=3,
                             unique=True)) if n > 2 else []
        table = {key: Vec(tuple(draw(st.lists(entries, min_size=n, max_size=n)))) for key in keys}
        twist = draw(st.sampled_from([Mat.identity(n), Mat.identity(n).scale(-1), Mat.zero(n, n),
                                      Mat.from_rows([[draw(entries) for _ in range(n)] for _ in range(n)])]))
        L = Hom3LieAlgebra(n, table, twist)
    n = L.dim
    kind = draw(st.sampled_from(["zero", "drawn", "column", "derivation"]))
    if kind == "zero":
        return L, Mat.zero(n, n)
    if kind == "drawn":
        return L, Mat.from_rows([[draw(entries) for _ in range(n)] for _ in range(n)])
    if kind == "column":
        return L, Mat.from_rows([[draw(entries) if c == n - 1 else 0 for c in range(n)] for _ in range(n)])
    d = Mat.zero(n, n)
    for b in derivation_space(L, 1).basis:
        d = d + b.scale(draw(entries))
    return L, d


@settings(max_examples=80)
@given(extension_cases())
def test_derivation_extension_matches_the_literal_rule_sweeps(case):
    """Report and values against the rule on every basis triple: the closed
    form, L's hom-Jacobi and multiplicativity sweeps and the Leibniz residual
    must give the literal sweeps' flags, totals and witnesses, in order."""
    L, d = case
    ext, report = derivation_extension(L, d)
    assert report == oracle.derivation_extension(ext)
    basis = [Vec.basis(ext.dim, i) for i in range(ext.dim)]
    for i, j, k in itertools.product(range(ext.dim), repeat=3):
        assert ext.value(i, j, k) == oracle.extension_rule(ext, basis[i], basis[j], basis[k])
