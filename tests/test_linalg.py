import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_rank
from hom3lie.errors import DimensionMismatch
from hom3lie.linalg import (
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

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def small_mats(max_dim: int = 4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(fractions, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Mat.from_rows)
        )
    )


def test_rat_parses_strings_and_ints():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(-2) == Fraction(-2)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)


def test_rref_identity_and_zero_are_fixed_points():
    assert rref(Mat.identity(3)) == Mat.identity(3)
    z = Mat.zero(2, 4)
    assert rref(z) == z


def test_rref_hand_example():
    m = Mat.from_rows([[2, 4], [1, 2]])
    assert rref(m) == Mat.from_rows([[1, 2], [0, 0]])


def test_nullspace_examples():
    assert nullspace(Mat.identity(4)).dim == 0
    assert nullspace(Mat.zero(3, 3)).dim == 3
    ns = nullspace(Mat.from_rows([[1, 1, 0]]))
    assert ns.dim == 2
    assert ns.basis == (Vec.of(1, -1, 0), Vec.of(0, 0, 1))


def test_solve_examples():
    b = Vec.of(5, 2)
    assert solve(Mat.identity(2), b) == b
    assert solve(Mat.zero(2, 2), b) is None
    assert solve(Mat.from_rows([[1, 2], [0, 1]]), b) == Vec.of(1, 2)


def test_solve_shape_guard():
    with pytest.raises(DimensionMismatch):
        solve(Mat.identity(2), Vec.of(1, 2, 3))


def test_subspace_examples():
    e1 = Subspace.span(2, [Vec.of(1, 0)])
    e2 = Subspace.span(2, [Vec.of(0, 1)])
    assert subspace_sum(e1, e2) == Subspace.full(2)
    assert not subspace_contains(e1, Vec.of(0, 1))
    diag = Subspace.span(2, [Vec.of(1, 1)])
    assert subspace_leq(diag, Subspace.full(2))
    with pytest.raises(DimensionMismatch):
        subspace_sum(e1, Subspace.zero(3))


def test_inverse():
    m = Mat.from_rows([[2, 1], [1, 1]])
    inv = inverse(m)
    assert inv is not None and m @ inv == Mat.identity(2)
    assert inverse(Mat.from_rows([[1, 2], [2, 4]])) is None
    assert Mat.diagonal([2, 4]).power(-1) == Mat.diagonal([rat("1/2"), rat("1/4")])


@given(small_mats())
def test_rref_idempotent(m):
    r = rref(m)
    assert rref(r) == r


@given(small_mats())
def test_rank_nullity_and_kernel_annihilation(m):
    ns = nullspace(m)
    for v in ns.basis:
        assert m.apply(v).is_zero()
    assert rank(m) + ns.dim == m.cols
    # independent elimination agrees on the rank
    assert rank(m) == naive_rank([list(m.row(i)) for i in range(m.rows)])


@given(small_mats())
def test_solve_postcondition(m):
    rng = random.Random(0)
    x = Vec.of(*[rng.randint(-2, 2) for _ in range(m.cols)])
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None and m.apply(got) == b


@given(st.data())
def test_span_canonical_under_scaling_and_permutation(data):
    n = data.draw(st.integers(1, 4))
    vecs = data.draw(
        st.lists(st.lists(fractions, min_size=n, max_size=n).map(lambda xs: Vec.of(*xs)),
                 min_size=1, max_size=4)
    )
    scales = data.draw(st.lists(st.sampled_from([1, 2, -1, 3]), min_size=len(vecs), max_size=len(vecs)))
    shuffled = list(zip(vecs, scales))
    data.draw(st.randoms(use_true_random=False)).shuffle(shuffled)
    other = [v.scale(s) for v, s in shuffled]
    assert Subspace.span(n, vecs) == Subspace.span(n, other)


def test_vec_arithmetic_and_concat():
    v = Vec.of(1, "1/2") + Vec.of(0, "1/2")
    assert v == Vec.of(1, 1)
    assert (-v) == Vec.of(-1, -1)
    assert v.scale(2) == Vec.of(2, 2)
    assert v.concat(Vec.of(3)) == Vec.of(1, 1, 3)
    assert v.dot(Vec.of(2, 3)) == 5
    with pytest.raises(DimensionMismatch):
        v + Vec.of(1)


def test_mat_block_and_power():
    b = Mat.identity(2).block_diag(Mat.diagonal([3]))
    assert b == Mat.diagonal([1, 1, 3])
    assert Mat.diagonal([2, 3]).power(2) == Mat.diagonal([4, 9])
    assert Mat.identity(2).power(0) == Mat.identity(2)
