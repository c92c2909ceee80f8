"""The sparse elimination kernel against the dense reference elimination.

Hypothesis draws mostly-zero, dense and rank-deficient matrices of every
shape up to 7 x 7 (tall, wide, square, and with no rows at all), then
zeroes out a few of their rows and columns.  ``rref``, ``rank``,
``nullspace``, ``solve``, ``inverse`` and ``Subspace.span`` must agree
exactly with ``dense_elimination``, and ``rref`` also with sympy's
``DomainMatrix`` over QQ when sympy is installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_elimination as dense
from hom3lie.linalg import (
    Mat,
    Subspace,
    Vec,
    inverse,
    nullspace,
    rank,
    rref,
    solve,
    subspace_contains,
)

try:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
except ImportError:
    DomainMatrix = None

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def matrices(draw, square: bool = False) -> Mat:
    rows = draw(st.integers(0, 7))
    cols = rows if square else draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["sparse", "dense", "low_rank"]))
    if kind == "low_rank":
        k = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        left = [[draw(fractions) for _ in range(k)] for _ in range(rows)]
        right = [[draw(fractions) for _ in range(cols)] for _ in range(k)]
        cells = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
                  for j in range(cols)] for i in range(rows)]
    else:
        sparse = kind == "sparse"
        cells = [[draw(fractions) if not sparse or draw(st.integers(0, 3)) == 0 else Fraction(0)
                  for _ in range(cols)] for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)) if cols else set()
    entries = tuple(Fraction(0) if i in zero_rows or j in zero_cols else cells[i][j]
                    for i in range(rows) for j in range(cols))
    return Mat(rows, cols, entries)


def vectors(n: int):
    return st.lists(fractions, min_size=n, max_size=n).map(lambda xs: Vec(tuple(xs)))


@given(matrices())
def test_rref_rank_and_nullspace_match_the_dense_oracle(m):
    assert rref(m) == dense.rref(m)
    assert rank(m) == dense.rank(m)
    assert nullspace(m) == dense.nullspace(m)


@given(matrices())
def test_span_matches_the_dense_oracle(m):
    rows = [m.row(i) for i in range(m.rows)]
    assert Subspace.span(m.cols, rows) == dense.span(m.cols, rows)
    assert Subspace.span(m.cols, rows[::-1]) == dense.span(m.cols, rows)


@given(matrices(), st.data())
def test_solve_matches_the_dense_oracle(m, data):
    x = data.draw(vectors(m.cols))
    b = m.apply(x)
    assert solve(m, b) == dense.solve(m, b)
    other = data.draw(vectors(m.rows))
    assert solve(m, other) == dense.solve(m, other)


@given(matrices(square=True))
def test_inverse_matches_the_dense_oracle(m):
    assert inverse(m) == dense.inverse(m)


@given(matrices(), st.data())
def test_subspace_reduce_kernel_is_the_span(m, data):
    n = m.cols
    s = Subspace.span(n, [m.row(i) for i in range(m.rows)])
    for v in s.basis:
        assert s.reduce(v).is_zero()
    v = data.draw(vectors(n))
    res = s.reduce(v)
    assert all(res[p] == 0 for p in s.pivots())
    assert subspace_contains(s, v - res)
    assert s.pivots() == dense.pivot_cols(dense.rref(m))
    residual = Mat.from_cols([s.reduce(Vec.basis(n, i)) for i in range(n)])
    assert nullspace(residual) == s
    # the cached pivot rows take no part in equality
    assert s == Subspace(s.ambient_dim, s.basis)


@pytest.mark.skipif(DomainMatrix is None, reason="sympy is not installed")
@given(matrices())
def test_rref_matches_sympy_domain_matrix(m):
    rows = [[QQ(a.numerator, a.denominator) for a in m.row(i)] for i in range(m.rows)]
    reduced, pivots = DomainMatrix(rows, (m.rows, m.cols), QQ).rref()
    expected = [Fraction(int(a.numerator), int(a.denominator))
                for row in reduced.to_list() for a in row]
    assert list(rref(m).entries) == expected
    assert rank(m) == len(pivots)
