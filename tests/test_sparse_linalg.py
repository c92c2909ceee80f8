"""Vec and Mat store supports; every operation must match dense-tuple arithmetic.

The reference computations below work on plain tuples of Fractions and
share no code with the library.  Every result is also checked for a
clean support: in-range coordinates and no stored zero, including
after cancellation.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hom3lie.errors import DimensionMismatch
from hom3lie.linalg import Mat, Vec, add_matvec, pruned

ZERO = Fraction(0)

# mostly zeros, so that supports are sparse and sums cancel
values = st.one_of(st.just(ZERO), st.just(ZERO),
                   st.fractions(min_value=-2, max_value=2, max_denominator=3))


def dense_vecs(n: int):
    return st.lists(values, min_size=n, max_size=n).map(tuple)


def dense_mats(rows: int, cols: int):
    return st.lists(values, min_size=rows * cols, max_size=rows * cols).map(tuple)


dims = st.integers(0, 5)
shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))


def clean(v: Vec) -> tuple:
    """The dense entries of v, after checking its support."""
    assert all(0 <= i < len(v) for i in v.support)
    assert all(a != 0 for a in v.support.values())
    assert len(v.entries) == len(v)
    assert {i: a for i, a in enumerate(v.entries) if a} == v.support
    return v.entries


def clean_mat(m: Mat) -> tuple:
    """The dense row-major entries of m, after checking its rows."""
    assert len(m.row_vecs) == m.rows
    for row in m.row_vecs:
        assert len(row) == m.cols
        clean(row)
    assert len(m.entries) == m.rows * m.cols
    return m.entries


def dense_rows(rows: int, cols: int, flat: tuple) -> list[tuple]:
    return [flat[r * cols:(r + 1) * cols] for r in range(rows)]


def dense_matmul(a: tuple, b: tuple, n: int, k: int, m: int) -> tuple:
    return tuple(sum((a[i * k + t] * b[t * m + j] for t in range(k)), ZERO)
                 for i in range(n) for j in range(m))


@given(dims.flatmap(lambda n: st.tuples(dense_vecs(n), dense_vecs(n), values)))
def test_vec_arithmetic_matches_dense(data):
    x, y, c = data
    u, v = Vec(x), Vec(y)
    assert clean(u) == x and tuple(u) == x and len(u) == len(x)
    assert clean(u + v) == tuple(a + b for a, b in zip(x, y))
    assert clean(u - v) == tuple(a - b for a, b in zip(x, y))
    assert clean(-u) == tuple(-a for a in x)
    assert clean(u.scale(c)) == tuple(c * a for a in x)
    assert clean(c * u) == tuple(c * a for a in x)
    assert u.dot(v) == sum((a * b for a, b in zip(x, y)), ZERO)
    assert clean(u.concat(v)) == x + y
    assert u.is_zero() == (not any(x))
    assert u.support == {i: a for i, a in enumerate(x) if a}


@given(dims.flatmap(lambda n: st.tuples(dense_vecs(n), dense_vecs(n))))
def test_vec_cancellation_stores_no_zero(data):
    x, y = data
    u, v = Vec(x), Vec(y)
    for w in (u - u, u + (-u), u.scale(0), (u + v) - v, (u - v) + v - u):
        clean(w)
    assert (u - u).support == {} and u.scale(0).support == {}
    assert (u + v) - v == u


@given(dims.flatmap(lambda n: st.tuples(dense_vecs(n), dense_vecs(n))))
def test_vec_indexing_and_equality_match_dense(data):
    x, y = data
    u, v = Vec(x), Vec(y)
    n = len(x)
    for i in range(-n, n):
        assert u[i] == x[i]
    assert u[1:] == x[1:] and u[::-1] == x[::-1]
    with pytest.raises(IndexError):
        u[n]
    assert (u == v) == (x == y)
    assert (u != v) == (x != y)
    if u == v:
        assert hash(u) == hash(v)
    assert Vec(u.entries) == u and Vec.of(*x) == u
    assert u != Vec(x + (ZERO,))


def test_vec_constructors_and_length_checks():
    assert clean(Vec.zero(3)) == (ZERO,) * 3
    assert clean(Vec.basis(3, 1)) == (0, 1, 0)
    assert clean(Vec.of(0, "1/2", -1)) == (0, Fraction(1, 2), -1)
    with pytest.raises(DimensionMismatch):
        Vec.of(1, 2) + Vec.of(1)
    with pytest.raises(DimensionMismatch):
        Vec.of(1, 2).dot(Vec.of(1))


@given(shapes.flatmap(lambda s: st.tuples(st.just(s), dense_mats(*s), dense_mats(*s))))
def test_mat_entries_round_trip_and_equality(data):
    (r, c), x, y = data
    a, b = Mat(r, c, x), Mat(r, c, y)
    assert clean_mat(a) == x and (a.rows, a.cols) == (r, c)
    assert Mat(r, c, a.entries) == a
    assert Mat.from_rows(dense_rows(r, c, x), cols=c) == a
    assert Mat.from_rows(a.row_vecs, cols=c) == a
    assert (a == b) == (x == y)
    if a == b:
        assert hash(a) == hash(b)
    assert a != Mat.zero(r, c + 1) and a != Mat.zero(r + 1, c)
    for i in range(r):
        assert clean(a.row(i)) == x[i * c:(i + 1) * c]
        for j in range(c):
            assert a.at(i, j) == x[i * c + j]
    for j in range(c):
        assert clean(a.col(j)) == tuple(x[i * c + j] for i in range(r))
    assert clean_mat(a + b) == tuple(p + q for p, q in zip(x, y))
    assert clean_mat(a - b) == tuple(p - q for p, q in zip(x, y))
    assert clean_mat(-a) == tuple(-p for p in x)
    assert clean_mat(a - a) == (ZERO,) * (r * c) and (a - a).is_zero()
    assert a.is_zero() == (not any(x))
    if c:
        assert Mat.from_cols([a.col(j) for j in range(c)]) == a
    with pytest.raises(DimensionMismatch):
        Mat(r, c, x + (ZERO,))


def flatten(m: Mat) -> Vec:
    """m row-major as one vector, from its row supports."""
    n = m.cols
    return Vec.sparse(m.rows * n, {r * n + c: a for r, v in enumerate(m.row_vecs)
                                   for c, a in v.support.items()})


@given(shapes.flatmap(lambda s: st.tuples(st.just(s), dense_mats(*s))))
def test_mat_transpose_and_row_major_entries_match_dense(data):
    (r, c), x = data
    a = Mat(r, c, x)
    t = a.transpose()
    assert (t.rows, t.cols) == (c, r)
    assert clean_mat(t) == tuple(x[i * c + j] for j in range(c) for i in range(r))
    assert clean(flatten(a)) == x == clean_mat(a)


@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(st.just(s), dense_mats(s[0], s[1]), dense_mats(s[1], s[2]),
                        dense_vecs(s[1]))))
def test_mat_products_match_dense(data):
    (n, k, m), x, y, z = data
    a, b = Mat(n, k, x), Mat(k, m, y)
    assert clean_mat(a @ b) == dense_matmul(x, y, n, k, m)
    expected = tuple(sum((x[i * k + t] * z[t] for t in range(k)), ZERO) for i in range(n))
    assert clean(a.apply(Vec(z))) == expected
    # a product that cancels to zero everywhere stores nothing
    assert clean_mat(a @ (b - b)) == (ZERO,) * (n * m)


@pytest.mark.parametrize("kind", [int, Fraction])
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(st.just(s), dense_mats(*s), dense_vecs(s[1]), dense_vecs(s[0]))),
    st.sampled_from([1, -1]))
def test_add_matvec_adds_the_signed_dense_product_in_place(kind, data, sign):
    """acc += sign m x on dict supports: the values keep their type (ints stay
    ints), and a coordinate the sum cancels keeps a stored zero for pruned."""
    (n, k), x, z, w = data
    if kind is int:
        x, z, w = ([int(2 * a) for a in t] for t in (x, z, w))
    m = {c: {r: x[r * k + c] for r in range(n) if x[r * k + c]} for c in range(k)}
    acc = {r: a for r, a in enumerate(w) if a}
    before = dict(acc)
    add_matvec(acc, m, {c: a for c, a in enumerate(z) if a}, sign)
    want = [w[r] + sign * sum(x[r * k + c] * z[c] for c in range(k)) for r in range(n)]
    assert {r: a for r, a in enumerate(want) if a} == pruned(acc)
    assert all(acc[r] == want[r] and type(acc[r]) is kind for r in acc)
    assert before.keys() <= acc.keys()


def test_add_matvec_leaves_cancellations_as_zeros():
    acc = {0: 2}
    add_matvec(acc, {0: {0: 2, 1: 1}, 1: {1: 1}}, {0: 1, 1: -1}, -1)
    assert acc == {0: 0, 1: 0} and pruned(acc) == {}
    acc = {}
    add_matvec(acc, {0: {0: Fraction(1, 2)}, 1: {0: Fraction(1, 2)}}, {0: Fraction(1), 1: Fraction(-1)})
    assert acc == {0: 0} and type(acc[0]) is Fraction and pruned(acc) == {}


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), dense_mats(n, n),
                                                      st.integers(0, 3))))
def test_mat_power_matches_dense(data):
    n, x, k = data
    acc = tuple(Fraction(int(i == j)) for i in range(n) for j in range(n))
    for _ in range(k):
        acc = dense_matmul(acc, x, n, n, n)
    assert clean_mat(Mat(n, n, x).power(k)) == acc


@given(shapes.flatmap(lambda s: st.tuples(st.just(s), dense_mats(*s))),
       shapes.flatmap(lambda s: st.tuples(st.just(s), dense_mats(*s))))
def test_mat_block_diag_matches_dense(first, second):
    (r1, c1), x = first
    (r2, c2), y = second
    got = Mat(r1, c1, x).block_diag(Mat(r2, c2, y))
    rows = [row + (ZERO,) * c2 for row in dense_rows(r1, c1, x)]
    rows += [(ZERO,) * c1 + row for row in dense_rows(r2, c2, y)]
    assert (got.rows, got.cols) == (r1 + r2, c1 + c2)
    assert clean_mat(got) == tuple(a for row in rows for a in row)


def test_mat_constructors_match_dense():
    assert clean_mat(Mat.identity(3)) == tuple(Fraction(int(i == j))
                                               for i in range(3) for j in range(3))
    assert clean_mat(Mat.zero(2, 3)) == (ZERO,) * 6
    assert clean_mat(Mat.diagonal([1, 0, "2/3"])) == (1, 0, 0, 0, 0, 0, 0, 0, Fraction(2, 3))
    assert Mat.from_rows([], cols=2).rows == 0
    with pytest.raises(DimensionMismatch):
        Mat.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Mat.from_cols([Vec.of(1, 2), Vec.of(1)])
