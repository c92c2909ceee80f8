"""The sparse elimination kernel against the dense reference elimination.

Hypothesis draws mostly-zero, dense and rank-deficient matrices of every
shape up to 7 x 7 (tall, wide, square, and with no rows at all), then
zeroes out a few of their rows and columns.  ``rref``, ``rank``,
``nullspace``, ``solve``, ``inverse`` and ``Subspace.span`` must agree
exactly with ``dense_elimination``, and ``rref`` also with sympy's
``DomainMatrix`` over QQ when sympy is installed.  ``Subspace.projection``,
the one reduction modulo a subspace, must vanish exactly on the span
(membership by dense rank), be the identity off the pivots, and leave
each vector less the lift of its projection in the span.

The kernel clears each row to ints and divides by the leads only at the
end, so ``wide_matrices`` draws the entries that exercise the clearing
and the growth of the contents: denominators drawn separately per row
from 1, 3, 7 and 11 over numerators up to 10^6, int-valued rows, rows
of ints and Fractions mixed (the kernel takes rows of ints as they are),
and rows that are rational multiples of each other.  The oracles get the
same matrices with Fraction entries.

The kernel first propagates single-entry rows (``linalg._eliminate``), so
``cascades`` draws systems whose single-entry rows cascade at least three
deep, with duplicate singletons on one column, which random matrices
seldom contain; the kernel must match the dense oracle on them, return
e_c for each column c of the chain they are built on, and leave the
supports of every input vector as they were.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_elimination as dense
from dense_oracle import contains_all
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


def project(s: Subspace, v: Vec) -> list[Fraction]:
    """e proj v at the non-pivots of s, summed entry by entry from the columns
    of ``s.projection``."""
    pos, cols, _ = s.projection
    out = [Fraction(0)] * len(pos)
    for g, x in v.support.items():
        for a, y in cols[g].items():
            out[a] += x * y
    return out


@given(matrices(), st.data())
def test_subspace_projection_kernel_is_the_span(m, data):
    n = m.cols
    s = Subspace.span(n, [m.row(i) for i in range(m.rows)])
    pos, cols, e = s.projection
    assert [g for g in range(n) if g not in pos] == dense.pivot_cols(dense.rref(m))
    assert list(pos) == sorted(pos) and sorted(pos.values()) == list(range(len(pos)))
    assert all(cols[g] == {a: e} for g, a in pos.items())
    for v in s.basis:
        assert not any(project(s, v)) and subspace_contains(s, v)
    v = data.draw(vectors(n))
    res = project(s, v)
    assert (not any(res)) == contains_all(s, [v]) == subspace_contains(s, v)
    lifted = Vec.sparse(n, {g: res[a] / e for g, a in pos.items() if res[a]})
    assert contains_all(s, [v - lifted])
    matrix = Mat.from_rows([[cols[g].get(a, 0) for g in range(n)] for a in range(len(pos))], cols=n)
    assert nullspace(matrix) == s
    # the cached projection takes no part in equality
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


DENOMINATORS = (1, 3, 7, 11)
numerators = st.integers(-10**6, 10**6)


@st.composite
def wide_matrices(draw, square: bool = False) -> tuple[Mat, Mat]:
    """A matrix for the kernel and the same matrix with Fraction entries for the oracles."""
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["per_row_denominator", "int_valued", "mixed", "multiples"]))

    def row() -> list:
        den = draw(st.sampled_from(DENOMINATORS))
        return [Fraction(draw(numerators), den) if draw(st.integers(0, 2)) else Fraction(0)
                for _ in range(cols)]

    if kind == "multiples":
        base = [row() for _ in range(draw(st.integers(1, 2)))]
        cells = [[Fraction(draw(numerators), draw(st.sampled_from(DENOMINATORS))) * a
                  for a in draw(st.sampled_from(base))] for _ in range(rows)]
    elif kind == "int_valued":
        cells = [[draw(numerators) if draw(st.integers(0, 2)) else 0 for _ in range(cols)]
                 for _ in range(rows)]
    elif kind == "mixed":  # ints up front, then some Fractions, in one row
        cells = [[draw(numerators) if c < cols // 2 or draw(st.booleans())
                  else Fraction(draw(numerators), draw(st.sampled_from(DENOMINATORS)))
                  for c in range(cols)] for _ in range(rows)]
    else:
        cells = [row() for _ in range(rows)]
    entries = tuple(a for r in cells for a in r)
    return Mat(rows, cols, entries), Mat(rows, cols, tuple(Fraction(a) for a in entries))


def assert_fractions(m: Mat) -> None:
    assert all(type(a) is Fraction for v in m.row_vecs for a in v.support.values())


@given(wide_matrices())
def test_wide_entries_match_the_dense_oracle(pair):
    m, exact = pair
    reduced = rref(m)
    assert reduced == dense.rref(exact)
    assert_fractions(reduced)
    assert rank(m) == dense.rank(exact)
    assert nullspace(m) == dense.nullspace(exact)
    rows = [m.row(i) for i in range(m.rows)]
    span = Subspace.span(m.cols, rows[::-1])
    assert span == dense.span(m.cols, [exact.row(i) for i in range(m.rows)])
    assert_fractions(Mat.sparse(m.cols, span.basis))


@given(wide_matrices(), st.data())
def test_wide_solve_matches_the_dense_oracle(pair, data):
    m, exact = pair
    b = Vec(tuple(data.draw(numerators) for _ in range(m.rows)))
    assert solve(m, b) == dense.solve(exact, Vec(tuple(Fraction(x) for x in b)))
    x = Vec(tuple(Fraction(data.draw(numerators), data.draw(st.sampled_from(DENOMINATORS)))
                  for _ in range(m.cols)))
    assert solve(m, exact.apply(x)) == dense.solve(exact, exact.apply(x))


@given(wide_matrices(square=True))
def test_wide_inverse_matches_the_dense_oracle(pair):
    m, exact = pair
    inv = inverse(m)
    assert inv == dense.inverse(exact)
    if inv is not None:
        assert_fractions(inv)


@pytest.mark.skipif(DomainMatrix is None, reason="sympy is not installed")
@given(wide_matrices())
def test_wide_entries_match_sympy_domain_matrix(pair):
    m, exact = pair
    rows = [[QQ(a.numerator, a.denominator) for a in exact.row(i)] for i in range(m.rows)]
    reduced, pivots = DomainMatrix(rows, (m.rows, m.cols), QQ).rref()
    expected = [Fraction(int(a.numerator), int(a.denominator))
                for row in reduced.to_list() for a in row]
    assert list(rref(m).entries) == expected
    assert rank(m) == len(pivots)


nonzero = fractions.filter(bool)


@st.composite
def cascades(draw, square: bool = False) -> tuple[Mat, list[int]]:
    """A shuffled sparse system and the chain c_0, ..., c_(d-1) (d >= 3) of
    columns its single-entry rows cascade on: a row e_(c_0) (twice at times),
    then for each t one or two rows at c_t, c_(t-1) and any earlier links, so
    fixing c_(t-1) leaves them with one entry at c_t; noise rows with two or
    more entries off the chain, which fix nothing and keep what they hold
    off it.  Half the systems have duplicate rows and maybe a zero row, the
    others one row per link; square ones get more noise rows to fit."""
    depth, twice = draw(st.integers(3, 5)), st.integers(1, 2 if draw(st.booleans()) else 1)
    cols = draw(st.integers(depth + 2, 8))
    chain = draw(st.permutations(range(cols)))[:depth]
    rows = [{chain[0]: draw(nonzero)} for _ in range(draw(twice))]
    for t in range(1, depth):
        for _ in range(draw(twice)):
            links = draw(st.sets(st.sampled_from(chain[:t - 1]))) if t > 1 else set()
            rows.append({c: draw(nonzero) for c in {chain[t], chain[t - 1], *links}})
    cols = max(cols, len(rows) + 4) if square else cols  # room for the noise and a zero row
    others = [c for c in range(cols) if c not in chain]

    def noise() -> dict:
        held = draw(st.sets(st.sampled_from(others), min_size=2)) | draw(st.sets(st.sampled_from(chain)))
        return {c: draw(nonzero) for c in held}

    rows += [noise() for _ in range(draw(st.integers(0, 3)))] + [{}] * (draw(twice) - 1)
    rows += [noise() for _ in range(cols - len(rows))] if square else []
    rows = draw(st.permutations(rows))
    return Mat.sparse(cols, [Vec.sparse(cols, r) for r in rows]), list(chain)


@given(cascades())
def test_cascades_match_the_dense_oracle(system):
    m, _ = system
    assert rref(m) == dense.rref(m)
    assert rank(m) == dense.rank(m)
    assert nullspace(m) == dense.nullspace(m)
    rows = [m.row(i) for i in range(m.rows)]
    assert Subspace.span(m.cols, rows) == dense.span(m.cols, rows)


@given(cascades(), st.data())
def test_cascade_solve_matches_the_dense_oracle(system, data):
    m, _ = system
    x = data.draw(vectors(m.cols))
    assert solve(m, m.apply(x)) == dense.solve(m, m.apply(x))
    b = data.draw(vectors(m.rows))
    assert solve(m, b) == dense.solve(m, b)
    # 1 on one row: on a chain row the cascade fixes the right-hand column, 0 = 1
    b = Vec.basis(m.rows, data.draw(st.integers(0, m.rows - 1)))
    assert solve(m, b) == dense.solve(m, b)


@given(cascades(square=True))
def test_cascade_inverse_matches_the_dense_oracle(system):
    m, _ = system
    assert inverse(m) == dense.inverse(m)


def test_a_cascade_that_fixes_the_right_hand_side_is_inconsistent():
    # x0 = 0, then x0 + x1 = 0 fixes x1, and x1 = 1 leaves 0 = 1 at the right-hand column
    m = Mat.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 1, 1]])
    b = Vec.of(0, 0, 1, 0)
    assert solve(m, b) is None and dense.solve(m, b) is None
    assert solve(m, Vec.of(0, 0, 0, 5)) == Vec.of(0, 0, 5)


def test_a_singular_cascade_has_no_inverse():
    # [m | I] has a single-entry row only where m has a zero row, and it fixes a column of I
    for rows in ([[2, 0, 0], [1, 3, 0], [0, 0, 0]], [[2, 0, 0], [1, 3, 0], [0, 5, 0]]):
        m = Mat.from_rows(rows)
        assert inverse(m) is None and dense.inverse(m) is None
    m = Mat.from_rows([[2, 0, 0], [1, 3, 0], [0, 5, 7]])
    assert inverse(m) == dense.inverse(m) is not None


@given(cascades())
def test_every_chain_column_is_a_unit_row_of_the_rref(system):
    # the cascade puts each e_c of the chain in the span, and then the RREF row at c is e_c
    m, chain = system
    rows = {min(v.support): v.support for v in rref(m).row_vecs if v.support}
    assert all(rows.get(c) == {c: 1} for c in chain)


@given(cascades(square=True), st.data())
def test_kernel_calls_leave_every_input_support_unchanged(system, data):
    m, _ = system
    b = data.draw(vectors(m.rows))
    inputs = [v.support for v in m.row_vecs] + [b.support]
    before = [dict(s) for s in inputs]
    rank(m), rref(m), nullspace(m), solve(m, b), inverse(m), Subspace.span(m.cols, list(m.row_vecs))
    assert inputs == before
    assert all(s is v.support for s, v in zip(inputs, m.row_vecs))
