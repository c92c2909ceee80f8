import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
from conftest import random_mat, random_vec
from hom3lie.algebras import (
    MAX_WITNESSES,
    Hom3LieAlgebra,
    Report,
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
from hom3lie.derivations import derivation_extension
from hom3lie.errors import DimensionMismatch, IdealRequired
from hom3lie.extensions import Cocycle, cyclic_part, t_star_extension
from hom3lie.fixtures import a4, ab3, ab3s, catalog, l3, l3h, n4
from hom3lie.linalg import Mat, Subspace, Vec
from test_sparse_sweeps import BASES, carried, conjugations, factors


def e(n, i):
    return Vec.basis(n, i)


def span(n, *vecs):
    return Subspace.span(n, list(vecs))


def test_catalog_passes_the_axioms(algebras):
    for name, L in algebras.items():
        assert verify_hom_jacobi(L).hom_jacobi_ok, name
        assert verify_multiplicative(L).multiplicative_ok, name


def test_bracket_examples():
    assert ab3().bracket(e(3, 0), e(3, 1), e(3, 2)).is_zero()
    assert l3().bracket(e(3, 1), e(3, 0), e(3, 2)) == -e(3, 0)
    # expansion by trilinearity; repeated-argument terms vanish
    assert a4().bracket(e(4, 0) + e(4, 1), e(4, 1), e(4, 2)) == e(4, 3)


def test_bracket_shape_guard():
    with pytest.raises(DimensionMismatch):
        l3().bracket(e(3, 0), e(3, 1), e(4, 2))


def test_hom_jacobi_detects_a_perturbation():
    tab = dict(a4().table)
    tab[(0, 1, 2)] = Vec.of(1, 0, 0, 1)  # e4 replaced by e4 + e1
    broken = Hom3LieAlgebra(4, tab, Mat.identity(4))
    report = verify_hom_jacobi(broken)
    assert report.hom_jacobi_ok is False
    assert report.violations and report.violations_total > 0
    v = report.violations[0]
    assert v.identity == "hom_jacobi" and v.left != v.right


def test_witness_lists_are_truncated_with_exact_totals():
    table = {key: Vec.of(1, 1, 1, 1, 1) for key in itertools.combinations(range(5), 3)}
    broken = Hom3LieAlgebra(5, table, Mat.identity(5))
    rep = verify_hom_jacobi(broken)
    assert len(rep.violations) == 16
    assert rep.violations_total == 140


def test_merged_ands_shared_flags_and_keeps_the_first_witnesses():
    first = tuple(Violation("skew", (i,)) for i in range(MAX_WITNESSES))
    a = Report({"skew": True, "regular": True}, first, 20)
    b = Report({"skew": False}, (Violation("skew", (99,)),), 1)
    for merged in (a.merged(b), b.merged(a)):
        assert merged.flags == {"skew": False, "regular": True} and merged.violations_total == 21
        assert not merged.ok
    assert a.merged(b).violations == first
    assert b.merged(a).violations == b.violations + first[:-1]


def test_multiplicative_examples():
    assert verify_multiplicative(l3h(2)).multiplicative_ok
    assert verify_multiplicative(ab3s()).multiplicative_ok
    bad = Hom3LieAlgebra(3, dict(l3().table), Mat.diagonal([1, 2, 1]))
    rep = verify_multiplicative(bad)
    # alpha [e1,e2,e3] = e1 while [alpha e1, alpha e2, alpha e3] = 2 e1
    assert rep.multiplicative_ok is False
    assert rep.violations[0].indices == (0, 1, 2)


def test_regular_examples():
    assert verify_regular(l3()).regular_ok
    assert verify_regular(ab3s()).regular_ok
    assert verify_regular(l3h(0)).regular_ok is False
    assert verify_regular(l3h(0)).multiplicative_ok is True


def test_subalgebra_and_ideal_examples():
    L = l3()
    assert is_ideal(L, span(3, e(3, 0)))
    assert is_subalgebra(L, Subspace.full(3))
    assert is_ideal(a4(), span(4, e(4, 0))) is False
    # twist-stability matters: span(e1) is not stable under diag(0,1,1)+shift
    twisted = Hom3LieAlgebra(3, {}, Mat.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 1]]))
    assert is_ideal(twisted, span(3, e(3, 0))) is False
    with pytest.raises(DimensionMismatch):
        is_ideal(L, Subspace.full(4))


def test_direct_sum_examples():
    s = direct_sum(ab3(), ab3())
    assert s.dim == 6 and not s.table
    mixed = direct_sum(l3(), l3())
    assert mixed.bracket(e(6, 0), e(6, 1), e(6, 3)).is_zero()
    t = direct_sum(l3(), ab3s())
    assert verify_hom_jacobi(t).hom_jacobi_ok
    assert verify_multiplicative(t).multiplicative_ok


def test_direct_sums_of_catalog_pairs_pass(algebras):
    for L, G in itertools.combinations(algebras.values(), 2):
        s = direct_sum(L, G)
        assert verify_hom_jacobi(s).hom_jacobi_ok
        assert verify_multiplicative(s).multiplicative_ok


def test_morphism_examples():
    L = l3()
    assert is_morphism(Mat.identity(3), L, L)
    assert is_morphism(Mat.zero(3, 3), L, ab3())
    # rescaling e1 is a morphism here, swapping e1 and e2 is not
    assert is_morphism(Mat.diagonal([2, 1, 1]), L, L)
    swap = Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert is_morphism(swap, L, L) is False


def test_graph_examples():
    L, G = l3(), ab3()
    g0 = graph(Mat.zero(3, 3), L, G)
    assert g0 == span(6, e(6, 0), e(6, 1), e(6, 2))
    assert graph(Mat.identity(3), L, L).dim == 3


def test_graph_characterizes_morphisms(algebras):
    rng = random.Random(2024)
    names = ["L3", "A4", "AB3s"]
    for src in names:
        for dst in names:
            L, G = algebras[src], algebras[dst]
            total = direct_sum(L, G)
            for _ in range(6):
                phi = random_mat(rng, G.dim, L.dim)
                assert is_morphism(phi, L, G) == is_subalgebra(total, graph(phi, L, G))
            ident = Mat.identity(L.dim)
            if src == dst:
                assert is_subalgebra(total, graph(ident, L, G))
            zero = Mat.zero(G.dim, L.dim)
            assert is_morphism(zero, L, G) == is_subalgebra(total, graph(zero, L, G))


def test_quotient_examples():
    q, proj = quotient(l3(), span(3, e(3, 0)))
    assert q.dim == 2 and not q.table
    assert proj.rows == 2 and proj.cols == 3

    q2, proj2 = quotient(l3(), Subspace.zero(3))
    assert q2 == l3() and proj2 == Mat.identity(3)

    q3, _ = quotient(n4(), span(4, e(4, 3)))
    assert q3.dim == 3 and not q3.table

    with pytest.raises(IdealRequired):
        quotient(a4(), span(4, e(4, 0)))


def test_quotient_stays_verified(algebras):
    cases = [
        (algebras["L3"], span(3, e(3, 0))),
        (algebras["N4"], span(4, e(4, 3))),
        (algebras["A4"], Subspace.zero(4)),
        (algebras["AB3s"], span(3, e(3, 1))),
    ]
    for L, ideal in cases:
        assert is_ideal(L, ideal)
        q, _ = quotient(L, ideal)
        assert verify_hom_jacobi(q).hom_jacobi_ok
        assert verify_multiplicative(q).multiplicative_ok


def test_subspace_bracket_examples():
    full3 = Subspace.full(3)
    assert subspace_bracket(ab3(), full3, full3, full3).dim == 0
    assert subspace_bracket(l3(), full3, full3, full3) == span(3, e(3, 0))
    full4 = Subspace.full(4)
    assert subspace_bracket(n4(), span(4, e(4, 3)), full4, full4).dim == 0
    # equal proper slots: the one increasing triple of s brackets to e4
    s = span(4, e(4, 0), e(4, 1), e(4, 2))
    assert subspace_bracket(a4(), s, s, s) == span(4, e(4, 3))


@st.composite
def bracket_tables(draw) -> Hom3LieAlgebra:
    """An alternating bracket with a few random nonzero values; the twist plays no part."""
    n = draw(st.integers(3, 5))
    keys = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 3))),
                         unique=True, max_size=6))
    table = {k: Vec.of(*draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))) for k in keys}
    return Hom3LieAlgebra(n, table, Mat.identity(n))


def subspaces(n: int):
    rows = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return st.lists(rows, max_size=n).map(lambda rs: Subspace.span(n, [Vec.of(*r) for r in rs]))


@given(bracket_tables(), st.data())
def test_subspace_bracket_matches_the_span_of_all_ordered_triples(L, data):
    """The series' slot patterns (s, s, L) and (s, L, L), distinct subspaces,
    all three slots equal, and equal subspaces held as distinct objects."""
    n = L.dim
    s, t = data.draw(subspaces(n)), data.draw(subspaces(n))
    full, same = Subspace.full(n), Subspace(n, s.basis)
    for slots in ((s, s, full), (s, full, full), (s, t, full), (t, s, full), (s, t, s),
                  (s, same, s), (s, s, s), (full, full, full)):
        ordered = [L.bracket(a, b, c) for a, b, c in itertools.product(*(x.basis for x in slots))]
        assert subspace_bracket(L, *slots) == Subspace.span(n, ordered)


def test_skew_validator_accepts_the_stored_extension():
    """With D = 0 the extension's table is A4's, padded by zeros, and skew."""
    ext, report = derivation_extension(a4(), Mat.zero(4, 4))
    assert report.skew_ok
    assert not [v for v in report.violations if v.identity == "skew"]
    for i, j, k in itertools.product(range(5), repeat=3):
        want = oracle.bracket_basis(a4(), i, j, k).concat(Vec.zero(1)) if 4 not in (i, j, k) else Vec.zero(5)
        assert ext.value(i, j, k) == want


def test_skew_validator_flags_a_nonskew_table():
    """A nonzero D breaks skewness; the first witness is the repeated index (0, 0, n)."""
    d = Mat.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    ext, report = derivation_extension(l3(), d)
    assert not report.skew_ok
    first = report.violations[0]
    assert (first.identity, first.indices) == ("skew", (0, 0, 3))
    assert first.left == ext.value(0, 0, 3) == -Vec.basis(4, 0)
    assert first.right == Vec.zero(4)


@given(st.integers(0, 2**32 - 1))
def test_bracket_is_alternating_and_skew_on_random_vectors(seed):
    rng = random.Random(seed)
    L = a4()
    x, y, z = (random_vec(rng, 4) for _ in range(3))
    base = L.bracket(x, y, z)
    assert L.bracket(x, x, z).is_zero()
    assert L.bracket(y, x, z) == -base
    assert L.bracket(z, y, x) == -base
    assert L.bracket(y, z, x) == base
    two_x = x.scale(2)
    assert L.bracket(two_x, y, z) == base.scale(2)
    assert L.bracket(x + y, y, z) == base


@given(st.integers(0, 2**32 - 1), st.sampled_from(["A4", "L3h2", "N4"]))
def test_hom_jacobi_holds_on_random_vectors(seed, name):
    rng = random.Random(seed)
    L = catalog()[name]
    n = L.dim
    x, y, u, v, w = (random_vec(rng, n) for _ in range(5))
    al = L.twist
    lhs = L.bracket(al.apply(x), al.apply(y), L.bracket(u, v, w))
    rhs = (
        L.bracket(L.bracket(x, y, u), al.apply(v), al.apply(w))
        + L.bracket(al.apply(u), L.bracket(x, y, v), al.apply(w))
        + L.bracket(al.apply(u), al.apply(v), L.bracket(x, y, w))
    )
    assert lhs == rhs


@st.composite
def subspace_cases(draw):
    """A base algebra, a direct sum of two or a T*-double, and a subspace:
    an ideal candidate ([L, L, L], the second summand, the dual part, 0 or
    L; not twist-stable where the twist is not multiplicative), the span
    of basis vectors or of drawn vectors (mostly no ideal and not
    twist-stable); often both carried along a map with denominators 3, 7
    and 11, so that the pivot rows carry off-pivot entries."""
    L = draw(st.sampled_from(BASES))
    n = L.dim
    kind = draw(st.sampled_from(["base", "sum", "tstar"]))
    ideals = []
    if kind == "sum":
        G = draw(st.sampled_from(BASES))
        L = direct_sum(L, G)
        ideals.append(Subspace.span(n + G.dim, [Vec.basis(n + G.dim, n + i) for i in range(G.dim)]))
    elif kind == "tstar":
        raw = {key: Vec.basis(n, draw(st.integers(0, n - 1)))
               for key in draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 3))),
                                        max_size=2))}
        L, _ = t_star_extension(L, cyclic_part(Cocycle(n, n, raw)))
        ideals.append(Subspace.span(2 * n, [Vec.basis(2 * n, n + i) for i in range(n)]))
    n = L.dim
    full = Subspace.full(n)
    ideals += [subspace_bracket(L, full, full, full), Subspace.zero(n), full]
    choice = draw(st.sampled_from(["ideal", "ideal", "basis", "drawn"]))
    if choice == "ideal":
        s = draw(st.sampled_from(ideals[:1] * 3 + ideals))
    elif choice == "basis":
        s = span(n, *(e(n, i) for i in draw(st.sets(st.integers(0, n - 1), min_size=1))))
    else:
        vecs = draw(st.lists(st.lists(factors, min_size=n, max_size=n), min_size=1, max_size=3))
        s = Subspace.span(n, [Vec(tuple(v)) for v in vecs])
    if draw(st.sampled_from([True, True, False])):
        phi, psi = draw(conjugations(n))
        L, s = carried(L, phi, psi), Subspace.span(n, [phi.apply(v) for v in s.basis])
    return L, s


@settings(max_examples=100)
@given(subspace_cases())
@example((ab3s(), span(3, Vec.of(1, 1, 0))))  # [s, L, L] = 0 lies in s, but alpha s does not
def test_is_ideal_and_quotient_match_the_brute_force_oracle(case):
    L, s = case
    ideal = oracle.is_ideal(L, s)
    assert is_ideal(L, s) == ideal
    if ideal:
        assert quotient(L, s) == oracle.quotient(L, s)
    else:
        with pytest.raises(IdealRequired):
            quotient(L, s)
