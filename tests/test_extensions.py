import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dense_oracle as oracle
from conftest import random_mat, random_vec
from hom3lie.algebras import MAX_WITNESSES, Hom3LieAlgebra, increasing_triples
from hom3lie.errors import CocycleInvalid, DimensionMismatch
from hom3lie.extensions import (
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
from hom3lie.fixtures import a4, ab3, l3, n4
from hom3lie.io import algebra_to_dict, form_to_dict, load_algebra, load_form, write_json
from hom3lie.linalg import Mat, Vec, rank
from hom3lie.representations import (
    Representation,
    adjoint_rep,
    coadjoint_rep,
    verify_representation,
)


def rand_theta(rng, n, m=None):
    m = n if m is None else m
    table = {}
    for key in increasing_triples(n):
        v = Vec.of(*[rng.randint(-2, 2) for _ in range(m)])
        if not v.is_zero():
            table[key] = v
    return Cocycle(n, m, table)


def test_zero_cocycle_verifies():
    L = l3()
    assert verify_cocycle(L, adjoint_rep(L), Cocycle.zero(3, 3)).ok


def test_single_dual_generator_is_a_cocycle_on_l3():
    # decided by the 5-tuple sweep
    L = l3()
    th = Cocycle(3, 3, {(0, 1, 2): Vec.basis(3, 0)})
    assert verify_cocycle(L, coadjoint_rep(L), th).ok


def test_cocycle_shape_guard():
    L = l3()
    with pytest.raises(DimensionMismatch):
        verify_cocycle(L, adjoint_rep(L), Cocycle.zero(3, 2))


def test_an_action_over_another_algebra_dimension_is_rejected():
    # adjoint action of L3 (dim 3) offered to A4 (dim 4), with a 3 x 4 map
    L, r = a4(), adjoint_rep(l3())
    f = Mat.from_rows([[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(DimensionMismatch, match="different algebra dimension"):
        coboundary(L, r, f)
    with pytest.raises(DimensionMismatch, match="different algebra dimension"):
        shift_isomorphism(L, r, Cocycle.zero(4, 3), f)


def test_coboundary_rejects_a_map_of_the_wrong_shape():
    L = l3()
    for f in (Mat.zero(3, 2), Mat.zero(2, 3)):
        with pytest.raises(DimensionMismatch, match="map f: L -> V has the wrong shape"):
            coboundary(L, adjoint_rep(L), f)


def test_coboundary_values():
    L = l3()
    r = adjoint_rep(L)
    assert coboundary(L, r, Mat.zero(3, 3)).table == {}
    # each adjoint term contributes e1, so the identity map gives -2 e1
    th = coboundary(L, r, Mat.identity(3))
    assert th.table[(0, 1, 2)] == Vec.of(-2, 0, 0)
    zero_rho = Representation(3, 3, Mat.identity(3), {})
    assert coboundary(ab3(), zero_rho, Mat.identity(3)).table == {}


def test_coboundaries_are_cocycles_on_module_pairs(algebras):
    rng = random.Random(31)
    for name, L in algebras.items():
        for r in (adjoint_rep(L), coadjoint_rep(L)):
            if not verify_representation(L, r).ok:
                continue  # dual fails the module identities for L3h2
            for _ in range(6):
                f = random_mat(rng, r.module_dim, L.dim)
                assert verify_cocycle(L, r, coboundary(L, r, f)).ok, name


def test_t_theta_zero_equals_semidirect():
    L = l3()
    r = adjoint_rep(L)
    alg, report = t_theta_extension(L, r, Cocycle.zero(3, 3))
    assert report.ok
    assert alg == semidirect_product(L, r)


def test_t_theta_with_coboundary_passes():
    rng = random.Random(8)
    L = l3()
    r = coadjoint_rep(L)
    th = coboundary(L, r, random_mat(rng, 3, 3))
    alg, report = t_theta_extension(L, r, th)
    assert report.hom_jacobi_ok and report.multiplicative_ok
    # three module arguments always bracket to zero
    e = lambda i: Vec.basis(6, i)
    assert alg.bracket(e(3), e(4), e(5)).is_zero()


def test_t_theta_rejects_a_non_cocycle():
    L = n4()
    r = coadjoint_rep(L)
    bad = Cocycle(4, 4, {(0, 1, 3): Vec.basis(4, 3)})
    assert verify_cocycle(L, r, bad).ok is False
    with pytest.raises(CocycleInvalid):
        t_theta_extension(L, r, bad)


def test_t_star_values_and_form():
    L = l3()
    alg, q = t_star_extension(L, Cocycle.zero(3, 3))
    assert alg.dim == 6
    assert q.gram == Mat.from_rows(
        [
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
        ]
    )
    e = lambda i: Vec.basis(6, i)
    # ad*(e1,e2) kills the dual of e3 and sends the dual of e1 to -e3*
    assert alg.bracket(e(0), e(1), e(5)).is_zero()
    assert alg.bracket(e(0), e(1), e(3)) == -e(5)
    assert rank(q.gram) == 6


def test_t_star_is_nondegenerate_for_random_theta():
    rng = random.Random(12)
    for L in (l3(), n4()):
        for _ in range(5):
            alg, q = t_star_extension(L, rand_theta(rng, L.dim))
            assert rank(q.gram) == 2 * L.dim
            assert alg.dim == 2 * L.dim


def test_t_star_dimension_guard():
    with pytest.raises(DimensionMismatch):
        t_star_extension(l3(), Cocycle.zero(3, 2))


EPSILON = Cocycle(4, 4, {(0, 1, 2): Vec.basis(4, 3), (0, 1, 3): -Vec.basis(4, 2),
                         (0, 2, 3): Vec.basis(4, 1), (1, 2, 3): -Vec.basis(4, 0)})


def test_theta_cyclic_examples():
    L = l3()
    assert theta_cyclic_ok(L, Cocycle.zero(3, 3))
    bad = Cocycle(3, 3, {(0, 1, 2): Vec.basis(3, 2)})  # pairs (k, l) = (3, 3)
    assert theta_cyclic_ok(L, bad) is False
    # off-support value on a 4-dim algebra can satisfy the identity
    assert theta_cyclic_ok(n4(), EPSILON)


@st.composite
def cyclic_candidates(draw):
    """Maps L^3 -> L* in dimensions 3 to 5: cyclic parts, cyclic parts
    with one entry changed, and maps as drawn."""
    n = draw(st.integers(3, 5))
    triples = list(increasing_triples(n))
    entries = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    th = Cocycle(n, n, {key: Vec.of(*draw(entries))
                        for key in draw(st.lists(st.sampled_from(triples), max_size=4))})
    kind = draw(st.sampled_from(["cyclic", "perturbed", "drawn"]))
    if kind != "drawn":
        th = cyclic_part(th)
    if kind == "perturbed":
        change = Vec.basis(n, draw(st.integers(0, n - 1))).scale(draw(st.integers(-2, 2)))
        th = th + Cocycle(n, n, {draw(st.sampled_from(triples)): change})
    return th


def assert_invariance_of_theta_matches_the_ordered_tuples(th):
    """``verify_metric`` on the algebra with theta's table as its bracket and the
    identity form, so W = theta: its total and witnesses are those of the loop
    over every ordered 4-tuple (a, b, c, d) with theta(a,b,c)(d) + theta(a,b,d)(c)
    != 0, and ``theta_cyclic_ok`` holds iff that loop finds none."""
    n, I = th.algebra_dim, Mat.identity(th.algebra_dim)
    failing = [x for x in itertools.product(range(n), repeat=4)
               if oracle.theta_basis(th, *x[:3])[x[3]] + oracle.theta_basis(th, *x[:2], x[3])[x[2]] != 0]
    report = verify_metric(Hom3LieAlgebra(n, th.table, I), BilinForm(n, I))
    assert report.violations_total == len(failing)
    assert [v.indices for v in report.violations] == failing[:MAX_WITNESSES]
    assert theta_cyclic_ok(Hom3LieAlgebra(n, {}, I), th) == (not failing)


@example(EPSILON)
@given(cyclic_candidates())
def test_theta_cyclic_ok_matches_the_pairwise_sweep(th):
    """``theta_cyclic_ok`` against the oracle, and the invariance sweep of
    ``verify_metric`` on theta against the loop over every ordered 4-tuple."""
    n = th.algebra_dim
    assert theta_cyclic_ok(Hom3LieAlgebra(n, {}, Mat.identity(n)), th) == oracle.theta_cyclic(th)
    assert_invariance_of_theta_matches_the_ordered_tuples(th)


@st.composite
def perturbed_four_forms(draw):
    """theta(a,b,c)(d) = F(a,b,c,d) for a drawn alternating 4-form F in dimensions 4 to 6,
    with values of coprime denominators, then perturbed: values added at one or two keys'
    own indices (failures with a repeated index), and one 4-set given a value whose four
    splits do not all carry their alternating sign (opposite signs on one 4-set)."""
    n = draw(st.integers(4, 6))
    values = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)])
    quads = list(itertools.combinations(range(n), 4))
    table = {}

    def put(key, i, x):
        col = table.setdefault(key, {})
        col[i] = col.get(i, 0) + x

    for q in draw(st.lists(st.sampled_from(quads), max_size=5, unique=True)):
        f = draw(values)
        for r in range(4):
            put(q[:r] + q[r + 1:], q[r], f if r % 2 else -f)
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(list(increasing_triples(n))))
        put(key, draw(st.sampled_from(key)), draw(values))
    if draw(st.booleans()):
        q, f = draw(st.sampled_from(quads)), draw(values)
        flips = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
        for r in range(4):
            put(q[:r] + q[r + 1:], q[r], (f if r % 2 else -f) * (-1 if r in flips else 1))
    return Cocycle(n, n, {key: Vec.of(*(col.get(i, 0) for i in range(n))) for key, col in table.items()})


@given(perturbed_four_forms())
def test_the_four_set_reader_matches_the_dense_oracles(th):
    """``verify_metric`` on theta (total and witnesses), ``theta_cyclic_ok`` and
    ``cyclic_part`` against the dense oracles on alternating tables and their
    perturbations: failures at a repeated index, and 4-sets reached by values
    of mixed signs."""
    assert_invariance_of_theta_matches_the_ordered_tuples(th)
    assert cyclic_part(th).table == oracle.cyclic_part(th)


def test_an_accepted_metric_check_builds_no_trie(tmp_path):
    """On an invariant T*-double read from its files, ``verify_metric`` reads the
    stored table only: the algebra's trie is not built."""
    g, form = t_star_extension(a4(), cyclic_part(Cocycle(4, 4, {(0, 1, 2): Vec.of(1, 2, 0, 3)})))
    write_json(tmp_path / "g.json", algebra_to_dict(g))
    write_json(tmp_path / "q.json", form_to_dict(form))
    alg = load_algebra(tmp_path / "g.json")
    assert verify_metric(alg, load_form(tmp_path / "q.json")).ok
    assert "trie" not in alg.alt.__dict__


def refuse(*args, **kwargs):
    raise AssertionError("not to be called")


def test_the_cyclicity_check_records_no_sweep(monkeypatch):
    """``theta_cyclic_ok`` decides from the 4-sets alone: rejecting theta adds no witness."""
    th = Cocycle(4, 4, {(0, 1, 2): Vec.of(0, 0, 0, 1)})
    monkeypatch.setattr("hom3lie.algebras.Sweep.add", refuse)
    assert not theta_cyclic_ok(a4(), th)


def test_the_metric_check_builds_no_alternating_table(monkeypatch):
    """``verify_metric`` hands W's integer rows to the 4-set reader as they are."""
    g, form = t_star_extension(a4(), cyclic_part(Cocycle(4, 4, {(0, 1, 2): Vec.of(1, 2, 0, 3)})))
    monkeypatch.setattr("hom3lie.extensions.AltTable", refuse)
    assert verify_metric(g, form).ok


@example(EPSILON)
@given(cyclic_candidates())
def test_cyclic_part_matches_the_dense_alternation(th):
    """``cyclic_part`` against the alternation over S4 on every ordered
    4-tuple, and ``theta_cyclic_ok``, which does not project, against
    whether the projection fixes theta."""
    n = th.algebra_dim
    assert cyclic_part(th).table == oracle.cyclic_part(th)
    assert theta_cyclic_ok(Hom3LieAlgebra(n, {}, Mat.identity(n)), th) == (cyclic_part(th) == th)


def test_cyclic_part_is_a_projector_onto_the_cyclic_class():
    rng = random.Random(77)
    for L in (l3(), n4(), a4()):
        n = L.dim
        for _ in range(10):
            th = rand_theta(rng, n)
            cp = cyclic_part(th)
            assert theta_cyclic_ok(L, cp)
            assert cyclic_part(cp).table == cp.table
        if n == 3:
            # alternating 4-tensors vanish in ambient dimension three
            assert cyclic_part(rand_theta(rng, n)).table == {}


def test_metric_flags_match_cyclicity():
    rng = random.Random(99)
    for L in (n4(), a4()):
        n = L.dim
        for _ in range(8):
            th = rand_theta(rng, n)
            for cand in (th, cyclic_part(th)):
                alg, q = t_star_extension(L, cand)
                rep = verify_metric(alg, q)
                assert rep.symmetric_ok and rep.nondegenerate_ok
                assert rep.invariant_ok == theta_cyclic_ok(L, cand)


def test_metric_on_abelian_identity_form():
    rep = verify_metric(ab3(), BilinForm(3, Mat.identity(3)))
    assert rep.ok
    assert rep.twist_invariant_ok


def test_metric_witnesses_are_reported():
    L = n4()
    th = Cocycle(4, 4, {(0, 1, 2): Vec.basis(4, 2)})
    assert theta_cyclic_ok(L, th) is False
    alg, q = t_star_extension(L, th)
    rep = verify_metric(alg, q)
    assert rep.invariant_ok is False and rep.violations


def test_shift_isomorphism_identity_case():
    L = l3()
    r = coadjoint_rep(L)
    sigma, ok = shift_isomorphism(L, r, Cocycle.zero(3, 3), Mat.zero(3, 3))
    assert ok and sigma == Mat.identity(6)


def test_shift_isomorphism_random_maps():
    rng = random.Random(21)
    for L in (l3(), n4()):
        n = L.dim
        r = coadjoint_rep(L)
        for _ in range(10):
            f = random_mat(rng, n, n)
            sigma, ok = shift_isomorphism(L, r, Cocycle.zero(n, n), f)
            assert ok
            # unitriangular block form always has full rank
            assert rank(sigma) == 2 * n


def test_shift_isomorphism_needs_twist_compatibility():
    # with a twisted module the shift intertwines the twists
    # only when A f = f alpha, so a generic f is rejected
    from hom3lie.fixtures import ab3s

    L = ab3s()
    r = coadjoint_rep(L)
    f = Mat.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    _, ok = shift_isomorphism(L, r, Cocycle.zero(3, 3), f)
    assert ok is False
    compatible = Mat.diagonal([1, 2, 3])
    _, ok2 = shift_isomorphism(L, r, Cocycle.zero(3, 3), compatible)
    assert ok2 is True


def test_is_isometry_examples():
    G = ab3()
    b = BilinForm(3, Mat.identity(3))
    assert is_isometry(G, b, G, b, Mat.identity(3))
    assert is_isometry(G, b, G, b, Mat.identity(3).scale(-1))
    assert is_isometry(G, b, G, b, Mat.diagonal([2, 1, 1])) is False
    with pytest.raises(DimensionMismatch):
        is_isometry(G, b, G, b, Mat.identity(4))


@given(st.integers(0, 2**32 - 1))
def test_hyperbolic_form_evaluates_like_the_pairing(seed):
    rng = random.Random(seed)
    n = 3
    q = hyperbolic_form(n)
    x, f1 = random_vec(rng, n), random_vec(rng, n)
    y, f2 = random_vec(rng, n), random_vec(rng, n)
    left = x.concat(f1)
    right = y.concat(f2)
    assert q.eval(left, right) == f1.dot(y) + f2.dot(x)
