"""The sparse identity sweeps against the dense reference sweeps.

Hypothesis perturbs structure constants, twists, actions and cocycles of
the fixtures and of the Yau twist of A4, whose twist is dense, and
bilinear forms on them and on their dual-space extensions.  Every
report must equal the dense oracle's field for field: flags, totals,
and the witness tuples with their evaluated sides, in sweep order.

The library sweeps visit one tuple per orbit of each residual's index
symmetry (``Sweep``); the oracles visit every ordered tuple.  The
``interleaved`` cases pick inputs with more than MAX_WITNESSES
violations whose orbits alternate in lexicographic order, which is
where expanding the orbits back into the ordered sweep's witnesses can
go wrong.  The one sweep of a module extension E, which gives the
representation, cocycle and E reports together, is also held to
``verify_axioms(E)``, the full sweep of E.

The library sweeps run on integers, each tensor scaled by its common
denominator.  The ``coprime`` cases scale the bracket, the twist, the
action, the module twist and theta by factors whose denominators are
drawn separately from 1, 3, 7 and 11, so that a wrong multiplier shows.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
from conftest import action_block
from hom3lie.algebras import (
    MAX_WITNESSES,
    Hom3LieAlgebra,
    Sweep,
    _report,
    hom_jacobi_sides,
    increasing_triples,
    verify_axioms,
    verify_hom_jacobi,
    verify_multiplicative,
)
from hom3lie.extensions import (
    BilinForm,
    Cocycle,
    coboundary,
    cyclic_part,
    t_star_extension,
    verify_cocycle,
    verify_metric,
)
from hom3lie.fixtures import a4, catalog
from hom3lie.linalg import Mat, Vec, inverse
from hom3lie.representations import (
    Representation,
    _extension_sweep,
    _semidirect_table,
    adjoint_rep,
    coadjoint_rep,
    dual_rep,
    verify_representation,
)


def _rotation(n: int, i: int, j: int) -> Mat:
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[i][i], rows[i][j] = Fraction(3, 5), Fraction(-4, 5)
    rows[j][i], rows[j][j] = Fraction(4, 5), Fraction(3, 5)
    return Mat.from_rows(rows)


def yau_a4() -> Hom3LieAlgebra:
    """Yau twist of A4 by the dense rotation R12 R23 R34 (an automorphism)."""
    alpha = _rotation(4, 0, 1) @ _rotation(4, 1, 2) @ _rotation(4, 2, 3)
    return Hom3LieAlgebra(4, {key: alpha.apply(v) for key, v in a4().table.items()}, alpha)


BASES = list(catalog().values()) + [yau_a4()]

small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def perturbed(draw, bases=BASES):
    """A base algebra with a few structure constants and twist entries
    changed, and above dimension 3 one more constant changed by a nonzero
    multiple of a basis vector, which mostly fails hom-Jacobi.  In
    dimension 3, [x, y, z] = det(x, y, z) c for a fixed c, and hom-Jacobi
    holds for every such bracket and every twist, so only the larger
    bases can reach its failing path."""
    L = draw(st.sampled_from(bases))
    n = L.dim
    table = dict(L.table)
    triples = list(increasing_triples(n))
    for key in draw(st.lists(st.sampled_from(triples), max_size=2)):
        delta = Vec(tuple(draw(st.lists(small, min_size=n, max_size=n))))
        table[key] = table.get(key, Vec.zero(n)) + delta
    if n > 3:
        key = draw(st.sampled_from(triples))
        change = Vec.basis(n, draw(st.integers(0, n - 1))).scale(draw(small.filter(bool)))
        table[key] = table.get(key, Vec.zero(n)) + change
    twist = [[L.twist.at(r, c) for c in range(n)] for r in range(n)]
    if draw(st.booleans()):
        twist[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += draw(small)
    return Hom3LieAlgebra(n, table, Mat.from_rows(twist))


@given(perturbed())
def test_hom_jacobi_and_multiplicativity_match_the_dense_sweeps(L):
    assert verify_hom_jacobi(L) == oracle.hom_jacobi(L)
    assert verify_multiplicative(L) == oracle.multiplicative(L)


@st.composite
def module_pairs(draw):
    """A (perturbed) algebra with a perturbed adjoint or coadjoint action."""
    L = draw(perturbed())
    r = draw(st.sampled_from([adjoint_rep, coadjoint_rep]))(L)
    n, m = L.dim, r.module_dim
    mats = oracle.action_matrices(r)
    if draw(st.booleans()):
        key = draw(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
        delta = Mat.from_rows([draw(st.lists(small, min_size=m, max_size=m)) for _ in range(m)])
        mats[key] = mats.get(key, Mat.zero(m, m)) + delta
    return L, Representation(n, m, r.twist, action_block(n, m, mats))


@settings(max_examples=20)
@given(module_pairs())
def test_representation_sweep_matches_the_dense_sweep(pair):
    L, r = pair
    assert verify_representation(L, r) == oracle.representation(L, r)


@settings(max_examples=12)
@given(module_pairs(), st.data())
def test_cocycle_sweep_matches_the_dense_sweep(pair, data):
    L, r = pair
    n, m = L.dim, r.module_dim
    keys = data.draw(st.lists(st.sampled_from(list(increasing_triples(n))), max_size=2))
    table = {key: Vec(tuple(data.draw(st.lists(small, min_size=m, max_size=m))))
             for key in keys}
    th = Cocycle(n, m, table)
    assert verify_cocycle(L, r, th) == oracle.cocycle(L, r, th)


# Rationals whose denominators are 1 or coprime to each other and to the
# 5s of A4y, so that each tensor's common denominator is its own: a
# multiplier of the integer sweeps that is off by one of them shows.
DENOMINATORS = (1, 3, 7, 11)
factors = st.builds(Fraction, st.sampled_from([1, -1, 2, -5]), st.sampled_from(DENOMINATORS))


def rescaled_bracket(L: Hom3LieAlgebra, c: Fraction, twist: Mat) -> Hom3LieAlgebra:
    return Hom3LieAlgebra(L.dim, {key: v.scale(c) for key, v in L.table.items()}, twist)


@st.composite
def conjugations(draw, n: int):
    """An invertible map phi and its inverse: a unit lower times a unit upper
    triangular matrix, each with up to n off-diagonal entries +-1 or +-2
    over 3, 7 or 11, so that what phi carries gets its own denominators."""
    entry = st.builds(Fraction, st.sampled_from([1, -1, 2, -2]), st.sampled_from([3, 7, 11]))
    phi = Mat.identity(n)
    for below in (True, False):
        rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        cells = [(r, c) for r in range(n) for c in range(n) if r != c and (r > c) == below]
        for r, c in draw(st.lists(st.sampled_from(cells), max_size=n)) if cells else ():
            rows[r][c] = draw(entry)
        phi = phi @ Mat.from_rows(rows)
    return phi, inverse(phi)


def carried(L: Hom3LieAlgebra, phi: Mat, psi: Mat) -> Hom3LieAlgebra:
    """L carried along phi, psi its inverse: [x, y, z] -> phi [psi x, psi y, psi z]
    and alpha -> phi alpha psi, an isomorphic algebra."""
    cols = [psi.col(i) for i in range(L.dim)]
    table = {(i, j, k): phi.apply(L.bracket(cols[i], cols[j], cols[k]))
             for i, j, k in increasing_triples(L.dim)}
    return Hom3LieAlgebra(L.dim, table, phi @ L.twist @ psi)


@st.composite
def coprime_algebras(draw):
    """A base algebra with its bracket and its twist scaled by separately
    drawn factors, and sometimes one structure constant changed by a third.
    Scaling the bracket keeps both identities; a twist scaled by other than
    +-1 breaks multiplicativity, a changed constant mostly hom-Jacobi."""
    L = draw(st.sampled_from(BASES))
    n = L.dim
    L = rescaled_bracket(L, draw(factors), L.twist.scale(draw(st.just(1) | factors)))
    if draw(st.booleans()):
        key = draw(st.sampled_from(list(increasing_triples(n))))
        change = Vec.basis(n, draw(st.integers(0, n - 1))).scale(draw(factors))
        L = Hom3LieAlgebra(n, {**L.table, key: L.table.get(key, Vec.zero(n)) + change}, L.twist)
    return L


@given(coprime_algebras())
def test_hom_jacobi_and_multiplicativity_match_the_dense_sweeps_on_coprime_scales(L):
    assert verify_hom_jacobi(L) == oracle.hom_jacobi(L)
    assert verify_multiplicative(L) == oracle.multiplicative(L)


@st.composite
def coprime_modules(draw):
    """A coprime-scaled algebra with its adjoint or coadjoint action scaled by c
    and the module twist by c (the identities can hold, with rho's common
    denominator not the bracket's) or by its own factor, and sometimes one
    action entry changed by another."""
    L = draw(coprime_algebras())
    r = draw(st.sampled_from([adjoint_rep, coadjoint_rep]))(L)
    n, m, c = L.dim, r.module_dim, draw(factors)
    mats = {key: mat.scale(c) for key, mat in oracle.action_matrices(r).items()}
    if draw(st.booleans()):
        key = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
        rows = [list(mats.get(key, Mat.zero(m, m)).row(i)) for i in range(m)]
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, m - 1))] += draw(factors)
        mats[key] = Mat.from_rows(rows)
    twist = r.twist.scale(draw(st.just(c) | factors))
    return L, Representation(n, m, twist, action_block(n, m, mats))


@settings(max_examples=25)
@given(coprime_modules())
def test_representation_sweep_matches_the_dense_sweep_on_coprime_scales(pair):
    L, r = pair
    assert verify_representation(L, r) == oracle.representation(L, r)


@settings(max_examples=20)
@given(coprime_modules(), factors, st.data())
def test_cocycle_sweep_matches_the_dense_sweep_on_coprime_scales(pair, c, data):
    """theta a multiple of the coboundary of the identity (a cocycle when
    the action is a representation with the twist as module twist) or
    drawn entries, with its own denominator."""
    L, r = pair
    n, m = L.dim, r.module_dim
    if data.draw(st.booleans()):
        th = coboundary(L, r, Mat.identity(n).scale(c))
    else:
        keys = data.draw(st.lists(st.sampled_from(list(increasing_triples(n))), max_size=2))
        th = Cocycle(n, m, {key: Vec.basis(m, data.draw(st.integers(0, m - 1))).scale(c)
                            for key in keys})
    assert verify_cocycle(L, r, th) == oracle.cocycle(L, r, th)


# Module dimensions other than the algebra's, so that an offset that
# mixes up n and m in the [L, L, V] table of an action shows.
entries = st.just(0) | factors


def drawn_mat(draw, rows: int, cols: int) -> Mat:
    return Mat.from_rows([[draw(entries) for _ in range(cols)] for _ in range(rows)], cols=cols)


@st.composite
def foreign_modules(draw):
    """A base or coprime-scaled algebra acting on a module of dimension
    m != n: for m > n its adjoint or coadjoint action padded with zero rows
    and columns (a representation when the action is one, whatever the
    twist on the padding), for m < n one to three drawn action matrices
    with a drawn module twist; one action entry changed by a factor half
    the time."""
    L = draw(st.sampled_from(BASES) | coprime_algebras())
    n = L.dim
    m = draw(st.integers(1, n - 1) | st.integers(n + 1, n + 2))
    if m > n:
        r = draw(st.sampled_from([adjoint_rep, coadjoint_rep]))(L)
        twist = r.twist.block_diag(drawn_mat(draw, m - n, m - n))
        mats = {key: mat.block_diag(Mat.zero(m - n, m - n))
                for key, mat in oracle.action_matrices(r).items()}
    else:
        twist, pairs = drawn_mat(draw, m, m), list(itertools.combinations(range(n), 2))
        mats = {key: drawn_mat(draw, m, m)
                for key in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))}
    if draw(st.booleans()):
        key = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
        change = Mat.from_rows([[int(i == j == 0) for j in range(m)] for i in range(m)])
        mats[key] = mats.get(key, Mat.zero(m, m)) + change.scale(draw(factors))
    return L, Representation(n, m, twist, action_block(n, m, mats))


def drawn_cocycle(data, n: int, m: int) -> Cocycle:
    keys = data.draw(st.lists(st.sampled_from(list(increasing_triples(n))), max_size=3))
    return Cocycle(n, m, {key: Vec(tuple(data.draw(entries) for _ in range(m))) for key in keys})


@settings(max_examples=25)
@given(foreign_modules())
def test_representation_sweep_matches_the_dense_sweep_on_another_module_dimension(pair):
    L, r = pair
    assert verify_representation(L, r) == oracle.representation(L, r)


@settings(max_examples=10)
@given(foreign_modules(), st.data())
def test_cocycle_sweep_matches_the_dense_sweep_on_another_module_dimension(pair, data):
    """theta the coboundary of a drawn map L -> V, or drawn entries."""
    L, r = pair
    n, m = L.dim, r.module_dim
    if data.draw(st.booleans()):
        th = coboundary(L, r, drawn_mat(data.draw, m, n))
    else:
        th = drawn_cocycle(data, n, m)
    assert verify_cocycle(L, r, th) == oracle.cocycle(L, r, th)


@settings(max_examples=15)
@given(foreign_modules(), st.data())
def test_semidirect_table_matches_the_literal_bracket_on_another_module_dimension(pair, data):
    """[u+X, v+Y, w+Z] = [u,v,w] + theta(u,v,w) + rho(u,v) Z + rho(w,u) Y
    + rho(v,w) X on every ordered triple of basis vectors of L + V, the
    right side from the dense oracle."""
    L, r = pair
    n, m = L.dim, r.module_dim
    th = drawn_cocycle(data, n, m)
    ext, mats = _semidirect_table(L, r, th.table), oracle.action_matrices(r)
    parts = [(Vec.basis(n, t), Vec.zero(m)) for t in range(n)]
    parts += [(Vec.zero(n), Vec.basis(m, c)) for c in range(m)]
    for (u, x), (v, y), (w, z) in itertools.product(parts, repeat=3):
        module = (oracle.theta(th, u, v, w) + oracle.rho(r, u, v, mats).apply(z)
                  + oracle.rho(r, w, u, mats).apply(y) + oracle.rho(r, v, w, mats).apply(x))
        expected = oracle.bracket(L, u, v, w).concat(module)
        assert ext.bracket(u.concat(x), v.concat(y), w.concat(z)) == expected


@settings(max_examples=25)
@given(foreign_modules(), st.data())
def test_action_matches_the_skew_extension_of_its_table_on_another_module_dimension(pair, data):
    L, r = pair
    n = L.dim
    for i, j in itertools.product(range(n), repeat=2):
        assert r.rho_basis(i, j) == oracle.rho_basis(r, i, j)
    x, y = (Vec(tuple(data.draw(entries) for _ in range(n))) for _ in range(2))
    assert r.apply(x, y) == oracle.rho(r, x, y)


@settings(max_examples=25)
@given(st.one_of(coprime_modules(), foreign_modules()))
def test_adjoint_coadjoint_and_dual_blocks_match_the_literal_matrices(pair):
    """Sliced off the blocks by the oracle: column c of ad(e_i, e_j) is
    B_ijc, ad* is -ad^T with twist alpha^T, and the dual of the drawn
    action is -rho^T with twist A^T."""
    L, r = pair
    ad, coad, dual = adjoint_rep(L), coadjoint_rep(L), dual_rep(r)
    for i, j in itertools.product(range(L.dim), repeat=2):
        literal = Mat.from_cols([oracle.bracket_basis(L, i, j, c) for c in range(L.dim)])
        assert oracle.rho_basis(ad, i, j) == literal
        assert oracle.rho_basis(coad, i, j) == -literal.transpose()
        assert oracle.rho_basis(dual, i, j) == -oracle.rho_basis(r, i, j).transpose()
    assert (ad.twist, coad.twist, dual.twist) == (L.twist, L.twist.transpose(), r.twist.transpose())


@settings(max_examples=25)
@given(st.one_of(coprime_modules(), foreign_modules()), st.data())
def test_coboundary_matches_the_literal_formula(pair, data):
    """theta_f(x,y,z) = f([x,y,z]) - rho(x,y) f(z) - rho(z,x) f(y) - rho(y,z) f(x)
    for a drawn map f: L -> V, with the oracle's matrices of rho."""
    L, r = pair
    n, m = L.dim, r.module_dim
    f, mats = drawn_mat(data.draw, m, n), oracle.action_matrices(r)
    fc = [f.col(i) for i in range(n)]
    expected = {}
    for x, y, z in increasing_triples(n):
        value = (f.apply(oracle.bracket_basis(L, x, y, z)) - oracle.rho_basis(r, x, y, mats).apply(fc[z])
                 - oracle.rho_basis(r, z, x, mats).apply(fc[y]) - oracle.rho_basis(r, y, z, mats).apply(fc[x]))
        if not value.is_zero():
            expected[x, y, z] = value
    assert coboundary(L, r, f).table == expected


@st.composite
def metric_cases(draw):
    """A dual-space extension with its metric or a perturbed algebra with a
    random form, then a few brackets and Gram entries changed, the Gram
    entries in symmetric pairs or alone."""
    if draw(st.booleans()):
        L = draw(st.sampled_from(BASES))
        n = L.dim
        raw = {key: Vec(tuple(draw(st.lists(small, min_size=n, max_size=n))))
               for key in draw(st.lists(st.sampled_from(list(increasing_triples(n))), max_size=2))}
        g, form = t_star_extension(L, cyclic_part(Cocycle(n, n, raw)))
        gram = [list(form.gram.row(r)) for r in range(2 * n)]
        if draw(st.booleans()):
            g = draw(perturbed([g]))
    else:
        g = draw(perturbed())
        gram = [draw(st.lists(small, min_size=g.dim, max_size=g.dim)) for _ in range(g.dim)]
    n = g.dim
    for _ in range(draw(st.integers(0, 2))):
        i, j, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(small)
        gram[i][j] += c
        if i != j and draw(st.booleans()):
            gram[j][i] += c
    return g, BilinForm(n, Mat.from_rows(gram))


@settings(max_examples=25)
@given(metric_cases())
def test_metric_sweep_matches_the_dense_sweep(case):
    g, form = case
    assert verify_metric(g, form) == oracle.metric(g, form)


@settings(max_examples=30)
@given(st.one_of(perturbed().map(lambda L: (L, None)), coprime_modules(), foreign_modules()),
       st.data())
def test_hom_jacobi_sides_yield_the_unrestricted_loop_in_order(case, data):
    """``hom_jacobi_sides`` against the loop over every pair and triple, on
    the inputs of its callers: the pairs a < b with the increasing triples
    (hom-Jacobi, the cocycle sweep), and on an extension E = L + V along an
    action and a drawn theta, the pairs (u, n + c) with the increasing
    triples of L ((R2)) and the pairs x < y with the triples (z, u, n + c)
    ((R3)); its scale is (D d)^2, for the numerators D B and d alpha."""
    L, r = case
    n = L.dim
    E = L if r is None else _semidirect_table(L, r, drawn_cocycle(data, n, r.module_dim).table)
    low, module = list(itertools.combinations(range(n), 2)), range(n, E.dim)
    inputs = [(list(itertools.combinations(range(E.dim), 2)), list(increasing_triples(E.dim)))]
    if r is not None:
        inputs += [(list(itertools.product(range(n), module)), list(increasing_triples(n))),
                   (low, [(z, u, c) for z, u in low for c in module])]
    for pairs, triples in inputs:
        scale, sides = hom_jacobi_sides(E, pairs, triples)
        assert scale == (E.alt.scale * E.twisted[1]) ** 2
        assert list(sides) == oracle.hom_jacobi_sides(E, pairs, triples)


@settings(max_examples=30)
@given(st.one_of(module_pairs(), coprime_modules(), foreign_modules()), st.data())
def test_extension_sweep_matches_the_full_sweep_and_the_dense_sweeps(pair, data):
    """One sweep of the extension E along a drawn action and a drawn theta
    (the coboundary of a drawn map L -> V, or drawn entries), on perturbed
    or coprime-scaled bases, which often fail hom-Jacobi or multiplicativity:
    E's report is that of the full sweep ``verify_axioms(E)``, and the
    representation and cocycle parts are the dense oracle's."""
    L, r = pair
    n, m = L.dim, r.module_dim
    th = coboundary(L, r, drawn_mat(data.draw, m, n)) if data.draw(st.booleans()) else drawn_cocycle(data, n, m)
    E = _semidirect_table(L, r, th.table)
    rep, co, report = _extension_sweep(E, n)
    assert report == verify_axioms(E)
    assert rep == oracle.representation(L, r)
    assert co == oracle.cocycle(L, r, th)


# On the extension E = L + V along an action and theta, the instances of
# hom-Jacobi with one module index are the representation identities, the
# module part of those with none is the cocycle identity, and those with
# two or more read 0 == 0.  So when the action and theta pass, E fails
# hom-Jacobi exactly where L does.


def assert_extension_fails_where_the_base_does(L, r, th):
    assert verify_representation(L, r).ok and verify_cocycle(L, r, th).ok
    whole, base = verify_hom_jacobi(_semidirect_table(L, r, th.table)), verify_hom_jacobi(L)
    assert whole.violations_total == base.violations_total
    assert [v.indices for v in whole.violations] == [v.indices for v in base.violations]


@settings(max_examples=25)
@given(perturbed([B for B in BASES if B.dim > 3]), st.integers(1, 3), st.data())
def test_extension_by_the_zero_action_fails_hom_jacobi_where_the_base_does(L, m, data):
    """A changed L that fails hom-Jacobi, the zero action on a module with
    a drawn twist and theta = 0, which pass whatever L is."""
    assume(not verify_hom_jacobi(L).hom_jacobi_ok)
    r = Representation(L.dim, m, drawn_mat(data.draw, m, m), {})
    assert_extension_fails_where_the_base_does(L, r, Cocycle.zero(L.dim, m))


@settings(max_examples=15)
@given(st.sampled_from(BASES), st.lists(entries, min_size=3, max_size=3))
def test_extension_along_a_coboundary_fails_hom_jacobi_where_the_base_does(L, coefficients):
    """A multiplicative base with its adjoint action, theta the coboundary of
    a polynomial in alpha, a map that commutes with alpha."""
    (a, b, c), alpha, r = coefficients, L.twist, adjoint_rep(L)
    f = Mat.identity(L.dim).scale(a) + alpha.scale(b) + (alpha @ alpha).scale(c)
    assert_extension_fails_where_the_base_does(L, r, coboundary(L, r, f))


def test_truncated_witnesses_match_the_dense_sweeps():
    # inputs with more than MAX_WITNESSES violations of each identity
    ya = yau_a4()
    table = dict(ya.table)
    table[0, 1, 2] = table[0, 1, 2] + Vec.of(1, 0, 0, 0)
    L = Hom3LieAlgebra(4, table, ya.twist)
    jac = verify_hom_jacobi(L)
    assert jac.violations_total > MAX_WITNESSES and len(jac.violations) == MAX_WITNESSES
    assert jac == oracle.hom_jacobi(L)

    tstar, _ = t_star_extension(ya, coboundary(ya, coadjoint_rep(ya), Mat.diagonal([1, 2, 3, 4])))
    bent = Hom3LieAlgebra(tstar.dim, tstar.table, tstar.twist.scale(2))
    mult = verify_multiplicative(bent)
    assert mult.violations_total > MAX_WITNESSES
    assert mult == oracle.multiplicative(bent)

    r = adjoint_rep(ya)
    r = Representation(4, 4, r.twist.scale(2), r.table)
    rep = verify_representation(ya, r)
    assert rep.violations_total > MAX_WITNESSES
    assert rep == oracle.representation(ya, r)

    th = Cocycle(4, 4, {(0, 1, 2): Vec.of(1, 0, 0, 0), (1, 2, 3): Vec.of(0, 2, 0, -1)})
    co = verify_cocycle(ya, adjoint_rep(ya), th)
    assert co.violations_total > MAX_WITNESSES
    assert co == oracle.cocycle(ya, adjoint_rep(ya), th)

    form = BilinForm(4, Mat.diagonal([1, 2, 3, 4]))
    met = verify_metric(ya, form)
    assert met.violations_total > MAX_WITNESSES and len(met.violations) == MAX_WITNESSES
    assert met == oracle.metric(ya, form)


@pytest.mark.parametrize("L", BASES[-2:], ids=["A4", "A4y"])
def test_bracket_matches_the_dense_extension_on_dense_arguments(L):
    cols = oracle.twist_cols(L)
    x = cols[0] + cols[1].scale(3)
    for y, z in ((cols[2], cols[3]), (x, cols[3]), (cols[1], x)):
        assert L.bracket(x, y, z) == oracle.bracket(L, x, y, z)


def _parity(seq: tuple[int, ...]) -> int:
    return (-1) ** sum(a > b for a, b in itertools.combinations(seq, 2))


def _blocks_of(idx: tuple[int, ...], blocks: tuple[int, ...]) -> list[tuple[int, ...]]:
    cuts = list(itertools.accumulate(blocks, initial=0))
    return [idx[a:b] for a, b in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("blocks", [(), (2,), (3,), (2, 2), (3, 2)])
def test_orbits_partition_the_tuples_with_distinct_indices_in_each_block(blocks):
    n, tail = 5, (4,)
    width = sum(blocks)
    seen = {}
    for rep in Sweep(*blocks).reps(n):
        log = Sweep(*blocks)
        kept = _report(log, "skew", 1, 1, [(rep + tail, {0: 1}, {0: 2})]).violations
        members = [(v.indices, v.left) for v in kept]
        assert all(v.right == v.left.scale(2) for v in kept)
        assert log.total == len(members) == len(set(members))
        assert [idx for idx, _ in members] == sorted(idx for idx, _ in members)
        for idx, side in members:
            assert idx[width:] == tail and idx not in seen
            sign = 1
            for part in _blocks_of(idx, blocks):
                sign *= _parity(part)
            assert side == Vec.of(sign)
            seen[idx] = rep
    expected = {idx + tail for idx in itertools.product(range(n), repeat=width)
                if all(len(set(part)) == len(part) for part in _blocks_of(idx, blocks))}
    assert set(seen) == expected
    # every orbit in one sweep: members of different orbits interleave, and
    # the witnesses are still the smallest tuples, in order
    log = Sweep(*blocks)
    for rep in log.reps(n):
        log.add(rep + tail, Vec.of(1), Vec.of(2))
    assert log.total == len(seen) and [m for m, *_ in log.kept] == sorted(seen)[:MAX_WITNESSES]


@st.composite
def sweep_streams(draw):
    """Block sizes and a shuffled stream of distinct representatives (increasing
    in each block, then a free tail) whose orbits hold more than MAX_WITNESSES
    members."""
    blocks = draw(st.sampled_from([(), (2,), (3,), (2, 2), (3, 2)]))
    n = draw(st.integers(4, 6))
    heads = list(Sweep(*blocks).reps(n))
    tails = list(itertools.product(range(n), repeat=2 if blocks else 3))
    size = math.prod(math.factorial(k) for k in blocks)
    reps = draw(st.lists(st.tuples(st.sampled_from(heads), st.sampled_from(tails)).map(lambda p: p[0] + p[1]),
                         min_size=MAX_WITNESSES // size + 1, max_size=3 * MAX_WITNESSES, unique=True))
    return blocks, draw(st.permutations(reps))


@given(sweep_streams())
def test_sweep_keeps_what_merging_every_member_and_sorting_keeps(stream):
    """The early exit of Sweep.add against every member of every orbit: with
    blocks the smallest MAX_WITNESSES, without them the first added."""
    blocks, reps = stream
    width = sum(blocks)
    log, members = Sweep(*blocks), []
    for k, rep in enumerate(reps):
        sides = (Vec.of(k), Vec.of(-k))
        log.add(rep, *sides)
        for perm in itertools.product(*(itertools.permutations(part) for part in _blocks_of(rep, blocks))):
            member = sum(perm, ()) + rep[width:]
            sign = 1
            for part in perm:
                sign *= _parity(part)
            members.append((member, sign, sides))
    if blocks:
        members.sort(key=lambda entry: entry[0])
    assert log.total == len(members) > MAX_WITNESSES
    assert log.kept == members[:MAX_WITNESSES]
    assert [m for m, *_ in log.kept] == [member for member, _, _ in members[:MAX_WITNESSES]]


def _interleaved(indices, blocks: tuple[int, ...]) -> bool:
    """True when the orbits of some witnesses alternate: A, then B, then A again."""
    orbits = [tuple(tuple(sorted(part)) for part in _blocks_of(idx, blocks)) + idx[sum(blocks):]
              for idx in indices]
    return any(orbits[i] != orbits[j] and orbits[i] in orbits[j + 1:]
               for i in range(len(orbits)) for j in range(i + 1, len(orbits)))


FOURS = [a4(), yau_a4()]


@settings(max_examples=15)
@given(perturbed(FOURS))
def test_interleaved_hom_jacobi_orbits_match_the_dense_sweep(L):
    jac = verify_hom_jacobi(L)
    assume(jac.violations_total > MAX_WITNESSES)
    assume(_interleaved([v.indices for v in jac.violations], (2,)))
    assert any(v.indices[0] > v.indices[1] for v in jac.violations)  # (b, a): sides negated
    assert jac == oracle.hom_jacobi(L)


@st.composite
def rescaled_modules(draw):
    """A4 or A4y with its adjoint or coadjoint action, the module twist rescaled."""
    L = draw(st.sampled_from(FOURS))
    r = draw(st.sampled_from([adjoint_rep, coadjoint_rep]))(L)
    c = draw(st.sampled_from([2, -1, Fraction(3, 2), Fraction(1, 2)]))
    return L, Representation(4, 4, r.twist.scale(c), r.table)


@settings(max_examples=10)
@given(st.one_of(rescaled_modules(), module_pairs()))
def test_interleaved_representation_orbits_match_the_dense_sweep(pair):
    L, r = pair
    rep = verify_representation(L, r)
    assume(rep.violations_total > MAX_WITNESSES)
    quads = [v.indices for v in rep.violations]
    assume(any(quads.count(q) == 2 for q in quads if len(q) == 4))  # (R2) and (R3) at one tuple
    assert rep == oracle.representation(L, r)


@settings(max_examples=8)
@given(st.sampled_from(FOURS), st.sampled_from([adjoint_rep, coadjoint_rep]), st.data())
def test_interleaved_cocycle_orbits_match_the_dense_sweep(L, action, data):
    keys = data.draw(st.lists(st.sampled_from(list(increasing_triples(4))), min_size=1, max_size=2))
    th = Cocycle(4, 4, {key: Vec(tuple(data.draw(st.lists(small, min_size=4, max_size=4))))
                        for key in keys})
    co = verify_cocycle(L, action(L), th)
    assume(co.violations_total > MAX_WITNESSES and _interleaved([v.indices for v in co.violations], (3, 2)))
    assert co == oracle.cocycle(L, action(L), th)


def changed_form(L: Hom3LieAlgebra, double: bool, changes) -> tuple[Hom3LieAlgebra, BilinForm]:
    """L with an invariant form, the identity or (double) the pairing of the
    dual-space extension of L along theta = 0, with each (r, c, delta) of
    ``changes`` added to its Gram matrix."""
    if double:
        L, form = t_star_extension(L, Cocycle.zero(4, 4))
        gram = [list(form.gram.row(r)) for r in range(8)]
    else:
        gram = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for r, c, delta in changes:
        gram[r][c] += delta
    return L, BilinForm(len(gram), Mat.from_rows(gram))


# (algebra, double, rows, entries changed): found once by enumerating the
# changes of one entry, and of two on the identity, by each nonzero delta of
# ``small``.  A change of any one entry in these rows of the pairing
# interleaves the witnesses, and of two distinct entries of the identity on
# A4 does for 7,632 of the 7,680 choices of entries and deltas.  On the
# identity of A4y no change of one entry does, and of two only 2 choices.
INTERLEAVING = [(FOURS[0], False, range(4), 2), (FOURS[0], True, range(4, 8), 1),
                (FOURS[1], True, range(4), 1)]


@st.composite
def interleaving_forms(draw):
    L, double, rows, count = draw(st.sampled_from(INTERLEAVING))
    n = 8 if double else 4
    cells = draw(st.lists(st.tuples(st.sampled_from(rows), st.integers(0, n - 1)),
                          min_size=count, max_size=count, unique=True))
    return changed_form(L, double, [(r, c, draw(small.filter(bool))) for r, c in cells])


@settings(max_examples=12)
@example(changed_form(FOURS[0], False, [(0, 1, Fraction(1)), (2, 3, Fraction(-1, 2))]))
@example(changed_form(FOURS[0], True, [(5, 2, Fraction(3, 2))]))
@example(changed_form(FOURS[1], True, [(1, 6, Fraction(-2))]))
@given(interleaving_forms())
def test_interleaved_metric_orbits_match_the_dense_sweep(case):
    """An invariant form, the identity on A4 or the pairing of a dual-space
    extension of A4 or A4y, with Gram entries changed (:data:`INTERLEAVING`)."""
    L, form = case
    met = verify_metric(L, form)
    assume(met.violations_total > MAX_WITNESSES and _interleaved([v.indices for v in met.violations], (2,)))
    assert any(v.indices[0] > v.indices[1] for v in met.violations)
    assert met == oracle.metric(L, form)
