"""Every alternating table is stored as int numerators over one scale.

Each construction (quotient, direct sum, T*- and theta-extension, the
adjoint and dual actions, the reconstruction's theta, ``cyclic_part``,
``coboundary`` and the sum of cocycles) and the codec build their
``AltTable`` from numerators with no ``Fraction`` in between.  Here each
is held to the same table evaluated in ``Fraction`` arithmetic, the way
it was written before numerators: the scale is the least common
denominator, so its gcd with all numerators is 1, and the ``Fraction``
view, built on first read, is that table with its keys in the same
order.  A run of ``extend t-theta`` and of ``reconstruct`` builds no view
at all, and ``subspace_bracket`` reads stored columns when its last slot
is the whole space, given by any basis.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
from conftest import action_block
from hom3lie.algebras import (Hom3LieAlgebra, direct_sum, increasing_triples, is_ideal, quotient,
                              subspace_bracket)
from hom3lie.extensions import Cocycle, coboundary, cyclic_part, t_star_extension
from hom3lie.io import algebra_from_dict, cocycle_from_dict, representation_from_dict
from hom3lie.linalg import Subspace, Vec
from hom3lie.representations import Representation, _semidirect_table, adjoint_rep, coadjoint_rep, dual_rep
from hom3lie.sparse import AltTable, splits
from hom3lie.structure import isotropic_complement, reconstruct_t_star
from test_algebras import bracket_tables, subspace_cases, subspaces
from test_cli_bytes import run, write_inputs
from test_extensions import cyclic_candidates
from test_pairs import lifts, tstar_cases
from test_sparse_sweeps import coprime_algebras, coprime_modules, conjugations, drawn_cocycle, drawn_mat, \
    foreign_modules


def assert_stored(alt: AltTable, expected: dict) -> None:
    """``alt`` holds ``expected`` (increasing keys to Vecs, in order; zero values are left
    out) as numerators over their least common denominator, and its view is that table."""
    want = {key: v for key, v in expected.items() if v.support}
    scale = math.lcm(*{a.denominator for v in want.values() for a in v.support.values()})
    assert alt.scale == scale
    assert alt.num == {key: {i: int(a * scale) for i, a in v.support.items()} for key, v in want.items()}
    assert math.gcd(alt.scale, *(a for v in alt.num.values() for a in v.values())) == 1
    assert list(alt.num) == list(want)
    assert list(alt.values.items()) == list(want.items())


def dual_fractions(r_table: dict, size: int) -> dict:
    """The [L, L, V] block of the dual action: coordinate n + c of its value on (i, j, n + t) is
    minus coordinate n + t of the action's on (i, j, n + c)."""
    dual = {}
    for (i, j, c), v in r_table.items():
        for t, x in v.support.items():
            dual.setdefault((i, j, t), {})[c] = -x
    return {key: Vec.sparse(size, col) for key, col in dual.items()}


def semidirect_fractions(L: Hom3LieAlgebra, r: Representation, th: Cocycle = None) -> dict:
    """The table of the semidirect product, plus theta in the module part, in Vec arithmetic."""
    n, m = L.dim, r.module_dim
    table = {**{key: v.concat(Vec.zero(m)) for key, v in L.table.items()}, **r.table}
    for key, v in (th.table if th else {}).items():
        table[key] = table.get(key, Vec.zero(n + m)) + Vec.zero(n).concat(v)
    return table


@given(coprime_algebras(), coprime_algebras())
def test_a_direct_sum_holds_both_summands_over_the_lcm_of_their_scales(L, G):
    n, m = L.dim, G.dim
    expected = {key: v.concat(Vec.zero(m)) for key, v in L.table.items()}
    expected.update(((i + n, j + n, k + n), Vec.zero(n).concat(v)) for (i, j, k), v in G.table.items())
    assert_stored(direct_sum(L, G).alt, expected)


@settings(max_examples=60)
@given(subspace_cases())
def test_a_quotient_holds_the_projected_bracket_over_its_own_scale(case):
    L, s = case
    assume(is_ideal(L, s))
    q, proj = quotient(L, s)
    pos = s.projection[0]
    assert_stored(q.alt, {tuple(pos[i] for i in key): proj.apply(v) for key, v in L.table.items()
                          if all(i in pos for i in key)})


@given(coprime_algebras(), st.data())
def test_the_adjoint_coadjoint_and_t_star_tables_hold_their_fraction_evaluations(L, data):
    n = L.dim
    ad = {}
    for key, v in L.table.items():
        image = Vec.zero(n).concat(v)
        for c, (a, b), s in splits(*key):
            ad[a, b, n + c] = image if s > 0 else -image
    assert_stored(adjoint_rep(L).alt, ad)
    assert_stored(coadjoint_rep(L).alt, dual_fractions(ad, 2 * n))
    th = drawn_cocycle(data.draw, n, n)
    assert_stored(t_star_extension(L, th)[0].alt, semidirect_fractions(L, coadjoint_rep(L), th))


@settings(max_examples=30)
@given(coprime_modules() | foreign_modules(), st.data())
def test_a_theta_extension_holds_action_and_theta_over_the_lcm_of_the_scales(pair, data):
    L, r = pair
    th = drawn_cocycle(data.draw, L.dim, r.module_dim)
    assert_stored(_semidirect_table(L, r, th.alt).alt, semidirect_fractions(L, r, th))
    assert_stored(_semidirect_table(L, r).alt, semidirect_fractions(L, r))
    assert_stored(dual_rep(r).alt, dual_fractions(r.table, L.dim + r.module_dim))


@settings(max_examples=20)
@given(coprime_modules(), st.data())
def test_a_coboundary_and_a_sum_of_cocycles_hold_their_fraction_evaluations(pair, data):
    """theta_f(x,y,z) = f([x,y,z]) - rho(x,y) f(z) - rho(z,x) f(y) - rho(y,z) f(x), literally."""
    L, r = pair
    n, m = L.dim, r.module_dim
    f, mats = drawn_mat(data.draw, m, n), oracle.action_matrices(r)
    fc = [f.col(i) for i in range(n)]
    rho = lambda x, y: oracle.rho_basis(r, x, y, mats)
    expected = {(x, y, z): f.apply(oracle.bracket_basis(L, x, y, z)) - rho(x, y).apply(fc[z])
                - rho(z, x).apply(fc[y]) - rho(y, z).apply(fc[x]) for x, y, z in increasing_triples(n)}
    th = coboundary(L, r, f)
    assert_stored(th.alt, expected)
    other = drawn_cocycle(data.draw, n, m)
    total = {**th.table}
    for key, v in other.table.items():
        total[key] = total[key] + v if key in total else v
    assert_stored((th + other).alt, total)
    assert_stored((th + Cocycle(n, m, {key: -v for key, v in th.table.items()})).alt, {})


@given(cyclic_candidates())
def test_the_cyclic_part_holds_the_alternation_by_sorted_keys(th):
    assert_stored(cyclic_part(th).alt, dict(sorted(oracle.cyclic_part(th).items())))


@settings(max_examples=15)
@given(tstar_cases())
def test_a_reconstruction_holds_theta_and_the_double_as_their_fraction_evaluations(case):
    """theta(p, q, r)(s) = B([l_p, l_q, l_r], l_s) on the lifts l into the complement."""
    g, form, ideal, comp = case
    result = reconstruct_t_star(g, form, ideal, comp)
    n, ls = ideal.dim, lifts(g, ideal, comp or isotropic_complement(form, ideal))
    theta = {(p, q, r): Vec(tuple(form.eval(oracle.bracket(g, ls[p], ls[q], ls[r]), ls[s]) for s in range(n)))
             for p, q, r in increasing_triples(n)}
    assert_stored(result.theta.alt, theta)
    assert_stored(result.tstar.alt, semidirect_fractions(result.quotient, coadjoint_rep(result.quotient),
                                                         result.theta))


LITERALS = st.sampled_from(["0", "1", "-2", "3/6", "-4/10", "0/7", "5/1", "7/3", "-11/22", 4, -9, 0])


@st.composite
def table_files(draw):
    """An algebra file, a cocycle file over it and a representation file over it, with drawn
    literals: unreduced, zero, int shorthand and over several denominators; entries in drawn order."""
    n, m = draw(st.integers(3, 5)), draw(st.integers(1, 3))

    def sparse(size: int) -> dict:
        cells = draw(st.lists(st.integers(1, size), unique=True, max_size=size))
        return {str(c): draw(LITERALS) for c in cells}

    def entries(count: int, size: int, field: str, value) -> list:
        keys = draw(st.permutations(list(itertools.combinations(range(1, n + 1), count))))
        return [{"args": list(key), field: value(size)} for key in keys[:draw(st.integers(0, 6))]]

    dense = lambda size: [[draw(LITERALS) for _ in range(size)] for _ in range(size)]
    alg = {"dim": n, "alpha": dense(n), "brackets": entries(3, n, "value", sparse)}
    cocycle = {"module_dim": m, "theta": entries(3, m, "value", sparse)}
    rep = {"module_dim": m, "A": dense(m), "rho": entries(2, m, "matrix", dense)}
    return alg, cocycle, rep


@given(table_files())
def test_the_codec_reads_each_table_as_the_fraction_parse_of_its_file(files):
    alg, cocycle, rep = files
    n, m = alg["dim"], cocycle["module_dim"]
    sparse = lambda size: lambda raw, loc: oracle.vec_from_sparse(raw, size, loc)
    L = algebra_from_dict(alg)
    assert_stored(L.alt, oracle.keyed_entries(alg, "brackets", 3, n, "algebra", "bracket", sparse(n),
                                              "value"))
    th = cocycle_from_dict(cocycle, L)
    assert_stored(th.alt, oracle.keyed_entries(cocycle, "theta", 3, n, "cocycle", "value", sparse(m),
                                               "value"))
    mats = oracle.keyed_entries(rep, "rho", 2, n, "representation", "action",
                                lambda raw, loc: oracle.mat_from_lists(raw, loc, m, m), "matrix")
    assert_stored(representation_from_dict(rep, L).alt, action_block(n, m, mats))


def test_accepted_extend_and_reconstruct_runs_build_no_fraction_view(tmp_path, monkeypatch):
    """Inputs are read into numerators, every intermediate table is built from numerators and
    the outputs are written from them: the view builder is never called."""
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)

    def refuse(self):
        raise AssertionError("a Fraction view was built")

    view = cached_property(refuse)
    view.__set_name__(AltTable, "values")
    monkeypatch.setattr(AltTable, "values", view)
    runs = [["--json", "extend", "t-theta", "L3.json", "coadjoint", "theta-L3.json", "--output", "out.json"],
            ["extend", "t-theta", "A4y.json", "adjoint", "theta-A4y-coboundary.json"],
            ["--json", "reconstruct", "tstar-A4yL3.json", "q14.json", "ideal14.json",
             "--output-dir", "bundle"],
            ["reconstruct", "tstar.json", "q.json", "ideal.json", "complement.json"]]
    assert [run(argv, [tmp_path / "out.json", tmp_path / "bundle"])[:3:2] for argv in runs] == [(0, "")] * 4


@given(bracket_tables(), st.data())
def test_subspace_bracket_with_the_whole_space_last_matches_the_dense_evaluation(L, data):
    """The whole space as ``Subspace.full`` and by the columns of an invertible map with
    denominators, in the last slot (also the middle one) and, for contrast, a proper last slot."""
    n = L.dim
    s, t = data.draw(subspaces(n)), data.draw(subspaces(n))
    phi, _ = data.draw(conjugations(n))
    for whole in (Subspace.full(n), Subspace(n, tuple(phi.col(i) for i in range(n)))):
        for slots in ((s, t, whole), (s, s, whole), (s, whole, whole), (whole, whole, whole), (whole, s, t)):
            ordered = [L.bracket(a, b, c) for a, b, c in itertools.product(*(x.basis for x in slots))]
            assert subspace_bracket(L, *slots) == Subspace.span(n, ordered)
