"""``AltTable.pairs`` and the code built on it, against direct evaluation.

``pairs`` contracts each pair a < b of images once and keeps it only
when the contraction is nonzero; (b, a) is its negation and (a, a) is
empty.  The first test checks every ordered pair, through that rule,
against ``partial`` and ``evaluate`` on random three-slot tables and
images; ``pairs`` and ``partial`` return numerators, ``scale`` times the
map, so ``evaluate`` is compared with them over the scale.  The second
holds ``get``, ``partial`` and ``pairs`` to that contract against the
dense oracle, on a bracket, an action block and a cocycle with coprime
denominators and on an empty table, and the third ``partial`` at basis
vectors, which hands out the trie's own leaf, against ``get`` and the
oracle; a CLI run of ``reconstruct``, ``verify``, ``derivations
--inner``, ``metric`` and ``series`` must leave every trie as it was
built.  The others check the candidates of ``_bracket_images`` against
every triple and ``preserves_bracket``, ``inner_space`` and the theta
table of ``reconstruct_t_star`` against brackets evaluated one by one
through ``Hom3LieAlgebra.bracket`` (the theta table through the dense
oracle's), and theta and sigma against the change-of-basis construction,
on T*-doubles carried along maps with denominators 3, 7 and 11.
"""

import copy
import itertools
from fractions import Fraction
from functools import cached_property

from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
from hom3lie.algebras import (
    Hom3LieAlgebra,
    _bracket_images,
    direct_sum,
    increasing_triples,
    is_morphism,
    preserves_bracket,
)
from hom3lie.derivations import fixed_space, inner_space, twist_power
from hom3lie.extensions import BilinForm, Cocycle, cyclic_part, t_star_extension
from hom3lie.fixtures import ab3, l3
from hom3lie.linalg import Mat, Subspace, Vec, inverse, matvec, rational
from hom3lie.sparse import AltTable
from hom3lie.structure import isotropic_complement, reconstruct_t_star
from test_cli_bytes import run, write_inputs
from test_sparse_sweeps import (
    BASES,
    carried,
    conjugations,
    coprime_algebras,
    coprime_modules,
    entries,
    factors,
    foreign_modules,
    perturbed,
    rescaled_bracket,
    small,
    yau_a4,
)


def support(values) -> dict:
    return {i: x for i, x in enumerate(values) if x}


@st.composite
def tables(draw):
    dim, size = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    combos = list(itertools.combinations(range(dim), 3))
    keys = draw(st.lists(st.sampled_from(combos), max_size=6)) if combos else []
    values = {key: Vec(tuple(draw(st.lists(small, min_size=size, max_size=size))))
              for key in keys}
    return AltTable.of(dim, size, values, "table")


@st.composite
def images(draw, dim):
    """Dense, basis, empty, repeated and scaled (so singular) images."""
    out: list[dict] = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["dense", "basis", "empty", "repeat", "scaled"]))
        if kind == "dense":
            out.append(support(draw(st.lists(small, min_size=dim, max_size=dim))))
        elif kind == "basis":
            out.append({draw(st.integers(0, dim - 1)): draw(small) or Fraction(1)})
        elif kind == "empty" or not out:
            out.append({})
        else:
            earlier = draw(st.sampled_from(out))
            c = 1 if kind == "repeat" else draw(small)
            out.append({i: c * x for i, x in earlier.items() if c})
    return out


@st.composite
def pair_cases(draw):
    """A table, images and a last argument.  Half the time the images
    start with the basis vectors of the first two indices of a stored
    key, so that their contraction, and the negation filled in for the
    reversed pair, is nonzero."""
    table = draw(tables())
    ims = draw(images(table.dim))
    if table.values and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(table.values)))
        ims = [{key[0]: Fraction(1)}, {key[1]: Fraction(1)}] + ims
    return table, ims, draw(st.lists(small, min_size=table.dim, max_size=table.dim))


@settings(max_examples=150)
@example((AltTable.of(3, 1, {(0, 1, 2): Vec.of(1)}, "table"), [{0: Fraction(1)}, {1: Fraction(1)}],
          [0, 0, 1]))
@given(pair_cases())
def test_pairs_match_partial_and_evaluate_on_every_ordered_pair(case):
    """Each ordered pair read through the contract (a < b as kept, else 0; (b, a)
    negated; (a, a) empty) is ``partial`` and ``evaluate``: so every pair left
    out has an empty contraction."""
    table, ims, z = case
    dim = table.dim
    got = table.pairs(ims)
    assert all(a < b and val for (a, b), val in got.items())
    for a, b in itertools.product(range(len(ims)), repeat=2):
        x, y = Vec.sparse(dim, ims[a]), Vec.sparse(dim, ims[b])
        val = got.get((min(a, b), max(a, b)), {}) if a != b else {}
        if a > b:
            val = {k: {t: -v for t, v in col.items()} for k, col in val.items()}
        assert val == table.partial(ims[a], ims[b])
        assert rational(matvec(val, support(z)), table.scale) == table.evaluate(x, y, Vec(z)).support


@st.composite
def numerator_cases(draw):
    """A table and images for ``pairs``: the bracket of a coprime-scaled
    algebra, the action block of a coprime-scaled or foreign-dimension
    module, a cocycle with entries over 1, 3, 7 and 11, or an empty table."""
    kind = draw(st.sampled_from(["bracket", "action", "cocycle", "empty"]))
    if kind == "bracket":
        alt = draw(coprime_algebras()).alt
    elif kind == "action":
        alt = draw(coprime_modules() | foreign_modules())[1].alt
    elif kind == "cocycle":
        n, m = draw(st.integers(3, 5)), draw(st.integers(1, 4))
        keys = draw(st.lists(st.sampled_from(list(increasing_triples(n))), max_size=4))
        alt = Cocycle(n, m, {key: Vec(tuple(draw(entries) for _ in range(m))) for key in keys}).alt
    else:
        alt = AltTable.of(draw(st.integers(1, 4)), 2, {}, "table")
    return alt, draw(images(alt.dim))


@settings(max_examples=40, deadline=None)
@given(numerator_cases())
def test_get_partial_and_pairs_are_numerators_over_the_scale(case):
    """``get`` over ``scale`` is the oracle's value on every ordered key, as
    ints; ``partial`` and ``pairs`` are ``scale`` times its contraction."""
    alt, ims = case
    zero, dim, scale = Vec.zero(alt.size), alt.dim, alt.scale
    assert scale >= 1 and (scale == 1 or alt.values)
    for key in itertools.product(range(dim), repeat=3):
        got = alt.get(*key)
        assert all(type(a) is int for a in got.values())
        assert rational(got, scale) == oracle.skew_value(alt.values, zero, key).support
    got = alt.pairs(ims)
    assert all(a < b for a, b in got)
    for a, b in itertools.combinations(range(len(ims)), 2):
        x, y = Vec.sparse(dim, ims[a]), Vec.sparse(dim, ims[b])
        cols = {c: oracle.multilinear(alt.values, zero, x, y, Vec.basis(dim, c)).support for c in range(dim)}
        want = {c: {t: scale * v for t, v in col.items()} for c, col in cols.items() if col}
        assert got.get((a, b), {}) == want == alt.partial(ims[a], ims[b])


@settings(max_examples=40, deadline=None)
@given(numerator_cases(), st.sampled_from([1, Fraction(1)]), st.sampled_from([-1, 2, Fraction(1, 3)]))
def test_partial_at_basis_vectors_is_the_stored_leaf(case, one, c):
    """``partial`` at two unit basis vectors returns the object ``get`` returns
    wherever that is nonzero, and the oracle's contraction times ``scale``; at
    any other coefficient a new dict, that many times it, leaving the leaf as it was."""
    alt, _ = case
    zero, dim, scale = Vec.zero(alt.size), alt.dim, alt.scale
    for a, b in itertools.product(range(dim), repeat=2):
        x, y = Vec.basis(dim, a), Vec.basis(dim, b)
        cols = {k: oracle.multilinear(alt.values, zero, x, y, Vec.basis(dim, k)).support for k in range(dim)}
        want = {k: {t: scale * v for t, v in col.items()} for k, col in cols.items() if col}
        leaf, got = alt.get(a, b), alt.partial({a: one}, {b: 1})
        assert got == leaf == want and (got is leaf or not leaf)
        scaled = alt.partial({a: c}, {b: 1})
        assert scaled is not leaf and alt.get(a, b) == want
        assert scaled == {k: {t: c * v for t, v in col.items()} for k, col in want.items()}


def _preserves_directly(phi: Mat, L, G) -> bool:
    cols = [phi.col(i) for i in range(L.dim)]
    return all(phi.apply(L.bracket_basis(i, j, k)) == G.bracket(cols[i], cols[j], cols[k])
               for i, j, k in increasing_triples(L.dim))


@st.composite
def maps(draw):
    """An algebra L, a target G and a map L -> G: the twist, the identity,
    the inclusion into a direct sum or a random matrix, each possibly perturbed."""
    L = draw(perturbed())
    n = L.dim
    kind = draw(st.sampled_from(["twist", "identity", "inclusion", "random"]))
    G, phi = L, {"twist": L.twist, "identity": Mat.identity(n)}.get(kind)
    if kind == "inclusion":
        G = direct_sum(L, draw(st.sampled_from(BASES)))
        phi = Mat.sparse(n, [Vec.basis(n, i) for i in range(n)]
                         + [Vec.zero(n)] * (G.dim - n))
    elif kind == "random":
        phi = Mat.from_rows([draw(st.lists(small, min_size=n, max_size=n)) for _ in range(n)])
    if draw(st.booleans()):
        rows = [list(v.entries) for v in phi.row_vecs]
        rows[draw(st.integers(0, phi.rows - 1))][draw(st.integers(0, n - 1))] += draw(small)
        phi = Mat.from_rows(rows)
    return phi, L, G


@example((Mat.identity(3), ab3(), l3()))  # B_L = 0: (0, 1, 2) fails, reached by the action alone
@given(maps())
def test_preserves_bracket_matches_direct_brackets(case):
    phi, L, G = case
    assert preserves_bracket(phi, L, G) == _preserves_directly(phi, L, G)


@st.composite
def image_maps(draw):
    """phi from L to G: G's twist with G = L, or a drawn map, dense (no zero
    entry) or sparse with one or two zero columns, so singular."""
    L = draw(perturbed())
    kind = draw(st.sampled_from(["twist", "dense", "singular"]))
    if kind == "twist":
        return L.twist, L, L
    G = draw(perturbed())
    n, m = L.dim, G.dim
    entries = small.filter(bool) if kind == "dense" else st.sampled_from([0, 0, 1, -1, Fraction(1, 2)])
    cols = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    if kind == "singular":
        for c in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            cols[c] = [0] * m
    return Mat.from_cols([Vec.of(*col) for col in cols]), L, G


@example((Mat.diagonal([1, 1, 0]), l3(), l3()))  # phi B_L(0, 1, 2) = e_0, phi e_2 = 0
@example((Mat.identity(3), ab3(), l3()))  # B_L = 0: (0, 1, 2) is a candidate by the action alone
@given(image_maps())
def test_bracket_images_yield_what_every_increasing_triple_yields(case):
    """The candidates of ``_bracket_images`` against phi [e_i, e_j, e_k] and
    [phi e_i, phi e_j, phi e_k] from the dense oracle on every increasing
    triple, in order, where they differ, both times the returned scale."""
    phi, L, G = case
    scale, images = _bracket_images(phi, L, G)
    expected = []
    for key in increasing_triples(L.dim):
        lhs = phi.apply(oracle.bracket_basis(L, *key))
        rhs = oracle.bracket(G, *(phi.col(i) for i in key))
        if lhs != rhs:
            expected.append((key, {t: scale * x for t, x in lhs.support.items()},
                             {t: scale * x for t, x in rhs.support.items()}))
    assert list(images) == expected


@st.composite
def coprime_maps(draw):
    """phi = lam I or lam alpha from L, the base bracket times c, to G, the
    base bracket times c / lam^2 (a morphism when the base is
    multiplicative) or times a drawn factor, with separately drawn
    factors; sometimes one entry of phi is changed by another."""
    base = draw(st.sampled_from(BASES))
    n = base.dim
    c, lam = draw(factors), draw(factors)
    L = rescaled_bracket(base, c, base.twist)
    G = rescaled_bracket(base, draw(st.just(c / lam ** 2) | factors), base.twist)
    phi = draw(st.sampled_from([Mat.identity(n), base.twist])).scale(lam)
    rows = [list(v.entries) for v in phi.row_vecs]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += draw(factors)
    return Mat.from_rows(rows), L, G


@given(coprime_maps())
def test_morphisms_between_algebras_of_coprime_denominators_match_direct_brackets(case):
    phi, L, G = case
    direct = _preserves_directly(phi, L, G)
    assert preserves_bracket(phi, L, G) == direct
    assert is_morphism(phi, L, G) == (phi @ L.twist == G.twist @ phi and direct)


def test_a_morphism_between_algebras_of_coprime_denominators():
    """A4y with its bracket over 3 to A4y with its bracket times 121/147,
    along 7/11 times the twist (denominator 125)."""
    ya, lam = yau_a4(), Fraction(7, 11)
    L = rescaled_bracket(ya, Fraction(1, 3), ya.twist)
    G = rescaled_bracket(ya, Fraction(1, 3) / lam ** 2, ya.twist)
    phi = ya.twist.scale(lam)
    assert is_morphism(phi, L, G) and _preserves_directly(phi, L, G)
    rows = [list(v.entries) for v in phi.row_vecs]
    rows[0][1] += Fraction(1, 7)
    assert not preserves_bracket(Mat.from_rows(rows), L, G)
    # without its value at (1, 2, 3), L fails there only: a triple off its keys, at the last index
    cut = Hom3LieAlgebra(4, {key: v for key, v in L.table.items() if key != (1, 2, 3)}, L.twist)
    assert not _preserves_directly(phi, cut, G) and not preserves_bracket(phi, cut, G)


@settings(max_examples=30)
@given(perturbed(), st.integers(1, 3))
def test_inner_space_matches_direct_brackets(L, k):
    n, fixed = L.dim, fixed_space(L)
    ak = twist_power(L, k - 1)
    # each generator row-major, through the dense entries
    gens = [Vec(Mat.from_cols([L.bracket(u, v, ak.col(c)) for c in range(n)]).entries)
            for u, v in itertools.combinations(fixed.basis, 2)]
    expected = Subspace.span(n * n, gens)
    assert inner_space(L, k).as_subspace == expected


@st.composite
def tstar_cases(draw):
    """A dual-space extension of a base algebra with a cyclic cocycle, its
    metric, the dual ideal and a complement (None: completed from the form,
    else the graph of an antisymmetric map L -> L*); mostly all carried
    along a map with denominators 3, 7 and 11, so that the Gram matrix,
    the ideal's pivot rows and the lifts carry scales of their own."""
    L = draw(st.sampled_from(BASES))
    n = L.dim
    raw = {key: Vec(tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))))
           for key in increasing_triples(n)}
    g, form = t_star_extension(L, cyclic_part(Cocycle(n, n, raw)))
    ideal = Subspace.span(2 * n, [Vec.basis(2 * n, n + i) for i in range(n)])
    comp = None
    if draw(st.booleans()):
        s = {(i, j): draw(small) for i, j in itertools.combinations(range(n), 2)}
        comp = Subspace.span(2 * n, [Vec.basis(n, i).concat(Vec(tuple(
            s.get((i, j), 0) - s.get((j, i), 0) for j in range(n)))) for i in range(n)])
    if draw(st.sampled_from([True, True, False])):
        phi, psi = draw(conjugations(2 * n))
        g, form = carried(g, phi, psi), BilinForm(2 * n, psi.transpose() @ form.gram @ psi)
        ideal, comp = (None if s is None else Subspace.span(2 * n, [phi.apply(v) for v in s.basis])
                       for s in (ideal, comp))
    return g, form, ideal, comp


def lifts(g, ideal: Subspace, comp: Subspace) -> list[Vec]:
    """The vectors of the complement that the oracle's projection takes to
    the quotient basis: the columns of C (proj C)^-1, C the complement basis."""
    _, proj = oracle.quotient(g, ideal)
    c = Mat.from_cols(list(comp.basis))
    lift = c @ inverse(proj @ c)
    return [lift.col(p) for p in range(ideal.dim)]


@settings(max_examples=20)
@given(tstar_cases())
def test_reconstructed_theta_matches_direct_brackets(case):
    """theta(p, q, r)(s) = B([l_p, l_q, l_r], l_s) for the lifts l of the
    quotient basis into the isotropic complement: the complement part of
    the bracket pairs to zero with l_s."""
    g, form, ideal, comp = case
    n = ideal.dim
    result = reconstruct_t_star(g, form, ideal, comp)
    assert result.isometry_ok
    ls = lifts(g, ideal, comp or isotropic_complement(form, ideal))
    for p, q, r in increasing_triples(n):
        bracket = oracle.bracket(g, ls[p], ls[q], ls[r])
        expected = Vec(tuple(form.eval(bracket, ls[s]) for s in range(n)))
        assert result.theta.table.get((p, q, r), Vec.zero(n)) == expected


def change_of_basis_reconstruction(g, form, ideal: Subspace, comp: Subspace):
    """theta and sigma the long way round: coordinates along [comp | ideal]
    from the inverse of that change of basis, then the pairing
    delta(i)(x) = B(i, lift x) applied to the ideal coordinates."""
    n2, k = g.dim, ideal.dim
    _, proj = oracle.quotient(g, ideal)
    ls = lifts(g, ideal, comp)
    cinv = inverse(Mat.from_cols(list(comp.basis) + list(ideal.basis)))
    ideal_coords = Mat.sparse(n2, cinv.row_vecs[k:])
    delta = Mat.from_rows([[form.eval(ideal.basis[c], ls[r]) for c in range(k)]
                           for r in range(k)], cols=k)
    table = {(p, q, r): delta.apply(ideal_coords.apply(oracle.bracket(g, ls[p], ls[q], ls[r])))
             for p, q, r in increasing_triples(k)}
    return Cocycle(k, k, table), Mat.sparse(n2, proj.row_vecs + (delta @ ideal_coords).row_vecs)


@settings(max_examples=20)
@given(tstar_cases())
def test_reconstruction_matches_the_change_of_basis_construction(case):
    g, form, ideal, comp = case
    result = reconstruct_t_star(g, form, ideal, comp)
    theta, sigma = change_of_basis_reconstruction(
        g, form, ideal, comp or isotropic_complement(form, ideal))
    assert result.theta == theta
    assert result.sigma == sigma


def test_cli_runs_leave_every_trie_as_it_was_built(tmp_path, monkeypatch):
    """``get`` and ``partial`` at basis vectors hand out the trie's own leaves,
    so a caller that changed one would change the map.  Each trie built while
    ``reconstruct`` runs on the T*-double of A4 (identity twist) and on that of
    A4y + L3 (its complement completed, then supplied), and ``verify``,
    ``derivations --k 1 --inner``, ``metric`` and every ``series`` kind on
    A4y + L3 and its T*-double, is deep-copied as it is built, and equals
    that copy after the runs."""
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    built, build = [], AltTable.trie.func

    def recorded(self):
        trie = build(self)
        built.append((trie, copy.deepcopy(trie)))
        return trie

    prop = cached_property(recorded)
    prop.__set_name__(AltTable, "trie")
    monkeypatch.setattr(AltTable, "trie", prop)
    runs = [["reconstruct", "tstar.json", "q.json", "ideal.json"]]
    runs += [["reconstruct", "tstar-A4yL3.json", "q14.json", "ideal14.json", *comp] for comp in ([], ["base14.json"])]
    runs += [["verify", "A4yL3.json"], ["derivations", "A4yL3.json", "--k", "1", "--inner"],
             ["metric", "tstar-A4yL3.json", "q14.json"]]
    runs += [["series", name, "--kind", kind] for name in ("A4yL3.json", "tstar-A4yL3.json")
             for kind in ("derived", "descending", "ascending")]
    assert [run(argv, [])[0] for argv in runs] == [0] * len(runs)
    assert len(built) >= len(runs)
    assert all(trie == before for trie, before in built)
