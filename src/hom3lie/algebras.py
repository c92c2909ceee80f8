"""Hom 3-Lie algebras with exact rational structure constants.

An algebra is a triple (L, [.,.,.], alpha): a ternary bracket that is
skew-symmetric and trilinear, together with a linear twist map alpha
entering the twisted fundamental (hom-Jacobi) identity

    [a(x), a(y), [u, v, w]] = [[x, y, u], a(v), a(w)]
                            + [a(u), [x, y, v], a(w)]
                            + [a(u), a(v), [x, y, w]].

Structure constants are stored only on strictly increasing basis
triples; the full bracket is the unique skew trilinear extension, so
skew-symmetry holds by construction and cannot be violated by input.
Basis indices are 0-based throughout the Python API (the JSON file
formats are 1-based).

Verification sweeps run over basis tuples, which suffices by
multilinearity, and one tuple per orbit of each residual's symmetry
(:class:`Sweep`): the hom-Jacobi sweep uses the pairs x < y and all
strictly increasing triples (u, v, w).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import DimensionMismatch, IdealRequired
from .linalg import (Mat, SparseMat, Subspace, Vec, add_matvec, cleared, matvec, pruned, rank, rational,
                     subspace_contains)
from .sparse import AltTable, signed_perms, splits

MAX_WITNESSES = 16

def increasing_triples(n: int) -> Iterable[tuple[int, int, int]]:
    return itertools.combinations(range(n), 3)


@dataclass(frozen=True)
class Hom3LieAlgebra:
    """Finite-dimensional hom 3-Lie algebra over the exact rationals.

    ``table`` maps strictly increasing 0-based triples (i, j, k) to the
    value of [e_i, e_j, e_k]; triples with zero value are omitted.
    ``twist`` is the matrix of alpha in the same basis.  ``alt`` is the
    sparse alternating table that evaluates the bracket.
    """

    dim: int
    table: dict[tuple[int, int, int], Vec]
    twist: Mat
    alt: AltTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.dim
        if self.twist.rows != n or self.twist.cols != n:
            raise DimensionMismatch("twist must be a square matrix of the algebra dimension")
        alt = AltTable(n, n, self.table, "bracket")
        object.__setattr__(self, "table", alt.values)
        object.__setattr__(self, "alt", alt)

    def bracket_basis(self, i: int, j: int, k: int) -> Vec:
        """Bracket of three basis vectors, in any order, with sign extension."""
        return self.alt.basis_value(i, j, k)

    def bracket(self, x: Vec, y: Vec, z: Vec) -> Vec:
        """Trilinear skew extension of the structure constants."""
        return self.alt.evaluate(x, y, z)

    def is_abelian(self) -> bool:
        return not self.table

    @cached_property
    def twisted(self) -> tuple[dict[tuple[int, int], SparseMat], int]:
        """T~_ab = [alpha~ e_a, alpha~ e_b, .] for the numerators B~ = D B (:class:`AltTable`)
        and the cleared twist alpha~ = d alpha (:func:`cleared`), and d; kept for reuse."""
        (acols,), d = cleared([self.twist.col(i).support for i in range(self.dim)])
        return self.alt.pairs(acols), d


@dataclass(frozen=True)
class Violation:
    """One failed instance of an identity, with both evaluated sides if its check keeps them."""

    identity: str
    indices: tuple[int, ...]
    left: Optional[Vec] = None
    right: Optional[Vec] = None


@dataclass(frozen=True)
class Report:
    """Outcome of identity sweeps: ``flags`` maps each check that ran to
    whether it held, ``violations`` are the first MAX_WITNESSES witnesses
    and ``violations_total`` is the exact count.
    """

    flags: dict[str, bool] = field(default_factory=dict)
    violations: tuple[Violation, ...] = ()
    violations_total: int = 0

    def __getattr__(self, name: str) -> bool:
        """``<check>_ok`` reads ``flags[<check>]``, for perfbench; a check that did not run has none."""
        flags = self.__dict__.get("flags", {})
        if name.endswith("_ok") and name[:-3] in flags:
            return flags[name[:-3]]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def ok(self) -> bool:
        """True when every check that ran holds; ``twist_invariant`` is informational."""
        return all(ok for name, ok in self.flags.items() if name != "twist_invariant")

    def merged(self, *others: "Report") -> "Report":
        """The flags of all, anded where shared; the witnesses in order, cut to MAX_WITNESSES."""
        reports, flags = (self, *others), {}
        for r in reports:
            for name, ok in r.flags.items():
                flags[name] = flags.get(name, True) and ok
        return Report(flags, tuple(v for r in reports for v in r.violations)[:MAX_WITNESSES],
                      sum(r.violations_total for r in reports))


class Sweep:
    """Exact total and first witnesses of one identity sweep over basis tuples.

    The residual is alternating in each of the leading ``blocks`` of slots
    (their sizes).  :meth:`reps` gives one tuple per orbit, increasing in
    each block.  A tuple repeating an index in a block has residual 0; any
    other lies in one orbit, with residual the representative's times the
    sign of its block permutations.  So :meth:`add` counts the orbit, and
    the witnesses are the MAX_WITNESSES smallest violating tuples with
    signed sides, as in the sweep over all ordered tuples.  Once that many
    are kept, an orbit whose representative does not sort before the last
    kept is only counted: every caller passes a tuple of :meth:`reps`, the
    least member of its orbit, and orbits are disjoint, so none of its
    members could enter.  Without blocks, orbits are single tuples, kept
    in the order added, so none enters once that many are kept.
    """

    def __init__(self, *blocks: int) -> None:
        self.blocks, self.maps = blocks, [((), 1)]
        for k in blocks:
            self.maps = [(m + tuple(len(m) + i for i in p), s * t)
                         for m, s in self.maps for p, t in signed_perms(k)]
        self.kept: list = []
        self.total = 0

    def reps(self, n: int) -> Iterator[tuple[int, ...]]:
        """One tuple per orbit, increasing inside each block, of indices below n."""
        parts = itertools.product(*(itertools.combinations(range(n), k) for k in self.blocks))
        return (sum(p, ()) for p in parts)

    def add(self, rep: tuple[int, ...], *sides: Vec) -> None:
        """Record the orbit of a violating representative with its sides."""
        self.total += len(self.maps)
        if len(self.kept) == MAX_WITNESSES and (not self.blocks or rep >= self.kept[-1][0]):
            return
        w = sum(self.blocks)
        self.kept += [(tuple(rep[i] for i in m) + rep[w:], s, sides) for m, s in self.maps]
        if self.blocks:
            self.kept.sort(key=lambda entry: entry[0])
        del self.kept[MAX_WITNESSES:]

    @property
    def clean(self) -> bool:
        return self.total == 0


def _report(w: Sweep, identity: str, n: int = 0, scale: int = 1, sides: Iterable = ()) -> Report:
    """The report of ``w`` with the failing ``sides`` added, supports of dimension n and
    ``scale`` times theirs; a witness added without sides keeps none."""
    for key, lhs, rhs in sides:
        w.add(key, lhs, rhs)
    kept = tuple(Violation(identity, m, *(Vec.sparse(n, rational({i: s * x for i, x in side.items()}, scale))
                                          for side in pair)) for m, s, pair in w.kept)
    return Report({identity: w.clean}, kept, w.total)


def leibniz_sides(alt: AltTable, t: dict, ops: Iterable, triples: Iterable[tuple[int, int, int]]) -> Iterator:
    """The failing instances of the Leibniz rule of X over Y, for each (key, X, Y)
    of ``ops`` and (u, v, w) of ``triples``, as (*key, u, v, w) with both sides:

        X B_uvw == T_vw Y e_u - T_uw Y e_v + T_uv Y e_w,

    B the numerators of ``alt``, T its twisted actions ``t`` (:meth:`AltTable.pairs`,
    so u < v < w: each term takes the sign of its :func:`splits`), X and Y
    sparse int matrices.  Per operator only candidates are visited, in the
    order of ``triples``: those in the support of B if X != 0, and for each
    column i of Y those holding i with T of the other two, in cyclic order,
    nonzero.  Any other reads 0 == 0: its left side as X = 0 or B_uvw = 0, and
    the term of each i on the right as Y e_i = 0 or T of the other two is 0.
    """
    triples = [(u, v, w, alt.get(u, v, w)) for u, v, w in triples]
    live = [p for p, (*_, buvw) in enumerate(triples) if buvw]
    terms = [[(i, t[jk], s) for i, jk, s in splits(u, v, w) if jk in t] for u, v, w, _ in triples]
    holding: dict[int, list[int]] = {}
    for p, row in enumerate(terms):
        for i, *_ in row:
            holding.setdefault(i, []).append(p)
    for key, x, y in ops:
        for p in sorted({*(live if x else ()), *(q for i in y for q in holding.get(i, ()))}):
            u, v, w, buvw = triples[p]
            lhs, rhs = {}, {}
            add_matvec(lhs, x, buvw)
            for i, m, s in terms[p]:
                if i in y:
                    add_matvec(rhs, m, y[i], s)
            if lhs != rhs and (lhs := pruned(lhs)) != (rhs := pruned(rhs)):
                yield (*key, u, v, w), lhs, rhs


def hom_jacobi_sides(L: Hom3LieAlgebra, pairs: Iterable[tuple[int, int]],
                     triples: Iterable[tuple[int, int, int]]) -> tuple[int, Iterator]:
    """A scale and the failing hom-Jacobi instances of L at (e_a, e_b; e_u, e_v, e_w), a < b and
    u < v < w, on ``pairs`` x ``triples``, as (a, b, u, v, w) with both sides as int supports:
    with T_ab = [alpha e_a, alpha e_b, .] and B_abc = [e_a, e_b, e_c], skewness
    ([X, a v, a w] = [a v, a w, X], [a u, X, a w] = [a w, a u, X]) makes each the
    Leibniz rule of T_ab over B_ab. (:func:`leibniz_sides`),

        T_ab B_uvw == T_vw B_abu + T_wu B_abv + T_uv B_abw.

    Integers (:attr:`Hom3LieAlgebra.twisted`): with B = B~/D and alpha =
    alpha~/d, both sides have degree 2 in each, so are D^2 d^2 times theirs: the scale.
    """
    alt, (t, d) = L.alt, L.twisted
    ops = (((a, b), t.get((a, b), {}), alt.get(a, b)) for a, b in pairs)
    return (alt.scale * d) ** 2, leibniz_sides(alt, t, ops, triples)


def verify_hom_jacobi(L: Hom3LieAlgebra) -> Report:
    """Sweep hom-Jacobi (:func:`hom_jacobi_sides`) over the pairs a < b and
    the increasing triples: by multilinearity and skewness, the identity on
    all vectors.  Both sides are skew in (a, b) (:class:`Sweep`)."""
    n, w = L.dim, Sweep(2)
    return _report(w, "hom_jacobi", n, *hom_jacobi_sides(L, w.reps(n), increasing_triples(n)))


def _bracket_images(phi: Mat, L: Hom3LieAlgebra, G: Hom3LieAlgebra,
                    triples: Optional[Iterable[tuple[int, int, int]]] = None) -> tuple[int, Iterator]:
    """A scale s and, for each (i, j, k) of ``triples`` (default: all i < j < k)
    where they differ, phi [e_i,e_j,e_k] and [phi e_i,phi e_j,phi e_k] as int
    supports, s times theirs.

    With phi = phi~/d (:func:`cleared`), B_L = B~_L/D_L and B_G = B~_G/D_G (numerators;
    the pairs of phi~ over B~_G are G.twisted when phi is G's twist), phi~ B~_L
    is d D_L times the left and B~_G(phi~, phi~, phi~) d^3 D_G times the
    right; taken d^2 D_G and D_L times, both are s = d^3 D_L D_G.  Only
    candidates are evaluated: on a triple where B_L is 0 and the columns of
    T_ij = [phi e_i, phi e_j, .] miss the support of phi e_k, both sides are 0.
    """
    (cols,), d = cleared([phi.col(i).support for i in range(L.dim)])
    (left, dl), (right, dg) = (L.alt, L.alt.scale), (G.alt, G.alt.scale)
    t = G.twisted[0] if phi == G.twist else right.pairs(cols)
    lcols = {i: {r: d * d * dg * x for r, x in c.items()} for i, c in enumerate(cols)}
    rcols = [{r: dl * x for r, x in c.items()} for c in cols]
    keys = (key for key in (increasing_triples(L.dim) if triples is None else triples)
            if left.get(*key) or not t.get(key[:2], {}).keys().isdisjoint(cols[key[2]]))
    images = ((key, matvec(lcols, left.get(*key)), matvec(t.get(key[:2], {}), rcols[key[2]])) for key in keys)
    return d ** 3 * dl * dg, ((key, lhs, rhs) for key, lhs, rhs in images if lhs != rhs)


def verify_multiplicative(L: Hom3LieAlgebra) -> Report:
    """Check alpha([e_i,e_j,e_k]) = [alpha e_i, alpha e_j, alpha e_k] on all i<j<k."""
    return _report(Sweep(), "multiplicative", L.dim, *_bracket_images(L.twist, L, L))


def verify_axioms(L: Hom3LieAlgebra) -> Report:
    """Hom-Jacobi and multiplicativity sweeps, with skewness marked as holding.

    Increasing-key storage makes skewness structural, so a constructed
    algebra re-verified here only sweeps the other two identities.
    """
    return Report({"skew": True}).merged(verify_hom_jacobi(L), verify_multiplicative(L))


def verify_regular(L: Hom3LieAlgebra) -> Report:
    """Regular = multiplicative with an invertible twist."""
    rep = verify_multiplicative(L)
    return rep.merged(Report({"regular": rep.ok and rank(L.twist) == L.dim}))


def _twist_stable(L: Hom3LieAlgebra, s: Subspace) -> bool:
    """alpha s <= s.  Integers: v lies in s iff (e proj) v~ = 0 (:attr:`Subspace.projection`)
    for any nonzero multiple v~ of v, so with the twist and the basis of s cleared
    apart, each basis vector b is tested for alpha~ b."""
    if s.ambient_dim != L.dim:
        raise DimensionMismatch("subspace ambient dimension does not match the algebra")
    (acols,), _ = cleared([L.twist.col(i).support for i in range(L.dim)])
    (basis,), _ = cleared([v.support for v in s.basis])
    acols = dict(enumerate(acols))
    return all(not matvec(s.projection[1], matvec(acols, b)) for b in basis)


def is_subalgebra(L: Hom3LieAlgebra, s: Subspace) -> bool:
    """True iff s is twist-stable and closed under the bracket."""
    return _twist_stable(L, s) and all(
        subspace_contains(s, L.bracket(a, b, c)) for a, b, c in itertools.combinations(s.basis, 3)
    )


def is_ideal(L: Hom3LieAlgebra, s: Subspace) -> bool:
    """True iff s is twist-stable and [s, L, L] lies in s.

    Twist stability (:func:`_twist_stable`) is required so the quotient twist
    is well defined.  Integers, as there: with the basis of s cleared (a unit
    basis vector stays one, and :meth:`AltTable.partial` hands out its stored
    node), each basis vector b is tested for every column of the bracket's
    numerators [b, e_j, .], for each j.
    """
    if not _twist_stable(L, s):
        return False
    (basis,), _ = cleared([v.support for v in s.basis])
    return all(not matvec(s.projection[1], col) for b in basis for j in range(L.dim)
               for col in L.alt.partial(b, {j: 1}).values())


def direct_sum(L: Hom3LieAlgebra, G: Hom3LieAlgebra) -> Hom3LieAlgebra:
    """Componentwise bracket on L + G with block-diagonal twist."""
    n, m = L.dim, G.dim
    table = {key: value.concat(Vec.zero(m)) for key, value in L.table.items()}
    for (i, j, k), value in G.table.items():
        table[(i + n, j + n, k + n)] = Vec.zero(n).concat(value)
    return Hom3LieAlgebra(n + m, table, L.twist.block_diag(G.twist))


def preserves_bracket(phi: Mat, L: Hom3LieAlgebra, G: Hom3LieAlgebra) -> bool:
    """phi [e_i, e_j, e_k] == [phi e_i, phi e_j, phi e_k] on all i < j < k."""
    return next(_bracket_images(phi, L, G)[1], None) is None


def is_morphism(phi: Mat, L: Hom3LieAlgebra, G: Hom3LieAlgebra) -> bool:
    """True iff phi carries brackets to brackets and intertwines the twists."""
    if phi.cols != L.dim or phi.rows != G.dim:
        raise DimensionMismatch("morphism candidate has the wrong shape")
    return phi @ L.twist == G.twist @ phi and preserves_bracket(phi, L, G)


def graph(phi: Mat, L: Hom3LieAlgebra, G: Hom3LieAlgebra) -> Subspace:
    """Span of { e_i + phi(e_i) } inside the direct sum of L and G."""
    if phi.cols != L.dim or phi.rows != G.dim:
        raise DimensionMismatch("graph candidate has the wrong shape")
    gens = [Vec.basis(L.dim, i).concat(phi.col(i)) for i in range(L.dim)]
    return Subspace.span(L.dim + G.dim, gens)


def quotient(L: Hom3LieAlgebra, ideal: Subspace) -> tuple[Hom3LieAlgebra, Mat]:
    """Quotient algebra by a twist-stable ideal, plus the projection matrix.

    The quotient basis consists of the non-pivot coordinates of the
    ideal's canonical basis, which makes the output deterministic.  With
    e proj from :attr:`Subspace.projection` (shared with :func:`is_ideal`),
    the numerators B~ = D B and alpha = alpha~/d cleared, e proj B~ is e D
    times the quotient bracket on the increasing triples of non-pivots and
    e proj alpha~ is e d times the twist columns there; each is divided once.
    """
    if not is_ideal(L, ideal):
        raise IdealRequired("quotient needs a twist-stable ideal")
    n, alt = L.dim, L.alt
    pos, cols, e = ideal.projection
    q = len(pos)
    (acols,), d = cleared([L.twist.col(g).support for g in pos])
    table = {tuple(pos[i] for i in key): Vec.sparse(q, rational(matvec(cols, alt.get(*key)), e * alt.scale))
             for key in L.table if all(i in pos for i in key)}
    twist = (Mat.from_cols([Vec.sparse(q, rational(matvec(cols, c), e * d)) for c in acols])
             if q else Mat.zero(0, 0))
    proj = Mat.sparse(q, [Vec.sparse(q, rational(cols.get(g, {}), e)) for g in range(n)])
    return Hom3LieAlgebra(q, table, twist), proj.transpose()


def subspace_bracket(L: Hom3LieAlgebra, s1: Subspace, s2: Subspace, s3: Subspace) -> Subspace:
    """Canonical span of all brackets of basis triples from the three subspaces.

    Where the first two or the last two slots receive equal subspaces,
    only triples whose indices increase across them are bracketed, with
    the same span: the bracket is alternating, so any other triple has a
    repeated vector in equal slots and brackets to 0, or is a reordering
    within equal slots of a bracketed one and brackets to plus or minus it.
    The three bases are cleared together (:func:`cleared`) and the generators
    are numerators (:meth:`AltTable.partial`): a nonzero scale changes no span.
    """
    if any(s.ambient_dim != L.dim for s in (s1, s2, s3)):
        raise DimensionMismatch("subspace ambient dimension does not match the algebra")
    same12, same23 = s1 == s2, s2 == s3
    (b1, b2, b3), _ = cleared(*([v.support for v in s.basis] for s in (s1, s2, s3)))
    gens = []
    for i, a in enumerate(b1):
        for j in range(i + 1 if same12 else 0, len(b2)):
            ab = L.alt.partial(a, b2[j])
            low = j + 1 if same23 else 0
            gens += [Vec.sparse(L.dim, v) for c in b3[low:] if (v := matvec(ab, c))]
    return Subspace.span(L.dim, gens)
