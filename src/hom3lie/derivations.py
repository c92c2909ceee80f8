"""Twisted derivations of multiplicative hom 3-Lie algebras.

A linear map D is a grade-k derivation when it commutes with the twist
and satisfies the k-twisted Leibniz rule

    D[u, v, w] = [D u, a^k v, a^k w] + [a^k u, D v, a^k w] + [a^k u, a^k v, D w].

Each grade is the kernel of an explicit linear system in the n^2 matrix
entries, so the spaces come out with canonical bases.  Negative grades
are available exactly when the twist is an algebra automorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator

from .algebras import (
    MAX_WITNESSES,
    Hom3LieAlgebra,
    Report,
    Sweep,
    _bracket_images,
    _report,
    hom_jacobi_sides,
    increasing_triples,
    leibniz_sides,
    verify_regular,
)
from .errors import DimensionMismatch, FixedPointRequired, RegularTwistRequired
from .linalg import Mat, Subspace, Support, Vec, cleared, matvec, nullspace, pruned, subspace_contains
from .sparse import signed_perms, splits


def twist_power(L: Hom3LieAlgebra, k: int) -> Mat:
    """alpha^k; negative k demands a regular algebra."""
    if k < 0 and not verify_regular(L).ok:
        raise RegularTwistRequired("negative twist powers need a regular algebra")
    return L.twist.power(k)


def commutator(d: Mat, dp: Mat) -> Mat:
    """The usual matrix commutator d dp - dp d."""
    if not d.is_square or (d.rows, d.cols) != (dp.rows, dp.cols):
        raise DimensionMismatch("commutator needs square matrices of equal size")
    return d @ dp - dp @ d


def _leibniz(L: Hom3LieAlgebra, d: Mat, k: int) -> tuple[int, Iterator]:
    """A scale s and the increasing triples (i, j, k) failing the grade-k Leibniz
    rule, with both sides as int supports, s times theirs: D B_ijk against the
    twisted actions T_jk D e_i + T_ki D e_j + T_ij D e_k (:func:`derivation_space`),
    the one operator (c^2 D~, D~) of :func:`leibniz_sides` over the pairs of A~.

    With D and a^k cleared together to D~/c and A~/c (:func:`cleared`) and B~ = b B
    the numerators, c^2 D~ B~ and the actions of A~ on D~ are b c^3 times theirs.
    """
    n, ak = L.dim, twist_power(L, k)
    (akcols, dcols), c = cleared([ak.col(i).support for i in range(n)], [d.col(i).support for i in range(n)])
    dmat = {i: col for i, col in enumerate(dcols) if col}
    lcols = {i: {r: c * c * x for r, x in col.items()} for i, col in dmat.items()}
    return L.alt.scale * c ** 3, leibniz_sides(L.alt, L.alt.pairs(akcols), [((), lcols, dmat)],
                                               increasing_triples(n))


def is_alpha_k_derivation(L: Hom3LieAlgebra, d: Mat, k: int) -> bool:
    """Decide the grade-k derivation property for a multiplicative algebra."""
    if (d.rows, d.cols) != (L.dim, L.dim):
        raise DimensionMismatch("derivation candidate has the wrong shape")
    return d @ L.twist == L.twist @ d and next(_leibniz(L, d, k)[1], None) is None


@dataclass(frozen=True)
class DerivationSpace:
    """The grade-k derivations of one algebra, as ``as_subspace``: the
    canonical solution space in the n^2 entries, row-major.  ``basis``
    holds its rows as matrices, built once, so equal spaces have equal bases.
    """

    k: int
    algebra_dim: int
    as_subspace: Subspace

    @cached_property
    def basis(self) -> tuple[Mat, ...]:
        n, out = self.algebra_dim, []
        for v in self.as_subspace.basis:
            rows: list[Support] = [{} for _ in range(n)]
            for i, a in v.support.items():
                rows[i // n][i % n] = a
            out.append(Mat.sparse(n, (Vec.sparse(n, r) for r in rows)))
        return tuple(out)

    @property
    def dimension(self) -> int:
        return self.as_subspace.dim

    def contains(self, d: Mat) -> bool:
        n = self.algebra_dim
        if (d.rows, d.cols) != (n, n):
            raise DimensionMismatch("derivation candidate has the wrong shape")
        flat = {r * n + c: a for r, v in enumerate(d.row_vecs) for c, a in v.support.items()}
        return subspace_contains(self.as_subspace, Vec.sparse(n * n, flat))


def derivation_space(L: Hom3LieAlgebra, k: int) -> DerivationSpace:
    """Solve the stacked linear system for grade-k derivations.

    Unknowns are the n^2 entries of D (row-major); rows come from D a = a D and from the
    twisted Leibniz rule on increasing basis triples, one per output coordinate.  There
    (D B_ijk)_out is nonzero at every coordinate when B_ijk is, and each twisted-action term
    only in its image, so a row left out (B_ijk = 0, out in no image) reads 0 = 0: only triples
    with B_ijk != 0 or a nonzero action at a pair of their :func:`splits` are visited.  The RREF
    is unique, so dropping zero rows and reordering or rescaling rows keep the basis.
    Integers (:func:`cleared`): with a = a~/e, a^k = A~/d and B~ = s B the
    numerators, a commutation row is e times its equation and a Leibniz row
    s d^2 times its, d^2 B~_ijk against the actions of A~'s column pairs over B~.
    """
    n, ak = L.dim, twist_power(L, k)
    (akcols,), d = cleared([ak.col(i).support for i in range(n)])
    (acols,), _ = cleared([L.twist.col(i).support for i in range(n)])
    arows, rows = [{c: col[p] for c, col in enumerate(acols) if p in col} for p in range(n)], []
    for p, q in itertools.product(range(n), repeat=2):  # (D a - a D)[p, q] = 0
        row = {p * n + c: a for c, a in acols[q].items()}
        for c, a in arows[p].items():
            row[c * n + q] = row.get(c * n + q, 0) - a
        rows.append(row)
    # [D e_i, a^k e_j, a^k e_k] = [a^k e_j, a^k e_k, D e_i] is linear in column
    # i of D, with the twisted action T = tk[j, k] as coefficient matrix: D[r, i]
    # meets T e_r, at each coordinate of T e_r; likewise for the other :func:`splits`.
    tk = L.alt.pairs(akcols)
    for i, j, kk in increasing_triples(n):
        if (j, kk) in tk or (i, kk) in tk or (i, j) in tk or (i, j, kk) in L.alt.num:
            bval = L.alt.get(i, j, kk)
            outs = {out: {out * n + t: d * d * b for t, b in bval.items()} for out in range(n if bval else 0)}
            for col, pair, sign in splits(i, j, kk):
                for r, vec in tk.get(pair, {}).items():
                    for out, a in vec.items():
                        row = outs.setdefault(out, {})
                        row[r * n + col] = row.get(r * n + col, 0) - sign * a
            rows += outs.values()

    # nonzero int rows, shortest first (less fill); the kernel takes ints as they are
    rows = sorted(filter(None, map(pruned, rows)), key=len)
    return DerivationSpace(k, n, nullspace(Mat.sparse(n * n, [Vec.sparse(n * n, s) for s in rows])))


def fixed_space(L: Hom3LieAlgebra) -> Subspace:
    """Eigenspace of the twist at eigenvalue one."""
    return nullspace(L.twist - Mat.identity(L.dim))


def inner_derivation(L: Hom3LieAlgebra, u1: Vec, u2: Vec, k: int) -> Mat:
    """The map v -> [u1, u2, alpha^k v] for twist-fixed u1, u2.

    Always lands one grade up: the result is a grade-(k+1) derivation.
    """
    fixed = fixed_space(L)
    if not (subspace_contains(fixed, u1) and subspace_contains(fixed, u2)):
        raise FixedPointRequired("inner derivations need twist-fixed arguments")
    ak = twist_power(L, k)
    return Mat.from_cols([L.bracket(u1, u2, ak.col(c)) for c in range(L.dim)])


def inner_space(L: Hom3LieAlgebra, k: int) -> DerivationSpace:
    """Canonical span of the inner grade-k derivations (k >= 1): the maps
    T_ab a^(k-1), row-major, with T_ab = [u_a, u_b, .] on the fixed basis, a < b
    and T_ab != 0 (any other T is 0 or the negation of one of these).
    Column c of one is T_ab applied to column c of a^(k-1); both are taken as
    numerators (:meth:`AltTable.pairs`, :func:`cleared`): a nonzero scale changes no span."""
    if k < 1:
        raise ValueError("inner derivations exist from grade 1 upward")
    n, fixed, ak = L.dim, fixed_space(L), twist_power(L, k - 1)
    (akcols,), _ = cleared([ak.col(c).support for c in range(n)])
    t = L.alt.pairs([u.support for u in fixed.basis])
    gens = [Vec.sparse(n * n, {r * n + c: x for c, col in enumerate(akcols)
                               for r, x in matvec(m, col).items()}) for m in t.values()]
    return DerivationSpace(k, n, Subspace.span(n * n, gens))


def _slot_term(m: Mat, i: int, j: int, k: int) -> Support:
    """[i=n] m e_j + [j=n] m e_k - [k=n] m e_i, with n = m.cols and m e_n = 0:
    a term needs n in its slot and an index below n in the next, so at
    most one term is nonzero."""
    for sign, x, y in ((1, i, j), (1, j, k), (-1, k, i)):
        if x == m.cols > y:
            return {t: sign * a for t, a in m.col(y).support.items()}
    return {}


@dataclass(frozen=True)
class DerivationExtension:
    """One-dimensional extension of an algebra by a candidate derivation.

    The bracket on L + <D>, D the last basis vector e_n, is the literal rule

        [u + l D, v + m D, w + n D] = [u, v, w] + l D(v) + m D(w) - n D(u).

    Two quirks of the rule are kept visible instead of being repaired: it
    is not skew-symmetric for nonzero D (swapping the first two slots does
    not negate it), and it is not trilinear (the l D(v) term is constant in
    the third slot), so :meth:`value` describes the rule on basis vectors
    only; the tests evaluate the rule itself as their oracle.
    """

    base: Hom3LieAlgebra
    derivation: Mat

    def __post_init__(self) -> None:
        if (self.derivation.rows, self.derivation.cols) != (self.base.dim, self.base.dim):
            raise DimensionMismatch("derivation candidate has the wrong shape")

    @property
    def dim(self) -> int:
        return self.base.dim + 1

    @property
    def twist(self) -> Mat:
        return self.base.twist.block_diag(Mat.identity(1))

    def value(self, i: int, j: int, k: int) -> Vec:
        """The rule on basis vectors, B_ijk + [i=n] D e_j + [j=n] D e_k - [k=n] D e_i,
        B_ijk taken only when i, j, k < n (``bracket_basis`` is 0 on keys holding n)."""
        slot = _slot_term(self.derivation, i, j, k)
        return Vec.sparse(self.dim, slot or self.base.bracket_basis(i, j, k).support)


def derivation_extension(L: Hom3LieAlgebra, d: Mat) -> tuple[DerivationExtension, Report]:
    """Extend a multiplicative algebra by D and verify the construction.

    Every sweep is the rule of :class:`DerivationExtension` on basis vectors, in
    the closed form of :meth:`DerivationExtension.value`, with the twist
    a' = a + 1 (a' e_n = e_n), each in lexicographic order:

    * ``skew``: skewness of the value table, false for every nonzero D;
    * ``multiplicative``: a' [e_i, e_j, e_k] against the rule on the
      a'-images, for all ordered triples.  Below n both are L's and
      alternating, so L's i < j < k give every ordering (:class:`Sweep`);
      on a triple holding n they are the closed form with a D and with D a;
    * ``hom_jacobi``: the theorem's verdict, the hom-Jacobi instances
      (x, y, u, v, w) with u < v < w below n and (x, y) ordered below n
      or y = n, and multiplicativity: true exactly when D is a grade-1
      derivation.  Below n the instances are L's (:func:`hom_jacobi_sides`).
      With y = n, [a' e_x, e_n, B_uvw] = D B_uvw and [e_x, e_n, e_t] = D e_t
      whether x is n or not, so each of the n + 1 values of x gives the
      grade-1 Leibniz rule on (u, v, w) (:func:`_leibniz`).

    The instances with D in the *first* slot are left out on purpose: they
    reduce to D(alpha(y)) = [D y, a v, a w] + [a u, D y, a w] + [a u, a v, D y],
    which fails for nonzero D even on abelian algebras.
    """
    ext = DerivationExtension(L, d)
    n, nn = L.dim, L.dim + 1
    skew = Sweep()  # off n the values are L's, skew by construction
    for key in itertools.product(range(nn), repeat=3):
        if len(set(key)) < 3 and (v := ext.value(*key)).support:
            skew.add(key, v.support, {})
        elif key[0] < key[1] < key[2] == n:
            for p, sign in signed_perms(3):
                perm = tuple(key[t] for t in p)
                if (got := ext.value(*perm)) != (want := ext.value(*key).scale(sign)):
                    skew.add(perm, got.support, want.support)

    below, at_n = Sweep(3), Sweep()
    ad, da = L.twist @ d, d @ L.twist
    slots = ((key, lhs, rhs) for key in itertools.product(range(nn), repeat=3)
             if (lhs := _slot_term(ad, *key)) != (rhs := _slot_term(da, *key)))
    mult = sorted(_report(below, "multiplicative", nn, *_bracket_images(L.twist, L, L)).violations
                  + _report(at_n, "multiplicative", nn, 1, slots).violations, key=lambda v: v.indices)

    own, leibniz = Sweep(2), Sweep()
    base = _report(own, "hom_jacobi", nn, *hom_jacobi_sides(L, own.reps(n), increasing_triples(n))).violations
    rows = _report(leibniz, "hom_jacobi", nn, *_leibniz(L, d, 1)).violations
    jac = sorted([*base, *(replace(v, indices=(x, n, *v.indices)) for x in range(nn) for v in rows)],
                 key=lambda v: v.indices)
    jac_total = own.total + nn * leibniz.total
    mult_total = below.total + at_n.total
    flags = {"skew": skew.clean, "hom_jacobi": jac_total == 0 and mult_total == 0,
             "multiplicative": mult_total == 0}
    return ext, Report(flags, tuple([*_report(skew, "skew", nn).violations, *jac, *mult][:MAX_WITNESSES]),
                       skew.total + jac_total + mult_total)
