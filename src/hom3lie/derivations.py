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
from dataclasses import dataclass, field
from fractions import Fraction

from .algebras import (
    MAX_WITNESSES,
    AlgebraReport,
    Hom3LieAlgebra,
    Sweep,
    increasing_triples,
    skew_violations,
    verify_regular,
)
from .errors import DimensionMismatch, FixedPointRequired, RegularTwistRequired
from .linalg import Mat, Subspace, Vec, nullspace, pruned, subspace_contains
from .sparse import cleared


def twist_power(L: Hom3LieAlgebra, k: int) -> Mat:
    """alpha^k; negative k demands a regular algebra."""
    if k < 0 and not verify_regular(L).regular_ok:
        raise RegularTwistRequired("negative twist powers need a regular algebra")
    return L.twist.power(k)


def commutator(d: Mat, dp: Mat) -> Mat:
    """The usual matrix commutator d dp - dp d."""
    if not d.is_square or (d.rows, d.cols) != (dp.rows, dp.cols):
        raise DimensionMismatch("commutator needs square matrices of equal size")
    return d @ dp - dp @ d


def is_alpha_k_derivation(L: Hom3LieAlgebra, d: Mat, k: int) -> bool:
    """Decide the grade-k derivation property for a multiplicative algebra."""
    if (d.rows, d.cols) != (L.dim, L.dim):
        raise DimensionMismatch("derivation candidate has the wrong shape")
    if d @ L.twist != L.twist @ d:
        return False
    ak = twist_power(L, k)
    akc = [ak.col(i) for i in range(L.dim)]
    dc = [d.col(i) for i in range(L.dim)]
    return all(d.apply(L.bracket_basis(i, j, kk)) == L.bracket(dc[i], akc[j], akc[kk])
               + L.bracket(akc[i], dc[j], akc[kk]) + L.bracket(akc[i], akc[j], dc[kk])
               for i, j, kk in increasing_triples(L.dim))


@dataclass(frozen=True)
class DerivationSpace:
    """Canonical basis of the grade-k derivations of one algebra.

    Basis matrices are the row-major unvectorisations of the reduced
    basis of the underlying solution space, so equal spaces have equal
    bases.
    """

    k: int
    algebra_dim: int
    basis: tuple[Mat, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def as_subspace(self) -> Subspace:
        n2 = self.algebra_dim * self.algebra_dim
        return Subspace(n2, tuple(m.vectorize() for m in self.basis))

    def contains(self, d: Mat) -> bool:
        return subspace_contains(self.as_subspace(), d.vectorize())


def derivation_space(L: Hom3LieAlgebra, k: int) -> DerivationSpace:
    """Solve the stacked linear system for grade-k derivations.

    Unknowns are the n^2 entries of D (row-major); rows come from D a = a D
    and from the twisted Leibniz rule on increasing basis triples, one per
    output coordinate.  There (D B_ijk)_out is nonzero at every coordinate
    when B_ijk is, and each twisted-action term only in its image, so a row
    left out (B_ijk = 0, out in no image) reads 0 = 0; the RREF is unique,
    so dropping zero rows and reordering or rescaling rows keep the basis.
    Integers (:func:`cleared`): with a = a~/e, a^k = A~/d and B = B~/s, a
    commutation row is e times its equation and a Leibniz row s d^2 times
    its, d^2 B~_ijk against the actions of the pairs of A~'s columns over B~.
    """
    n = L.dim
    (akcols,), d = cleared([twist_power(L, k).col(i).support for i in range(n)])
    (acols,), _ = cleared([L.twist.col(i).support for i in range(n)])
    alt, _ = L.alt.integral
    rows: list[dict[int, int]] = []
    for p, q in itertools.product(range(n), repeat=2):  # (D a - a D)[p, q] = 0
        row = {p * n + c: a for c, a in acols[q].items()}
        for c, col in enumerate(acols):
            if p in col:
                row[c * n + q] = row.get(c * n + q, 0) - col[p]
        rows.append(row)
    # [D e_i, a^k e_j, a^k e_k] = [a^k e_j, a^k e_k, D e_i] is linear in column
    # i of D, with the twisted action T = tk[j, k] as coefficient matrix: D[r, i]
    # meets T e_r, at each coordinate of T e_r; likewise for the other two slots.
    tk = alt.pairs(akcols)
    for i, j, kk in increasing_triples(n):
        bval = alt.get(i, j, kk)
        by_out = {out: {out * n + t: d * d * b for t, b in bval.items()} for out in range(n) if bval}
        for col, action in ((i, tk[j, kk]), (j, tk[kk, i]), (kk, tk[i, j])):
            for r, vec in action.items():
                for out, a in vec.items():
                    row = by_out.setdefault(out, {})
                    row[r * n + col] = row.get(r * n + col, 0) - a
        rows += by_out.values()

    # nonzero int rows, shortest first (less fill); the kernel takes ints as they are
    rows = sorted(filter(None, map(pruned, rows)), key=len)
    sol = nullspace(Mat.sparse(n * n, [Vec.sparse(n * n, s) for s in rows]))
    basis = tuple(Mat.unvectorize(n, n, v) for v in sol.basis)
    return DerivationSpace(k, n, basis)


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
    """Canonical span of the inner grade-k derivations (k >= 1)."""
    if k < 1:
        raise ValueError("inner derivations exist from grade 1 upward")
    n = L.dim
    fixed = fixed_space(L)
    ak = twist_power(L, k - 1)
    t = L.alt.pairs([u.support for u in fixed.basis])
    gens = [(Mat.from_cols([Vec.sparse(n, t[a, b].get(c, {})) for c in range(n)]) @ ak).vectorize()
            for a, b in itertools.combinations(range(fixed.dim), 2)]
    span = Subspace.span(n * n, gens)
    return DerivationSpace(k, n, tuple(Mat.unvectorize(n, n, v) for v in span.basis))


@dataclass(frozen=True)
class DerivationExtension:
    """One-dimensional extension of an algebra by a candidate derivation.

    The bracket on L + <D> is the literal rule

        [u + l D, v + m D, w + n D] = [u, v, w] + l D(v) + m D(w) - n D(u)

    evaluated by :meth:`rule` and stored on all ordered basis triples as
    a dense table.  Two quirks of the rule are kept visible instead of
    being repaired: it is not skew-symmetric for nonzero D (swapping the
    first two slots does not negate it), and it is not trilinear (the
    l D(v) term is constant in the third slot), so the table, read by
    :meth:`value`, describes the rule on basis vectors only.
    """

    base: Hom3LieAlgebra
    derivation: Mat
    values: tuple[tuple[tuple[Vec, ...], ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        basis = [Vec.basis(self.dim, i) for i in range(self.dim)]
        values = tuple(tuple(tuple(self.rule(x, y, z) for z in basis) for y in basis)
                       for x in basis)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.base.dim + 1

    @property
    def twist(self) -> Mat:
        return self.base.twist.block_diag(Mat.identity(1))

    def value(self, i: int, j: int, k: int) -> Vec:
        return self.values[i][j][k]

    def _split(self, v: Vec) -> tuple[Vec, Fraction]:
        n = self.base.dim
        return Vec.sparse(n, {i: a for i, a in v.support.items() if i < n}), v[n]

    def rule(self, x: Vec, y: Vec, z: Vec) -> Vec:
        """The literal defining rule, on decompositions u + l D."""
        n = self.dim
        if len(x) != n or len(y) != n or len(z) != n:
            raise DimensionMismatch("arguments must match the extension dimension")
        xv, l = self._split(x)
        yv, m = self._split(y)
        zv, nn = self._split(z)
        d = self.derivation
        out = (
            self.base.bracket(xv, yv, zv)
            + d.apply(yv).scale(l)
            + d.apply(zv).scale(m)
            - d.apply(xv).scale(nn)
        )
        return out.concat(Vec.zero(1))


def derivation_extension(L: Hom3LieAlgebra, d: Mat) -> tuple[DerivationExtension, AlgebraReport]:
    """Extend a multiplicative algebra by D and verify the construction.

    All sweeps evaluate the literal defining rule (:meth:`DerivationExtension.rule`),
    matching the quantities the extension theorem actually computes.
    The returned report:

    * ``multiplicative_ok`` sweeps the extended twist over every ordered
      basis triple, which (for multiplicative L) amounts to D commuting
      with the twist;
    * ``hom_jacobi_ok`` is the theorem's verdict: the pure-L hom-Jacobi
      sweep, the sweep obtained by placing D in the second slot (the
      grade-1 twisted Leibniz rule), and the multiplicativity sweep must
      all hold, so the flag is true exactly when D is a grade-1
      derivation of L;
    * ``skew_ok`` reports the literal table's skewness, which fails for
      every nonzero D.

    A full hom-Jacobi sweep over the non-skew table is intentionally not
    used: instantiations with D in the *first* slot reduce to
    D(alpha(y)) = [D y, a v, a w] + [a u, D y, a w] + [a u, a v, D y],
    which already fails for nonzero D on abelian algebras, so it is not
    the identity the construction is designed to satisfy.
    """
    n = L.dim
    if (d.rows, d.cols) != (n, n):
        raise DimensionMismatch("derivation candidate has the wrong shape")
    nn = n + 1
    ext = DerivationExtension(L, d)
    twist = ext.twist

    skew = skew_violations(nn, ext.value)

    mult = Sweep()
    tcols = [twist.col(i) for i in range(nn)]
    for i, j, k in itertools.product(range(nn), repeat=3):
        lhs = twist.apply(ext.value(i, j, k))
        rhs = ext.rule(tcols[i], tcols[j], tcols[k])
        if lhs != rhs:
            mult.add((i, j, k), lhs, rhs)

    jac = Sweep()
    dslot = n  # basis index of D inside the extension
    for a in range(nn):
        second_slots = list(range(n)) if a < n else []
        second_slots.append(dslot)
        for b in second_slots:
            for u, v, w in increasing_triples(n):
                inner = ext.value(u, v, w)
                lhs = ext.rule(tcols[a], tcols[b], inner)
                rhs = (
                    ext.rule(ext.value(a, b, u), tcols[v], tcols[w])
                    + ext.rule(tcols[u], ext.value(a, b, v), tcols[w])
                    + ext.rule(tcols[u], tcols[v], ext.value(a, b, w))
                )
                if lhs != rhs:
                    jac.add((a, b, u, v, w), lhs, rhs)

    hom_jacobi_ok = jac.clean and mult.clean
    witnesses = (skew.violations("skew") + jac.violations("hom_jacobi")
                 + mult.violations("multiplicative"))
    report = AlgebraReport(
        skew_ok=skew.clean,
        hom_jacobi_ok=hom_jacobi_ok,
        multiplicative_ok=mult.clean,
        violations=tuple(witnesses[:MAX_WITNESSES]),
        violations_total=skew.total + jac.total + mult.total,
    )
    return ext, report
