"""Representations of multiplicative hom 3-Lie algebras.

A representation of (L, bracket, alpha) on a module V with twist A is a
skew bilinear map rho from pairs of algebra elements to endomorphisms
of V, subject to three identities checked by :func:`verify_representation`:

  (R1)  rho(a x, a y) A = A rho(x, y)
  (R2)  rho([x,y,z], a u) A = rho(a y, a z) rho(x, u)
                            + rho(a z, a x) rho(y, u)
                            + rho(a x, a y) rho(z, u)
  (R3)  rho(a x, a y) rho(z, u) = rho(a z, a u) rho(x, y)
                                + rho([x,y,z], a u) A
                                + rho(a z, [x,y,u]) A

The adjoint action of the algebra on itself always satisfies these for
a multiplicative algebra; the dual of a representation is verified per
instance rather than assumed, because it can fail for twists that do
not commute with the action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .algebras import MAX_WITNESSES, Hom3LieAlgebra, Sweep
from .errors import DimensionMismatch, RepresentationInvalid
from .linalg import Mat, Support, Vec, pruned
from .sparse import AltTable, SparseMat, add_matvec, cleared, matvec


@dataclass(frozen=True)
class Representation:
    """Skew bilinear action of an algebra on a module.

    ``table`` maps increasing 0-based pairs (i, j) to the endomorphism
    rho(e_i, e_j); zero matrices are omitted.  ``twist`` is the module
    twist A.  ``alt`` is the [L, L, V] block of the semidirect bracket on
    L + V: with n = algebra_dim, its value on (i, j, n + c) is column c of
    rho(e_i, e_j), moved to the coordinates n, ..., n + m - 1 of L + V.
    """

    algebra_dim: int
    module_dim: int
    twist: Mat
    table: dict[tuple[int, int], Mat]
    alt: AltTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, m = self.algebra_dim, self.module_dim
        if (self.twist.rows, self.twist.cols) != (m, m):
            raise DimensionMismatch("module twist must be square of the module dimension")
        cols: dict[tuple[int, int, int], Support] = {}
        for key, mat in self.table.items():
            if (mat.rows, mat.cols) != (m, m):
                raise DimensionMismatch(f"action value for {key} has the wrong shape")
            if len(key) != 2 or not 0 <= key[0] < key[1] < n:
                raise DimensionMismatch(f"action key {key} is not strictly increasing in range")
            for r, row in enumerate(mat.row_vecs):
                for c, a in row.support.items():
                    cols.setdefault((*key, n + c), {})[n + r] = a
        values = {key: Vec.sparse(n + m, col) for key, col in cols.items()}
        object.__setattr__(self, "table", {k: v for k, v in self.table.items() if not v.is_zero()})
        object.__setattr__(self, "alt", AltTable(3, n + m, n + m, values, "action"))

    def rho_basis(self, i: int, j: int) -> Mat:
        """rho on two basis vectors, in any order, with sign extension."""
        return self._mat(self.alt.get(i, j))

    def apply(self, x: Vec, y: Vec) -> Mat:
        """Bilinear skew extension rho(x, y) for arbitrary vectors."""
        if len(x) != self.algebra_dim or len(y) != self.algebra_dim:
            raise DimensionMismatch("action arguments must match the algebra dimension")
        return self._mat(self.alt.partial(x.support, y.support))

    def _mat(self, cols: SparseMat) -> Mat:
        """The module endomorphism of a sparse column matrix on L + V."""
        n, m = self.algebra_dim, self.module_dim
        return Mat.sparse(m, [Vec.sparse(m, {r - n: a for r, a in cols.get(n + c, {}).items()})
                              for c in range(m)]).transpose()


@dataclass(frozen=True)
class RepresentationReport:
    """Per-identity outcome of the representation sweep."""

    twist_ok: bool
    bracket_action_ok: bool
    exchange_ok: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]
    violations_total: int

    @property
    def ok(self) -> bool:
        return self.twist_ok and self.bracket_action_ok and self.exchange_ok


def _compose(size: int, pairs: list[tuple[SparseMat, SparseMat]],
             start: Optional[Support] = None) -> Support:
    """start + sum of left @ right over ``pairs`` on Q^size, pruned, keyed c * size + row."""
    acc = dict(start or {})
    for left, right in pairs:
        for c, col in right.items():
            for k, v in col.items():
                for row, a in left.get(k, {}).items():
                    key = c * size + row
                    acc[key] = acc[key] + a * v if key in acc else a * v
    return pruned(acc)


def verify_representation(L: Hom3LieAlgebra, r: Representation) -> RepresentationReport:
    """Sweep (R1) over basis pairs and (R2)-(R3) over basis quadruples.

    Matrices are the sparse column matrices on L + V of ``r.alt``.  The
    twisted actions rho(a e_p, a e_q) and Q_u[t] = rho(a e_u, e_t) A are
    computed once per call, so rho([x,y,z], a u) A = -sum_t [x,y,z]_t Q_u[t]
    and rho(a z, [x,y,u]) A = sum_t [x,y,u]_t Q_z[t] are sparse mat-vecs.

    Symmetries (:class:`Sweep`): (R1) is skew in (x, y); (R2) alternating
    in (x, y, z), its right side a cyclic sum of terms skew in two slots;
    (R3) skew in (x, y) and in (z, u), which trades its last two terms.
    Witnesses: (R1), then by quadruple, (R2) before (R3) at each.

    Integers (:func:`cleared`): B and rho share one D, alpha and A one d.
    (R1) has degree D d^3 on the left and D d on the right, whose side is
    multiplied by d^2; every term of (R2) and (R3) has degree D^2 d^2.
    """
    if r.algebra_dim != L.dim:
        raise DimensionMismatch("representation is over a different algebra dimension")
    n, size = L.dim, r.alt.dim
    (alt, ralt), _ = cleared(L.alt, r.alt)
    (cols,), d = cleared([c.support for c in L.twist.block_diag(r.twist).transpose().row_vecs])
    acols, a = cols[:n], dict(enumerate(cols[n:], n))  # alpha, and A on L + V
    ad2 = {c: {t: d * d * v for t, v in col.items()} for c, col in a.items()}  # A d^2, for (R1)
    rho, raa = ralt.get, ralt.pairs(acols)
    twisted = [{t: q for t in range(n) if (q := _compose(size, [(ralt.partial(x, {t: 1}), a)]))}
               for x in acols]  # t -> rho(a e_u, e_t) A

    def bracket_action(x: int, y: int, z: int, u: int) -> Support:  # rho([x,y,z], a u) A
        return {k: -v for k, v in matvec(twisted[u], alt.get(x, y, z)).items()}

    twist, r2, r3 = Sweep(2), Sweep(3), Sweep(2, 2)
    for i, j in twist.reps(n):
        if _compose(size, [(raa[i, j], a)]) != _compose(size, [(ad2, rho(i, j))]):
            twist.add((i, j))
    for x, y, z in r2.reps(n):
        for u in range(n):
            rhs = _compose(size, [(raa[x, y], rho(z, u)), (raa[y, z], rho(x, u)),
                                  (raa[z, x], rho(y, u))])
            if bracket_action(x, y, z, u) != rhs:
                r2.add((x, y, z, u))
    for x, y, z, u in r3.reps(n):
        start = bracket_action(x, y, z, u)
        add_matvec(start, twisted[z], alt.get(x, y, u))
        lhs = _compose(size, [(raa[x, y], rho(z, u))])
        if lhs != _compose(size, [(raa[z, u], rho(x, y))], start):
            r3.add((x, y, z, u))

    logs = (("twist", twist), ("bracket_action", r2), ("exchange", r3))
    witnesses = sorted(((name, idx) for name, log in logs for idx in log.witnesses),
                       key=lambda w: (len(w[1]), w[1], w[0]))
    return RepresentationReport(
        twist_ok=twist.clean,
        bracket_action_ok=r2.clean,
        exchange_ok=r3.clean,
        witnesses=tuple(witnesses[:MAX_WITNESSES]),
        violations_total=twist.total + r2.total + r3.total,
    )


def adjoint_rep(L: Hom3LieAlgebra) -> Representation:
    """The algebra acting on itself by ad(x, y) = [x, y, .]."""
    n = L.dim
    table = {(i, j): Mat.from_cols([L.bracket_basis(i, j, c) for c in range(n)])
             for i, j in itertools.combinations(range(n), 2)}
    return Representation(n, n, L.twist, table)


def dual_rep(r: Representation) -> Representation:
    """Dual module: rho*(x, y) = -rho(x, y)^T with twist A^T.

    In dual coordinates, (rho*(x,y) f)(v) = -f(rho(x,y) v) and the
    twist acts by precomposition, whose matrix is the transpose.
    """
    table = {key: -mat.transpose() for key, mat in r.table.items()}
    return Representation(r.algebra_dim, r.module_dim, r.twist.transpose(), table)


def coadjoint_rep(L: Hom3LieAlgebra) -> Representation:
    """Dual of the adjoint action: ad*(x, y) f = -f([x, y, .])."""
    return dual_rep(adjoint_rep(L))


def semidirect_product(L: Hom3LieAlgebra, r: Representation) -> Hom3LieAlgebra:
    """Algebra on L + V with bracket

        [u+X, v+Y, w+Z] = [u,v,w] + rho(u,v) Z + rho(w,u) Y + rho(v,w) X

    and block-diagonal twist.  The sign pattern is skew-consistent, so
    the result is an ordinary structure-constant table.
    """
    rep = verify_representation(L, r)
    if not rep.ok:
        raise RepresentationInvalid(
            f"action fails the representation identities ({rep.violations_total} violations)"
        )
    return _semidirect_table(L, r)


def _semidirect_table(
    L: Hom3LieAlgebra, r: Representation, theta: Optional[dict[tuple[int, int, int], Vec]] = None
) -> Hom3LieAlgebra:
    """Unchecked semidirect-product table; see :func:`semidirect_product`.

    The table merges L's with the action block ``r.alt.values``; ``theta``
    (increasing triples to module vectors) is added in the module
    component, which gives the theta-extension table.
    """
    n, m = L.dim, r.module_dim
    if r.algebra_dim != n:  # its keys would land on L's own
        raise DimensionMismatch("representation is over a different algebra dimension")
    zmod, zalg = Vec.zero(m), Vec.zero(n)
    table = {**{key: value.concat(zmod) for key, value in L.table.items()}, **r.alt.values}
    for key, value in (theta or {}).items():
        table[key] = table.get(key, Vec.zero(n + m)) + zalg.concat(value)
    return Hom3LieAlgebra(n + m, table, L.twist.block_diag(r.twist))
