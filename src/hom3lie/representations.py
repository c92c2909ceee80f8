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
from dataclasses import dataclass, field, replace
from typing import Optional

from .algebras import (
    MAX_WITNESSES,
    Hom3LieAlgebra,
    Report,
    Sweep,
    _bracket_images,
    _report,
    hom_jacobi_sides,
    increasing_triples,
)
from .errors import DimensionMismatch
from .linalg import Mat, SparseMat, Vec, rational
from .sparse import AltTable, Tabled, splits, summed


@dataclass(frozen=True)
class Representation(Tabled):
    """Skew bilinear action of an algebra on a module.

    ``table`` is the [L, L, V] block of the semidirect bracket on L + V:
    with n = algebra_dim, its value on an increasing key (i, j, n + c) is
    rho(e_i, e_j) e_c in the coordinates n, ..., n + m - 1 of L + V; zero
    values are omitted.  ``twist`` is the module twist A; ``alt`` stores it.
    """

    algebra_dim: int
    module_dim: int
    twist: Mat
    table: dict[tuple[int, int, int], Vec]
    alt: AltTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, m = self.algebra_dim, self.module_dim
        if (self.twist.rows, self.twist.cols) != (m, m):
            raise DimensionMismatch("module twist must be square of the module dimension")
        given = self.__dict__.pop("table")  # the constructions pass (numerators, scale), in the block
        object.__setattr__(self, "alt", AltTable.of(n + m, n + m, given, "action"))
        for key, value in ({} if type(given) is tuple else given).items():  # (i, j, n + c) to a module vector
            if key[1] >= n or key[2] < n or min(value.support, default=n) < n:
                raise DimensionMismatch(f"action value for {key} lies outside the [L, L, V] block")

    def rho_basis(self, i: int, j: int) -> Mat:
        """rho on two basis vectors, in any order, with sign extension."""
        return self._mat(self.alt.get(i, j))

    def apply(self, x: Vec, y: Vec) -> Mat:
        """Bilinear skew extension rho(x, y) for arbitrary vectors."""
        if len(x) != self.algebra_dim or len(y) != self.algebra_dim:
            raise DimensionMismatch("action arguments must match the algebra dimension")
        return self._mat(self.alt.partial(x.support, y.support))

    def _mat(self, cols: SparseMat) -> Mat:
        """The module endomorphism of the numerators ``cols`` of a sparse column
        matrix on L + V, divided by ``alt.scale``."""
        n, m = self.algebra_dim, self.module_dim
        return Mat.sparse(m, [Vec.sparse(m, rational({r - n: a for r, a in cols.get(n + c, {}).items()},
                                                     self.alt.scale)) for c in range(m)]).transpose()


def verify_representation(L: Hom3LieAlgebra, r: Representation) -> Report:
    """Sweep (R1) over basis pairs and (R2)-(R3) over basis quadruples, as
    the representation part of :func:`_extension_sweep` on L + V.

    Symmetries (:class:`Sweep`): (R1) is skew in (x, y); (R2) alternating
    in (x, y, z), its right side a cyclic sum of terms skew in two slots;
    (R3) skew in (x, y) and in (z, u), which trades its last two terms.
    Only their representatives are visited, on sides scaled by a positive
    integer.  Witnesses: (R1), then by quadruple, (R2) before (R3) at each.
    """
    return _extension_sweep(_semidirect_table(L, r), L.dim)[0]


def adjoint_rep(L: Hom3LieAlgebra) -> Representation:
    """The algebra acting on itself by ad(x, y) = [x, y, .]: each stored B_xyz
    is s ad(e_a, e_b) e_c at each of its :func:`splits` (c, (a, b), s), on L's numerators."""
    n = L.dim
    num = {(a, b, n + c): {n + t: s * x for t, x in value.items()}
           for key, value in L.alt.num.items() for c, (a, b), s in splits(*key)}
    return Representation(n, n, L.twist, (num, L.alt.scale))


def dual_rep(r: Representation) -> Representation:
    """Dual module: rho*(x, y) = -rho(x, y)^T with twist A^T.

    In dual coordinates, (rho*(x,y) f)(v) = -f(rho(x,y) v) and the
    twist acts by precomposition, whose matrix is the transpose: coordinate
    n + c of rho*'s value on (i, j, n + t) is -(rho's on (i, j, n + c))_{n+t}.
    """
    n, m, cols = r.algebra_dim, r.module_dim, {}
    for (i, j, c), value in r.alt.num.items():
        for t, x in value.items():
            cols.setdefault((i, j, t), {})[c] = -x
    return Representation(n, m, r.twist.transpose(), (cols, r.alt.scale))


def coadjoint_rep(L: Hom3LieAlgebra) -> Representation:
    """Dual of the adjoint action: ad*(x, y) f = -f([x, y, .])."""
    return dual_rep(adjoint_rep(L))


def _semidirect_table(L: Hom3LieAlgebra, r: Representation,
                      theta: Optional[AltTable] = None) -> Hom3LieAlgebra:
    """Unchecked semidirect-product table (:func:`.extensions.semidirect_product`): the sum of L's,
    the action block ``r.table`` and ``theta``, a cocycle's table, in the module component."""
    n, m = L.dim, r.module_dim
    if r.algebra_dim != n:  # its keys would land on L's own
        raise DimensionMismatch("representation is over a different algebra dimension")
    parts = (L.alt, 0, 0), (r.alt, 0, 0), *([(theta, 0, n)] if theta else [])
    return Hom3LieAlgebra(n + m, summed(*parts), L.twist.block_diag(r.twist))


def _extension_sweep(E: Hom3LieAlgebra, n: int) -> tuple[Report, Report, Report]:
    """The reports of the action and theta that extend L, n = dim L, to
    E = L + V (:func:`_semidirect_table`), and E's as :func:`verify_axioms` gives it.

    A bracket of E with two module vectors is 0, one with one lies in V, and
    the twist keeps L and V, so every twisted, nested bracket in E's
    identities is 0 at two or more module indices, and so is the instance.
    The rest is swept once: multiplicativity on E's increasing triples, in
    E's order, whose candidate filter (:func:`_bracket_images`) skips those with
    two module indices: B_E is 0 there, T over an (algebra, module) pair has
    algebra columns while alpha e_{n+c'} lies in V, and a (module, module)
    pair has no T; and hom-Jacobi in three blocks, (a < b < n; L's triples),
    (u, n + c; L's triples) and (a < b < n; z < u < n, n + c).  As
    [e_x, e_y, e_{n+c}] = rho(x, y) e_c, column c of (R1) at (x, y) is the
    first on (x, y, n + c), and of (R2), (R3) at (x, y, z, u) hom-Jacobi on
    (e_u, e_{n+c}; e_x, e_y, e_z), (e_x, e_y; e_z, e_u, e_{n+c}), with both
    sides in V; the module part of the first block is the cocycle identity
    (:func:`verify_cocycle`).  Logs with blocks sort their witnesses
    (:class:`Sweep`), so the blocks may come in any order.  theta meets
    (R1)-(R3) only in brackets with two module vectors.
    """
    low, module = list(itertools.combinations(range(n), 2)), range(n, E.dim)
    jacobi, mult, twist, cocycle, r2, r3 = Sweep(2), Sweep(), Sweep(2), Sweep(3, 2), Sweep(3), Sweep(2, 2)
    found: dict[Sweep, set] = {twist: set(), cocycle: set(), r2: set(), r3: set()}
    scale, images = _bracket_images(E.twist, E, E)
    for key, lhs, rhs in images:
        mult.add(key, lhs, rhs)
        if key[2] >= n:
            found[twist].add(key[:2])
    blocks = ((cocycle, low, increasing_triples(n), lambda u, v, x, y, z: (x, y, z, u, v)),
              (r2, itertools.product(range(n), module), increasing_triples(n),
               lambda u, _, x, y, z: (x, y, z, u)),
              (r3, low, [(x, y, c) for x, y in low for c in module], lambda x, y, z, u, _: (x, y, z, u)))
    for log, pairs, triples, part in blocks:
        jscale, sides = hom_jacobi_sides(E, pairs, triples)
        for key, lhs, rhs in sides:
            jacobi.add(key, lhs, rhs)
            if {k: a for k, a in lhs.items() if k >= n} != {k: a for k, a in rhs.items() if k >= n}:
                found[log].add(part(*key))
    for log, keys in found.items():
        for key in keys:
            log.add(key)
    parts = [_report(log, name) for name, log in (("twist", twist), ("bracket_action", r2), ("exchange", r3))]
    kept = sorted((v for p in parts for v in p.violations),
                  key=lambda v: (len(v.indices), v.indices, v.identity))
    rep = replace(Report().merged(*parts), violations=tuple(kept[:MAX_WITNESSES]))
    own = (_report(jacobi, "hom_jacobi", E.dim, jscale), _report(mult, "multiplicative", E.dim, scale))
    return rep, _report(cocycle, "cocycle"), Report({"skew": True}).merged(*own)
