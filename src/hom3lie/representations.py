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

from .algebras import (
    MAX_WITNESSES,
    Hom3LieAlgebra,
    Sweep,
    _bracket_images,
    hom_jacobi_sides,
    increasing_triples,
)
from .errors import DimensionMismatch, RepresentationInvalid
from .linalg import Mat, Vec
from .sparse import AltTable, SparseMat


@dataclass(frozen=True)
class Representation:
    """Skew bilinear action of an algebra on a module.

    ``table`` is the [L, L, V] block of the semidirect bracket on L + V:
    with n = algebra_dim, its value on an increasing key (i, j, n + c) is
    rho(e_i, e_j) e_c in the coordinates n, ..., n + m - 1 of L + V; zero
    values are omitted.  ``twist`` is the module twist A; ``alt`` evaluates it.
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
        alt = AltTable(3, n + m, n + m, self.table, "action")
        for key, value in self.table.items():  # (i, j, n + c) to a module vector
            if key[1] >= n or key[2] < n or min(value.support, default=n) < n:
                raise DimensionMismatch(f"action value for {key} lies outside the [L, L, V] block")
        object.__setattr__(self, "table", alt.values)
        object.__setattr__(self, "alt", alt)

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


def verify_representation(L: Hom3LieAlgebra, r: Representation) -> RepresentationReport:
    """Sweep (R1) over basis pairs and (R2)-(R3) over basis quadruples.

    On E = L + V (:func:`semidirect_product`), [e_x, e_y, e_{n+c}] is
    rho(x, y) e_c and a bracket of two module vectors is 0, so column c of
    each identity is an instance of E's multiplicativity or hom-Jacobi:

      (R1) at (x, y) is multiplicativity on (x, y, n + c);
      (R2) at (x, y, z, u) is hom-Jacobi on (e_u, e_{n+c}; e_x, e_y, e_z);
      (R3) at (x, y, z, u) is hom-Jacobi on (e_x, e_y; e_z, e_u, e_{n+c}).

    An identity fails iff one of its columns does, so failures are grouped
    over c.  A cocycle added to E only meets these instances in brackets
    with two module vectors, so it drops out of them.

    Symmetries (:class:`Sweep`): (R1) is skew in (x, y); (R2) alternating
    in (x, y, z), its right side a cyclic sum of terms skew in two slots;
    (R3) skew in (x, y) and in (z, u), which trades its last two terms.
    Only their representatives are visited, on sides scaled by a positive
    integer.  Witnesses: (R1), then by quadruple, (R2) before (R3) at each.
    """
    return _representation_sweep(_semidirect_table(L, r), L.dim)


def _representation_sweep(E: Hom3LieAlgebra, n: int) -> RepresentationReport:
    """:func:`verify_representation` on the extension E of L, n = dim L, by V."""
    module, low = range(n, E.dim), list(itertools.combinations(range(n), 2))
    mixed = [(x, y, c) for x, y in low for c in module]
    twist, r2, r3 = Sweep(2), Sweep(3), Sweep(2, 2)
    _, images = _bracket_images(E.twist, E, E, mixed)
    for log, keys in (
        (twist, {(x, y) for (x, y, _), lhs, rhs in images if lhs != rhs}),
        (r2, {(x, y, z, u) for (u, _, x, y, z), _, _ in hom_jacobi_sides(
            E, itertools.product(range(n), module), increasing_triples(n))}),
        (r3, {key[:4] for key, _, _ in hom_jacobi_sides(E, low, mixed)}),
    ):
        for key in keys:
            log.add(key)
    logs = (("twist", twist), ("bracket_action", r2), ("exchange", r3))
    witnesses = sorted(((name, idx) for name, log in logs for idx in log.witnesses),
                       key=lambda w: (len(w[1]), w[1], w[0]))
    return RepresentationReport(twist_ok=twist.clean, bracket_action_ok=r2.clean,
                                exchange_ok=r3.clean, witnesses=tuple(witnesses[:MAX_WITNESSES]),
                                violations_total=twist.total + r2.total + r3.total)


def _representation_checked(E: Hom3LieAlgebra, n: int) -> Hom3LieAlgebra:
    """E, whose action passed :func:`_representation_sweep` (:class:`RepresentationInvalid`)."""
    if not (rep := _representation_sweep(E, n)).ok:
        raise RepresentationInvalid(
            f"action fails the representation identities ({rep.violations_total} violations)")
    return E


def adjoint_rep(L: Hom3LieAlgebra) -> Representation:
    """The algebra acting on itself by ad(x, y) = [x, y, .]: each stored B_abc,
    a < b < c, is ad(e_a, e_b) e_c, ad(e_b, e_c) e_a and -ad(e_a, e_c) e_b."""
    n, table = L.dim, {}
    for (a, b, c), value in L.table.items():
        table[a, b, n + c] = table[b, c, n + a] = Vec.zero(n).concat(value)
        table[a, c, n + b] = -table[a, b, n + c]
    return Representation(n, n, L.twist, table)


def dual_rep(r: Representation) -> Representation:
    """Dual module: rho*(x, y) = -rho(x, y)^T with twist A^T.

    In dual coordinates, (rho*(x,y) f)(v) = -f(rho(x,y) v) and the
    twist acts by precomposition, whose matrix is the transpose: coordinate
    n + c of rho*'s value on (i, j, n + t) is -(rho's on (i, j, n + c))_{n+t}.
    """
    n, m, cols = r.algebra_dim, r.module_dim, {}
    for (i, j, c), value in r.table.items():
        for t, x in value.support.items():
            cols.setdefault((i, j, t), {})[c] = -x
    return Representation(n, m, r.twist.transpose(), {k: Vec.sparse(n + m, v) for k, v in cols.items()})


def coadjoint_rep(L: Hom3LieAlgebra) -> Representation:
    """Dual of the adjoint action: ad*(x, y) f = -f([x, y, .])."""
    return dual_rep(adjoint_rep(L))


def semidirect_product(L: Hom3LieAlgebra, r: Representation) -> Hom3LieAlgebra:
    """Algebra on L + V with bracket

        [u+X, v+Y, w+Z] = [u,v,w] + rho(u,v) Z + rho(w,u) Y + rho(v,w) X

    and block-diagonal twist.  The sign pattern is skew-consistent, so
    the result is an ordinary structure-constant table.  It is built once,
    and the representation identities are checked on it.
    """
    return _representation_checked(_semidirect_table(L, r), L.dim)


def _semidirect_table(
    L: Hom3LieAlgebra, r: Representation, theta: Optional[dict[tuple[int, int, int], Vec]] = None
) -> Hom3LieAlgebra:
    """Unchecked semidirect-product table; see :func:`semidirect_product`.

    The table merges L's with the action block ``r.table``; ``theta``
    (increasing triples to module vectors) is added in the module
    component, which gives the theta-extension table.
    """
    n, m = L.dim, r.module_dim
    if r.algebra_dim != n:  # its keys would land on L's own
        raise DimensionMismatch("representation is over a different algebra dimension")
    zmod, zalg = Vec.zero(m), Vec.zero(n)
    table = {**{key: value.concat(zmod) for key, value in L.table.items()}, **r.table}
    for key, value in (theta or {}).items():
        table[key] = table.get(key, Vec.zero(n + m)) + zalg.concat(value)
    return Hom3LieAlgebra(n + m, table, L.twist.block_diag(r.twist))
