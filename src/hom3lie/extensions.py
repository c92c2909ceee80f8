"""Cocycles, module extensions and invariant bilinear forms.

A 3-cocycle for a representation (V, rho, A) is a skew trilinear map
theta from algebra triples to V satisfying the twisted cocycle identity
(checked on basis 5-tuples by :func:`verify_cocycle`).  Adding a
cocycle to the semidirect-product bracket gives the theta-extension on
L + V; specialising V to the dual module of the adjoint action gives
the dual-space extension on L + L*, whose canonical hyperbolic pairing
q((x,f), (y,g)) = f(y) + g(x) is always non-degenerate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebras import (
    Hom3LieAlgebra,
    Report,
    Sweep,
    _bracket_images,
    _report,
    is_morphism,
    preserves_bracket,
)
from .errors import CocycleInvalid, DimensionMismatch, RepresentationInvalid
from .linalg import Mat, SparseMat, Vec, cleared, matvec, rank
from .representations import (
    Representation,
    _extension_sweep,
    _semidirect_table,
    coadjoint_rep,
)
from .sparse import AltTable, splits


@dataclass(frozen=True)
class Cocycle:
    """Skew trilinear map from algebra triples into a module.

    ``table`` maps increasing 0-based triples to module vectors; zero
    values are omitted and the full map is the skew extension, evaluated
    by the sparse alternating table ``alt``.
    """

    algebra_dim: int
    module_dim: int
    table: dict[tuple[int, int, int], Vec]
    alt: AltTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alt = AltTable(self.algebra_dim, self.module_dim, self.table, "cocycle")
        object.__setattr__(self, "table", alt.values)
        object.__setattr__(self, "alt", alt)

    @staticmethod
    def zero(algebra_dim: int, module_dim: int) -> "Cocycle":
        return Cocycle(algebra_dim, module_dim, {})

    def value_basis(self, i: int, j: int, k: int) -> Vec:
        return self.alt.basis_value(i, j, k)

    def __add__(self, other: "Cocycle") -> "Cocycle":
        if (self.algebra_dim, self.module_dim) != (other.algebra_dim, other.module_dim):
            raise DimensionMismatch("cocycle shapes differ")
        table = dict(self.table)
        for key, value in other.table.items():
            table[key] = table[key] + value if key in table else value
        return Cocycle(self.algebra_dim, self.module_dim, table)


@dataclass(frozen=True)
class BilinForm:
    """Bilinear form given by its Gram matrix."""

    dim: int
    gram: Mat

    def __post_init__(self) -> None:
        if (self.gram.rows, self.gram.cols) != (self.dim, self.dim):
            raise DimensionMismatch("Gram matrix must be square of the stated dimension")

    def eval(self, x: Vec, y: Vec) -> Fraction:
        return x.dot(self.gram.apply(y))


def hyperbolic_form(n: int) -> BilinForm:
    """The pairing q((x,f),(y,g)) = f(y) + g(x) on L + L*: Gram [[0,I],[I,0]]."""
    return BilinForm(2 * n, Mat.sparse(2 * n, (Vec.basis(2 * n, (i + n) % (2 * n)) for i in range(2 * n))))


def verify_cocycle(L: Hom3LieAlgebra, r: Representation, th: Cocycle) -> Report:
    """Sweep the twisted cocycle identity over basis 5-tuples, one per orbit.

    For each (x, y, z, u, v) the sum

        theta([x,u,v], ay, az) + theta([y,u,v], az, ax)
        + theta(ax, ay, [z,u,v]) - theta([x,y,z], au, av)
        + rho(ay, az) theta(x,u,v) + rho(az, ax) theta(y,u,v)
        + rho(ax, ay) theta(z,u,v) - rho(au, av) theta(x,y,z)

    must vanish.  On the theta-extension E (:func:`t_theta_extension`),
    [x, y, z] = B_xyz + theta_xyz, so [au, av, [x, y, z]] has module part
    theta(B_xyz, au, av) + rho(au, av) theta_xyz, and likewise each term
    of the right side, as [u, v, x] = [x, u, v]: the sum is the module part
    (coordinates n and up) of hom-Jacobi on E at (e_u, e_v; e_x, e_y, e_z),
    right side less left side.  It is alternating in (x, y, z) and in
    (u, v) (:class:`Sweep`), so hom-Jacobi runs on u < v and the increasing
    triples of L, its sides a positive multiple (:func:`_extension_sweep`).
    """
    n, m = L.dim, r.module_dim
    if th.algebra_dim != n or r.algebra_dim != n or th.module_dim != m:
        raise DimensionMismatch("algebra, representation and cocycle dimensions must agree")
    return _extension_sweep(_semidirect_table(L, r, th.table), n)[1]


def coboundary(L: Hom3LieAlgebra, r: Representation, f: Mat) -> Cocycle:
    """The cocycle of a linear map f: L -> V,

        theta_f(x,y,z) = f([x,y,z]) - rho(x,y) f(z) - rho(z,x) f(y) - rho(y,z) f(x).

    With the shear S: x -> x + f(x) of L into E = L + V (:func:`_shear`),
    theta_f is S[x,y,z] - [Sx,Sy,Sz], as a bracket of two module vectors is 0;
    both sides come s times theirs (:func:`_bracket_images`), their parts
    below n cancel, and the difference is divided by s once.
    """
    n, m = L.dim, r.module_dim
    scale, images = _bracket_images(_shear(L, r, f), L, _semidirect_table(L, r))
    return Cocycle(n, m, {key: Vec.sparse(m, {t - n: Fraction(a, scale) for t in lhs.keys() | rhs.keys()
                                              if (a := lhs.get(t, 0) - rhs.get(t, 0))})
                          for key, lhs, rhs in images})


def t_theta_extension(
    L: Hom3LieAlgebra, r: Representation, th: Cocycle
) -> tuple[Hom3LieAlgebra, Report]:
    """Extension of L by the module V along a 3-cocycle.

    The bracket is the semidirect-product bracket with theta(x1,x2,x3)
    added in the module component; the twist stays block-diagonal.  The
    construction is re-verified and the report returned rather than
    assumed, since the compatibility hypotheses behind it are not
    enforceable for a general module.

    The representation and cocycle identities are preconditions;
    violations raise :class:`RepresentationInvalid` or :class:`CocycleInvalid`.
    Both come with the report from one sweep of the extension, built once
    (:func:`_extension_sweep`); a theta of the wrong shape is reported after
    the representation, checked on the semidirect product then.
    """
    fits = (th.algebra_dim, th.module_dim) == (L.dim, r.module_dim)
    alg = _semidirect_table(L, r, th.table if fits else None)
    rep, co, report = _extension_sweep(alg, L.dim)
    if not rep.ok:
        raise RepresentationInvalid(
            f"action fails the representation identities ({rep.violations_total} violations)")
    if not fits:
        raise DimensionMismatch("algebra, representation and cocycle dimensions must agree")
    if not co.ok:
        raise CocycleInvalid(f"map fails the cocycle identity ({co.violations_total} violations)")
    return alg, report


def semidirect_product(L: Hom3LieAlgebra, r: Representation) -> Hom3LieAlgebra:
    """Algebra on L + V with bracket

        [u+X, v+Y, w+Z] = [u,v,w] + rho(u,v) Z + rho(w,u) Y + rho(v,w) X

    and block-diagonal twist.  The sign pattern is skew-consistent, so
    the result is an ordinary structure-constant table.  It is the
    extension along theta = 0 (:func:`t_theta_extension`), which raises on
    a failed representation; its cocycle check cannot fail: with theta = 0
    every bracket of algebra vectors stays in L, so the module part is 0.
    """
    return t_theta_extension(L, r, Cocycle.zero(L.dim, r.module_dim))[0]


def t_star_extension(L: Hom3LieAlgebra, th: Cocycle) -> tuple[Hom3LieAlgebra, BilinForm]:
    """Extension of L by its dual space along theta, with the hyperbolic form.

    The module is L* with the dual of the adjoint action and twist
    f -> f . alpha; the bracket is

        [x1+f1, x2+f2, x3+f3] = [x1,x2,x3] + theta(x1,x2,x3)
                              + ad*(x1,x2) f3 + ad*(x3,x1) f2 + ad*(x2,x3) f1.

    Returns the 2n-dimensional algebra and the pairing q, whose Gram
    matrix [[0,I],[I,0]] is non-degenerate for every input.
    """
    n = L.dim
    if th.algebra_dim != n or th.module_dim != n:
        raise DimensionMismatch("dual-space extension needs a cocycle with values in L*")
    return _semidirect_table(L, coadjoint_rep(L), th.table), hyperbolic_form(n)


def theta_cyclic_ok(L: Hom3LieAlgebra, th: Cocycle) -> bool:
    """Decide theta(x1,x2,x3)(x4) + theta(x1,x2,x4)(x3) = 0 on the basis.

    The identity is skewness of W(i,j,k,l) = theta(i,j,k)(l) in slots 3, 4;
    with slots 1-3 that generates S4, so it holds iff cyclic_part fixes theta.
    """
    if th.algebra_dim != L.dim or th.module_dim != L.dim:
        raise DimensionMismatch("cyclicity concerns cocycles with values in L*")
    return cyclic_part(th) == th


def cyclic_part(th: Cocycle) -> Cocycle:
    """Project onto the maps satisfying the cyclic pairing identity.

    Viewing theta as a 4-tensor W(i,j,k,l) = theta(i,j,k)(l), the
    identity says W is antisymmetric in (k, l); combined with skewness
    in (i,j,k) that makes W totally antisymmetric, so the projector is
    full alternation over S4.  Per increasing 4-tuple w, theta being alternating
    in its first three slots, its 24 signed terms are 6 times the four at the
    splits (w less w_r, w_r), each signed to move w_r to the end: their sum on the
    numerators over 4 D (D = ``alt.scale``) is written there with the same signs.
    """
    n = th.algebra_dim
    if th.module_dim != n:
        raise DimensionMismatch("cyclic projection concerns cocycles with values in L*")
    alt, D, table = th.alt, th.alt.scale, {}
    for w in itertools.combinations(range(n), 4):
        if s := sum(alt.get(*w[:r], *w[r + 1:]).get(w[r], 0) * (1 if r % 2 else -1) for r in range(4)):
            for r in range(4):
                table.setdefault(w[:r] + w[r + 1:], {})[w[r]] = Fraction(s if r % 2 else -s, 4 * D)
    return Cocycle(n, n, {key: Vec.sparse(n, col) for key, col in sorted(table.items())})


def verify_metric(alg: Hom3LieAlgebra, form: BilinForm) -> Report:
    """Check B([x1,x2,x3], x4) + B([x1,x2,x4], x3) = 0 over basis 4-tuples.

    That is, M_ab[c][d] = B([e_a, e_b, e_c], e_d) is skew.  Each stored key
    x < y < z gives the rows M_ab[c] = s G^T [e_x, e_y, e_z] at its
    :func:`splits` (c, (a, b), s), and the other rows are 0 (possibly
    absent).  Only the (c, d) in the support of M_ab or of its transpose
    are visited, in sorted order; at every other (c, d) both terms are 0.
    M_ab is skew in (a, b) (:class:`Sweep`).

    Integers: from the numerators B~ = D B and the rows of the Gram matrix
    G = G~/s (:func:`cleared`), M_ab is built D s times itself, skew iff it is.
    The report also flags symmetry, non-degeneracy and twist invariance, the
    last informational: :attr:`Report.ok` does not read it.
    """
    n = alg.dim
    if form.dim != n:
        raise DimensionMismatch("form dimension does not match the algebra")
    gram = form.gram
    (rows,), _ = cleared([row.support for row in gram.row_vecs])
    gt = dict(enumerate(rows))  # the columns of G^T
    ms: dict[tuple[int, int], SparseMat] = {}
    for key in alg.table:
        row = matvec(gt, alg.alt.get(*key))
        for c, ab, s in splits(*key):
            ms.setdefault(ab, {})[c] = row if s > 0 else {d: -v for d, v in row.items()}
    log = Sweep(2)
    for a, b in log.reps(n):
        m = ms.get((a, b), {})
        cells = {(c, d) for c, row in m.items() for d in row}
        for c, d in sorted(cells | {(d, c) for c, d in cells}):
            if m.get(c, {}).get(d, 0) + m.get(d, {}).get(c, 0) != 0:
                log.add((a, b, c, d))
    flags = {"symmetric": gram == gram.transpose(), "nondegenerate": rank(gram) == n,
             "twist_invariant": alg.twist.transpose() @ gram @ alg.twist == gram}
    return Report(flags).merged(_report(log, "invariant"))


def _shear(L: Hom3LieAlgebra, r: Representation, f: Mat) -> Mat:
    """The block map [[I, 0], [f, I]] on L + V: x + v -> x + f(x) + v."""
    n, m = L.dim, r.module_dim
    if f.cols != n or f.rows != m:
        raise DimensionMismatch("map f: L -> V has the wrong shape")
    return Mat.from_rows([Vec.basis(n + m, i) for i in range(n)]
                         + [f.row(i).concat(Vec.basis(m, i)) for i in range(m)], cols=n + m)


def shift_isomorphism(
    L: Hom3LieAlgebra, r: Representation, th: Cocycle, f: Mat
) -> tuple[Mat, bool]:
    """The shift x + v -> x + f(x) + v between theta- and (theta+theta_f)-extensions.

    Returns the block map [[I, 0], [f, I]], invertible for every f, and
    whether it is an algebra morphism between the two extensions (bracket
    preservation and twist intertwining).
    """
    sigma, src = _shear(L, r, f), _semidirect_table(L, r, th.table)
    dst = _semidirect_table(L, r, (th + coboundary(L, r, f)).table)
    return sigma, is_morphism(sigma, src, dst)


def is_isometry(
    g: Hom3LieAlgebra, b: BilinForm, gp: Hom3LieAlgebra, bp: BilinForm, sigma: Mat
) -> bool:
    """Invertible, bracket-preserving and form-preserving linear map."""
    if g.dim != gp.dim or b.dim != g.dim or bp.dim != gp.dim:
        raise DimensionMismatch("isometry candidates must share one dimension")
    if (sigma.rows, sigma.cols) != (g.dim, g.dim):
        raise DimensionMismatch("isometry candidate has the wrong shape")
    return (rank(sigma) == g.dim and preserves_bracket(sigma, g, gp)
            and sigma.transpose() @ bp.gram @ sigma == b.gram)
