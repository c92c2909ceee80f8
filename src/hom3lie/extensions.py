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
from .linalg import Mat, Vec, cleared, matvec, rank
from .representations import (
    Representation,
    _extension_sweep,
    _semidirect_table,
    coadjoint_rep,
)
from .sparse import AltTable, Tabled, summed


@dataclass(frozen=True)
class Cocycle(Tabled):
    """Skew trilinear map from algebra triples into a module.

    ``table`` maps increasing 0-based triples to module vectors; zero
    values are omitted and the full map is the skew extension, stored and
    evaluated by the sparse alternating table ``alt``.
    """

    algebra_dim: int
    module_dim: int
    table: dict[tuple[int, int, int], Vec]
    alt: AltTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alt = AltTable.of(self.algebra_dim, self.module_dim, self.__dict__.pop("table"), "cocycle")
        object.__setattr__(self, "alt", alt)

    @staticmethod
    def zero(algebra_dim: int, module_dim: int) -> "Cocycle":
        return Cocycle(algebra_dim, module_dim, {})

    def __add__(self, other: "Cocycle") -> "Cocycle":
        if (self.algebra_dim, self.module_dim) != (other.algebra_dim, other.module_dim):
            raise DimensionMismatch("cocycle shapes differ")
        return Cocycle(self.algebra_dim, self.module_dim, summed((self.alt, 0, 0), (other.alt, 0, 0)))


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
    return _extension_sweep(_semidirect_table(L, r, th.alt), n)[1]


def coboundary(L: Hom3LieAlgebra, r: Representation, f: Mat) -> Cocycle:
    """The cocycle of a linear map f: L -> V,

        theta_f(x,y,z) = f([x,y,z]) - rho(x,y) f(z) - rho(z,x) f(y) - rho(y,z) f(x).

    With the shear S: x -> x + f(x) of L into E = L + V (:func:`_shear`),
    theta_f is S[x,y,z] - [Sx,Sy,Sz], as a bracket of two module vectors is 0;
    both sides come s times theirs (:func:`_bracket_images`), their parts
    below n cancel, and the difference is theta_f's numerators over s.
    """
    n, m = L.dim, r.module_dim
    scale, images = _bracket_images(_shear(L, r, f), L, _semidirect_table(L, r))
    return Cocycle(n, m, ({key: {t - n: a for t in {*lhs, *rhs} if (a := lhs.get(t, 0) - rhs.get(t, 0))}
                           for key, lhs, rhs in images}, scale))


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
    alg = _semidirect_table(L, r, th.alt if fits else None)
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
    return _semidirect_table(L, coadjoint_rep(L), th.alt), hyperbolic_form(n)


def theta_cyclic_ok(L: Hom3LieAlgebra, th: Cocycle) -> bool:
    """Decide theta(x1,x2,x3)(x4) + theta(x1,x2,x4)(x3) = 0 on the basis: slots 1-3 alternating, iff
    W(i,j,k,l) = theta(i,j,k)(l) alternates, iff each listed 4-set has four equal omegas (:func:`_four_sets`),
    iff cyclic_part fixes theta.  The first 4-set that does not decides."""
    if th.algebra_dim != L.dim or th.module_dim != L.dim:
        raise DimensionMismatch("cyclicity concerns cocycles with values in L*")
    return all(len(om) == 4 and len({*om.values()}) == 1
               for om in _four_sets(th.alt.num).values())


def cyclic_part(th: Cocycle) -> Cocycle:
    """Project onto the maps satisfying the cyclic pairing identity, the alternating W(i,j,k,l) =
    theta(i,j,k)(l) (:func:`theta_cyclic_ok`): the alternation of W over S4, 0 at a repeated index.  At a
    4-set Q, theta being skew, its 24 signed terms are 6 times each omega reaching Q (:func:`_four_sets`),
    so it is their sum s over 4 D (D = ``alt.scale``) at Q in increasing order, omega's signs on s."""
    n, num = th.algebra_dim, {}
    if th.module_dim != n:
        raise DimensionMismatch("cyclic projection concerns cocycles with values in L*")
    for w, omegas in sorted(_four_sets(th.alt.num).items()):
        if len({*w}) == 4 and (s := sum(omegas.values())):
            for r in range(4):
                num.setdefault(w[:r] + w[r + 1:], {})[w[r]] = s if r % 2 else -s
    return Cocycle(n, n, (dict(sorted(num.items())), 4 * th.alt.scale))


def verify_metric(alg: Hom3LieAlgebra, form: BilinForm) -> Report:
    """Check B([x1,x2,x3], x4) + B([x1,x2,x4], x3) = 0 on basis 4-tuples: W(a, b, c)(d) = B([e_a, e_b,
    e_c], e_d) skew in (c, d), W alternating in (a, b, c), with rows G^T [e_x, e_y, e_z] at keys x < y < z.
    Integers: from the numerators B~ = D B and Gram rows G = G~/s (:func:`cleared`), G~^T B~ is D s times W.
    Skew in (a, b) (:class:`Sweep`), it runs on the orderings of each 4-set Q: at Q of four indices W(a, b,
    c, d) is the ordering's sign times omega_d (:func:`_four_sets`, 0 unlisted), so the residual is 0 iff
    omega_c = omega_d, at Q repeating an index iff none is listed: it sweeps the Q listed without four equal
    omegas.  Symmetry, non-degeneracy and twist invariance are flagged, the last not read by ``ok``."""
    n = alg.dim
    if form.dim != n:
        raise DimensionMismatch("form dimension does not match the algebra")
    gram, log = form.gram, Sweep(2)
    (rows,), _ = cleared([row.support for row in gram.row_vecs])
    gt = dict(enumerate(rows))  # the columns of G^T
    for q, om in _four_sets({k: matvec(gt, v) for k, v in alg.alt.num.items()}).items():
        if len(om) < 4 or len({*om.values()}) > 1:
            for a, b, c, d in {p for p in itertools.permutations(q) if p[0] < p[1]}:
                if c == d or om.get(c, 0) != om.get(d, 0):
                    log.add((a, b, c, d))
    flags = {"symmetric": gram == gram.transpose(), "nondegenerate": rank(gram) == n,
             "twist_invariant": alg.twist.transpose() @ gram @ alg.twist == gram}
    return Report(flags).merged(_report(log, "invariant"))


def _four_sets(table: dict[tuple[int, ...], dict[int, int]]) -> dict[tuple[int, ...], dict[int, int]]:
    """W(a, b, c)(d) = table[a, b, c][d] by the sorted 4-tuple Q of its indices, in one pass over the
    int supports ``table``: one at a key K and d is listed at Q, under d, as omega_d = (-1)^(3-r) times it,
    r the place of d in Q.  If W alternates on the orderings of Q, each omega is W at Q, and none is listed
    at a Q that repeats an index: so it does iff none is listed at Q or four equal ones are."""
    sets: dict[tuple[int, ...], dict[int, int]] = {}
    for key, value in table.items():
        for d, x in value.items():
            r = (d > key[0]) + (d > key[1]) + (d > key[2])
            sets.setdefault(key[:r] + (d,) + key[r:], {})[d] = x if r % 2 else -x
    return sets


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
    sigma, src = _shear(L, r, f), _semidirect_table(L, r, th.alt)
    dst = _semidirect_table(L, r, (th + coboundary(L, r, f)).alt)
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
