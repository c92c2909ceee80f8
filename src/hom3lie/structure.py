"""Series, solvability and the metric reconstruction of dual-space extensions.

The derived series iterates S -> [S, S, L], the central descending
series S -> [S, L, L], and the central ascending series grows by the
relative centraliser C(I) = { a : [a, L, L] <= I }.  Solvable and
nilpotent lengths are the first step at which the corresponding series
hits zero.

The reconstruction direction: a 2k-dimensional algebra carrying a
symmetric, invariant, non-degenerate form together with a k-dimensional
isotropic ideal is isometric to a dual-space extension of its quotient
by the ideal.  The construction here follows the hyperbolic
geometry of the form explicitly and re-verifies its own output instead
of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebras import Hom3LieAlgebra, quotient, subspace_bracket
from .errors import (
    ComplementInvalid,
    DimensionMismatch,
    HalfDimensionRequired,
    IdealRequired,
    IsotropicRequired,
    MetricRequired,
)
from .extensions import BilinForm, Cocycle, is_isometry, t_star_extension, verify_metric
from .linalg import Mat, Subspace, Vec, _eliminate, cleared, inverse, matvec, nullspace, rank, subspace_sum
from .sparse import splits

SERIES_KINDS = ("derived", "central_descending", "central_ascending")


@dataclass(frozen=True)
class SeriesResult:
    """Terms of one of the three canonical series.

    ``length`` is the first index realising termination (zero subspace
    for the decreasing series, the full space for the ascending one),
    or None when the series stabilises without terminating.
    """

    kind: str
    terms: tuple[Subspace, ...]
    stabilized: bool
    length: Optional[int]


def _centralizer(L: Hom3LieAlgebra, target: Subspace) -> Subspace:
    """C(I) = { a : [a, e_j, e_k] in I for all j < k }: the kernel of the rows
    (j, k, g), g a non-pivot of I, holding e proj [e_a, e_j, e_k] at g in
    column a (:attr:`Subspace.projection`), on the numerators (:meth:`AltTable.get`),
    as a nonzero scale changes no kernel.  The stored key x < y < z gives the
    entry of column a in the rows of (j, k), with its sign, for each of its
    :func:`splits` (a, (j, k), sign), and no other key does."""
    _, proj, _ = target.projection
    rows: dict[tuple[int, int, int], dict[int, int]] = {}
    for (x, y, z), value in L.alt.num.items():
        for g, c in matvec(proj, value).items():
            for a, (j, k), sign in splits(x, y, z):
                rows.setdefault((j, k, g), {})[a] = sign * c
    return nullspace(Mat.sparse(L.dim, [Vec.sparse(L.dim, r) for r in rows.values()]))


def series(L: Hom3LieAlgebra, kind: str, max_steps: int = 64) -> SeriesResult:
    """Compute a canonical series until stabilisation or ``max_steps``."""
    if kind not in SERIES_KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    n = L.dim
    full = Subspace.full(n)
    ascending = kind == "central_ascending"
    terms = [Subspace.zero(n) if ascending else full]
    stabilized = False
    for _ in range(max_steps):
        cur = terms[-1]
        if kind == "derived":
            nxt = subspace_bracket(L, cur, cur, full)
        elif kind == "central_descending":
            nxt = subspace_bracket(L, cur, full, full)
        else:
            nxt = _centralizer(L, cur)
        if nxt == cur:
            stabilized = True
            break
        terms.append(nxt)
    target = n if ascending else 0
    length = next((i for i, t in enumerate(terms) if t.dim == target), None)
    return SeriesResult(kind=kind, terms=tuple(terms), stabilized=stabilized, length=length)


def is_solvable(L: Hom3LieAlgebra, max_steps: int = 64) -> Optional[int]:
    """Smallest k with vanishing k-th derived term, or None."""
    return series(L, "derived", max_steps).length


def is_nilpotent(L: Hom3LieAlgebra, max_steps: int = 64) -> Optional[int]:
    """Smallest k with vanishing k-th central descending term, or None."""
    return series(L, "central_descending", max_steps).length


def is_isotropic(form: BilinForm, s: Subspace) -> bool:
    """True iff the form vanishes on all pairs from the subspace."""
    if form.dim != s.ambient_dim:
        raise DimensionMismatch("form and subspace dimensions differ")
    rows = dict(enumerate(r.support for r in form.gram.row_vecs))  # a . G^T b = B(b, a), all pairs
    images = [Vec.sparse(form.dim, matvec(rows, b.support)) for b in s.basis]
    return all(a.dot(gb) == 0 for a in s.basis for gb in images)


def isotropic_complement(form: BilinForm, iso: Subspace) -> Subspace:
    """An isotropic complement of a maximal isotropic subspace (:func:`_complete`)."""
    n, k, gram = form.dim, iso.dim, form.gram
    if n != 2 * k:
        raise HalfDimensionRequired("complement needs an isotropic subspace of half dimension")
    if gram != gram.transpose() or rank(gram) != n:
        raise MetricRequired("complement needs a symmetric non-degenerate form")
    if not is_isotropic(form, iso):
        raise IsotropicRequired("complement needs an isotropic subspace")
    return _complete(form, iso)


def _complete(form: BilinForm, iso: Subspace) -> Subspace:
    """Hyperbolic completion of ``iso``, where :func:`isotropic_complement`'s
    checks hold.  One elimination, the RREF of the rows [G i_j | e_j], gives
    f0_j with B(i_l, f0_j) the Kronecker delta and its free coordinates at
    zero.  Every pivot lies below n: G is non-degenerate and the i_j are
    independent, so no combination of the G i_j is 0.  Then

        f_j = f0_j - (1/2) h_jj i_j - sum_{l<j} h_jl i_l,  h_jl = B(f0_j, f0_l).

    That is the sequential straightening f_j <- f_j - (1/2) B(f_j, f_j) i_j,
    then f_j <- f_j - B(f_j, f_l) i_l for l < j in turn: as B(i_m, f_l) is the
    Kronecker delta and the i's pair to zero, no update changes a later
    pairing, which stays h_jl.  The corrections lie in the isotropic subspace,
    so duality holds, and they kill all products among the f's.  Needs
    characteristic zero.
    """
    n, k = form.dim, iso.dim
    rows = dict(enumerate(r.support for r in form.gram.row_vecs))  # the columns of G^T, and G is symmetric
    reduced = _eliminate({**matvec(rows, b.support), n + j: 1} for j, b in enumerate(iso.basis))
    f0 = [Vec.sparse(n, {p: row[c] for p, row in reduced.items() if c in row}) for c in range(n, n + k)]
    images = [Vec.sparse(n, matvec(rows, f.support)) for f in f0]
    duals = []
    for j, f in enumerate(f0):
        for l in range(j + 1):
            h = f0[j].dot(images[l])
            f -= iso.basis[l].scale(h / 2 if l == j else h)
        duals.append(f)
    return Subspace.span(n, duals)


@dataclass(frozen=True)
class ReconstructionResult:
    """Dual-space extension data recovered from a metric algebra."""

    quotient: Hom3LieAlgebra
    theta: Cocycle
    tstar: Hom3LieAlgebra
    sigma: Mat
    isometry_ok: bool


def reconstruct_t_star(
    g: Hom3LieAlgebra,
    form: BilinForm,
    ideal: Subspace,
    complement: Optional[Subspace] = None,
) -> ReconstructionResult:
    """Present a metric algebra as a dual-space extension of its quotient.

    The ideal and a supplied complement must live in the algebra
    (:class:`DimensionMismatch` otherwise, before any other check).
    Preconditions (each with its own error): the form is a metric for
    the algebra; the subspace is a twist-stable ideal, isotropic and of
    exactly half the dimension.  A supplied complement must be isotropic
    and complementary; otherwise one is completed (:func:`_complete`) without
    the checks of :func:`isotropic_complement`, which repeat ones made here.

    Such an ideal is abelian: B([i1,i2,g], h) = -B([g,i1,h], i2) = 0 by
    invariance, as [g,i1,h] lies in the isotropic ideal, and the form is
    non-degenerate.  So [I, I, G] = 0 needs no check of its own.

    With L = G/I and the lifts l_p of its basis into the complement, the
    cocycle is theta(p,q,r)(s) = B([l_p, l_q, l_r], l_s), i.e. lift^T G
    applied to the bracket of the lifts, and sigma is the projection
    onto L stacked on lift^T G.  The verdict is re-checked and returned
    as ``isometry_ok``.
    """
    n2 = g.dim
    if any(s.ambient_dim != n2 for s in (ideal, complement) if s is not None):
        raise DimensionMismatch("subspace ambient dimension does not match the algebra")
    k = ideal.dim
    if n2 != 2 * k:
        raise HalfDimensionRequired("reconstruction needs an ideal of half the dimension")
    if not verify_metric(g, form).ok:
        raise MetricRequired("reconstruction needs a symmetric invariant non-degenerate form")
    try:
        lq, proj = quotient(g, ideal)
    except IdealRequired:
        raise IdealRequired("reconstruction needs a twist-stable ideal") from None
    if not is_isotropic(form, ideal):
        raise IsotropicRequired("reconstruction needs an isotropic ideal")
    if complement is None:
        comp = _complete(form, ideal)
    else:
        comp = complement
        if (
            comp.dim != k
            or not is_isotropic(form, comp)
            or subspace_sum(comp, ideal).dim != n2
        ):
            raise ComplementInvalid("supplied complement is not an isotropic complement")

    # Row p of lifts is l_p, the lift of e_p into the complement: the inverse
    # of the transpose of proj on the complement, applied to its basis.
    inv = inverse(Mat.sparse(k, [proj.apply(b) for b in comp.basis]))
    assert inv is not None, "complement must project isomorphically onto the quotient"
    lifts = inv @ Mat.sparse(n2, comp.basis)

    # pair(v)_s = B(l_s, v).  The complement is isotropic, so its part of
    # v pairs to zero with every lift: pair reads the ideal part of v as a
    # functional on L.  The metric check above makes G symmetric: B(l_s, v) = B(v, l_s).
    # On ints, the numerators B = B~/D, l = l~/d and pair = pair~/e give e D d^3 theta.
    pair = lifts @ form.gram
    alt, D = g.alt, g.alt.scale
    (cols,), d = cleared([v.support for v in lifts.row_vecs])
    (pcols,), e = cleared([v.support for v in pair.transpose().row_vecs])
    t, pcols, scale = alt.pairs(cols), dict(enumerate(pcols)), e * D * d ** 3
    theta = Cocycle(k, k, ({(p, q, r): matvec(pcols, matvec(m, cols[r])) for (p, q), m in t.items()
                            for r in range(q + 1, k)}, scale))

    tstar, qform = t_star_extension(lq, theta)
    sigma = Mat.sparse(n2, proj.row_vecs + pair.row_vecs)
    ok = is_isometry(g, form, tstar, qform, sigma)
    return ReconstructionResult(quotient=lq, theta=theta, tstar=tstar, sigma=sigma, isometry_ok=ok)


@dataclass(frozen=True)
class TstarSolvabilityReport:
    """Solvable/nilpotent lengths of an algebra and its dual-space extension."""

    solvable_length: Optional[int]
    nilpotent_length: Optional[int]
    tstar_solvable_length: Optional[int]
    tstar_nilpotent_length: Optional[int]

    @property
    def solvable_implication_ok(self) -> bool:
        return self.solvable_length is None or self.tstar_solvable_length is not None

    @property
    def solvable_bound_ok(self) -> bool:
        if self.solvable_length is None:
            return True
        return (
            self.tstar_solvable_length is not None
            and self.tstar_solvable_length <= self.solvable_length + 1
        )

    @property
    def nilpotent_implication_ok(self) -> bool:
        return self.nilpotent_length is None or self.tstar_nilpotent_length is not None


def tstar_solvability_check(L: Hom3LieAlgebra, th: Cocycle, max_steps: int = 64) -> TstarSolvabilityReport:
    """Compare solvability and nilpotency of L with its dual-space extension."""
    alg, _ = t_star_extension(L, th)
    return TstarSolvabilityReport(
        solvable_length=is_solvable(L, max_steps),
        nilpotent_length=is_nilpotent(L, max_steps),
        tstar_solvable_length=is_solvable(alg, max_steps),
        tstar_nilpotent_length=is_nilpotent(alg, max_steps),
    )
