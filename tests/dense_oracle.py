"""Dense reference sweeps, kept as oracles for the library's sparse sweeps.

These are the hom-Jacobi, multiplicativity, Leibniz, representation,
cocycle, metric-invariance and cyclicity sweeps, and the ideal test, the
centralizer, the quotient and the isotropic complement, written the direct way: every
bracket, action and cocycle value is evaluated from the stored increasing-key table by
its skew multilinear extension, one basis tuple of the arguments'
supports at a time, with no twisted actions computed ahead; an action's
matrices are sliced off its [L, L, V] block here, by
:func:`action_matrices`, not through the library, and membership in a
subspace is decided by the dense elimination of ``dense_elimination``.  They share no evaluation
code with the library, so the library's reports must equal theirs field
for field, witnesses included.  There are two exceptions.  The derivation
extension's oracle evaluates the extension's documented meaning,
:func:`extension_rule`, on every basis triple and every twisted
basis image, where the library reads a closed form and L's own sweeps.
:func:`hom_jacobi_sides` is the library's hom-Jacobi loop on the same
integer tables, run on every instance and every ordered pair of
twisted actions where the library runs only on the candidates that can
fail and reads one orientation.

The codec's oracles are ``io``'s writers and readers as they were before
they walked supports: the writer formats every coordinate of the dense
view, and the readers parse every entry through :func:`parse_rat` with
its location built first.  The library must give the same rows, values,
exception types and messages.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Any, Callable, Optional

import dense_elimination
from hom3lie.algebras import (
    MAX_WITNESSES,
    Hom3LieAlgebra,
    Report,
    Violation,
    increasing_triples,
)
from hom3lie.io import FileFormatError, _args_tuple, _expect, format_rat
from hom3lie.linalg import Mat, Subspace, Vec, add_matvec, cleared, matvec, pruned


def skew_value(table: dict, zero, idx: tuple[int, ...]):
    """Value of the skew extension of ``table`` on a basis tuple."""
    if len(set(idx)) < len(idx):
        return zero
    value = table.get(tuple(sorted(idx)))
    if value is None:
        return zero
    inversions = sum(1 for a, b in itertools.combinations(idx, 2) if a > b)
    return -value if inversions % 2 else value


def multilinear(table: dict, zero, *args: Vec):
    """The skew multilinear extension of ``table`` on arbitrary vectors."""
    acc = zero
    for terms in itertools.product(*(sorted(v.support.items()) for v in args)):
        idx = tuple(i for i, _ in terms)
        coeff = Fraction(1)
        for _, c in terms:
            coeff *= c
        acc = acc + skew_value(table, zero, idx).scale(coeff)
    return acc


def bracket(L, x: Vec, y: Vec, z: Vec) -> Vec:
    return multilinear(L.table, Vec.zero(L.dim), x, y, z)


def bracket_basis(L, i: int, j: int, k: int) -> Vec:
    return skew_value(L.table, Vec.zero(L.dim), (i, j, k))


def action_matrices(r) -> dict[tuple[int, int], Mat]:
    """rho(e_i, e_j) on the increasing pairs of the stored keys, sliced off
    the [L, L, V] block ``r.table``: entry (t, c) is coordinate n + t of
    its value on (i, j, n + c)."""
    n, m = r.algebra_dim, r.module_dim
    zero = Vec.zero(n + m)
    return {(i, j): Mat.from_rows([[r.table.get((i, j, n + c), zero)[n + t] for c in range(m)]
                                   for t in range(m)], cols=m)
            for i, j in sorted({key[:2] for key in r.table})}


def rho(r, x: Vec, y: Vec, mats=None) -> Mat:
    """The skew bilinear extension of ``mats``, by default :func:`action_matrices`."""
    mats = action_matrices(r) if mats is None else mats
    return multilinear(mats, Mat.zero(r.module_dim, r.module_dim), x, y)


def rho_basis(r, i: int, j: int, mats=None) -> Mat:
    mats = action_matrices(r) if mats is None else mats
    return skew_value(mats, Mat.zero(r.module_dim, r.module_dim), (i, j))


def theta(th, x: Vec, y: Vec, z: Vec) -> Vec:
    return multilinear(th.table, Vec.zero(th.module_dim), x, y, z)


def theta_basis(th, i: int, j: int, k: int) -> Vec:
    return skew_value(th.table, Vec.zero(th.module_dim), (i, j, k))


def twist_cols(L) -> list[Vec]:
    return [L.twist.col(i) for i in range(L.dim)]


class _Log:
    def __init__(self) -> None:
        self.items: list = []
        self.total = 0

    def add(self, item) -> None:
        self.total += 1
        if len(self.items) < MAX_WITNESSES:
            self.items.append(item)


def hom_jacobi(L) -> Report:
    n = L.dim
    acols = twist_cols(L)
    w = _Log()
    for a in range(n):
        for b in range(n):
            for u, v, wi in increasing_triples(n):
                lhs = bracket(L, acols[a], acols[b], bracket_basis(L, u, v, wi))
                rhs = (
                    bracket(L, bracket_basis(L, a, b, u), acols[v], acols[wi])
                    + bracket(L, acols[u], bracket_basis(L, a, b, v), acols[wi])
                    + bracket(L, acols[u], acols[v], bracket_basis(L, a, b, wi))
                )
                if lhs != rhs:
                    w.add(Violation("hom_jacobi", (a, b, u, v, wi), lhs, rhs))
    return Report({"hom_jacobi": w.total == 0}, tuple(w.items), w.total)


def hom_jacobi_sides(L, pairs, triples) -> list:
    """``algebras.hom_jacobi_sides`` on every pair and every triple: the same
    integer tables and mat-vecs, with no candidate selection and each twisted
    action contracted by ``partial`` at its own ordered pair, so that the
    library's list must equal this one, in the same order."""
    alt, n = L.alt, L.dim
    (acols,), _ = cleared([L.twist.col(i).support for i in range(n)])
    t = {(a, b): alt.partial(acols[a], acols[b]) for a, b in itertools.product(range(n), repeat=2)}
    failing = []
    for a, b in pairs:
        tab, bab = t[a, b], alt.get(a, b)
        for u, v, w in triples:
            lhs = matvec(tab, alt.get(u, v, w))
            acc: dict = {}
            for i, m in ((u, t[v, w]), (v, t[w, u]), (w, t[u, v])):
                add_matvec(acc, m, bab.get(i, {}))
            if lhs != (rhs := pruned(acc)):
                failing.append(((a, b, u, v, w), lhs, rhs))
    return failing


def leibniz(L, d: Mat, k: int) -> list:
    """The increasing triples (i, j, k) where the grade-k Leibniz rule of d
    fails, with both sides: d [e_i, e_j, e_k] and [d e_i, a^k e_j, a^k e_k]
    + [a^k e_i, d e_j, a^k e_k] + [a^k e_i, a^k e_j, d e_k], a^k by the dense
    inverse for k < 0, on every triple."""
    a = L.twist if k >= 0 else dense_elimination.inverse(L.twist)
    ak = Mat.identity(L.dim)
    for _ in range(abs(k)):
        ak = ak @ a
    failing = []
    for i, j, kk in increasing_triples(L.dim):
        lhs = d.apply(bracket_basis(L, i, j, kk))
        rhs = (bracket(L, d.col(i), ak.col(j), ak.col(kk)) + bracket(L, ak.col(i), d.col(j), ak.col(kk))
               + bracket(L, ak.col(i), ak.col(j), d.col(kk)))
        if lhs != rhs:
            failing.append(((i, j, kk), lhs, rhs))
    return failing


def multiplicative(L) -> Report:
    acols = twist_cols(L)
    w = _Log()
    for i, j, k in increasing_triples(L.dim):
        lhs = L.twist.apply(bracket_basis(L, i, j, k))
        rhs = bracket(L, acols[i], acols[j], acols[k])
        if lhs != rhs:
            w.add(Violation("multiplicative", (i, j, k), lhs, rhs))
    return Report({"multiplicative": w.total == 0}, tuple(w.items), w.total)


def representation(L, r) -> Report:
    n = L.dim
    acols = twist_cols(L)
    a, mats = r.twist, action_matrices(r)
    raa = {(i, j): rho(r, acols[i], acols[j], mats) for i in range(n) for j in range(n)}
    w = _Log()
    totals = [0, 0, 0]

    def note(slot: int, name: str, idx: tuple[int, ...]) -> None:
        totals[slot] += 1
        w.add(Violation(name, idx))

    for i in range(n):
        for j in range(n):
            if raa[(i, j)] @ a != a @ rho_basis(r, i, j, mats):
                note(0, "twist", (i, j))
    for x, y, z, u in itertools.product(range(n), repeat=4):
        rbr = rho(r, bracket_basis(L, x, y, z), acols[u], mats)
        lhs = rbr @ a
        rhs = (raa[(y, z)] @ rho_basis(r, x, u, mats) + raa[(z, x)] @ rho_basis(r, y, u, mats)
               + raa[(x, y)] @ rho_basis(r, z, u, mats))
        if lhs != rhs:
            note(1, "bracket_action", (x, y, z, u))
        lhs3 = raa[(x, y)] @ rho_basis(r, z, u, mats)
        rhs3 = (raa[(z, u)] @ rho_basis(r, x, y, mats) + rbr @ a
                + rho(r, acols[z], bracket_basis(L, x, y, u), mats) @ a)
        if lhs3 != rhs3:
            note(2, "exchange", (x, y, z, u))
    flags = {"twist": totals[0] == 0, "bracket_action": totals[1] == 0, "exchange": totals[2] == 0}
    return Report(flags, tuple(w.items), w.total)


def cocycle(L, r, th) -> Report:
    n = L.dim
    acols = twist_cols(L)
    mats = action_matrices(r)
    raa = {(i, j): rho(r, acols[i], acols[j], mats) for i in range(n) for j in range(n)}
    b, t = bracket_basis, theta_basis
    w = _Log()
    for x, y, z, u, v in itertools.product(range(n), repeat=5):
        s = (
            theta(th, b(L, x, u, v), acols[y], acols[z])
            + theta(th, b(L, y, u, v), acols[z], acols[x])
            + theta(th, acols[x], acols[y], b(L, z, u, v))
            - theta(th, b(L, x, y, z), acols[u], acols[v])
            + raa[(y, z)].apply(t(th, x, u, v))
            + raa[(z, x)].apply(t(th, y, u, v))
            + raa[(x, y)].apply(t(th, z, u, v))
            - raa[(u, v)].apply(t(th, x, y, z))
        )
        if not s.is_zero():
            w.add(Violation("cocycle", (x, y, z, u, v)))
    return Report({"cocycle": w.total == 0}, tuple(w.items), w.total)


def metric(alg, form) -> Report:
    """B([e_a,e_b,e_c], e_d) + B([e_a,e_b,e_d], e_c) on all ordered 4-tuples."""
    n = alg.dim
    g = [list(form.gram.row(r)) for r in range(n)]
    al = [list(alg.twist.row(r)) for r in range(n)]

    def pair(x: Vec, d: int) -> Fraction:
        return sum((x[r] * g[r][d] for r in range(n)), Fraction(0))

    w = _Log()
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if pair(bracket_basis(alg, a, b, c), d) + pair(bracket_basis(alg, a, b, d), c) != 0:
            w.add(Violation("invariant", (a, b, c, d)))
    twisted = [[sum(al[r][i] * g[r][s] * al[s][j] for r in range(n) for s in range(n))
                for j in range(n)] for i in range(n)]
    flags = {"symmetric": all(g[i][j] == g[j][i] for i in range(n) for j in range(n)),
             "nondegenerate": dense_elimination.rank(form.gram) == n,
             "invariant": w.total == 0,
             "twist_invariant": twisted == g}
    return Report(flags, tuple(w.items), w.total)


def theta_cyclic(th) -> bool:
    """theta(e_i,e_j,e_k)(e_l) + theta(e_i,e_j,e_l)(e_k) = 0 on increasing
    triples against every fourth index; with skewness of theta this is
    the full cyclic identity."""
    n = th.algebra_dim
    return all(theta_basis(th, i, j, k)[l] + theta_basis(th, i, j, l)[k] == 0
               for i, j, k in increasing_triples(n) for l in range(n))


def contains_all(s: Subspace, vectors) -> bool:
    """Membership by rank: the vectors lie in s iff adding them all to its
    basis keeps the dimension."""
    return dense_elimination.rank(Mat.from_rows([*s.basis, *vectors], cols=s.ambient_dim)) == s.dim


def is_ideal(L, s: Subspace) -> bool:
    """alpha b and [b, e_j, e_k] in s for every basis vector b of s and every
    ordered pair (j, k), by :func:`contains_all`; the bracket is
    alternating, so b in the other slots gives the same vectors up to sign."""
    n = L.dim
    basis = [Vec.basis(n, i) for i in range(n)]
    return contains_all(s, [L.twist.apply(b) for b in s.basis]
                        + [bracket(L, b, x, y) for b in s.basis for x, y in itertools.product(basis, repeat=2)])


def centralizer(L, s: Subspace) -> Subspace:
    """{a : [a, e_j, e_k] in s for every ordered pair (j, k)}, from the dense
    elimination: the kernel W of s's basis rows is the annihilator of s, so
    v lies in s iff w . v = 0 for every w in W (the ranks of s and W add up
    to n), and the centralizer is the kernel of the rows (w . [e_a, e_j, e_k])_a."""
    n = L.dim
    annihilator = dense_elimination.nullspace(Mat.from_rows(list(s.basis), cols=n)).basis
    values = {(j, k): [bracket_basis(L, a, j, k) for a in range(n)]
              for j, k in itertools.product(range(n), repeat=2)}
    rows = [[w.dot(v) for v in vals] for w in annihilator for vals in values.values()]
    return dense_elimination.nullspace(Mat.from_rows(rows, cols=n))


def quotient(L, s: Subspace) -> tuple[Hom3LieAlgebra, Mat]:
    """The quotient on the non-pivot coordinates c of the dense RREF of s's
    basis: proj e_g is e_g, less the RREF row with pivot g if there is one,
    read at c; the bracket is proj [e_a, e_b, e_c] and the twist proj alpha
    e_a, for a, b, c among them."""
    n = L.dim
    reduced = dense_elimination.rref(Mat.from_rows(list(s.basis), cols=n))
    rows = {p: reduced.row(r) for r, p in enumerate(dense_elimination.pivot_cols(reduced))}
    comp = [g for g in range(n) if g not in rows]
    residues = [Vec.basis(n, g) - rows[g] if g in rows else Vec.basis(n, g) for g in range(n)]
    proj = Mat.from_rows([[residues[g][c] for g in range(n)] for c in comp], cols=n)
    table = {(a, b, c): proj.apply(bracket_basis(L, comp[a], comp[b], comp[c]))
             for a, b, c in increasing_triples(len(comp))}
    twist = Mat.from_cols([proj.apply(L.twist.col(g)) for g in comp]) if comp else Mat.zero(0, 0)
    return Hom3LieAlgebra(len(comp), table, twist), proj


def isotropic_complement(form, iso: Subspace) -> Subspace:
    """The hyperbolic completion the sequential way: for each j its own dense
    solve of B(i_l, f) = delta_jl (free coordinates at zero), then
    f <- f - (1/2) B(f, f) i_j and f <- f - B(f, f_l) i_l for each l < j in
    turn, f_l the straightened earlier ones; the span of the f's, by the
    dense elimination.  The form is taken as a symmetric metric and iso as
    an isotropic subspace of half its dimension."""
    n, k = form.dim, iso.dim
    pair_rows = Mat.from_rows([form.gram.apply(b) for b in iso.basis], cols=n)
    duals: list[Vec] = []
    for j in range(k):
        f = dense_elimination.solve(pair_rows, Vec.basis(k, j))
        f = f - iso.basis[j].scale(Fraction(1, 2) * form.eval(f, f))
        for l in range(j):
            f = f - iso.basis[l].scale(form.eval(f, duals[l]))
        duals.append(f)
    return dense_elimination.span(n, duals)


def extension_rule(ext, x: Vec, y: Vec, z: Vec) -> Vec:
    """The literal defining rule of ``derivations.DerivationExtension``,
    [u + l D, v + m D, w + n D] = [u, v, w] + l D(v) + m D(w) - n D(u),
    on the decompositions of x, y and z as u + l D (D the last basis vector)."""
    n, d = ext.base.dim, ext.derivation

    def split(v: Vec) -> tuple[Vec, Fraction]:
        return Vec.sparse(n, {i: a for i, a in v.support.items() if i < n}), v[n]

    (xv, l), (yv, m), (zv, nn) = split(x), split(y), split(z)
    out = (ext.base.bracket(xv, yv, zv) + d.apply(yv).scale(l) + d.apply(zv).scale(m)
           - d.apply(xv).scale(nn))
    return out.concat(Vec.zero(1))


def derivation_extension(ext) -> Report:
    """The report of ``derivations.derivation_extension`` from the literal rule.

    Every value and every side is :func:`extension_rule` on basis
    vectors and their images under ``ext.twist``, over all ordered triples
    (skewness, multiplicativity) and over the hom-Jacobi instances with
    (x, y) ordered below n or y = n and u < v < w below n, each in
    lexicographic order, as the ordered sweeps keep their witnesses.
    """
    n, nn = ext.base.dim, ext.dim
    basis = [Vec.basis(nn, i) for i in range(nn)]
    tcols = [ext.twist.col(i) for i in range(nn)]

    def value(i: int, j: int, k: int) -> Vec:
        return extension_rule(ext, basis[i], basis[j], basis[k])

    skew = _Log()
    for i, j, k in itertools.product(range(nn), repeat=3):
        if len({i, j, k}) < 3:
            if not value(i, j, k).is_zero():
                skew.add(Violation("skew", (i, j, k), value(i, j, k), Vec.zero(nn)))
        elif i < j < k:
            for perm in itertools.permutations((i, j, k)):
                expected = skew_value({(i, j, k): value(i, j, k)}, Vec.zero(nn), perm)
                if value(*perm) != expected:
                    skew.add(Violation("skew", perm, value(*perm), expected))
    mult = _Log()
    for i, j, k in itertools.product(range(nn), repeat=3):
        lhs = ext.twist.apply(value(i, j, k))
        rhs = extension_rule(ext, tcols[i], tcols[j], tcols[k])
        if lhs != rhs:
            mult.add(Violation("multiplicative", (i, j, k), lhs, rhs))
    jac = _Log()
    for a in range(nn):
        for b in (list(range(n)) if a < n else []) + [n]:
            for u, v, w in increasing_triples(n):
                lhs = extension_rule(ext, tcols[a], tcols[b], value(u, v, w))
                rhs = (extension_rule(ext, value(a, b, u), tcols[v], tcols[w])
                       + extension_rule(ext, tcols[u], value(a, b, v), tcols[w])
                       + extension_rule(ext, tcols[u], tcols[v], value(a, b, w)))
                if lhs != rhs:
                    jac.add(Violation("hom_jacobi", (a, b, u, v, w), lhs, rhs))
    flags = {"skew": skew.total == 0, "hom_jacobi": jac.total == 0 and mult.total == 0,
             "multiplicative": mult.total == 0}
    return Report(flags, tuple((skew.items + jac.items + mult.items)[:MAX_WITNESSES]),
                  skew.total + jac.total + mult.total)


# -- the codec, coordinate by coordinate -----------------------------------


def vec_to_dense(v: Vec) -> list[str]:
    return [format_rat(x) for x in v]


def mat_to_lists(m: Mat) -> list[list[str]]:
    return [vec_to_dense(v) for v in m.row_vecs]


def subspace_to_dict(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": [vec_to_dense(v) for v in s.basis]}


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INDEX = re.compile(r"[1-9][0-9]*")


def parse_rat(x: Any, where: str, memo: Optional[dict[str, Fraction]] = None) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise FileFormatError(f"expected an exact rational, got {x!r}", where)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if memo is not None and x in memo:
            return memo[x]
        if not _RATIONAL.fullmatch(x):
            raise FileFormatError(f"bad rational literal {x!r}", where)
        try:
            value = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(f"bad rational literal {x!r}", where) from exc
        if memo is not None:
            memo[x] = value
        return value
    raise FileFormatError(f"expected an exact rational, got {type(x).__name__}", where)


def vec_from_sparse(d: Any, n: int, where: str, memo: Optional[dict] = None) -> Vec:
    if not isinstance(d, dict):
        raise FileFormatError("expected an object of index -> rational", where)
    support = {}
    for key, raw in d.items():
        if not (isinstance(key, str) and _INDEX.fullmatch(key)):
            raise FileFormatError(f"bad index {key!r}", where)
        if len(key) > len(str(n)) or int(key) > n:
            raise FileFormatError(f"index {key} out of range 1..{n}", where)
        if value := parse_rat(raw, f"{where}[{key}]", memo):
            support[int(key) - 1] = value
    return Vec.sparse(n, support)


def vec_from_dense(raw: Any, where: str, length: Optional[int] = None,
                   memo: Optional[dict] = None) -> Vec:
    if not isinstance(raw, list):
        raise FileFormatError("expected a list of rationals", where)
    if length is not None and len(raw) != length:
        raise FileFormatError(f"expected {length} entries, got {len(raw)}", where)
    return Vec(tuple(parse_rat(x, f"{where}[{i}]", memo) for i, x in enumerate(raw)))


def mat_from_lists(raw: Any, where: str, rows: Optional[int] = None, cols: Optional[int] = None,
                   memo: Optional[dict] = None) -> Mat:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise FileFormatError("expected a non-empty list of rows", where)
    ncols = len(raw[0])
    if any(len(r) != ncols for r in raw):
        raise FileFormatError("ragged rows", where)
    if rows is not None and len(raw) != rows:
        raise FileFormatError(f"expected {rows} rows, got {len(raw)}", where)
    if cols is not None and ncols != cols:
        raise FileFormatError(f"expected {cols} columns, got {ncols}", where)
    return Mat.sparse(ncols, (
        Vec.sparse(ncols, {c: a for c, x in enumerate(row)
                           if (a := parse_rat(x, f"{where}[{r}][{c}]", memo))})
        for r, row in enumerate(raw)
    ))


def keyed_entries(d: Any, key: str, count: int, n: int, where: str, what: str,
                  parse: Callable[[Any, str], Any], field: str) -> dict:
    raw = _expect(d, key, where)
    if not isinstance(raw, list):
        raise FileFormatError("expected a list", f"{where}.{key}")
    table: dict = {}
    for pos, entry in enumerate(raw):
        loc = f"{where}.{key}[{pos}]"
        args = _args_tuple(_expect(entry, "args", loc), count, n, f"{loc}.args")
        if args in table:
            raise FileFormatError(f"duplicate {what} for {[a + 1 for a in args]}", loc)
        table[args] = parse(_expect(entry, field, loc), f"{loc}.{field}")
    return table
