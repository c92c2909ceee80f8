"""Exact linear algebra over the rational numbers.

The computational substrate for everything else in the package: column
vectors, row-major matrices and canonically row-reduced subspaces with
``fractions.Fraction`` entries.  All arithmetic is exact, so every
identity check elsewhere is a zero-tolerance decision.  Subspaces are
normalised to reduced row echelon form, which makes equality of spans
literal equality of the stored bases.  Every value is immutable and
safe to share between workers.

Vectors are stored as *supports*: dicts mapping a coordinate to a
nonzero Fraction, read-only once built; a matrix is a tuple of row
vectors.  Dense entries are only a derived view.  Every sparse product
(``Mat @ Mat``, a projection, a contraction) accumulates in one loop,
:func:`add_matvec`, and every elimination (``rref``, ``rank``, ``nullspace``,
``solve``, ``inverse``, ``Subspace.span``) runs on one sparse routine: unit
propagation fixes the unknowns of single-entry rows, then fraction-free
Gauss-Jordan reduces the rest, on the row supports cleared to ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DimensionMismatch

Scalar = Union[Fraction, int, str]
Support = dict[int, Fraction]
SparseMat = dict[int, Support]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x: Scalar) -> Fraction:
    """Coerce an int, a ``"p/q"`` string or a Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Vec:
    """Rational vector: a length ``n`` and a ``support``.

    The support maps each coordinate holding a nonzero value to that
    value and never holds a zero, so equal vectors have equal supports.
    ``Vec(entries)`` takes dense entries; ``Vec.sparse`` takes a support
    as it is.  The dense ``entries`` are a view built on first use.
    Neither the fields nor the support change after construction.
    """

    __slots__ = ("n", "support", "__dict__")

    def __init__(self, entries: Iterable[Scalar]) -> None:
        entries = tuple(entries)
        self.n = len(entries)
        self.support: Support = {i: a for i, a in enumerate(entries) if a}

    @staticmethod
    def sparse(n: int, support: Support) -> "Vec":
        """The length-n vector with this zero-free support, which it takes over."""
        v = object.__new__(Vec)
        v.n, v.support = n, support
        return v

    @staticmethod
    def of(*xs: Scalar) -> "Vec":
        return Vec(rat(x) for x in xs)

    @staticmethod
    def zero(n: int) -> "Vec":
        return Vec.sparse(n, {})

    @staticmethod
    def basis(n: int, i: int) -> "Vec":
        """The i-th standard basis vector of dimension n (0-based)."""
        return Vec.sparse(n, {i: _ONE} if 0 <= i < n else {})

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        dense = [_ZERO] * self.n
        for i, a in self.support.items():
            dense[i] = a
        return tuple(dense)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Fraction:
        if type(i) is int and 0 <= i < self.n:
            return self.support.get(i, _ZERO)
        return self.entries[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vec):
            return NotImplemented
        return self.n == other.n and self.support == other.support

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.support.items())))

    def _check(self, other: "Vec") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"vector lengths differ: {self.n} vs {other.n}")

    def __add__(self, other: "Vec") -> "Vec":
        self._check(other)
        acc = dict(self.support)
        for i, b in other.support.items():  # arithmetic only where the supports meet
            if s := (acc[i] + b if i in acc else b):
                acc[i] = s
            else:
                del acc[i]
        return Vec.sparse(self.n, acc)

    def __sub__(self, other: "Vec") -> "Vec":
        return self + -other

    def __neg__(self) -> "Vec":
        return Vec.sparse(self.n, {i: -a for i, a in self.support.items()})

    def scale(self, c: Scalar) -> "Vec":
        f = rat(c)
        return Vec.sparse(self.n, {i: f * a for i, a in self.support.items()} if f else {})

    def __rmul__(self, c: Scalar) -> "Vec":
        return self.scale(c)

    def dot(self, other: "Vec") -> Fraction:
        self._check(other)
        s, t = self.support, other.support
        if len(s) > len(t):
            s, t = t, s
        return sum((a * t[i] for i, a in s.items() if i in t), _ZERO)

    def is_zero(self) -> bool:
        return not self.support

    def concat(self, other: "Vec") -> "Vec":
        n = self.n
        shifted = {i + n: a for i, a in other.support.items()}
        return Vec.sparse(n + other.n, {**self.support, **shifted})

    def __repr__(self) -> str:
        return "Vec(" + ", ".join(str(a) for a in self.entries) + ")"


class Mat:
    """Rational matrix: a column count and a tuple of row vectors.

    ``Mat(rows, cols, entries)`` takes dense row-major entries;
    ``Mat.sparse`` takes the row vectors as they are.  The dense
    row-major ``entries`` are a view built on first use.  Like a
    :class:`Vec`, a matrix never changes after construction.
    """

    __slots__ = ("rows", "cols", "row_vecs", "__dict__")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar]) -> None:
        if len(entries) != rows * cols:
            raise DimensionMismatch("entry count does not match matrix shape")
        self.rows, self.cols = rows, cols
        self.row_vecs = tuple(Vec(entries[r * cols:(r + 1) * cols]) for r in range(rows))

    @staticmethod
    def sparse(cols: int, row_vecs: Iterable[Vec]) -> "Mat":
        """The matrix with these rows, each of length ``cols``."""
        m = object.__new__(Mat)
        m.row_vecs = tuple(row_vecs)
        m.rows, m.cols = len(m.row_vecs), cols
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "Mat":
        """Rows given as vectors or as sequences of scalars."""
        if not rows and cols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        ncols = len(rows[0]) if cols is None else cols
        vecs = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            vecs.append(r if isinstance(r, Vec) else Vec.of(*r))
        return Mat.sparse(ncols, vecs)

    @staticmethod
    def from_cols(cols: Sequence[Vec]) -> "Mat":
        if not cols:
            raise DimensionMismatch("empty matrix needs at least one column")
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise DimensionMismatch("columns of unequal length")
        return Mat.sparse(n, cols).transpose()

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat.sparse(n, (Vec.basis(n, i) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat.sparse(cols, (Vec.zero(cols),) * rows)

    @staticmethod
    def diagonal(xs: Sequence[Scalar]) -> "Mat":
        n = len(xs)
        return Mat.sparse(n, (Vec.basis(n, i).scale(x) for i, x in enumerate(xs)))

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(a for v in self.row_vecs for a in v.entries)

    def at(self, r: int, c: int) -> Fraction:
        return self.row_vecs[r][c]

    def row(self, r: int) -> Vec:
        return self.row_vecs[r]

    def col(self, c: int) -> Vec:
        return Vec.sparse(self.rows, {r: v.support[c] for r, v in enumerate(self.row_vecs)
                                      if c in v.support})

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.cols == other.cols and self.row_vecs == other.row_vecs

    def __hash__(self) -> int:
        return hash((self.cols, self.row_vecs))

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return Mat.sparse(self.cols, (a + b for a, b in zip(self.row_vecs, other.row_vecs)))

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def __neg__(self) -> "Mat":
        return Mat.sparse(self.cols, (-v for v in self.row_vecs))

    def scale(self, c: Scalar) -> "Mat":
        return Mat.sparse(self.cols, (v.scale(c) for v in self.row_vecs))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        rows = {k: v.support for k, v in enumerate(other.row_vecs)}
        return Mat.sparse(other.cols,
                          [Vec.sparse(other.cols, matvec(rows, v.support)) for v in self.row_vecs])

    def apply(self, v: Vec) -> Vec:
        """Matrix-vector product."""
        if self.cols != len(v):
            raise DimensionMismatch(f"cannot apply {self.rows}x{self.cols} to length-{len(v)}")
        return Vec.sparse(self.rows, {i: s for i, row in enumerate(self.row_vecs)
                                      if (s := row.dot(v))})

    def transpose(self) -> "Mat":
        cols: list[Support] = [{} for _ in range(self.cols)]
        for r, v in enumerate(self.row_vecs):
            for c, a in v.support.items():
                cols[c][r] = a
        return Mat.sparse(self.rows, (Vec.sparse(self.rows, s) for s in cols))

    def is_zero(self) -> bool:
        return not any(v.support for v in self.row_vecs)

    def block_diag(self, other: "Mat") -> "Mat":
        right, left = Vec.zero(other.cols), Vec.zero(self.cols)
        return Mat.sparse(self.cols + other.cols,
                          [v.concat(right) for v in self.row_vecs]
                          + [left.concat(v) for v in other.row_vecs])

    def power(self, k: int) -> "Mat":
        """k-fold matrix power; negative k uses the exact inverse."""
        if not self.is_square:
            raise DimensionMismatch("powers need a square matrix")
        if k < 0:
            inv = inverse(self)
            if inv is None:
                raise ValueError("negative power of a singular matrix")
            return inv.power(-k)
        acc = Mat.identity(self.rows)
        for _ in range(k):
            acc = acc @ self
        return acc

    def __repr__(self) -> str:
        lines = ["[" + ", ".join(str(a) for a in v.entries) + "]" for v in self.row_vecs]
        return "Mat([" + ", ".join(lines) + "])"


def add_scaled(acc: dict[int, Fraction], c: Fraction, s: Support) -> None:
    """acc += c * s in place; cancellations leave zeros (see :func:`pruned`)."""
    for t, a in s.items():
        acc[t] = acc[t] + c * a if t in acc else c * a


def pruned(acc: dict[int, Fraction]) -> Support:
    return {t: a for t, a in acc.items() if a}


def add_matvec(acc: dict[int, Fraction], m: SparseMat, x: Support, sign: int = 1) -> None:
    """acc += sign m x in place, sign 1 or -1; cancellations leave zeros (see :func:`pruned`)."""
    for c, xc in x.items():
        if c in m:
            f = xc if sign > 0 else -xc
            for t, a in m[c].items():
                acc[t] = acc[t] + f * a if t in acc else f * a


def matvec(m: SparseMat, x: Support) -> Support:
    acc: dict[int, Fraction] = {}
    add_matvec(acc, m, x)
    return pruned(acc)


def rational(s: dict[int, Union[int, Fraction]], scale: int) -> Support:
    """The support over ``scale``, as Fractions: the inverse of :func:`cleared`."""
    return {i: Fraction(a, scale) for i, a in s.items()}


def cleared(*parts: list[Support]) -> tuple[list[list[Support]], int]:
    """The lists of supports times the common denominator D of all their
    values, as int supports, and D."""
    d = math.lcm(*{a.denominator for g in parts for s in g for a in s.values()})
    return [[{i: a.numerator * (d // a.denominator) for i, a in s.items()} for s in g] for g in parts], d


def _combination(m: int, row: dict[int, int], terms: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """m row less f s for each (f, s) in ``terms``, over its content (signed to lead positive)."""
    acc = {c: m * a for c, a in row.items()}
    for f, s in terms:
        add_scaled(acc, -f, s)
    if not (acc := pruned(acc)):
        return acc
    g = math.gcd(*acc.values()) * (-1 if acc[min(acc)] < 0 else 1)
    return acc if g == 1 else {c: a // g for c, a in acc.items()}


def _eliminate(rows: Iterable[Support]) -> dict[int, Support]:
    """The nonzero rows of the RREF of ``rows``, keyed by pivot, in pivot order.

    Unit propagation first: a row with one entry off the fixed columns, at c,
    is a multiple of e_c plus ones of fixed e_c', so e_c is in the span and c
    is fixed in turn.  The rows left, less their fixed entries (in copies), span
    the span with the e_c and are 0 at every fixed column, as their RREF is: so
    that RREF and the e_c together are the unique RREF of the whole span.
    The rows left go through fraction-free Gauss-Jordan (Bareiss, Math.
    Comp. 22, 1968) on int rows, each pivot row zero at the other pivots.
    A row, cleared to ints (:func:`cleared`) unless it holds ints
    already, is taken m times, m the lcm of the leads of the pivot rows p
    it meets, less m / lead_p * row[p] times each; a nonzero rest is the
    pivot row of its first column and is cleared the same way from the
    earlier ones.  Row scales, multipliers and contents
    (:func:`_combination`) are nonzero, and a nonzero multiple of a row
    spans the same line, so the span never changes.  Divided once by its
    lead at the end, each pivot row has a leading one and zeros at the
    other pivots: the rows are the unique RREF of their span.
    """
    rows = list(rows)
    live = [len(row) for row in rows]  # entries off the fixed columns
    queue, fixed, holding = [i for i, k in enumerate(live) if k == 1], set(), {}
    for i, row in enumerate(rows if queue else ()):
        for c in row:
            holding.setdefault(c, []).append(i)
    while queue:
        for c in rows[queue.pop()].keys() - fixed:  # its one live column; none if a duplicate fixed it
            fixed.add(c)
            for j in holding[c]:
                live[j] -= 1
            queue += [j for j in holding[c] if live[j] == 1]
    pivots: dict[int, dict[int, int]] = {}
    for row in (row if k == len(row) else {c: a for c, a in row.items() if c not in fixed}
                for row, k in zip(rows, live) if k > 1):
        if not all(type(a) is int for a in row.values()):
            ((row,),), _ = cleared([row])
        m = math.lcm(*[pivots[p][p] for p in row if p in pivots])
        row = _combination(m, row, [(m // pivots[p][p] * a, pivots[p])
                                    for p, a in row.items() if p in pivots])
        if not row:
            continue
        p = min(row)
        for q, prow in pivots.items():
            if p in prow:
                g = math.gcd(row[p], prow[p])
                pivots[q] = _combination(row[p] // g, prow, [(prow[p] // g, row)])
        pivots[p] = row
    pivots.update((c, {c: 1}) for c in fixed)
    return {p: {c: Fraction(a, row[p]) for c, a in row.items()} for p, row in sorted(pivots.items())}


def rref(m: Mat) -> Mat:
    """Reduced row echelon form; the zero rows come last.

    Pivots are the first nonzero entry in column order; the result is
    the unique RREF of the row space.
    """
    rows = [Vec.sparse(m.cols, r) for r in _eliminate(v.support for v in m.row_vecs).values()]
    return Mat.sparse(m.cols, rows + [Vec.zero(m.cols)] * (m.rows - len(rows)))


def rank(m: Mat) -> int:
    return len(_eliminate(v.support for v in m.row_vecs))


def inverse(m: Mat) -> Optional[Mat]:
    """Exact inverse, or None when the matrix is singular."""
    if not m.is_square:
        raise DimensionMismatch("inverse needs a square matrix")
    n = m.rows
    reduced = _eliminate(m.row(i).concat(Vec.basis(n, i)).support for i in range(n))
    if any(p >= n for p in reduced):
        return None
    return Mat.sparse(n, (Vec.sparse(n, {c - n: a for c, a in row.items() if c >= n})
                          for row in reduced.values()))


def solve(m: Mat, b: Vec) -> Optional[Vec]:
    """Some exact solution of ``m x = b``, or None when inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length does not match row count")
    n = m.cols
    reduced = _eliminate(m.row(i).concat(Vec((b[i],))).support for i in range(m.rows))
    if n in reduced:
        return None
    return Vec.sparse(n, {p: row[n] for p, row in reduced.items() if n in row})


@dataclass(frozen=True)
class Subspace:
    """A linear subspace in canonical form.

    The stored basis rows are the nonzero rows of the RREF of any
    generating set, so two subspaces are equal iff their fields are.
    """

    ambient_dim: int
    basis: tuple[Vec, ...]

    @staticmethod
    def span(ambient_dim: int, vectors: Sequence[Vec]) -> "Subspace":
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("generator length does not match ambient dimension")
        reduced = _eliminate(v.support for v in vectors)
        return Subspace(ambient_dim, tuple(Vec.sparse(ambient_dim, r) for r in reduced.values()))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(Vec.basis(ambient_dim, i) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def projection(self) -> tuple[dict[int, int], dict[int, dict[int, int]], int]:
        """The positions of the non-pivot coordinates, e times the projection
        onto them along the span as int columns over them, and e; built once.

        Column g is e_g when g is not a pivot and -(row_g off its pivot) when
        it is, row_g the basis row with pivot g, the rows cleared together to
        row~_g = e row_g (:func:`cleared`).  So proj v is v less v_p row_p for
        each pivot p, read at the non-pivots; that rest is 0 at every pivot and
        lies in the span iff v does, and the only such vector in it is 0.
        """
        rows = {min(v.support): v.support for v in self.basis}
        pos = {g: a for a, g in enumerate(g for g in range(self.ambient_dim) if g not in rows)}
        (irows,), e = cleared(list(rows.values()))
        cols = {g: {a: e} for g, a in pos.items()}
        cols.update((p, {pos[c]: -x for c, x in row.items() if c != p}) for p, row in zip(rows, irows))
        return pos, cols, e


def nullspace(m: Mat) -> Subspace:
    """Canonical basis of the kernel ``{v : m v = 0}``."""
    reduced = _eliminate(v.support for v in m.row_vecs)
    gens = []
    for f in range(m.cols):
        if f not in reduced:
            gen = {p: -row[f] for p, row in reduced.items() if f in row}
            gen[f] = _ONE
            gens.append(Vec.sparse(m.cols, gen))
    return Subspace.span(m.cols, gens)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace.span(a.ambient_dim, list(a.basis) + list(b.basis))


def subspace_contains(a: Subspace, v: Vec) -> bool:
    """v lies in a iff its projection along a is 0 (:attr:`Subspace.projection`)."""
    if len(v) != a.ambient_dim:
        raise DimensionMismatch("vector length does not match ambient dimension")
    return not matvec(a.projection[1], v.support)


def subspace_leq(a: Subspace, b: Subspace) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return all(subspace_contains(b, v) for v in a.basis)
