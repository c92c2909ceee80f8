"""Exact linear algebra over the rational numbers.

The computational substrate for everything else in the package: column
vectors, row-major matrices and canonically row-reduced subspaces with
``fractions.Fraction`` entries.  All arithmetic is exact, so every
identity check elsewhere is a zero-tolerance decision.  Subspaces are
normalised to reduced row echelon form, which makes equality of spans
literal equality of the stored bases.  Every value is immutable and
safe to share between workers.

Every elimination (``rref``, ``rank``, ``nullspace``, ``solve``,
``inverse`` and the subspace reductions) runs on one sparse
Gauss-Jordan routine over *supports*: dicts mapping a coordinate to a
nonzero Fraction, read-only once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DimensionMismatch

Scalar = Union[Fraction, int, str]
Support = dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x: Scalar) -> Fraction:
    """Coerce an int, a ``"p/q"`` string or a Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Vec:
    """Immutable rational vector of fixed length."""

    entries: tuple[Fraction, ...]

    @staticmethod
    def of(*xs: Scalar) -> "Vec":
        return Vec(tuple(rat(x) for x in xs))

    @staticmethod
    def from_iter(xs: Iterable[Scalar]) -> "Vec":
        return Vec(tuple(rat(x) for x in xs))

    @staticmethod
    def zero(n: int) -> "Vec":
        return Vec((_ZERO,) * n)

    @staticmethod
    def basis(n: int, i: int) -> "Vec":
        """The i-th standard basis vector of dimension n (0-based)."""
        return Vec(tuple(_ONE if j == i else _ZERO for j in range(n)))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def _check(self, other: "Vec") -> None:
        if len(self.entries) != len(other.entries):
            raise DimensionMismatch(
                f"vector lengths differ: {len(self.entries)} vs {len(other.entries)}"
            )

    def __add__(self, other: "Vec") -> "Vec":
        self._check(other)
        return Vec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vec") -> "Vec":
        self._check(other)
        return Vec(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vec":
        return Vec(tuple(-a for a in self.entries))

    def scale(self, c: Scalar) -> "Vec":
        f = rat(c)
        return Vec(tuple(f * a for a in self.entries))

    def __rmul__(self, c: Scalar) -> "Vec":
        return self.scale(c)

    def dot(self, other: "Vec") -> Fraction:
        self._check(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), _ZERO)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def nonzero(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (index, value) for the nonzero coordinates."""
        for i, a in enumerate(self.entries):
            if a:
                yield i, a

    def concat(self, other: "Vec") -> "Vec":
        return Vec(self.entries + other.entries)

    def __repr__(self) -> str:
        return "Vec(" + ", ".join(str(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class Mat:
    """Immutable rational matrix, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch("entry count does not match matrix shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "Mat":
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            return Mat(0, cols, ())
        ncols = len(rows[0]) if cols is None else cols
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(rat(x) for x in r)
        return Mat(nrows, ncols, tuple(flat))

    @staticmethod
    def from_supports(rows: Sequence[Support], cols: int) -> "Mat":
        flat = [_ZERO] * (len(rows) * cols)
        for r, s in enumerate(rows):
            for c, a in s.items():
                flat[r * cols + c] = a
        return Mat(len(rows), cols, tuple(flat))

    @staticmethod
    def from_cols(cols: Sequence[Vec]) -> "Mat":
        if not cols:
            raise DimensionMismatch("empty matrix needs at least one column")
        n = len(cols[0])
        for c in cols:
            if len(c) != n:
                raise DimensionMismatch("columns of unequal length")
        return Mat(n, len(cols), tuple(cols[j][i] for i in range(n) for j in range(len(cols))))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, (_ZERO,) * (rows * cols))

    @staticmethod
    def diagonal(xs: Sequence[Scalar]) -> "Mat":
        n = len(xs)
        vals = [rat(x) for x in xs]
        return Mat(n, n, tuple(vals[i] if i == j else _ZERO for i in range(n) for j in range(n)))

    def at(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> Vec:
        return Vec(self.entries[r * self.cols : (r + 1) * self.cols])

    def col(self, c: int) -> Vec:
        return Vec(tuple(self.entries[r * self.cols + c] for r in range(self.rows)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return Mat(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return Mat(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: Scalar) -> "Mat":
        f = rat(c)
        return Mat(self.rows, self.cols, tuple(f * a for a in self.entries))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            base = i * self.cols
            for j in range(other.cols):
                s = _ZERO
                for k in range(self.cols):
                    a = self.entries[base + k]
                    if a:
                        s += a * other.entries[k * other.cols + j]
                out.append(s)
        return Mat(self.rows, other.cols, tuple(out))

    def apply(self, v: Vec) -> Vec:
        """Matrix-vector product."""
        if self.cols != len(v):
            raise DimensionMismatch(f"cannot apply {self.rows}x{self.cols} to length-{len(v)}")
        nz = list(v.nonzero())
        out = []
        for i in range(self.rows):
            base = i * self.cols
            s = _ZERO
            for k, x in nz:
                a = self.entries[base + k]
                if a:
                    s += a * x
            out.append(s)
        return Vec(tuple(out))

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   tuple(self.entries[r * self.cols + c]
                         for c in range(self.cols) for r in range(self.rows)))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def block_diag(self, other: "Mat") -> "Mat":
        rows = []
        for i in range(self.rows):
            rows.append(list(self.row(i)) + [_ZERO] * other.cols)
        for i in range(other.rows):
            rows.append([_ZERO] * self.cols + list(other.row(i)))
        return Mat.from_rows(rows, cols=self.cols + other.cols)

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

    def vectorize(self) -> Vec:
        """Flatten row-major into a vector of length rows*cols."""
        return Vec(self.entries)

    @staticmethod
    def unvectorize(rows: int, cols: int, v: Vec) -> "Mat":
        if len(v) != rows * cols:
            raise DimensionMismatch("vector length does not match target shape")
        return Mat(rows, cols, v.entries)

    def __repr__(self) -> str:
        lines = ["[" + ", ".join(str(self.at(r, c)) for c in range(self.cols)) + "]"
                 for r in range(self.rows)]
        return "Mat([" + ", ".join(lines) + "])"


def vstack(mats: Sequence[Mat]) -> Mat:
    """Stack matrices with equal column counts on top of each other."""
    if not mats:
        raise DimensionMismatch("nothing to stack")
    cols = mats[0].cols
    flat: list[Fraction] = []
    rows = 0
    for m in mats:
        if m.cols != cols:
            raise DimensionMismatch("column counts differ")
        flat.extend(m.entries)
        rows += m.rows
    return Mat(rows, cols, tuple(flat))


def support(v: Vec) -> Support:
    return {i: a for i, a in enumerate(v.entries) if a}


def to_vec(s: Support, n: int) -> Vec:
    entries = [_ZERO] * n
    for i, a in s.items():
        entries[i] = a
    return Vec(tuple(entries))


def add_scaled(acc: dict[int, Fraction], c: Fraction, s: Support) -> None:
    """acc += c * s in place; cancellations leave zeros (see :func:`pruned`)."""
    for t, a in s.items():
        acc[t] = acc[t] + c * a if t in acc else c * a


def pruned(acc: dict[int, Fraction]) -> Support:
    return {t: a for t, a in acc.items() if a}


def _reduce(row: Support, pivots: dict[int, Support]) -> Support:
    """row minus row[p] times the pivot row of p, for every pivot p.

    Reduced pivot rows vanish at each other's pivots, so one pass
    clears every pivot coordinate; the result is zero iff row lies in
    their span.
    """
    acc = dict(row)
    for p, a in row.items():
        if p in pivots:
            add_scaled(acc, -a, pivots[p])
    return pruned(acc)


def _eliminate(rows: Iterable[Support]) -> dict[int, Support]:
    """The nonzero rows of the RREF of ``rows``, keyed by pivot, in pivot order.

    Gauss-Jordan one row at a time: a row is reduced by the pivot rows
    found so far; a nonzero remainder is scaled to a leading one at its
    first column and cleared from the earlier pivot rows.  The pivot
    rows are in reduced echelon form after every step, so at the end
    they are the rows of the unique RREF of the span, whatever the row
    order.
    """
    pivots: dict[int, Support] = {}
    for row in rows:
        rest = _reduce(row, pivots)
        if not rest:
            continue
        p = min(rest)
        if rest[p] != 1:
            inv = 1 / rest[p]
            rest = {c: a * inv for c, a in rest.items()}
        for q, prow in pivots.items():
            if p in prow:
                acc = dict(prow)
                add_scaled(acc, -prow[p], rest)
                pivots[q] = pruned(acc)
        pivots[p] = rest
    return dict(sorted(pivots.items()))


def _row_supports(m: Mat) -> Iterator[Support]:
    return (support(m.row(r)) for r in range(m.rows))


def rref(m: Mat) -> Mat:
    """Reduced row echelon form; the zero rows come last.

    Pivots are the first nonzero entry in column order; the result is
    the unique RREF of the row space.
    """
    rows = list(_eliminate(_row_supports(m)).values())
    return Mat.from_supports(rows + [{}] * (m.rows - len(rows)), m.cols)


def rank(m: Mat) -> int:
    return len(_eliminate(_row_supports(m)))


def inverse(m: Mat) -> Optional[Mat]:
    """Exact inverse, or None when the matrix is singular."""
    if not m.is_square:
        raise DimensionMismatch("inverse needs a square matrix")
    n = m.rows
    reduced = _eliminate(support(m.row(i).concat(Vec.basis(n, i))) for i in range(n))
    if any(p >= n for p in reduced):
        return None
    return Mat.from_supports([{c - n: a for c, a in row.items() if c >= n}
                              for row in reduced.values()], n)


def solve(m: Mat, b: Vec) -> Optional[Vec]:
    """Some exact solution of ``m x = b``, or None when inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length does not match row count")
    n = m.cols
    reduced = _eliminate(support(m.row(i).concat(Vec((b[i],)))) for i in range(m.rows))
    if n in reduced:
        return None
    return to_vec({p: row[n] for p, row in reduced.items() if n in row}, n)


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
        reduced = _eliminate(support(v) for v in vectors)
        return Subspace(ambient_dim, tuple(to_vec(r, ambient_dim) for r in reduced.values()))

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
    def pivot_rows(self) -> dict[int, Support]:
        """The basis as supports keyed by pivot, built on first use."""
        return {min(r): r for r in map(support, self.basis)}

    def pivots(self) -> list[int]:
        return list(self.pivot_rows)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after eliminating the pivot coordinates; zero iff v is in the span."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return to_vec(_reduce(support(v), self.pivot_rows), self.ambient_dim)


def nullspace(m: Mat) -> Subspace:
    """Canonical basis of the kernel ``{v : m v = 0}``."""
    reduced = _eliminate(_row_supports(m))
    gens = []
    for f in range(m.cols):
        if f not in reduced:
            gen = {p: -row[f] for p, row in reduced.items() if f in row}
            gen[f] = _ONE
            gens.append(to_vec(gen, m.cols))
    return Subspace.span(m.cols, gens)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace.span(a.ambient_dim, list(a.basis) + list(b.basis))


def subspace_contains(a: Subspace, v: Vec) -> bool:
    return a.reduce(v).is_zero()


def subspace_leq(a: Subspace, b: Subspace) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return all(subspace_contains(b, v) for v in a.basis)
