"""Exact dense linear algebra over the rational numbers.

The computational substrate for everything else in the package: column
vectors, row-major matrices and canonically row-reduced subspaces with
``fractions.Fraction`` entries.  All arithmetic is exact, so every
identity check elsewhere is a zero-tolerance decision.  Subspaces are
normalised to reduced row echelon form, which makes equality of spans
literal equality of the stored bases.  Every value is immutable and
safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DimensionMismatch

Scalar = Union[Fraction, int, str]

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

    def take(self, indices: Sequence[int]) -> "Vec":
        return Vec(tuple(self.entries[i] for i in indices))

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


def hstack(mats: Sequence[Mat]) -> Mat:
    if not mats:
        raise DimensionMismatch("nothing to stack")
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise DimensionMismatch("row counts differ")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.entries[i * m.cols : (i + 1) * m.cols])
    return Mat(rows, sum(m.cols for m in mats), tuple(out))


def rref(m: Mat) -> Mat:
    """Reduced row echelon form, computed with exact pivoting.

    Pivots are the first nonzero entry in column order; the result is
    the unique RREF of the row space.
    """
    rows = [list(m.row(i).entries) for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    pr = 0
    for pc in range(ncols):
        pivot = next((r for r in range(pr, nrows) if rows[r][pc] != 0), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = 1 / rows[pr][pc]
        if inv != 1:
            rows[pr] = [a * inv for a in rows[pr]]
        for r in range(nrows):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pr += 1
        if pr == nrows:
            break
    return Mat.from_rows(rows, cols=ncols)


def _pivot_cols(reduced: Mat) -> list[int]:
    rows = (reduced.row(r) for r in range(reduced.rows))
    return [next(c for c, a in enumerate(row) if a != 0) for row in rows if not row.is_zero()]


def rank(m: Mat) -> int:
    return len(_pivot_cols(rref(m)))


def inverse(m: Mat) -> Optional[Mat]:
    """Exact inverse, or None when the matrix is singular."""
    if not m.is_square:
        raise DimensionMismatch("inverse needs a square matrix")
    n = m.rows
    aug = rref(hstack([m, Mat.identity(n)]))
    left = Mat.from_rows([list(aug.row(i))[:n] for i in range(n)], cols=n)
    if left != Mat.identity(n):
        return None
    return Mat.from_rows([list(aug.row(i))[n:] for i in range(n)], cols=n)


def solve(m: Mat, b: Vec) -> Optional[Vec]:
    """Some exact solution of ``m x = b``, or None when inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length does not match row count")
    aug = rref(hstack([m, Mat.from_cols([b])]))
    pivots = _pivot_cols(aug)
    if m.cols in pivots:
        return None
    x = [_ZERO] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = aug.at(r, m.cols)
    return Vec(tuple(x))


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
        if not vectors:
            return Subspace(ambient_dim, ())
        reduced = rref(Mat.from_rows([list(v) for v in vectors], cols=ambient_dim))
        rows = [reduced.row(i) for i in range(reduced.rows)]
        return Subspace(ambient_dim, tuple(r for r in rows if not r.is_zero()))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(Vec.basis(ambient_dim, i) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> list[int]:
        return [next(c for c, a in enumerate(row) if a != 0) for row in self.basis]

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after eliminating the pivot coordinates; zero iff v is in the span."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        out = list(v.entries)
        for row, p in zip(self.basis, self.pivots()):
            f = out[p]
            if f != 0:
                out = [a - f * b for a, b in zip(out, row)]
        return Vec(tuple(out))


def nullspace(m: Mat) -> Subspace:
    """Canonical basis of the kernel ``{v : m v = 0}``."""
    reduced = rref(m)
    pivots = _pivot_cols(reduced)
    free = [c for c in range(m.cols) if c not in pivots]
    gens = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.at(r, f)
        gens.append(Vec(tuple(v)))
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


def residual_matrix(s: Subspace) -> Mat:
    """A matrix whose kernel is exactly the subspace.

    Applies ``s.reduce`` as a linear map: subtracting v[p] times the
    basis row with pivot p removes the pivot coordinates in one pass
    (RREF rows vanish at each other's pivots), so ``M v = 0`` iff v is
    in the span.
    """
    n = s.ambient_dim
    by_pivot = {p: row for row, p in zip(s.basis, s.pivots())}
    entries = []
    for i in range(n):
        for j in range(n):
            v = _ONE if i == j else _ZERO
            if j in by_pivot:
                v = v - by_pivot[j][i]
            entries.append(v)
    return Mat(n, n, tuple(entries))
