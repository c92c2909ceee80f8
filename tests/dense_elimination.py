"""Dense reference elimination, kept as an oracle for the library's sparse kernel.

``rref`` is the textbook column-by-column Gauss-Jordan loop over full
rows of Fractions.  Rank, nullspace, solve, inverse and span are written
on top of it the direct way, by augmenting and slicing dense rows.  They
share no elimination code with the library, so every result must equal
the library's exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from hom3lie.linalg import Mat, Subspace, Vec


def rref(m: Mat) -> Mat:
    rows = [list(m.row(i)) for i in range(m.rows)]
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


def pivot_cols(reduced: Mat) -> list[int]:
    rows = (reduced.row(r) for r in range(reduced.rows))
    return [next(c for c, a in enumerate(row) if a != 0) for row in rows if not row.is_zero()]


def rank(m: Mat) -> int:
    return len(pivot_cols(rref(m)))


def span(n: int, vectors: Sequence[Vec]) -> Subspace:
    if not vectors:
        return Subspace(n, ())
    reduced = rref(Mat.from_rows([list(v) for v in vectors], cols=n))
    rows = (reduced.row(i) for i in range(reduced.rows))
    return Subspace(n, tuple(r for r in rows if not r.is_zero()))


def nullspace(m: Mat) -> Subspace:
    reduced = rref(m)
    pivots = pivot_cols(reduced)
    gens = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.at(r, f)
        gens.append(Vec(tuple(v)))
    return span(m.cols, gens)


def _augmented(m: Mat, extra: Mat) -> Mat:
    return Mat.from_rows([list(m.row(i)) + list(extra.row(i)) for i in range(m.rows)],
                         cols=m.cols + extra.cols)


def solve(m: Mat, b: Vec) -> Optional[Vec]:
    aug = rref(_augmented(m, Mat(len(b), 1, b.entries)))
    pivots = pivot_cols(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = aug.at(r, m.cols)
    return Vec(tuple(x))


def inverse(m: Mat) -> Optional[Mat]:
    n = m.rows
    aug = rref(_augmented(m, Mat.identity(n)))
    if Mat.from_rows([list(aug.row(i))[:n] for i in range(n)], cols=n) != Mat.identity(n):
        return None
    return Mat.from_rows([list(aug.row(i))[n:] for i in range(n)], cols=n)
