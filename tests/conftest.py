from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, settings

from hom3lie.fixtures import catalog
from hom3lie.linalg import Mat, Vec

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
# tests/mutants.py only needs to see a test fail, not its smallest example
settings.register_profile("mutants", parent=settings.get_profile("suite"),
                          phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def algebras():
    return catalog()


def random_fraction(rng: random.Random, lo: int = -3, hi: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_vec(rng: random.Random, n: int) -> Vec:
    return Vec(tuple(random_fraction(rng) for _ in range(n)))


def random_mat(rng: random.Random, rows: int, cols: int) -> Mat:
    return Mat.from_rows([[random_fraction(rng) for _ in range(cols)] for _ in range(rows)])


def action_block(n: int, m: int, mats: dict[tuple[int, int], Mat]) -> dict[tuple[int, int, int], Vec]:
    """The [L, L, V] block of the action whose matrices on increasing pairs
    (i, j) are ``mats``: column c of each, moved to the coordinates n and
    up, on the key (i, j, n + c)."""
    return {(i, j, n + c): Vec.zero(n).concat(mat.col(c)) for (i, j), mat in mats.items() for c in range(m)}


def naive_rank(rows: list[list[Fraction]]) -> int:
    """Plain fraction Gaussian elimination, independent of the library path."""
    grid = [list(r) for r in rows]
    if not grid:
        return 0
    ncols = len(grid[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(grid)):
            if grid[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        grid[r], grid[piv] = grid[piv], grid[r]
        for i in range(len(grid)):
            if i != r and grid[i][c] != 0:
                f = grid[i][c] / grid[r][c]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[r])]
        r += 1
        if r == len(grid):
            break
    return sum(1 for row in grid if any(x != 0 for x in row))
