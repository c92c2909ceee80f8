"""Sparse alternating multilinear maps over the exact rationals.

One type, :class:`AltTable`, backs every skew structure of the package:
the bracket of an algebra (three slots, values in the algebra), a
cocycle (three slots, values in a module) and a representation (the
[L, L, V] block of its semidirect bracket on L + V, three slots).
Values are stored on strictly increasing basis keys; the full map is
the unique alternating extension, so skew-symmetry holds by
construction.

Sparse values are plain dicts, read-only once built.  A *support*
(see :mod:`hom3lie.linalg`) maps a coordinate to a nonzero Fraction; a
*sparse matrix* maps a column index to a nonzero column support.
Evaluation visits only stored values whose indices lie in the supports
of the arguments, so zero coordinates and zero structure constants
cost nothing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import DimensionMismatch
from .linalg import SparseMat, Support, Vec, add_scaled, integral, matvec, pruned, rational


def signed_perms(k: int) -> list[tuple[tuple[int, ...], int]]:
    """All permutations of range(k) with their signs, in itertools order."""
    return [(p, (-1) ** sum(a > b for a, b in itertools.combinations(p, 2)))
            for p in itertools.permutations(range(k))]


def splits(u: int, v: int, w: int) -> tuple[tuple[int, tuple[int, int], int], ...]:
    """The splits (c, (a, b), s) of an increasing key u < v < w, one per index c, a < b
    the other two: [e_a, e_b, e_c] is s times [e_u, e_v, e_w].  Every reader of a
    three-slot table at increasing pairs (:meth:`AltTable.pairs`) takes its signs here."""
    return (u, (v, w), 1), (v, (u, w), -1), (w, (u, v), 1)


class AltTable:
    """Alternating trilinear map (Q^dim)^3 -> Q^size.

    ``values`` holds the nonzero values on strictly increasing keys, and
    ``scale`` their least common denominator D (1 if there are none).  The
    map is held once, as numerators: every ordering of every stored key
    (its :func:`splits`, each pair both ways) is indexed in ``trie``, nested
    dicts whose leaves are signed int supports of D times the value, so a
    lookup on any ordered key is a few dict reads.  :meth:`get`,
    :meth:`partial` and :meth:`pairs` return numerators, and
    :meth:`basis_value` and :meth:`evaluate` divide by D.
    The trie is built on first use; loading pays for validation and D.
    """

    def __init__(self, dim: int, size: int, values: Mapping[tuple[int, ...], Vec], what: str) -> None:
        self.dim, self.size, self.what = dim, size, what
        self.values: dict[tuple[int, ...], Vec] = {}
        for key, value in values.items():
            if (len(key) != 3 or not 0 <= key[0] <= key[-1] < dim
                    or any(a >= b for a, b in zip(key, key[1:]))):
                raise DimensionMismatch(f"{what} key {key} is not strictly increasing in range")
            if value.n != size:  # len() fails past sys.maxsize
                raise DimensionMismatch(f"{what} value for {key} has the wrong length")
            if not value.is_zero():
                self.values[key] = value
        self.scale = math.lcm(*{a.denominator for v in self.values.values() for a in v.support.values()})

    @cached_property
    def trie(self) -> dict:
        trie: dict = {}
        for key, value in self.values.items():
            pos = integral(value.support, self.scale)
            neg = {t: -a for t, a in pos.items()}
            for c, (a, b), s in splits(*key):  # [e_b, e_a, e_c] is -[e_a, e_b, e_c]
                trie.setdefault(a, {}).setdefault(b, {})[c] = pos if s > 0 else neg
                trie.setdefault(b, {}).setdefault(a, {})[c] = neg if s > 0 else pos
        return trie

    def get(self, *idx: int) -> dict[int, int]:
        """Numerators of the value on basis vectors given in any order:
        ``scale`` times the value, as a signed int support.

        With two indices, ``scale`` times the sparse matrix of the last slot instead.
        """
        node = self.trie
        for i in idx:
            node = node.get(i)
            if node is None:
                return {}
        return node

    def partial(self, *args: Support) -> SparseMat:
        """Numerators of the last slot as a sparse matrix, the other slots
        fixed to ``args``: ``scale`` times it, with int values for int ``args``;
        read-only, as at basis vectors (one node reached, coefficient 1) it is
        that node of the trie, the leaf :meth:`get` returns."""
        level = [(self.trie, 1)]
        for x in args:
            level = [(node[i], c * xi) for node, c in level for i, xi in x.items() if i in node]
        if len(level) == 1 and level[0][1] == 1:
            return level[0][0]
        cols: dict[int, dict[int, Fraction]] = {}
        for node, c in level:
            for k, val in node.items():
                add_scaled(cols.setdefault(k, {}), c, val)
        return {k: s for k, col in cols.items() if (s := pruned(col))}

    def pairs(self, images: Sequence[Support]) -> dict[tuple[int, int], SparseMat]:
        """:meth:`partial` of a three-slot map at the pairs a < b of ``images``
        (basis images or a subspace basis) where it is nonzero: numerators.

        A pair left out contracts to 0, so callers read ``t.get((a, b), {})``;
        the map is alternating, so (b, a) is -(a, b) and (a, a) is 0.  Nothing is cached.
        """
        return {(a, b): val for a, b in itertools.combinations(range(len(images)), 2)
                if (val := self.partial(images[a], images[b]))}

    def basis_value(self, *idx: int) -> Vec:
        """The value on basis vectors given in any order: :meth:`get` over ``scale``."""
        return Vec.sparse(self.size, rational(self.get(*idx), self.scale))

    def evaluate(self, *args: Vec) -> Vec:
        """The multilinear map on arbitrary vectors: :meth:`partial` over ``scale``."""
        if any(len(x) != self.dim for x in args):
            raise DimensionMismatch(f"{self.what} arguments must match the algebra dimension")
        last = self.partial(*(x.support for x in args[:-1]))
        return Vec.sparse(self.size, rational(matvec(last, args[-1].support), self.scale))
