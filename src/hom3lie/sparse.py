"""Sparse alternating multilinear maps over the exact rationals.

One type, :class:`AltTable`, backs every skew structure of the package,
each with three slots: the bracket of an algebra, a cocycle and a
representation (the [L, L, V] block of its semidirect bracket on L + V).
Values are stored on strictly increasing basis keys, as int numerators
over one scale; the full map is the unique alternating extension, so
skew-symmetry holds by construction.  Sparse values are plain dicts,
read-only once built: a *support* maps a coordinate to a nonzero number,
a *sparse matrix* a column index to a nonzero column support.  Evaluation
visits only stored values whose indices lie in the supports of the
arguments, so zero coordinates and zero structure constants cost nothing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import DimensionMismatch
from .linalg import SparseMat, Support, Vec, add_scaled, cleared, matvec, pruned, rational


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

    ``num`` holds the nonzero values on increasing keys as numerators, int supports of D times
    them, D = ``scale`` their least common denominator (1 if none); ``values``, as Fraction Vecs, is
    a view built on first read.  ``trie``, built on first use, indexes every ordering of every key
    (its :func:`splits`, each pair both ways) in nested dicts whose leaves are the numerators and
    their negations.  :meth:`get`, :meth:`partial` and :meth:`pairs` return numerators, and
    :meth:`evaluate` divides by D.
    """

    def __init__(self, dim: int, size: int, num: Mapping[tuple, dict], scale: int, what: str) -> None:
        """Numerators ``num`` (valid keys, read-only supports) over a positive ``scale``, both divided by
        their gcd g, which leaves D: any common denominator is D times the gcd of it and D's numerators."""
        g = math.gcd(scale, *itertools.chain(*map(dict.values, num.values()))) if scale > 1 else 1
        self.dim, self.size, self.what, self.scale = dim, size, what, scale // g
        self.num = {key: value if g == 1 else {i: a // g for i, a in value.items()}
                    for key, value in num.items() if value}

    @staticmethod
    def of(dim: int, size: int, table, what: str) -> "AltTable":
        """The map of a ``table`` as :class:`Tabled` takes it: a pair (numerators, scale), or Vecs."""
        if type(table) is tuple:
            return AltTable(dim, size, *table, what)
        for key, value in table.items():
            if len(key) != 3 or not 0 <= key[0] < key[1] < key[2] < dim:
                raise DimensionMismatch(f"{what} key {key} is not strictly increasing in range")
            if value.n != size:  # len() fails past sys.maxsize
                raise DimensionMismatch(f"{what} value for {key} has the wrong length")
        return AltTable(dim, size, *numerators({key: value.support for key, value in table.items()}), what)

    @cached_property
    def values(self) -> dict[tuple[int, ...], Vec]:
        return {key: Vec.sparse(self.size, rational(value, self.scale)) for key, value in self.num.items()}

    @cached_property
    def trie(self) -> dict:
        trie: dict = {}
        for key, pos in self.num.items():
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

    def evaluate(self, *args: Vec) -> Vec:
        """The multilinear map on arbitrary vectors: :meth:`partial` over ``scale``."""
        if any(len(x) != self.dim for x in args):
            raise DimensionMismatch(f"{self.what} arguments must match the algebra dimension")
        last = self.partial(*(x.support for x in args[:-1]))
        return Vec.sparse(self.size, rational(matvec(last, args[-1].support), self.scale))


def numerators(table: Mapping[tuple[int, ...], Support]) -> tuple[dict[tuple[int, ...], dict[int, int]], int]:
    """Supports as int numerators over one scale, the lcm of all their denominators (:func:`cleared`)."""
    (nums,), scale = cleared(list(table.values()))
    return dict(zip(table, nums)), scale


def summed(*parts: tuple[AltTable, int, int]) -> tuple[dict[tuple[int, ...], dict[int, int]], int]:
    """The numerators of the sum of the maps of ``parts`` (alt, s, t), each with its keys moved
    s up and its indices t up, over the lcm of their scales; keys in order of first appearance."""
    scale, num = math.lcm(*(alt.scale for alt, _, _ in parts)), {}
    for alt, s, t in parts:
        for key, value in alt.num.items():
            add_scaled(num.setdefault(tuple(k + s for k in key), {}), scale // alt.scale,
                       {i + t: a for i, a in value.items()})
    return {key: pruned(value) for key, value in num.items()}, scale


class Tabled:
    """Dataclasses over an AltTable ``alt`` built from their ``table``, which then reads ``alt.values``."""

    def __getattr__(self, name: str):
        if name == "table" and "alt" in self.__dict__:
            return self.__dict__["alt"].values
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
