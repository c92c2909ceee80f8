"""Seeded inputs and job lists for the benchmark workloads.

Every workload is a fixed list of ``hom3lie`` command lines over JSON
files written here.  The seed selects one of ``VARIANTS`` input
variants.  A variant draws the cocycles theta, the maps f whose
coboundaries are taken, and the order of the jobs; every algebra
dimension, every twist and every command stays the same, so two seeds
give work of the same shape and a claim can be re-checked on a seed
that was not used while making it.

Algebras used:

- ``A4`` and ``L3``: the bundled fixtures, identity twist;
- ``A4y``: the Yau twist of A4, bracket alpha o [.,.,.] with twist
  alpha = R12 R23 R34, each R a plane rotation with cosine 3/5 and
  sine 4/5, so alpha is dense;
- direct sums of these, named like ``A4+A4+L3``;
- T*-doubles ``tstar-<base>``, the dual-space extension of a base
  along a cocycle.

The base algebras are re-verified with the library before use, and
every job records the exit code its construction implies, failing
ones included.  Values are drawn from nonzero integers so that the
sparsity of theta and f, and with it the cost, does not depend on the
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from pathlib import Path

from hom3lie.algebras import (
    Hom3LieAlgebra,
    direct_sum,
    increasing_triples,
    verify_hom_jacobi,
    verify_multiplicative,
)
from hom3lie.extensions import (
    BilinForm,
    Cocycle,
    coboundary,
    cyclic_part,
    t_star_extension,
    theta_cyclic_ok,
)
from hom3lie.fixtures import a4, l3
from hom3lie.io import (
    algebra_to_dict,
    cocycle_to_dict,
    form_to_dict,
    subspace_to_dict,
    write_json,
)
from hom3lie.linalg import Mat, Subspace, Vec
from hom3lie.representations import adjoint_rep, coadjoint_rep

VARIANTS = 32

_COS = Fraction(3, 5)
_SIN = Fraction(4, 5)
_NONZERO = (-3, -2, -1, 1, 2, 3)


@dataclass(frozen=True)
class Job:
    """One command line, the exit code it must give and the paths it writes."""

    id: str
    argv: tuple[str, ...]
    expect_exit: int
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """The jobs of one workload variant and every input file they read."""

    name: str
    variant: int
    jobs: tuple[Job, ...]
    inputs: tuple[tuple[str, str], ...]


class GenerationError(RuntimeError):
    """A generated input failed its own re-verification."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise GenerationError(what)


def _rotation(i: int, j: int) -> Mat:
    rows = [[Fraction(int(r == c)) for c in range(4)] for r in range(4)]
    rows[i][i] = rows[j][j] = _COS
    rows[i][j], rows[j][i] = -_SIN, _SIN
    return Mat.from_rows(rows, cols=4)


def yau_twisted_a4() -> Hom3LieAlgebra:
    """A4 with bracket alpha o [.,.,.] and twist alpha = R12 R23 R34."""
    alpha = _rotation(0, 1) @ _rotation(1, 2) @ _rotation(2, 3)
    return Hom3LieAlgebra(4, {key: alpha.apply(v) for key, v in a4().table.items()}, alpha)


def _verified_bases() -> dict[str, Hom3LieAlgebra]:
    bases = {"A4": a4(), "L3": l3(), "A4y": yau_twisted_a4()}
    for name, alg in bases.items():
        _require(bool(verify_hom_jacobi(alg).hom_jacobi_ok), f"{name} fails hom-Jacobi")
        _require(bool(verify_multiplicative(alg).multiplicative_ok),
                 f"{name} is not multiplicative")
    return bases


def _nonzero(rng: random.Random) -> int:
    return rng.choice(_NONZERO)


def _commuting_map(rng: random.Random, alg: Hom3LieAlgebra) -> Mat:
    """A seeded map commuting with the twist.

    Any map commutes with the identity; otherwise a polynomial in alpha.
    """
    n = alg.dim
    alpha = alg.twist
    if alpha == Mat.identity(n):
        f = Mat.from_rows([[_nonzero(rng) for _ in range(n)] for _ in range(n)], cols=n)
    else:
        f = (alpha.scale(_nonzero(rng)) + Mat.identity(n).scale(_nonzero(rng))
             + (alpha @ alpha).scale(_nonzero(rng)))
    _require(f @ alpha == alpha @ f, "seeded map does not commute with the twist")
    return f


def _cyclic_cocycle(rng: random.Random, alg: Hom3LieAlgebra) -> Cocycle:
    """``cyclic_part`` of a seeded map L^3 -> L* with full support."""
    n = alg.dim
    raw = Cocycle(n, n, {key: Vec.of(*(_nonzero(rng) for _ in range(n)))
                         for key in increasing_triples(n)})
    theta = cyclic_part(raw)
    _require(bool(theta.table), "cyclic projection vanished")
    _require(theta_cyclic_ok(alg, theta), "cyclic projection is not cyclic")
    return theta


class _InputDir:
    """Writes input files under one directory and lists them."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.items: list[tuple[str, str]] = []
        root.mkdir(parents=True, exist_ok=True)

    def _write(self, kind: str, name: str, payload: dict) -> str:
        path = str(self.root / f"{name}.json")
        if (kind, path) not in self.items:
            write_json(path, payload)
            self.items.append((kind, path))
        return path

    def algebra(self, name: str, alg: Hom3LieAlgebra) -> str:
        return self._write("algebra", name, algebra_to_dict(alg))

    def cocycle(self, name: str, theta: Cocycle, algebra_name: str) -> str:
        return self._write("cocycle", name, cocycle_to_dict(theta, f"{algebra_name}.json"))

    def form(self, name: str, form: BilinForm) -> str:
        return self._write("form", name, form_to_dict(form))

    def subspace(self, name: str, s: Subspace) -> str:
        return self._write("subspace", name, subspace_to_dict(s))


def _sum(bases: dict[str, Hom3LieAlgebra], name: str) -> Hom3LieAlgebra:
    return reduce(direct_sum, (bases[part] for part in name.split("+")))


def _verify_sweep(rng: random.Random, bases: dict, files: _InputDir) -> list[Job]:
    # Direct sums take the accept path; the T*-double of A4y fails
    # hom-Jacobi, so its sweep counts every violation (reject path).
    jobs = []
    for name in ("A4+L3", "A4y+L3", "A4+A4", "A4+A4+L3"):
        path = files.algebra(name, _sum(bases, name))
        jobs.append(Job(f"verify:{name}", ("--json", "verify", path), 0))
    for name, expect in (("A4", 0), ("A4y", 1)):
        base = bases[name]
        theta = coboundary(base, coadjoint_rep(base), _commuting_map(rng, base))
        tstar, _ = t_star_extension(base, theta)
        path = files.algebra(f"tstar-{name}", tstar)
        jobs.append(Job(f"verify:tstar-{name}", ("--json", "verify", path), expect))
    return jobs


def _derivations_solve(rng: random.Random, bases: dict, files: _InputDir) -> list[Job]:
    # Identity and dense twists at each size: the dense twist shifts the
    # time from building the system to eliminating it.
    cases = (
        ("A4+L3", 0, False), ("A4+L3", 1, True),
        ("A4y+L3", 0, False), ("A4y+L3", 1, True),
        ("A4+A4", 1, False),
        ("A4+A4+L3", 0, False), ("A4y+A4y+L3", 0, False),
    )
    jobs = []
    for name, k, inner in cases:
        path = files.algebra(name, _sum(bases, name))
        argv = ("--json", "derivations", path, "--k", str(k))
        outputs: tuple[str, ...] = ()
        if inner:
            out = f"out/derivations-k{k}-{name}.json"
            argv += ("--inner", "--output", out)
            outputs = (out,)
        jobs.append(Job(f"derivations-k{k}{'-inner' if inner else ''}:{name}", argv, 0, outputs))
    return jobs


def _reconstruct_metric(rng: random.Random, bases: dict, files: _InputDir) -> list[Job]:
    # metric and series on dims 14 and 16; reconstruct also on dim 20,
    # the largest input and the scaling tail.
    jobs = []
    for name in ("A4y+L3", "A4+A4", "A4+L3+L3"):
        base = _sum(bases, name)
        n = base.dim
        tstar, form = t_star_extension(base, _cyclic_cocycle(rng, base))
        alg = files.algebra(f"tstar-{name}", tstar)
        gram = files.form(f"hyperbolic-{2 * n}", form)
        ideal = files.subspace(
            f"dual-{2 * n}", Subspace.span(2 * n, [Vec.basis(2 * n, n + i) for i in range(n)])
        )
        out = f"out/reconstruct-{name}"
        argv = ("--json", "reconstruct", alg, gram, ideal, "--output-dir", out)
        jobs.append(Job(f"reconstruct:{name}", argv, 0, (out,)))
        if n < 10:
            jobs += [
                Job(f"metric:{name}", ("--json", "metric", alg, gram), 0),
                Job(f"series:{name}", ("--json", "series", alg, "--kind", "descending"), 0),
            ]
    return jobs


def _extend_check(rng: random.Random, bases: dict, files: _InputDir) -> list[Job]:
    # t-theta sweeps the representation (n^4) and cocycle (n^5)
    # identities before the hom-Jacobi sweep of the extension; the
    # T*-double of A4y fails hom-Jacobi.
    jobs = []
    for name, tstar_exit in (("A4", 0), ("A4y", 1)):
        base = bases[name]
        path = files.algebra(name, base)
        theta = coboundary(base, adjoint_rep(base), _commuting_map(rng, base))
        th_path = files.cocycle(f"theta-adjoint-{name}", theta, name)
        out = f"out/t-theta-{name}.json"
        jobs.append(Job(f"t-theta:{name}",
                        ("--json", "extend", "t-theta", path, "adjoint", th_path, "--output", out),
                        0, (out,)))
        theta = coboundary(base, coadjoint_rep(base), _commuting_map(rng, base))
        th_path = files.cocycle(f"theta-coadjoint-{name}", theta, name)
        argv = ("--json", "extend", "t-star", path, th_path)
        jobs.append(Job(f"t-star:{name}", argv, tstar_exit))
    return jobs


JOB_LISTS = {
    "verify-sweep": _verify_sweep,
    "derivations-solve": _derivations_solve,
    "reconstruct-metric": _reconstruct_metric,
    "extend-check": _extend_check,
}


def build(workload: str, seed: int, root: Path) -> Workload:
    """Write the inputs of ``workload`` for ``seed`` under ``root``."""
    variant = seed % VARIANTS
    rng = random.Random(f"{workload}/{variant}")
    files = _InputDir(root)
    jobs = JOB_LISTS[workload](rng, _verified_bases(), files)
    rng.shuffle(jobs)
    return Workload(workload, variant, tuple(jobs), tuple(files.items))
