"""Per-layer reference points on the A4y + ... + L3 family and its T*-doubles.

A4y is the benchmark's Yau twist of A4 by the dense rotation R12 R23 R34
(cosine 3/5, sine 4/5).  The algebra of size n (7, 11, 15, ...) is (n - 3) / 4 copies
of A4y plus L3, with block-diagonal twist alpha.  Its theta is the
coboundary, for the coadjoint action, of the twist-commuting map
f = 2 alpha + I - alpha^2, and its T*-double is the dual-space extension
along theta, with the hyperbolic form.  The coadjoint action of the
family fails the representation identities, so its column counts
violations where the adjoint's reads 0.  The coboundary column builds
the coadjoint action and theta from f.  The t-theta extension column
extends the algebra along its adjoint action and the coboundary of f
for that action, built ahead, and reports the extension's violations.
The derivation extension extends
the algebra by D, the first basis vector of its grade-1 derivations, and
the one of a non-derivation by D + E_00, which fails the Leibniz rule.
The second ascending series column runs on the T*-double of N4 + the
algebra along theta = 0, whose ascending series has three terms.
The reconstruction takes the T*-double along a cyclic map (the
hyperbolic form is invariant only then), the cyclic part of the map
(i, j, k) -> ((i + j + k + 2 l) mod 5) - 2 at l, back to a dual-space
extension by its dual ideal.

Each layer is run REPEAT times in this process, or once when its first
run takes over SLOW seconds, each time on its algebras and cocycles built
anew, so that no trie, twisted action or projection carries over from one run to the
next; a cell is the median wall time in seconds, unscaled, so compare
only runs made on the same host.  A second table
gives each layer's violation total (for the coboundary the nonzero
entries of theta, for the derivation spaces and the inner derivations their
dimension, for the descending and the ascending central series the sum of
their term dimensions, for the reconstruction the nonzero entries of the
reconstructed theta, or -1 when its isometry check fails), which must
not depend on the code version: at the sizes
in ``TOTALS`` the script exits 1 when one
differs from the recorded value.  Run with
``PYTHONPATH`` pointing at any checkout's ``src`` to compare two versions:

    PYTHONPATH=src python3 scripts/reference_points.py [--sizes 7 11]
"""

import argparse
import statistics
import sys
import time
from functools import reduce
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hom3lie.algebras import Hom3LieAlgebra, direct_sum, increasing_triples, verify_hom_jacobi
from hom3lie.derivations import derivation_extension, derivation_space, inner_space
from hom3lie.extensions import (
    Cocycle,
    coboundary,
    cyclic_part,
    t_star_extension,
    t_theta_extension,
    verify_cocycle,
    verify_metric,
)
from hom3lie.fixtures import l3, n4
from hom3lie.linalg import Mat, Subspace, Vec
from hom3lie.representations import adjoint_rep, coadjoint_rep, verify_representation
from hom3lie.structure import reconstruct_t_star, series
from perfbench.inputs import yau_twisted_a4

COLUMNS = ("hom-Jacobi", "hom-Jacobi on T* (2n)", "adjoint rep. sweep", "coadjoint rep. sweep",
           "coboundary", "cocycle sweep", "t-theta extension", "metric on T*", "`derivation_space(k=0)`", "same on T*",
           "`inner_space(k=1)` on T*", "descending series on T*", "ascending series on T*",
           "ascending series on T* of N4 + the algebra, theta = 0",
           "derivation extension", "derivation extension of a non-derivation", "reconstruct on T*")
REPEAT = 3
SLOW = 1.0
# each column's violation total (coboundary: nonzero entries of theta; `derivation_space`
# and `inner_space` columns: dimension; series: the sum of the term dimensions;
# reconstruction: nonzero entries of theta), per size
TOTALS = {7: (0, 392, 0, 228, 16, 144, 0, 136, 8, 15, 6, 26, 2, 16, 114, 242, 132),
          11: (0, 784, 0, 456, 31, 288, 0, 262, 10, 17, 6, 42, 2, 16, 194, 386, 1192)}


def family(n: int) -> Hom3LieAlgebra:
    if n < 7 or (n - 3) % 4:
        raise SystemExit(f"size {n} is not 3 plus a positive multiple of 4")
    return reduce(direct_sum, [yau_twisted_a4()] * ((n - 3) // 4) + [l3()])


def nonzeros(th: Cocycle) -> int:
    """Counted on the stored numerators: no command builds the Fraction view, so no cell times it."""
    return sum(len(v) for v in th.alt.num.values())


def reconstructed_nonzeros(g: Hom3LieAlgebra, form, ideal: Subspace) -> int:
    """The nonzero entries of the reconstructed theta, or -1 when the
    reconstruction fails its isometry check."""
    res = reconstruct_t_star(g, form, ideal)
    return nonzeros(res.theta) if res.isometry_ok else -1


def layers(n: int) -> dict:
    """Each column's call, returning the number it reports as its violation
    total, and the inputs it takes."""
    L = family(n)
    alpha, one = L.twist, Mat.identity(n)
    f = alpha.scale(2) + one - alpha @ alpha
    theta = coboundary(L, coadjoint_rep(L), f)
    theta_ad = coboundary(L, adjoint_rep(L), f)
    tstar, form = t_star_extension(L, theta)
    d = derivation_space(L, 1).basis[0]
    e00 = Mat.from_rows([[int(r == c == 0) for c in range(n)] for r in range(n)])
    raw = {key: Vec(tuple((sum(key) + 2 * l) % 5 - 2 for l in range(n)))
           for key in increasing_triples(n)}
    double, double_form = t_star_extension(L, cyclic_part(Cocycle(n, n, raw)))
    dual = Subspace.span(2 * n, [Vec.basis(2 * n, n + i) for i in range(n)])
    n4_double, _ = t_star_extension(direct_sum(n4(), L), Cocycle.zero(n + 4, n + 4))
    return dict(zip(COLUMNS, (
        (lambda A: verify_hom_jacobi(A).violations_total, L),
        (lambda A: verify_hom_jacobi(A).violations_total, tstar),
        (lambda A: verify_representation(A, adjoint_rep(A)).violations_total, L),
        (lambda A: verify_representation(A, coadjoint_rep(A)).violations_total, L),
        (lambda A, g: nonzeros(coboundary(A, coadjoint_rep(A), g)), L, f),
        (lambda A, th: verify_cocycle(A, coadjoint_rep(A), th).violations_total, L, theta),
        (lambda A, th: t_theta_extension(A, adjoint_rep(A), th)[1].violations_total, L, theta_ad),
        (lambda A, B: verify_metric(A, B).violations_total, tstar, form),
        (lambda A: derivation_space(A, 0).dimension, L),
        (lambda A: derivation_space(A, 0).dimension, tstar),
        (lambda A: inner_space(A, 1).dimension, tstar),
        (lambda A: sum(t.dim for t in series(A, "central_descending").terms), tstar),
        (lambda A: sum(t.dim for t in series(A, "central_ascending").terms), tstar),
        (lambda A: sum(t.dim for t in series(A, "central_ascending").terms), n4_double),
        (lambda A, D: derivation_extension(A, D)[1].violations_total, L, d),
        (lambda A, D: derivation_extension(A, D)[1].violations_total, L, d + e00),
        (reconstructed_nonzeros, double, double_form, dual),
    )))


def cold(x):
    """An algebra, a cocycle or a subspace built anew, without the trie,
    twisted actions or projection that earlier calls left on it, as one
    CLI call loads it."""
    if isinstance(x, Hom3LieAlgebra):
        return Hom3LieAlgebra(x.dim, x.table, x.twist)
    if isinstance(x, Cocycle):
        return Cocycle(x.algebra_dim, x.module_dim, x.table)
    if isinstance(x, Subspace):
        return Subspace(x.ambient_dim, x.basis)
    return x


def measure(call, *inputs) -> tuple[float, int]:
    times, result = [], None
    for _ in range(REPEAT):
        args = [cold(x) for x in inputs]
        start = time.perf_counter()
        result = call(*args)
        times.append(time.perf_counter() - start)
        if times[0] > SLOW:
            break
    return statistics.median(times), result


def table(header: tuple[str, ...], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return "\n".join(lines + ["| " + " | ".join(row) + " |" for row in rows])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[7, 11])
    args = parser.parse_args()

    timings, results, moved = [], [], []
    for n in args.sizes:
        cells = [measure(*column) for column in layers(n).values()]
        timings.append([str(n)] + [f"{t:.4f}" for t, _ in cells])
        results.append([str(n)] + [str(r) for _, r in cells])
        moved += [f"n = {n}, {column}: {r}, recorded {want}"
                  for column, (_, r), want in zip(COLUMNS, cells, TOTALS.get(n, ()))
                  if r != want]
    print(f"seconds, median of {REPEAT} (one run when the first takes over {SLOW} s)")
    print(table(("n",) + COLUMNS, timings))
    print()
    print("violations total (the coboundary: nonzero entries of theta; the `derivation_space` "
          "and `inner_space` columns: dimension; the series: sum of the term dimensions; "
          "the reconstruction: nonzero entries of theta)")
    print(table(("n",) + COLUMNS, results))
    for line in moved:
        print("MOVED", line, file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
