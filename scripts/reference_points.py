"""Per-layer reference points on the A4y + ... + L3 family and its T*-doubles.

A4y is the benchmark's Yau twist of A4 by the dense rotation R12 R23 R34
(cosine 3/5, sine 4/5).  The algebra of size n (7, 11, 15, ...) is (n - 3) / 4 copies
of A4y plus L3, with block-diagonal twist alpha.  Its theta is the
coboundary, for the coadjoint action, of the twist-commuting map
f = 2 alpha + I - alpha^2, and its T*-double is the dual-space extension
along theta, with the hyperbolic form.  The derivation extension extends
the algebra by D, the first basis vector of its grade-1 derivations.

Each layer is run REPEAT times in this process, or once when its first
run takes over SLOW seconds; a cell is the median wall time in seconds,
unscaled, so compare only runs made on the same host.  A second table
gives each layer's violation total (for the derivation spaces their
dimension, for the descending central series the sum of its term
dimensions), which must not depend on the code version: at the sizes
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

from hom3lie.algebras import Hom3LieAlgebra, direct_sum, verify_hom_jacobi
from hom3lie.derivations import derivation_extension, derivation_space
from hom3lie.extensions import coboundary, t_star_extension, verify_cocycle, verify_metric
from hom3lie.fixtures import l3
from hom3lie.linalg import Mat
from hom3lie.representations import adjoint_rep, coadjoint_rep, verify_representation
from hom3lie.structure import series
from perfbench.inputs import yau_twisted_a4

COLUMNS = ("hom-Jacobi", "hom-Jacobi on T* (2n)", "adjoint rep. sweep", "cocycle sweep",
           "metric on T*", "`derivation_space(k=0)`", "same on T*", "descending series on T*",
           "derivation extension")
REPEAT = 3
SLOW = 1.0
# each column's violation total (`derivation_space` columns: dimension; series: the sum of
# the term dimensions), per size
TOTALS = {7: (0, 392, 0, 144, 136, 8, 15, 26, 114), 11: (0, 784, 0, 288, 262, 10, 17, 42, 194)}


def family(n: int) -> Hom3LieAlgebra:
    if n < 7 or (n - 3) % 4:
        raise SystemExit(f"size {n} is not 3 plus a positive multiple of 4")
    return reduce(direct_sum, [yau_twisted_a4()] * ((n - 3) // 4) + [l3()])


def layers(n: int) -> dict:
    """Each column's call, returning the number it reports as its violation total."""
    L = family(n)
    alpha, one = L.twist, Mat.identity(n)
    f = alpha.scale(2) + one - alpha @ alpha
    theta = coboundary(L, coadjoint_rep(L), f)
    tstar, form = t_star_extension(L, theta)
    d = derivation_space(L, 1).basis[0]
    return dict(zip(COLUMNS, (
        lambda: verify_hom_jacobi(L).violations_total,
        lambda: verify_hom_jacobi(tstar).violations_total,
        lambda: verify_representation(L, adjoint_rep(L)).violations_total,
        lambda: verify_cocycle(L, coadjoint_rep(L), theta).violations_total,
        lambda: verify_metric(tstar, form).violations_total,
        lambda: derivation_space(L, 0).dimension,
        lambda: derivation_space(tstar, 0).dimension,
        lambda: sum(t.dim for t in series(tstar, "central_descending").terms),
        lambda: derivation_extension(L, d)[1].violations_total,
    )))


def measure(call) -> tuple[float, int]:
    times, result = [], None
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = call()
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
        cells = [measure(call) for call in layers(n).values()]
        timings.append([str(n)] + [f"{t:.4f}" for t, _ in cells])
        results.append([str(n)] + [str(r) for _, r in cells])
        moved += [f"n = {n}, {column}: {r}, recorded {want}"
                  for column, (_, r), want in zip(COLUMNS, cells, TOTALS.get(n, ()))
                  if r != want]
    print(f"seconds, median of {REPEAT} (one run when the first takes over {SLOW} s)")
    print(table(("n",) + COLUMNS, timings))
    print()
    print("violations total (the two `derivation_space` columns: dimension; the series: "
          "sum of the term dimensions)")
    print(table(("n",) + COLUMNS, results))
    for line in moved:
        print("MOVED", line, file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
