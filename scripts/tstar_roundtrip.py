"""Round-trip experiment: random cyclic cocycles through the dual-space extension.

For each base algebra, draw random trilinear maps into the dual space,
project onto the class satisfying the cyclic pairing identity, build
the extension with its hyperbolic form, and reconstruct the extension
data back from the metric algebra.

Usage: python scripts/tstar_roundtrip.py [--seed N] [--samples N]

Exits 1 when any sample is not an exact round trip.
"""

import argparse
import random

from hom3lie.algebras import increasing_triples
from hom3lie.extensions import Cocycle, cyclic_part, t_star_extension, theta_cyclic_ok, verify_metric
from hom3lie.fixtures import catalog
from hom3lie.linalg import Subspace, Vec
from hom3lie.structure import reconstruct_t_star


def random_theta(rng: random.Random, n: int) -> Cocycle:
    table = {}
    for key in increasing_triples(n):
        v = Vec.of(*[rng.randint(-3, 3) for _ in range(n)])
        if not v.is_zero():
            table[key] = v
    return Cocycle(n, n, table)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=5)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    exact = True

    for name, alg in catalog().items():
        n = alg.dim
        dual = Subspace.span(2 * n, [Vec.basis(2 * n, n + i) for i in range(n)])
        recovered = 0
        nonzero = 0
        for _ in range(args.samples):
            theta = cyclic_part(random_theta(rng, n))
            assert theta_cyclic_ok(alg, theta)
            if theta.table:
                nonzero += 1
            ext, q = t_star_extension(alg, theta)
            metric = verify_metric(ext, q)
            result = reconstruct_t_star(ext, q, dual)
            if result.isometry_ok and result.theta.table == theta.table:
                recovered += 1
            assert metric.metric_ok
        print(
            f"{name}: {recovered}/{args.samples} exact round trips"
            f" ({nonzero} with a nonzero cocycle)"
        )
        exact = exact and recovered == args.samples
    return 0 if exact else 1


if __name__ == "__main__":
    raise SystemExit(main())
